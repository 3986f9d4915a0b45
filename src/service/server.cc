#include "service/server.hh"

#include "common/logging.hh"
#include "service/frame.hh"

namespace cisa
{

Server::Server(const Options &opts)
    : opts_(opts),
      wireCap_(size_t(opts.cacheEntries)),
      exec_(std::make_unique<Executor>(cachingOptions(opts.exec))),
      listener_("cisa-serve", exec_->metrics(),
                [this](int fd, const Request &req, uint32_t deadline_ms,
                       const std::vector<uint8_t> &reqWire) {
                    return answer(fd, req, deadline_ms, reqWire);
                })
{
    panic_if(opts.cacheEntries < 0 || opts.maxConns < 1,
             "server needs a cache size >= 0 and a connection cap");
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *err)
{
    if (!listener_.start(opts_.address, opts_.maxConns, err))
        return false;
    inform("cisa-serve listening on %s", boundAddress().c_str());
    return true;
}

void
Server::waitUntilStopped()
{
    listener_.waitForStop();
    stop();
}

void
Server::stop()
{
    if (!listener_.stopAccepting())
        return;
    // Drain queued and in-flight work; connection threads keep
    // answering (new submissions get BUSY) until clients see their
    // final responses.
    exec_->drain();
    listener_.closeConnections();
    inform("cisa-serve stopped (%s)", boundAddress().c_str());
}

Executor::Options
Server::cachingOptions(Executor::Options eo)
{
    // Runs on a dispatcher before the executor retires the job, so
    // the frame is cached while twins can still coalesce with it.
    eo.handler = [this, compute = std::move(eo.handler)](
                     const Request &req, CancelToken &token) {
        Response resp = compute(req, token);
        if (resp.status == Status::Ok && req.cacheable() &&
            wireCap_ > 0) {
            ByteWriter w;
            resp.encode(w);
            cacheWire(req.fingerprint(),
                      std::make_shared<const std::vector<uint8_t>>(
                          encodeFrame(FrameKind::Response, w.take())));
        }
        return resp;
    };
    return eo;
}

std::shared_ptr<const std::vector<uint8_t>>
Server::cachedWire(uint64_t key)
{
    auto it = wireIdx_.find(key);
    if (it == wireIdx_.end())
        return nullptr;
    wire_.splice(wire_.begin(), wire_, it->second);
    return it->second->second;
}

void
Server::cacheWire(uint64_t key, WirePtr wire)
{
    std::lock_guard<std::mutex> lk(wireMu_);
    auto it = wireIdx_.find(key);
    if (it != wireIdx_.end()) {
        // Already cached: the same bytes (the fingerprint is exact
        // and responses are deterministic).
        wire_.splice(wire_.begin(), wire_, it->second);
        return;
    }
    wire_.emplace_front(key, std::move(wire));
    wireIdx_[key] = wire_.begin();
    while (wire_.size() > wireCap_) {
        wireIdx_.erase(wire_.back().first);
        wire_.pop_back();
    }
}

bool
Server::answer(int fd, const Request &req, uint32_t deadline_ms,
               const std::vector<uint8_t> &reqWire)
{
    EndpointMetrics &m = exec_->metrics().at(req.type);
    m.bytesIn.fetch_add(reqWire.size(), std::memory_order_relaxed);
    if (!req.cacheable() || wireCap_ == 0)
        return reply(fd, m, exec_->call(req, deadline_ms));

    // Look up and submit under one lock (see the file comment).
    uint64_t key = req.fingerprint();
    WirePtr hit;
    Executor::JobPtr job;
    {
        std::lock_guard<std::mutex> lk(wireMu_);
        hit = cachedWire(key);
        if (!hit)
            job = exec_->submit(req, deadline_ms);
    }
    if (!hit)
        return reply(fd, m, exec_->wait(job, deadline_ms));

    // A hit is answered with the previously encoded response frame,
    // skipping the executor round-trip and the checksum pass.
    m.requests.fetch_add(1, std::memory_order_relaxed);
    m.ok.fetch_add(1, std::memory_order_relaxed);
    m.cacheHits.fetch_add(1, std::memory_order_relaxed);
    if (exec_->draining()) {
        // Served while draining: the same body, marked stale in the
        // status byte, so the frame is built anew.
        Response resp;
        ByteReader r(hit->data() + kFrameHeaderBytes,
                     hit->size() - kFrameHeaderBytes);
        panic_if(!Response::decode(r, &resp),
                 "undecodable cached response");
        resp.stale = true;
        m.stale.fetch_add(1, std::memory_order_relaxed);
        return reply(fd, m, resp);
    }
    m.bytesOut.fetch_add(hit->size(), std::memory_order_relaxed);
    return writeWire(fd, *hit);
}

bool
Server::reply(int fd, EndpointMetrics &m, const Response &resp)
{
    ByteWriter w;
    resp.encode(w);
    std::vector<uint8_t> out =
        encodeFrame(FrameKind::Response, w.take());
    m.bytesOut.fetch_add(out.size(), std::memory_order_relaxed);
    return writeWire(fd, out);
}

} // namespace cisa
