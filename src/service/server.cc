#include "service/server.hh"

#include "common/logging.hh"
#include "service/frame.hh"

namespace cisa
{

Server::Server(const Options &opts)
    : opts_(opts), exec_(std::make_unique<Executor>(opts.exec)),
      wireCap_(exec_->cacheCapacity()),
      listener_("cisa-serve", exec_->metrics(),
                [this](int fd, const Request &req, uint32_t deadline_ms,
                       const std::vector<uint8_t> &reqWire) {
                    return answer(fd, req, deadline_ms, reqWire);
                })
{}

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

std::shared_ptr<const std::vector<uint8_t>>
Server::cachedWire(uint64_t key)
{
    std::lock_guard<std::mutex> lk(wireMu_);
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
        // A concurrent miss already filled it (same bytes — the
        // fingerprint is exact and responses are deterministic).
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

    // Wire-cache fast path: answer a repeat cacheable request with
    // the previously encoded response frame, skipping the executor
    // round-trip and the checksum pass. Bypassed while draining so
    // shutdown-time hits are marked stale and misses see BUSY.
    uint64_t key = 0;
    bool mayCache =
        req.cacheable() && wireCap_ > 0 && !exec_->draining();
    if (mayCache) {
        key = req.fingerprint();
        if (WirePtr hit = cachedWire(key)) {
            m.requests.fetch_add(1, std::memory_order_relaxed);
            m.ok.fetch_add(1, std::memory_order_relaxed);
            m.cacheHits.fetch_add(1, std::memory_order_relaxed);
            m.bytesOut.fetch_add(hit->size(),
                                 std::memory_order_relaxed);
            return writeWire(fd, *hit);
        }
    }

    Response resp = exec_->call(req, deadline_ms);
    ByteWriter w;
    resp.encode(w);
    auto out = std::make_shared<const std::vector<uint8_t>>(
        encodeFrame(FrameKind::Response, w.take()));
    if (mayCache && resp.status == Status::Ok && !resp.stale)
        cacheWire(key, out);
    m.bytesOut.fetch_add(out->size(), std::memory_order_relaxed);
    return writeWire(fd, *out);
}

} // namespace cisa
