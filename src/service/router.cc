#include "service/router.hh"

#include <algorithm>
#include <chrono>

#include <unistd.h>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "service/address.hh"
#include "service/frame.hh"
#include "service/request.hh"

namespace cisa
{

namespace
{

/** Idle pooled connections kept per worker. */
constexpr size_t kPoolConns = 4;

int64_t
steadyNowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Router::Router(const Options &opts)
    : opts_(opts),
      listener_("cisa-router", metrics_,
                [this](int fd, const Request &req, uint32_t deadline_ms,
                       const std::vector<uint8_t> &reqWire) {
                    return answer(fd, req, deadline_ms, reqWire);
                })
{
    panic_if(opts.replicas < 1 || opts.healthMs < 1 || opts.maxConns < 1,
             "router needs a replica, a health period and a connection "
             "cap");
    ring_ = ShardRing(opts_.workers);
    // Worker slots must line up with ring indices, so build them
    // from the ring's canonicalized (sorted, deduped) address list.
    for (const std::string &a : ring_.workers()) {
        auto w = std::make_unique<Worker>();
        w->addr = a;
        workers_.push_back(std::move(w));
    }
}

Router::~Router()
{
    stop();
}

bool
Router::start(std::string *err)
{
    if (workers_.empty()) {
        if (err)
            *err = "router needs at least one worker";
        return false;
    }
    if (!listener_.start(opts_.address, opts_.maxConns, err))
        return false;
    health_ = std::thread([this] { healthLoop(); });
    inform("cisa-router listening on %s (%zu workers, R=%d)",
           boundAddress().c_str(), workers_.size(), opts_.replicas);
    return true;
}

void
Router::waitUntilStopped()
{
    listener_.waitForStop();
    stop();
}

void
Router::stop()
{
    if (!listener_.stopAccepting())
        return;
    {
        std::lock_guard<std::mutex> lk(healthMu_);
        healthStop_ = true;
    }
    healthCv_.notify_all();
    health_.join();
    listener_.closeConnections();
    for (auto &w : workers_) {
        std::lock_guard<std::mutex> lk(w->mu);
        for (int fd : w->pool)
            ::close(fd);
        w->pool.clear();
    }
    inform("cisa-router stopped (%s)", boundAddress().c_str());
}

bool
Router::answer(int fd, const Request &req, uint32_t deadline_ms,
               const std::vector<uint8_t> &reqWire)
{
    if (req.type == ReqType::Stats) {
        // Answered by the router: the fleet roll-up, not any single
        // worker's view.
        Response resp;
        ByteWriter body;
        fleetStats().encode(body);
        resp.body = body.take();
        ByteWriter w;
        resp.encode(w);
        return writeFrame(fd, FrameKind::Response, w.take());
    }
    // One relay buffer per connection (each runs on its own thread):
    // a ~141 KiB slab response is past glibc's mmap threshold, so a
    // fresh buffer per request would cost an mmap/munmap pair.
    thread_local std::vector<uint8_t> respWire;
    forward(req, deadline_ms, reqWire, &respWire);
    return writeWire(fd, respWire);
}

std::pair<int, bool>
Router::borrowConn(Worker &w, std::string *err)
{
    {
        std::lock_guard<std::mutex> lk(w.mu);
        if (!w.pool.empty()) {
            int fd = w.pool.back();
            w.pool.pop_back();
            return {fd, true};
        }
    }
    return {connectTo(w.addr, err), false};
}

void
Router::returnConn(Worker &w, int fd)
{
    std::lock_guard<std::mutex> lk(w.mu);
    if (w.pool.size() < kPoolConns) {
        w.pool.push_back(fd);
        return;
    }
    ::close(fd);
}

bool
Router::exchange(size_t wi, const std::vector<uint8_t> &reqWire,
                 std::vector<uint8_t> *respWire)
{
    Worker &w = *workers_[wi];
    std::string err;
    auto attempt = [&](int fd) {
        if (!writeWire(fd, reqWire))
            return false;
        FrameKind kind;
        return readFrameWire(fd, respWire, &kind, &err, false) ==
                   FrameRead::Ok &&
               kind == FrameKind::Response;
    };
    auto [fd, pooled] = borrowConn(w, &err);
    if (fd >= 0) {
        if (attempt(fd)) {
            returnConn(w, fd);
            markUp(w);
            return true;
        }
        ::close(fd);
        if (pooled) {
            // The pooled fd may simply have been closed under us
            // (worker restart, idle timeout): one fresh retry
            // before declaring the worker down.
            fd = connectTo(w.addr, &err);
            if (fd >= 0) {
                if (attempt(fd)) {
                    returnConn(w, fd);
                    markUp(w);
                    return true;
                }
                ::close(fd);
            }
        }
    }
    if (w.up.exchange(false, std::memory_order_relaxed)) {
        downMarks_.fetch_add(1, std::memory_order_relaxed);
        warn("cisa-router: worker %s down (%s)", w.addr.c_str(),
             err.c_str());
    }
    return false;
}

void
Router::markUp(Worker &w)
{
    // The load keeps the common case (already up) free of a
    // read-modify-write; the exchange makes each rejoin count once
    // when a relay and the health thread race to it.
    if (w.up.load(std::memory_order_relaxed) ||
        w.up.exchange(true, std::memory_order_relaxed))
        return;
    rejoins_.fetch_add(1, std::memory_order_relaxed);
    inform("cisa-router: worker %s is back", w.addr.c_str());
}

void
Router::forward(const Request &req, uint32_t deadline_ms,
                const std::vector<uint8_t> &reqWire,
                std::vector<uint8_t> *respWire)
{
    const int64_t arrivalMs = steadyNowMs();
    std::vector<size_t> owners =
        ring_.ownersOf(req.routingKey(), opts_.replicas);

    // Cacheable (slab-affine) requests rotate across the replica
    // set so a hot slab is served warm by R workers. Non-cacheable
    // requests have no warmth to preserve, so they round-robin over
    // the whole fleet instead of piling onto one hash-chosen
    // primary.
    std::vector<size_t> cand;
    cand.reserve(workers_.size());
    if (req.cacheable() && owners.size() > 1) {
        size_t start = rr_.fetch_add(1, std::memory_order_relaxed) %
                       owners.size();
        for (size_t i = 0; i < owners.size(); i++)
            cand.push_back(owners[(start + i) % owners.size()]);
    } else if (!req.cacheable() && workers_.size() > 1) {
        size_t start = rr_.fetch_add(1, std::memory_order_relaxed) %
                       workers_.size();
        for (size_t i = 0; i < workers_.size(); i++)
            cand.push_back((start + i) % workers_.size());
    } else {
        cand = owners;
    }
    // Failover tail: every remaining worker, so a request survives
    // as long as *any* worker lives (the shared slab store lets a
    // non-owner adopt the slab instead of diverging).
    for (size_t wi = 0; wi < workers_.size(); wi++) {
        if (std::find(cand.begin(), cand.end(), wi) == cand.end())
            cand.push_back(wi);
    }

    size_t firstChoice = cand[0];
    bool sawBusy = false;
    std::vector<uint8_t> busyWire, budgetWire;
    // Pass 0 trusts the up flags; pass 1 retries flagged-down
    // workers in case the flag is stale and nobody else answered.
    for (int pass = 0; pass < 2; pass++) {
        for (size_t wi : cand) {
            bool up = workers_[wi]->up.load(std::memory_order_relaxed);
            if (pass == 0 ? !up : up)
                continue;
            // Deadline propagation: each attempt forwards only the
            // budget that remains after time already burned here; a
            // spent budget is shed before touching another worker.
            const std::vector<uint8_t> *wire = &reqWire;
            if (deadline_ms > 0) {
                int64_t elapsed = steadyNowMs() - arrivalMs;
                if (elapsed >= int64_t(deadline_ms)) {
                    deadlineShed_.fetch_add(
                        1, std::memory_order_relaxed);
                    ByteWriter w;
                    Response::fail(Status::Deadline,
                                   "budget spent in router")
                        .encode(w);
                    *respWire =
                        encodeFrame(FrameKind::Response, w.take());
                    return;
                }
                budgetWire = encodeFrame(
                    FrameKind::Request,
                    encodeRequestEnvelope(
                        req, deadline_ms - uint32_t(elapsed)));
                wire = &budgetWire;
            }
            if (!exchange(wi, *wire, respWire))
                continue;
            if (respWire->size() > kFrameHeaderBytes &&
                (*respWire)[kFrameHeaderBytes] ==
                    uint8_t(Status::Busy)) {
                // This worker is shedding load; give another
                // replica a chance, keep the BUSY answer in case
                // the whole fleet is saturated.
                sawBusy = true;
                busyWire = std::move(*respWire);
                continue;
            }
            if (wi != firstChoice)
                reroutes_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    if (sawBusy) {
        *respWire = std::move(busyWire);
        return;
    }
    ByteWriter w;
    Response::fail(Status::Error, "no worker reachable").encode(w);
    *respWire = encodeFrame(FrameKind::Response, w.take());
}

void
Router::healthLoop()
{
    const std::vector<uint8_t> pingWire = encodeFrame(
        FrameKind::Request,
        encodeRequestEnvelope(Request::ping(), 0));
    std::unique_lock<std::mutex> lk(healthMu_);
    for (;;) {
        if (healthCv_.wait_for(lk,
                               std::chrono::milliseconds(opts_.healthMs),
                               [&] { return healthStop_; }))
            return;
        for (auto &wp : workers_) {
            Worker &w = *wp;
            if (w.up.load(std::memory_order_relaxed))
                continue; // request-path failures re-flag it
            lk.unlock();
            std::string err;
            int fd = connectTo(w.addr, &err);
            if (fd >= 0) {
                std::vector<uint8_t> resp;
                FrameKind kind;
                if (writeWire(fd, pingWire) &&
                    readFrameWire(fd, &resp, &kind, &err, true) ==
                        FrameRead::Ok &&
                    kind == FrameKind::Response) {
                    markUp(w);
                    returnConn(w, fd);
                } else {
                    ::close(fd);
                }
            }
            lk.lock();
        }
    }
}

StatsSnap
Router::fleetStats()
{
    const std::vector<uint8_t> statsWire = encodeFrame(
        FrameKind::Request,
        encodeRequestEnvelope(Request::stats(), 0));
    // The router's own client connections and fault counters
    // (net.connect etc. fire here too) join the roll-up the same way
    // a worker's do.
    StatsSnap out = metrics_.snapshot(0, 0, false);
    for (size_t wi = 0; wi < workers_.size(); wi++) {
        if (!workers_[wi]->up.load(std::memory_order_relaxed))
            continue; // don't block the stats path on a dead worker
        std::vector<uint8_t> respWire;
        if (!exchange(wi, statsWire, &respWire))
            continue;
        ByteReader r(respWire.data() + kFrameHeaderBytes,
                     respWire.size() - kFrameHeaderBytes);
        Response resp;
        if (!Response::decode(r, &resp) ||
            resp.status != Status::Ok)
            continue;
        ByteReader br(resp.body);
        StatsSnap s;
        if (StatsSnap::decode(br, &s))
            out.merge(s);
    }
    // Counted after the exchanges: one may have flipped a flag.
    out.workersKnown += workers_.size();
    for (auto &w : workers_) {
        if (w->up.load(std::memory_order_relaxed))
            out.workersUp++;
    }
    out.reroutes += reroutes_.load(std::memory_order_relaxed);
    out.downMarks += downMarks_.load(std::memory_order_relaxed);
    out.rejoins += rejoins_.load(std::memory_order_relaxed);
    out.deadlineShed +=
        deadlineShed_.load(std::memory_order_relaxed);
    if (opts_.statsAugment)
        opts_.statsAugment(out);
    return out;
}

} // namespace cisa
