#include "service/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <unistd.h>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "service/address.hh"
#include "service/frame.hh"

namespace cisa
{

RetryPolicy
RetryPolicy::fromEnv()
{
    RetryPolicy p;
    p.retries = clientRetries();
    return p;
}

Client::~Client()
{
    close();
}

bool
Client::connectOnce(std::string *err)
{
    close();
    fd_ = connectTo(addr_, err);
    return fd_ >= 0;
}

void
Client::backoffSleep(int attempt)
{
    if (policy_.backoffMs <= 0)
        return;
    if (attempt > 10)
        attempt = 10; // cap the doubling at ~1000x base
    uint64_t base = uint64_t(policy_.backoffMs) << attempt;
    // Deterministic per-client jitter stream (splitmix64 walk) so a
    // thundering herd of retriers decorrelates without sharing RNG
    // state.
    jitterState_ = splitmix64(jitterState_);
    uint64_t jitter = jitterState_ % (base / 2 + 1); // up to +50%
    std::this_thread::sleep_for(
        std::chrono::milliseconds(base + jitter));
}

bool
Client::connect(const std::string &address, std::string *err)
{
    addr_ = address.empty() ? serveSocketPath() : address;
    if (!jitterState_) {
        jitterState_ = hashCombine(
            fnv1a(addr_),
            uint64_t(std::chrono::steady_clock::now()
                         .time_since_epoch()
                         .count()));
    }
    std::string why;
    for (int attempt = 0;; attempt++) {
        if (connectOnce(&why))
            return true;
        if (attempt >= policy_.retries)
            break;
        backoffSleep(attempt);
    }
    lastError_ = why;
    if (err)
        *err = why;
    return false;
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
Client::callOnce(const Request &req, Response *resp,
                 uint32_t deadline_ms, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };
    if (fd_ < 0)
        return fail("not connected");
    if (!writeFrame(fd_, FrameKind::Request,
                    encodeRequestEnvelope(req, deadline_ms))) {
        return fail(strfmt("send: %s", std::strerror(errno)));
    }
    FrameKind kind = FrameKind::Request;
    std::string why;
    FrameRead fr = readFrameWire(fd_, &wire_, &kind, &why);
    if (fr == FrameRead::Eof)
        return fail("server closed the connection");
    if (fr == FrameRead::Bad)
        return fail(why);
    if (kind != FrameKind::Response)
        return fail("expected a response frame");
    ByteReader r(wire_.data() + kFrameHeaderBytes,
                 wire_.size() - kFrameHeaderBytes);
    if (!Response::decode(r, resp))
        return fail("undecodable response payload");
    return true;
}

bool
Client::call(const Request &req, Response *resp,
             uint32_t deadline_ms, std::string *err)
{
    if (fd_ < 0 && addr_.empty()) {
        lastError_ = "not connected";
        if (err)
            *err = lastError_;
        return false;
    }
    std::string why;
    for (int attempt = 0;; attempt++) {
        bool ok = fd_ >= 0 || connectOnce(&why);
        if (ok)
            ok = callOnce(req, resp, deadline_ms, &why);
        if (ok && resp->status != Status::Busy)
            return true;
        if (attempt >= policy_.retries) {
            if (ok) // BUSY, out of retries: surface it to the caller
                return true;
            lastError_ = why;
            if (err)
                *err = why;
            return false;
        }
        if (!ok)
            close(); // transport broke; reconnect on the next try
        backoffSleep(attempt);
    }
}

namespace
{

/** Shared shape of the typed wrappers: call + decode-on-Ok. */
template <class Decode>
Status
typedCall(Client &c, const Request &req, uint32_t deadline_ms,
          Decode &&decode)
{
    Response resp;
    if (!c.call(req, &resp, deadline_ms))
        return Status::Error;
    if (resp.status != Status::Ok)
        return resp.status;
    ByteReader r(resp.body);
    if (!decode(r))
        return Status::Error;
    return Status::Ok;
}

} // namespace

Status
Client::ping(uint32_t deadline_ms)
{
    return typedCall(*this, Request::ping(), deadline_ms,
                     [](ByteReader &) { return true; });
}

Status
Client::evalPoint(const DesignPoint &dp, int phase, PhasePerf *out,
                  uint32_t deadline_ms)
{
    return typedCall(*this, Request::evalPoint(dp, phase),
                     deadline_ms, [&](ByteReader &r) {
                         return decodePhasePerf(r, out) && r.atEnd();
                     });
}

Status
Client::slabPerf(int slab, std::vector<PhasePerf> *out,
                 uint32_t deadline_ms)
{
    return typedCall(*this, Request::slabPerf(slab), deadline_ms,
                     [&](ByteReader &r) {
                         return decodeSlabPerf(r, out) && r.atEnd();
                     });
}

Status
Client::search(Family family, Objective objective,
               const Budget &budget, uint64_t seed, SearchResult *out,
               uint32_t deadline_ms)
{
    return typedCall(
        *this,
        Request::searchDesign(family, objective, budget, seed),
        deadline_ms, [&](ByteReader &r) {
            return decodeSearchResult(r, out) && r.atEnd();
        });
}

Status
Client::tableOf(int slab, std::string *out, uint32_t deadline_ms)
{
    return typedCall(*this, Request::tableOf(slab), deadline_ms,
                     [&](ByteReader &r) {
                         *out = r.str();
                         return r.ok() && r.atEnd();
                     });
}

Status
Client::stats(StatsSnap *out, uint32_t deadline_ms)
{
    return typedCall(*this, Request::stats(), deadline_ms,
                     [&](ByteReader &r) {
                         return StatsSnap::decode(r, out) &&
                                r.atEnd();
                     });
}

} // namespace cisa
