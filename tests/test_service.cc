/**
 * @file
 * Tests of the cisa-serve subsystem, bottom-up: frame codec
 * robustness (round-trips, truncation, corruption), the typed
 * request/response codecs (with every truncation and bit flip of a
 * request envelope), executor semantics with injected synthetic
 * handlers (coalescing, backpressure bound, per-waiter deadlines,
 * priority order, drain), the consistent-hash shard ring
 * (order-independence, balance, minimal remap under churn, replica
 * sets), and end-to-end loopbacks over real sockets — UNIX and TCP:
 * concurrent clients, byte-identical responses, coalesce accounting,
 * the daemon's response cache (hits, LRU eviction, size 0),
 * deadline frames, graceful-drain BUSY rejection and stale serves,
 * drip-fed partial reads, checksum corruption in transit, client
 * retry policies, the shared front end's connection limit, bad
 * frames and accept faults on both the daemon and the router, and
 * the router fleet (relay byte-identity, stats roll-up, failover
 * when a worker dies mid-stream or entirely).
 */

#include <cstdlib>

// Must run before any Campaign::get() in this process.
namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "600", 1);
        setenv("CISA_SIM_WARMUP", "100", 1);
        setenv("CISA_DSE_CACHE", "/tmp/cisa_service_cache.bin", 1);
        setenv("CISA_SEARCH_RESTARTS", "1", 1);
        setenv("CISA_THREADS", "4", 0);
    }
} env_setup;
} // namespace

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <poll.h>

#include "common/faultinject.hh"
#include "common/hash.hh"
#include "explore/campaign.hh"
#include "service/address.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/frame.hh"
#include "service/router.hh"
#include "service/server.hh"
#include "service/shard.hh"
#include "workloads/profiles.hh"

namespace cisa
{
namespace
{

// ---------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------

std::vector<uint8_t>
somePayload()
{
    std::vector<uint8_t> p;
    for (int i = 0; i < 300; i++)
        p.push_back(uint8_t(i * 7));
    return p;
}

TEST(FrameCodec, RoundTrip)
{
    std::vector<uint8_t> payload = somePayload();
    std::vector<uint8_t> wire =
        encodeFrame(FrameKind::Response, payload);
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

    Frame f;
    std::string err;
    size_t pos = 0;
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &pos, &f, &err),
              FrameDecode::Ok)
        << err;
    EXPECT_EQ(pos, wire.size());
    EXPECT_EQ(f.kind, FrameKind::Response);
    EXPECT_EQ(f.payload, payload);
}

TEST(FrameCodec, TwoFramesInOneBuffer)
{
    std::vector<uint8_t> wire =
        encodeFrame(FrameKind::Request, {1, 2, 3});
    std::vector<uint8_t> second =
        encodeFrame(FrameKind::Response, {4, 5});
    wire.insert(wire.end(), second.begin(), second.end());

    Frame f;
    std::string err;
    size_t pos = 0;
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &pos, &f, &err),
              FrameDecode::Ok);
    EXPECT_EQ(f.payload, (std::vector<uint8_t>{1, 2, 3}));
    ASSERT_EQ(decodeFrame(wire.data(), wire.size(), &pos, &f, &err),
              FrameDecode::Ok);
    EXPECT_EQ(f.payload, (std::vector<uint8_t>{4, 5}));
    EXPECT_EQ(pos, wire.size());
}

TEST(FrameCodec, EveryTruncationNeedsMore)
{
    std::vector<uint8_t> wire =
        encodeFrame(FrameKind::Request, somePayload());
    for (size_t n = 0; n < wire.size(); n++) {
        Frame f;
        std::string err;
        size_t pos = 0;
        EXPECT_EQ(decodeFrame(wire.data(), n, &pos, &f, &err),
                  FrameDecode::NeedMore)
            << "prefix length " << n;
        EXPECT_EQ(pos, 0u);
    }
}

TEST(FrameCodec, CorruptHeaderRejected)
{
    std::vector<uint8_t> good =
        encodeFrame(FrameKind::Request, {9, 9, 9});
    Frame f;
    std::string err;

    std::vector<uint8_t> bad = good;
    bad[0] ^= 0xff; // magic
    size_t pos = 0;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &pos, &f, &err),
              FrameDecode::Bad);

    bad = good;
    bad[4] = 0x77; // unknown kind
    pos = 0;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &pos, &f, &err),
              FrameDecode::Bad);

    bad = good;
    bad[6] = 1; // reserved flags must be zero
    pos = 0;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &pos, &f, &err),
              FrameDecode::Bad);

    bad = good;
    bad[11] = 0xff; // length beyond kMaxFramePayload
    pos = 0;
    EXPECT_EQ(decodeFrame(bad.data(), bad.size(), &pos, &f, &err),
              FrameDecode::Bad);
}

TEST(FrameCodec, EveryBitFlipDetected)
{
    // Flipping any single bit of a frame must never yield a
    // successfully-decoded frame with different bytes: either the
    // header check or the payload checksum catches it (a larger
    // length field may report NeedMore — also not a silent
    // corruption).
    std::vector<uint8_t> good =
        encodeFrame(FrameKind::Request, somePayload());
    for (size_t byte = 0; byte < good.size(); byte++) {
        for (int bit = 0; bit < 8; bit++) {
            std::vector<uint8_t> bad = good;
            bad[byte] ^= uint8_t(1u << bit);
            Frame f;
            std::string err;
            size_t pos = 0;
            FrameDecode rc =
                decodeFrame(bad.data(), bad.size(), &pos, &f, &err);
            ASSERT_NE(rc, FrameDecode::Ok)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// ---------------------------------------------------------------
// Request / response codecs
// ---------------------------------------------------------------

Request
roundTripped(const Request &req, uint32_t deadline_in,
             uint32_t *deadline_out)
{
    std::vector<uint8_t> wire =
        encodeRequestEnvelope(req, deadline_in);
    Request out;
    std::string err;
    EXPECT_TRUE(
        decodeRequestEnvelope(wire, &out, deadline_out, &err))
        << err;
    return out;
}

/** One request of every type. */
std::vector<Request>
everyType()
{
    return {
        Request::ping(),
        Request::evalPoint(DesignPoint::composite(13, 42), 7),
        Request::evalPoint(
            DesignPoint::vendorPoint(VendorIsa::ThumbLike, 3), 0),
        Request::slabPerf(27),
        Request::tableOf(4),
        Request::searchDesign(Family::CompositeFull,
                              Objective::MpEdp,
                              Budget{30.0, 80.0, true}, 99),
        Request::stats(),
    };
}

TEST(RequestCodec, EveryTypeRoundTrips)
{
    std::vector<Request> reqs = everyType();
    for (const Request &req : reqs) {
        uint32_t deadline = 0;
        Request out = roundTripped(req, 1234, &deadline);
        EXPECT_EQ(deadline, 1234u);
        EXPECT_EQ(out.type, req.type);
        EXPECT_EQ(out.fingerprint(), req.fingerprint());
    }
    // Fingerprints of distinct requests must be distinct.
    for (size_t i = 0; i < reqs.size(); i++)
        for (size_t j = i + 1; j < reqs.size(); j++)
            EXPECT_NE(reqs[i].fingerprint(), reqs[j].fingerprint());
}

TEST(RequestCodec, EveryEnvelopeMutantRejectedOrCanonical)
{
    // Every truncation is rejected, and a bit flip either is
    // rejected or decodes to a request whose envelope is exactly the
    // flipped bytes: the decoder never accepts two spellings of one
    // request (fingerprints stay exact).
    for (const Request &req : everyType()) {
        const std::vector<uint8_t> wire =
            encodeRequestEnvelope(req, 1234);
        Request out;
        uint32_t deadline = 0;
        std::string err;
        for (size_t n = 0; n < wire.size(); n++) {
            EXPECT_FALSE(decodeRequestEnvelope(wire.data(), n, &out,
                                               &deadline, &err))
                << reqTypeName(req.type) << " prefix " << n;
        }
        for (size_t bit = 0; bit < wire.size() * 8; bit++) {
            std::vector<uint8_t> bad = wire;
            bad[bit / 8] ^= uint8_t(1u << (bit % 8));
            if (decodeRequestEnvelope(bad, &out, &deadline, &err)) {
                EXPECT_EQ(encodeRequestEnvelope(out, deadline), bad)
                    << reqTypeName(req.type) << " bit " << bit;
            }
        }
    }
}

TEST(RequestCodec, DeadlineExcludedFromFingerprint)
{
    Request req = Request::slabPerf(3);
    std::vector<uint8_t> a = encodeRequestEnvelope(req, 10);
    std::vector<uint8_t> b = encodeRequestEnvelope(req, 99999);
    EXPECT_NE(a, b); // envelopes differ...
    Request ra, rb;
    uint32_t da = 0, db = 0;
    std::string err;
    ASSERT_TRUE(decodeRequestEnvelope(a, &ra, &da, &err));
    ASSERT_TRUE(decodeRequestEnvelope(b, &rb, &db, &err));
    // ...but the requests coalesce: same canonical key.
    EXPECT_EQ(ra.fingerprint(), rb.fingerprint());
}

TEST(RequestCodec, MalformedRejected)
{
    auto rejects = [](std::vector<uint8_t> wire) {
        Request out;
        uint32_t deadline = 0;
        std::string err;
        return !decodeRequestEnvelope(wire, &out, &deadline, &err);
    };

    EXPECT_TRUE(rejects({})); // empty
    EXPECT_TRUE(rejects({1, 2, 3})); // short envelope

    { // unknown request type
        ByteWriter w;
        w.u32(0);
        w.u8(200);
        EXPECT_TRUE(rejects(w.take()));
    }
    { // trailing junk after a valid request
        std::vector<uint8_t> wire =
            encodeRequestEnvelope(Request::ping(), 0);
        wire.push_back(0);
        EXPECT_TRUE(rejects(wire));
    }
    // Out-of-range fields, each corrupted from a valid request.
    {
        Request req = Request::slabPerf(0);
        req.slab.slab = Campaign::kSlabs; // one past the end
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.slab.slab = -1;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
    }
    {
        Request req =
            Request::evalPoint(DesignPoint::composite(0, 0), 0);
        req.eval.phase = phaseCount();
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.eval.phase = 0;
        req.eval.uarchId = DesignPoint::kUarchCount;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.eval.uarchId = 0;
        req.eval.isaId = FeatureSet::count();
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.eval.isaId = 0;
        req.eval.vendor = 200;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        // A vendor point with another isa id than its vendor's
        // feature set: the same point under a different fingerprint.
        req = Request::evalPoint(
            DesignPoint::vendorPoint(VendorIsa::ThumbLike, 0), 0);
        req.eval.isaId = 12345;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
    }
    {
        Request req = Request::searchDesign(
            Family::Homogeneous, Objective::MpThroughput, Budget{});
        req.search.family = 99;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.search.family = 0;
        req.search.objective = 99;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.search.objective = 0;
        req.search.powerW = -1.0;
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
        req.search.powerW = std::nan("");
        EXPECT_TRUE(rejects(encodeRequestEnvelope(req, 0)));
    }
}

TEST(ResponseCodec, RoundTrips)
{
    for (Status s : {Status::Ok, Status::Busy, Status::Deadline,
                     Status::CancelledByPeer, Status::BadRequest,
                     Status::Error}) {
        Response in;
        in.status = s;
        in.message = s == Status::Ok ? "" : "why";
        in.body = {1, 2, 3, 4};
        ByteWriter w;
        in.encode(w);
        std::vector<uint8_t> wire = w.take();
        ByteReader r(wire);
        Response out;
        ASSERT_TRUE(Response::decode(r, &out));
        EXPECT_TRUE(r.atEnd());
        EXPECT_EQ(out.status, in.status);
        EXPECT_EQ(out.message, in.message);
        EXPECT_EQ(out.body, in.body);
    }
}

TEST(ResponseCodec, StaleFlagRidesStatusBitSeven)
{
    Response in;
    in.status = Status::Ok;
    in.body = {9, 8, 7};
    ByteWriter wFresh;
    in.encode(wFresh);
    in.stale = true;
    ByteWriter wStale;
    in.encode(wStale);
    std::vector<uint8_t> fresh = wFresh.take();
    std::vector<uint8_t> stale = wStale.take();
    // Identical bytes except the flag bit: the fleet's byte-identity
    // guarantee covers stale serves (same body, different mode).
    ASSERT_EQ(fresh.size(), stale.size());
    EXPECT_EQ(stale[0], fresh[0] | 0x80);
    EXPECT_TRUE(std::equal(fresh.begin() + 1, fresh.end(),
                           stale.begin() + 1));

    ByteReader r(stale);
    Response out;
    ASSERT_TRUE(Response::decode(r, &out));
    EXPECT_EQ(out.status, Status::Ok);
    EXPECT_TRUE(out.stale);
    EXPECT_EQ(out.body, in.body);

    // A flag bit over a garbage status is still rejected.
    std::vector<uint8_t> bad = stale;
    bad[0] = 0x80 | 0x7f;
    ByteReader rb(bad);
    EXPECT_FALSE(Response::decode(rb, &out));
}

TEST(ResponseCodec, TypedBodiesRoundTrip)
{
    PhasePerf p;
    p.timePerRun = 1.5f;
    p.energyPerRun = 2.5f;
    p.timePerRunMp = 3.5f;
    p.energyPerRunMp = 4.5f;
    {
        ByteWriter w;
        encodePhasePerf(w, p);
        std::vector<uint8_t> wire = w.take();
        ByteReader r(wire);
        PhasePerf out;
        ASSERT_TRUE(decodePhasePerf(r, &out));
        EXPECT_EQ(out.timePerRun, p.timePerRun);
        EXPECT_EQ(out.energyPerRunMp, p.energyPerRunMp);
    }
    {
        ByteWriter w;
        encodeSlabPerf(w, {p, p, p});
        std::vector<uint8_t> wire = w.take();
        ByteReader r(wire);
        std::vector<PhasePerf> out;
        ASSERT_TRUE(decodeSlabPerf(r, &out));
        ASSERT_EQ(out.size(), 3u);
        EXPECT_EQ(out[2].timePerRunMp, p.timePerRunMp);
    }
    { // truncated typed body is rejected, not misread
        ByteWriter w;
        encodeSlabPerf(w, {p, p, p});
        std::vector<uint8_t> wire = w.take();
        wire.resize(wire.size() - 3);
        ByteReader r(wire);
        std::vector<PhasePerf> out;
        EXPECT_FALSE(decodeSlabPerf(r, &out));
    }
}

TEST(StatsCodec, RoundTrips)
{
    // Every scalar, endpoint counter and latency bucket gets its own
    // value, so a field dropped, swapped or misplaced on the wire
    // cannot survive the comparison.
    StatsSnap in;
    uint64_t next = 1;
    for (EndpointSnap &e : in.ep) {
        forEachCounter([&](const char *, uint64_t &v) { v = next++; },
                       e);
        for (uint64_t &b : e.lat)
            b = next++;
        e.summarize();
    }
    size_t scalars = 0;
    StatsSnap::forEachStat(
        [&](const char *, const char *, StatsSnap::Merge, uint64_t &v) {
            v = next++;
            scalars++;
        },
        in);
    EXPECT_EQ(scalars, 30u);
    in.faults = {{"net.read", 1001, 7}, {"disk.fsync", 1002, 8}};

    ByteWriter w;
    in.encode(w);
    std::vector<uint8_t> wire = w.take();
    ByteReader r(wire);
    StatsSnap out;
    ASSERT_TRUE(StatsSnap::decode(r, &out));
    EXPECT_TRUE(r.atEnd());

    for (size_t i = 0; i < in.ep.size(); i++) {
        forEachCounter(
            [&](const char *label, uint64_t want, uint64_t got) {
                EXPECT_EQ(got, want) << "endpoint " << i << " " << label;
            },
            in.ep[i], out.ep[i]);
        EXPECT_EQ(out.ep[i].lat, in.ep[i].lat) << "endpoint " << i;
        EXPECT_EQ(out.ep[i].latCount, in.ep[i].latCount);
        EXPECT_EQ(out.ep[i].p50Us, in.ep[i].p50Us);
        EXPECT_EQ(out.ep[i].p99Us, in.ep[i].p99Us);
    }
    StatsSnap::forEachStat(
        [&](const char *group, const char *label, StatsSnap::Merge,
            uint64_t want, uint64_t got) {
            EXPECT_EQ(got, want) << group << ": " << label;
        },
        in, out);
    ASSERT_EQ(out.faults.size(), 2u);
    for (size_t i = 0; i < 2; i++) {
        EXPECT_EQ(out.faults[i].site, in.faults[i].site);
        EXPECT_EQ(out.faults[i].checks, in.faults[i].checks);
        EXPECT_EQ(out.faults[i].fired, in.faults[i].fired);
    }
    EXPECT_EQ(out.totalRequests(), in.totalRequests());
    EXPECT_EQ(out.totalBytesOut(), in.totalBytesOut());
}

TEST(StatsCodec, EveryTruncationRejected)
{
    StatsSnap in;
    in.ep[size_t(ReqType::Slab)].requests = 17;
    in.ep[size_t(ReqType::Slab)].lat[5] = 3;
    in.downMarks = 2;
    in.faults = {{"net.read", 40, 2}, {"net.accept", 9, 1}};
    ByteWriter w;
    in.encode(w);
    const std::vector<uint8_t> wire = w.take();
    for (size_t n = 0; n < wire.size(); n++) {
        ByteReader r(wire.data(), n);
        StatsSnap out;
        EXPECT_FALSE(StatsSnap::decode(r, &out)) << "prefix " << n;
    }

    // More fault sites than the plane has is corrupt, even when
    // every entry is well-formed.
    in.faults.assign(size_t(kFaultSiteCount) + 1,
                     FaultCounterSnap{"net.read", 1, 1});
    ByteWriter big;
    in.encode(big);
    std::vector<uint8_t> tooMany = big.take();
    ByteReader r(tooMany);
    StatsSnap out;
    EXPECT_FALSE(StatsSnap::decode(r, &out));
}

TEST(StatsCodec, MergeRollsUpWorkerSnapshots)
{
    StatsSnap a, b;
    auto &sa = a.ep[size_t(ReqType::Slab)];
    sa.requests = 100;
    sa.ok = 99;
    sa.bytesOut = 1000;
    sa.lat[5] = 99; // 99 samples in [16, 32) us
    auto &sb = b.ep[size_t(ReqType::Slab)];
    sb.requests = 4;
    sb.ok = 1;
    sb.bytesOut = 400;
    sb.lat[20] = 1; // one sample near a second
    a.liveConns = 2;
    b.liveConns = 1;
    b.draining = 1;
    // Both workers share the one slab-store file: fileBytes must
    // not double-count, while per-worker append work adds up.
    a.store.fileBytes = 5000;
    b.store.fileBytes = 5000;
    a.store.appendedBytes = 100;
    b.store.appendedBytes = 200;

    StatsSnap fleet;
    fleet.merge(a);
    fleet.merge(b);
    const auto &slab = fleet.ep[size_t(ReqType::Slab)];
    EXPECT_EQ(slab.requests, 104u);
    EXPECT_EQ(slab.ok, 100u);
    EXPECT_EQ(slab.bytesOut, 1400u);
    EXPECT_EQ(slab.latCount, 100u);
    // Exact fleet percentiles: 99 of the fleet's 100 samples took
    // under 32 us, so its p99 is 32 us — not the slowest worker's
    // 2^20 us.
    EXPECT_EQ(slab.p50Us, 32u);
    EXPECT_EQ(slab.p99Us, 32u);
    EXPECT_EQ(fleet.liveConns, 3u);
    EXPECT_EQ(fleet.draining, 1u);
    EXPECT_EQ(fleet.store.fileBytes, 5000u);
    EXPECT_EQ(fleet.store.appendedBytes, 300u);
}

// ---------------------------------------------------------------
// Executor semantics (synthetic handlers)
// ---------------------------------------------------------------

/** A handler the test can hold open and release. */
struct GatedHandler
{
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> invocations{0}; ///< changes only under mu

    void
    release()
    {
        std::lock_guard<std::mutex> lk(mu);
        open = true;
        cv.notify_all();
    }

    /** Block until the handler has been entered @p n times. */
    void
    awaitInvocations(int n)
    {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return invocations >= n; });
    }

    Response
    operator()(const Request &req, CancelToken &token)
    {
        std::unique_lock<std::mutex> lk(mu);
        invocations++;
        cv.notify_all();
        while (!cv.wait_for(lk, std::chrono::milliseconds(5),
                            [&] { return open; })) {
            checkCancel(&token); // throws Cancelled when expired
        }
        Response resp;
        resp.body = {uint8_t(req.type), 42};
        return resp;
    }
};

TEST(Executor, CoalescesConcurrentTwins)
{
    GatedHandler gate;
    Executor::Options opts;
    opts.queueBound = 16;
    opts.workers = 2;
    opts.handler = std::ref(gate);
    Executor exec(opts);

    constexpr int kClients = 8;
    std::vector<Response> got(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; i++) {
        clients.emplace_back([&, i] {
            got[size_t(i)] = exec.call(Request::slabPerf(5));
        });
    }
    // Release the one shared job once every other client has
    // attached to it (submit counts a twin before it returns).
    auto coalesced = [&] {
        return exec.snapshot().ep[size_t(ReqType::Slab)].coalesced;
    };
    while (coalesced() < uint64_t(kClients - 1))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    gate.release();
    for (std::thread &t : clients)
        t.join();

    // One computation, kClients identical responses; every client
    // but the one that ran was a twin, none a cache hit.
    EXPECT_EQ(gate.invocations.load(), 1);
    for (const Response &r : got) {
        EXPECT_EQ(r.status, Status::Ok);
        EXPECT_EQ(r.body, got[0].body);
    }
    StatsSnap s = exec.snapshot();
    const EndpointSnap &slab = s.ep[size_t(ReqType::Slab)];
    EXPECT_EQ(slab.requests, uint64_t(kClients));
    EXPECT_EQ(slab.coalesced, uint64_t(kClients - 1));
    EXPECT_EQ(slab.cacheHits, 0u);
}

TEST(Executor, QueueBoundGivesBusyAndNeverGrows)
{
    GatedHandler gate;
    Executor::Options opts;
    opts.queueBound = 3;
    opts.workers = 1;
    opts.handler = std::ref(gate);
    Executor exec(opts);

    // One request occupies the worker; the queue then fills with
    // distinct requests up to the bound.
    std::vector<std::thread> waiters;
    auto spawn = [&](Request req) {
        Executor::JobPtr job = exec.submit(req, 0);
        ASSERT_TRUE(job);
        waiters.emplace_back([&exec, job] { exec.wait(job, 0); });
    };
    spawn(Request::ping());
    gate.awaitInvocations(1);
    for (int i = 0; i < 3; i++)
        spawn(Request::slabPerf(i));
    EXPECT_EQ(exec.queueDepth(), 3u);

    // A saturated queue rejects immediately and buffers nothing —
    // no matter how many times we try.
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(exec.submit(Request::slabPerf(10 + i), 0));
        EXPECT_LE(exec.queueDepth(), 3u);
    }
    StatsSnap s = exec.snapshot();
    EXPECT_EQ(s.ep[size_t(ReqType::Slab)].busy, 100u);
    EXPECT_EQ(s.queuePeak, 3u);

    gate.release();
    for (std::thread &t : waiters)
        t.join();
}

TEST(Executor, WaiterDeadlineReturnsDeadline)
{
    GatedHandler gate; // never released: the job outlives the waiter
    Executor::Options opts;
    opts.queueBound = 4;
    opts.workers = 1;
    opts.handler = std::ref(gate);
    Executor exec(opts);

    auto t0 = std::chrono::steady_clock::now();
    Response r = exec.call(Request::slabPerf(1), 40);
    auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    EXPECT_EQ(r.status, Status::Deadline);
    EXPECT_GE(ms, 35);
    EXPECT_LT(ms, 5000) << "deadline must not hang";
    EXPECT_EQ(exec.snapshot().ep[size_t(ReqType::Slab)].deadline,
              1u);
    // The lone waiter left, so the token was cancelled and the
    // gated handler unblocked via checkCancel; the executor must
    // become idle again (drain would hang otherwise).
    exec.drain();
}

TEST(Executor, PriorityClassOrdersQueue)
{
    GatedHandler gate;
    std::vector<ReqType> order;
    std::mutex orderMu;
    Executor::Options opts;
    opts.queueBound = 8;
    opts.workers = 1;
    opts.handler = [&](const Request &req,
                       CancelToken &token) -> Response {
        if (req.type == ReqType::Ping)
            return gate(req, token); // holds the worker
        std::lock_guard<std::mutex> lk(orderMu);
        order.push_back(req.type);
        return Response{};
    };
    Executor exec(opts);

    std::thread blocker(
        [&] { exec.call(Request::ping()); });
    gate.awaitInvocations(1);

    // Enqueue in "wrong" order: search (class 2), slab (class 1),
    // eval (class 0). The single worker must drain cheapest-first.
    std::vector<std::thread> clients;
    Request search = Request::searchDesign(
        Family::Homogeneous, Objective::MpThroughput, Budget{});
    Request slab = Request::slabPerf(1);
    Request eval =
        Request::evalPoint(DesignPoint::composite(0, 0), 0);
    for (const Request *r : {&search, &slab, &eval}) {
        Executor::JobPtr job = exec.submit(*r, 0);
        ASSERT_TRUE(job);
        clients.emplace_back([&exec, job] { exec.wait(job, 0); });
    }
    gate.release();
    for (std::thread &t : clients)
        t.join();
    blocker.join();

    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], ReqType::Eval);
    EXPECT_EQ(order[1], ReqType::Slab);
    EXPECT_EQ(order[2], ReqType::Search);
}

TEST(Executor, DrainFinishesWorkThenRejects)
{
    GatedHandler gate;
    Executor::Options opts;
    opts.queueBound = 8;
    opts.workers = 2;
    opts.handler = std::ref(gate);
    Executor exec(opts);

    std::vector<std::thread> clients;
    std::vector<Response> got(3);
    for (int i = 0; i < 3; i++) {
        clients.emplace_back([&, i] {
            got[size_t(i)] = exec.call(Request::slabPerf(i));
        });
    }
    gate.awaitInvocations(2);
    // Both workers are held; the third client must be queued before
    // the drain starts, or the drain turns it away as Busy.
    while (exec.queueDepth() != 1)
        std::this_thread::yield();

    std::thread drainer([&] { exec.drain(); });
    while (!exec.draining())
        std::this_thread::yield();
    // Draining: new work is rejected...
    EXPECT_EQ(exec.call(Request::slabPerf(9)).status, Status::Busy);
    // ...but queued and running work still completes.
    gate.release();
    drainer.join();
    for (std::thread &t : clients)
        t.join();
    for (const Response &r : got)
        EXPECT_EQ(r.status, Status::Ok);
    EXPECT_EQ(exec.call(Request::ping()).status, Status::Busy);
}

TEST(Executor, StatsServedInlineWhenSaturated)
{
    GatedHandler gate;
    Executor::Options opts;
    opts.queueBound = 1;
    opts.workers = 1;
    opts.handler = std::ref(gate);
    Executor exec(opts);

    std::thread blocker([&] { exec.call(Request::ping()); });
    gate.awaitInvocations(1);
    Executor::JobPtr job = exec.submit(Request::slabPerf(0), 0);
    ASSERT_TRUE(job);
    std::thread waiter([&exec, job] { exec.wait(job, 0); });

    // Queue is full — but stats must still answer immediately.
    Response r = exec.call(Request::stats());
    EXPECT_EQ(r.status, Status::Ok);
    ByteReader br(r.body);
    StatsSnap snap;
    ASSERT_TRUE(StatsSnap::decode(br, &snap));
    EXPECT_EQ(snap.queueDepth, 1u);
    EXPECT_EQ(snap.inFlight, 1u);

    gate.release();
    waiter.join();
    blocker.join();
}

// ---------------------------------------------------------------
// End-to-end loopback over a real UNIX socket
// ---------------------------------------------------------------

std::string
testSocketPath(const std::string &tag)
{
    return "/tmp/cisa_serve_test_" + tag + "_" +
           std::to_string(getpid()) + ".sock";
}

/** One frame off @p fd; on Ok its payload is decoded into @p resp. */
FrameRead
readResponse(int fd, Response *resp, std::string *err = nullptr)
{
    std::vector<uint8_t> wire;
    FrameKind kind = FrameKind::Request;
    FrameRead fr = readFrameWire(fd, &wire, &kind, err);
    if (fr == FrameRead::Ok) {
        EXPECT_EQ(kind, FrameKind::Response);
        ByteReader r(wire.data() + kFrameHeaderBytes,
                     wire.size() - kFrameHeaderBytes);
        EXPECT_TRUE(Response::decode(r, resp));
    }
    return fr;
}

/**
 * Either front end on one address: a daemon, or (@p routed) a router
 * over one worker daemon. @p maxConns bounds whichever one clients
 * reach; a routed worker keeps the default. Stops both on
 * destruction.
 */
struct FrontEnd
{
    FrontEnd(bool routed, const std::string &tag,
             int maxConns = Server::Options{}.maxConns)
    {
        Server::Options so;
        so.address = testSocketPath(routed ? tag + "_worker" : tag);
        if (!routed)
            so.maxConns = maxConns;
        server = std::make_unique<Server>(so);
        if (routed) {
            Router::Options ro;
            ro.address = testSocketPath(tag);
            ro.workers = {so.address};
            ro.maxConns = maxConns;
            router = std::make_unique<Router>(ro);
        }
    }

    ~FrontEnd()
    {
        if (router)
            router->stop();
        server->stop();
    }

    bool
    start(std::string *err)
    {
        return server->start(err) && (!router || router->start(err));
    }

    const std::string &
    address() const
    {
        return router ? router->boundAddress() : server->boundAddress();
    }

    std::unique_ptr<Server> server;
    std::unique_ptr<Router> router;
};

TEST(ServerE2E, ConcurrentClientsByteIdenticalAndCoalesced)
{
    Server::Options opts;
    opts.address = testSocketPath("e2e");
    opts.exec.queueBound = 32;
    opts.exec.workers = 2;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // N clients all ask for the same cold slab at the same moment.
    constexpr int kClients = 6;
    constexpr int kSlab = 2;
    std::vector<Response> got(kClients);
    // vector<char>, not vector<bool>: the clients write their slots
    // concurrently, and vector<bool> packs neighbours into one word.
    std::vector<char> okTransport(kClients, 0);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; i++) {
        threads.emplace_back([&, i] {
            Client c;
            std::string cerr;
            if (!c.connect(opts.address, &cerr))
                return;
            ready++;
            while (ready.load() < kClients) // start barrier
                std::this_thread::yield();
            okTransport[size_t(i)] =
                c.call(Request::slabPerf(kSlab), &got[size_t(i)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (int i = 0; i < kClients; i++) {
        ASSERT_TRUE(okTransport[size_t(i)]) << "client " << i;
        ASSERT_EQ(got[size_t(i)].status, Status::Ok);
        // Byte-identical responses across every client.
        EXPECT_EQ(got[size_t(i)].body, got[0].body);
    }

    // The response equals a direct library call, byte for byte.
    ByteWriter w;
    encodeSlabPerf(w, Campaign::get().slabPerf(kSlab));
    EXPECT_EQ(got[0].body, w.bytes());

    // All but the first request were deduplicated, and the dedup
    // is visible in the metrics.
    StatsSnap s = server.executor().snapshot();
    const EndpointSnap &slab = s.ep[size_t(ReqType::Slab)];
    EXPECT_EQ(slab.requests, uint64_t(kClients));
    EXPECT_EQ(slab.coalesced + slab.cacheHits,
              uint64_t(kClients - 1));

    server.stop();
    // The socket file is gone after a clean stop.
    EXPECT_NE(::access(opts.address.c_str(), F_OK), 0);
}

TEST(ServerE2E, SlowRequestShortDeadlineGetsDeadlineFrame)
{
    Server::Options opts;
    opts.address = testSocketPath("ddl");
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    Client c;
    ASSERT_TRUE(c.connect(opts.address, &err)) << err;
    // A full composite search is far slower than 10 ms even at the
    // test's tiny simulation budget; the reply must be a DEADLINE
    // frame, not a hang.
    SearchResult res;
    auto t0 = std::chrono::steady_clock::now();
    Status s = c.search(Family::CompositeFull, Objective::MpEdp,
                        Budget{25.0, 60.0, false}, 1, &res, 10);
    auto sec = std::chrono::duration_cast<std::chrono::seconds>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    EXPECT_EQ(s, Status::Deadline);
    EXPECT_LT(sec, 60) << "deadline response must be prompt";

    server.stop();
}

TEST(ServerE2E, CorruptFramesRejectedCleanly)
{
    for (bool routed : {false, true}) {
        SCOPED_TRACE(routed ? "router" : "daemon");
        FrontEnd fe(routed, "bad");
        std::string err;
        ASSERT_TRUE(fe.start(&err)) << err;
        int fd = connectTo(fe.address(), &err);
        ASSERT_GE(fd, 0) << err;

        // A valid frame whose payload is not a request envelope, or
        // that is not a request frame at all, gets a BADREQ response
        // and the connection stays usable.
        Response resp;
        ASSERT_TRUE(
            writeFrame(fd, FrameKind::Request, {0xde, 0xad, 0xbe}));
        ASSERT_EQ(readResponse(fd, &resp, &err), FrameRead::Ok) << err;
        EXPECT_EQ(resp.status, Status::BadRequest);
        ASSERT_TRUE(writeFrame(fd, FrameKind::Response,
                               encodeRequestEnvelope(Request::ping(), 0)));
        ASSERT_EQ(readResponse(fd, &resp, &err), FrameRead::Ok) << err;
        EXPECT_EQ(resp.status, Status::BadRequest);

        // Same connection still answers a well-formed request.
        ASSERT_TRUE(writeFrame(fd, FrameKind::Request,
                               encodeRequestEnvelope(Request::ping(), 0)));
        ASSERT_EQ(readResponse(fd, &resp, &err), FrameRead::Ok) << err;
        EXPECT_EQ(resp.status, Status::Ok);

        // Raw garbage (no valid frame header) gets one final response
        // and then the connection is terminated — never a crash or a
        // hang. (The close may surface as EOF or as ECONNRESET when
        // the server discards unread junk; both are a clean
        // termination.)
        const uint8_t junk[32] = {0x13, 0x37};
        ASSERT_EQ(::write(fd, junk, sizeof(junk)),
                  ssize_t(sizeof(junk)));
        FrameRead rc = readResponse(fd, &resp, &err);
        if (rc == FrameRead::Ok) {
            EXPECT_EQ(resp.status, Status::BadRequest);
            rc = readResponse(fd, &resp, &err);
        }
        EXPECT_NE(rc, FrameRead::Ok);
        ::close(fd);
    }
}

TEST(ServerE2E, GracefulDrainRejectsNewWithBusy)
{
    // Tables answer at once; a slab holds the handler at the gate.
    GatedHandler gate;
    Server::Options opts;
    opts.address = testSocketPath("drain");
    opts.cacheEntries = 2;
    opts.exec.queueBound = 8;
    opts.exec.workers = 1;
    opts.exec.handler = [&](const Request &req, CancelToken &token) {
        if (req.type != ReqType::Table)
            return gate(req, token);
        Response r;
        r.body = {uint8_t(req.slab.slab)};
        return r;
    };
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Both connections must exist before the stop: once the
    // acceptor has shut down, no new connections are served.
    Client probe;
    ASSERT_TRUE(probe.connect(opts.address, &err)) << err;
    auto call = [&](const Request &req) {
        Response r;
        EXPECT_TRUE(probe.call(req, &r)) << probe.lastError();
        return r;
    };

    // Fill table A, then B; hit A; fill C, which evicts B, the
    // least recently used.
    constexpr int kA = 1, kB = 2, kC = 3;
    Response freshA = call(Request::tableOf(kA));
    for (int slab : {kB, kA, kC})
        EXPECT_EQ(call(Request::tableOf(slab)).status, Status::Ok);

    // One in-flight request holds the (synthetic) handler open.
    Response slow;
    std::thread inflight([&] {
        Client c;
        if (c.connect(opts.address))
            c.call(Request::slabPerf(0), &slow);
    });
    gate.awaitInvocations(1);

    // SIGTERM path: requestStop() from (nominally) a signal
    // handler, stop() drains on a worker thread.
    server.requestStop();
    std::thread stopper([&] { server.stop(); });
    while (!server.executor().draining())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // During the drain, a cached table is served with the stale bit
    // and the fresh body; the evicted table and an uncached slab, new
    // requests on a live connection, are rejected with BUSY.
    Response a = call(Request::tableOf(kA));
    EXPECT_EQ(a.status, Status::Ok);
    EXPECT_TRUE(a.stale);
    EXPECT_EQ(a.body, freshA.body);
    EXPECT_EQ(call(Request::tableOf(kB)).status, Status::Busy);
    EXPECT_EQ(call(Request::slabPerf(1)).status, Status::Busy);

    // The in-flight request still completes and its response is
    // delivered before the connection closes.
    gate.release();
    stopper.join();
    inflight.join();
    EXPECT_EQ(slow.status, Status::Ok);

    // Each table request is counted once, as ok or busy.
    const EndpointSnap table =
        server.executor().snapshot().ep[size_t(ReqType::Table)];
    EXPECT_EQ(table.stale, 1u);
    EXPECT_EQ(table.busy, 1u);
    EXPECT_EQ(table.requests, table.ok + table.busy);
}

TEST(ServerE2E, MaxConnsRejectsExtraConnectionsWithBusy)
{
    for (bool routed : {false, true}) {
        SCOPED_TRACE(routed ? "router" : "daemon");
        FrontEnd fe(routed, "maxc", 1);
        std::string err;
        ASSERT_TRUE(fe.start(&err)) << err;

        Client first;
        ASSERT_TRUE(first.connect(fe.address(), &err)) << err;
        // A round-trip guarantees the connection has been accepted
        // and counted before the second one arrives.
        EXPECT_EQ(first.ping(), Status::Ok);

        // The second connection is accepted at the socket level, then
        // refused with one unsolicited BUSY frame and closed — a
        // reader sees a clean, typed rejection, not a hang or a
        // reset.
        int fd = connectTo(fe.address(), &err);
        ASSERT_GE(fd, 0) << err;
        Response resp;
        ASSERT_EQ(readResponse(fd, &resp, &err), FrameRead::Ok) << err;
        EXPECT_EQ(resp.status, Status::Busy);
        EXPECT_NE(readResponse(fd, &resp, &err), FrameRead::Ok); // closed
        ::close(fd);

        StatsSnap snap;
        ASSERT_EQ(first.stats(&snap), Status::Ok);
        // Through the router the roll-up also counts the worker's
        // end of the router's pooled connection.
        EXPECT_EQ(snap.liveConns, routed ? 2u : 1u);
        EXPECT_GE(snap.connsAccepted, 1u);
        EXPECT_GE(snap.connsRejected, 1u);

        // Closing the counted connection frees the slot (the close
        // is noticed asynchronously; poll until a fresh client gets
        // in).
        first.close();
        Status st = Status::Busy;
        for (int i = 0; i < 200 && st != Status::Ok; i++) {
            Client third;
            if (third.connect(fe.address()))
                st = third.ping();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        EXPECT_EQ(st, Status::Ok);
    }
}

TEST(ServerE2E, AcceptFaultDropsTheConnectionUnanswered)
{
    for (bool routed : {false, true}) {
        SCOPED_TRACE(routed ? "router" : "daemon");
        FrontEnd fe(routed, "acc");
        std::string err;
        ASSERT_TRUE(fe.start(&err)) << err;

        // The front end's first accept fires net.accept: the
        // connection is closed before any thread serves it. The ping
        // may or may not leave before that close, but no answer ever
        // comes back.
        ASSERT_TRUE(faultConfigure("net.accept:nth=1,count=1", 1, &err))
            << err;
        int fd = connectTo(fe.address(), &err);
        ASSERT_GE(fd, 0) << err;
        (void)writeFrame(fd, FrameKind::Request,
                         encodeRequestEnvelope(Request::ping(), 0));
        std::vector<uint8_t> wire;
        FrameKind kind = FrameKind::Request;
        EXPECT_EQ(readFrameWire(fd, &wire, &kind, &err), FrameRead::Eof);
        ::close(fd);
        ASSERT_TRUE(faultConfigure(""));

        // Only that one connection was lost.
        Client c;
        ASSERT_TRUE(c.connect(fe.address(), &err)) << err;
        EXPECT_EQ(c.ping(), Status::Ok);
    }
}

TEST(ServerE2E, CacheSizeZeroDisablesEveryCache)
{
    for (int cap : {0, 2}) {
        SCOPED_TRACE("cache " + std::to_string(cap));
        std::atomic<int> runs{0};
        Server::Options opts;
        opts.address = testSocketPath("cache" + std::to_string(cap));
        opts.cacheEntries = cap;
        opts.exec.handler = [&](const Request &, CancelToken &) {
            runs++;
            Response r;
            r.body = {7};
            return r;
        };
        Server server(opts);
        std::string err;
        ASSERT_TRUE(server.start(&err)) << err;

        Client c;
        ASSERT_TRUE(c.connect(opts.address, &err)) << err;
        auto call = [&](const Request &req) {
            Response r;
            EXPECT_TRUE(c.call(req, &r)) << c.lastError();
            EXPECT_EQ(r.status, Status::Ok);
        };

        // A repeat is a hit, counted as ok too, unless caching is
        // off: then every repeat runs the handler.
        call(Request::tableOf(3));
        call(Request::tableOf(3));
        EXPECT_EQ(runs.load(), cap ? 1 : 2);
        const EndpointSnap table =
            server.executor().snapshot().ep[size_t(ReqType::Table)];
        EXPECT_EQ(table.cacheHits, cap ? 1u : 0u);
        EXPECT_EQ(table.ok, 2u);

        // Ping is never cached.
        call(Request::ping());
        call(Request::ping());
        EXPECT_EQ(runs.load(), cap ? 3 : 4);

        // Fill 4, hit 3, fill 5: the third key evicts 4, the least
        // recently used entry, and 3 stays cached.
        for (int slab : {4, 3, 5})
            call(Request::tableOf(slab));
        int before = runs.load();
        call(Request::tableOf(3));
        EXPECT_EQ(runs.load(), before + (cap ? 0 : 1));
        call(Request::tableOf(4));
        EXPECT_EQ(runs.load(), before + (cap ? 1 : 2));
        server.stop();
    }
}

// ---------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------

TEST(FrameCodec, WireReadSurvivesByteDribble)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::vector<uint8_t> wire =
        encodeFrame(FrameKind::Response, somePayload());

    // A writer that delivers the frame in 3-byte slices, twice —
    // the worst TCP segmentation a reader can see.
    std::thread writer([&] {
        for (int rep = 0; rep < 2; rep++) {
            for (size_t i = 0; i < wire.size(); i += 3) {
                size_t n = std::min<size_t>(3, wire.size() - i);
                if (::write(sv[0], wire.data() + i, n) != ssize_t(n))
                    return;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        }
        ::shutdown(sv[0], SHUT_WR);
    });

    std::vector<uint8_t> got;
    FrameKind kind;
    std::string err;
    // Verified read: full wire image preserved for relaying.
    ASSERT_EQ(readFrameWire(sv[1], &got, &kind, &err, true),
              FrameRead::Ok)
        << err;
    EXPECT_EQ(kind, FrameKind::Response);
    EXPECT_EQ(got, wire);
    // Unverified (router-style) read: must consume exactly one
    // frame and stay framed.
    ASSERT_EQ(readFrameWire(sv[1], &got, &kind, &err, false),
              FrameRead::Ok)
        << err;
    EXPECT_EQ(got, wire);
    // Clean end of stream after the second frame.
    EXPECT_EQ(readFrameWire(sv[1], &got, &kind, &err, true),
              FrameRead::Eof);
    writer.join();
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServerTcp, LoopbackByteIdenticalToLibrary)
{
    Server::Options opts;
    opts.address = "127.0.0.1:0";
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    const std::string bound = server.boundAddress();
    ASSERT_NE(bound, "127.0.0.1:0") << "port must be resolved";

    constexpr int kSlab = 3;
    Client c;
    ASSERT_TRUE(c.connect(bound, &err)) << err;
    EXPECT_EQ(c.ping(), Status::Ok);
    Response r1, r2;
    ASSERT_TRUE(c.call(Request::slabPerf(kSlab), &r1));
    ASSERT_TRUE(c.call(Request::slabPerf(kSlab), &r2));
    ASSERT_EQ(r1.status, Status::Ok);
    ASSERT_EQ(r2.status, Status::Ok);
    EXPECT_EQ(r1.body, r2.body);

    ByteWriter w;
    encodeSlabPerf(w, Campaign::get().slabPerf(kSlab));
    EXPECT_EQ(r1.body, w.bytes());

    // The repeat was served from a cache, and the byte accounting
    // saw both responses.
    StatsSnap snap;
    ASSERT_EQ(c.stats(&snap), Status::Ok);
    const EndpointSnap &slab = snap.ep[size_t(ReqType::Slab)];
    EXPECT_EQ(slab.requests, 2u);
    EXPECT_GE(slab.cacheHits, 1u);
    EXPECT_GE(slab.bytesOut, 2 * uint64_t(r1.body.size()));
    EXPECT_GT(slab.bytesIn, 0u);

    server.stop();
}

TEST(ServerTcp, DripFedFramesReassembleAndFlippedBitIsCaught)
{
    Server::Options opts;
    opts.address = "127.0.0.1:0";
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    int fd = connectTo(server.boundAddress(), &err);
    ASSERT_GE(fd, 0) << err;

    // One byte at a time: the server-side reader must reassemble
    // the frame no matter how the stream is sliced.
    const std::vector<uint8_t> wire = encodeFrame(
        FrameKind::Request, encodeRequestEnvelope(Request::ping(), 0));
    for (size_t i = 0; i < wire.size(); i++) {
        ASSERT_EQ(::write(fd, &wire[i], 1), 1);
        if (i % 5 == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Response resp;
    ASSERT_EQ(readResponse(fd, &resp, &err), FrameRead::Ok) << err;
    EXPECT_EQ(resp.status, Status::Ok);

    // A single bit flipped in the payload in transit: the frame
    // checksum catches it; the server answers BADREQ (or closes
    // outright) and terminates the stream, exactly like the UNIX
    // transport.
    std::vector<uint8_t> bad = wire;
    bad[kFrameHeaderBytes] ^= 0x40;
    ASSERT_TRUE(writeWire(fd, bad));
    FrameRead rc = readResponse(fd, &resp, &err);
    if (rc == FrameRead::Ok) {
        EXPECT_EQ(resp.status, Status::BadRequest);
        rc = readResponse(fd, &resp, &err);
    }
    EXPECT_NE(rc, FrameRead::Ok);
    ::close(fd);

    server.stop();
}

// ---------------------------------------------------------------
// Consistent-hash shard ring
// ---------------------------------------------------------------

std::vector<std::string>
fleetAddrs(int n)
{
    std::vector<std::string> v;
    for (int i = 0; i < n; i++)
        v.push_back("10.0.0." + std::to_string(i + 1) + ":4870");
    return v;
}

TEST(ShardRing, PlacementIgnoresInputOrderAndDuplicates)
{
    const std::vector<std::string> addrs = fleetAddrs(5);
    ShardRing a(addrs);
    std::vector<std::string> shuffled = {addrs[3], addrs[0],
                                         addrs[4], addrs[2],
                                         addrs[1], addrs[0]};
    ShardRing b(shuffled);
    ASSERT_EQ(a.workers(), b.workers());
    for (uint64_t k = 0; k < 10000; k++) {
        uint64_t key = splitmix64(k);
        ASSERT_EQ(a.ownerOf(key), b.ownerOf(key)) << key;
        ASSERT_EQ(a.ownersOf(key, 3), b.ownersOf(key, 3)) << key;
    }
}

TEST(ShardRing, SpreadsKeysRoughlyEvenly)
{
    ShardRing ring(fleetAddrs(4));
    constexpr int kKeys = 100000;
    std::array<int, 4> load{};
    for (uint64_t k = 0; k < kKeys; k++)
        load[ring.ownerOf(splitmix64(k))]++;
    for (int i = 0; i < 4; i++) {
        // With kVnodes points per worker the expected imbalance is
        // a few percent; a 2x band is far outside noise and catches
        // any placement bug.
        EXPECT_GT(load[size_t(i)], kKeys / 8) << "worker " << i;
        EXPECT_LT(load[size_t(i)], kKeys / 2) << "worker " << i;
    }
}

TEST(ShardRing, SingleWorkerChurnRemapsMinimally)
{
    const std::vector<std::string> addrs = fleetAddrs(4);
    const std::string newcomer = "10.0.0.9:4870";
    ShardRing before(addrs);
    std::vector<std::string> plus = addrs;
    plus.push_back(newcomer);
    ShardRing after(plus);

    constexpr int kKeys = 50000;
    int moved = 0, movedBetweenSurvivors = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
        uint64_t key = splitmix64(k);
        const std::string &a =
            before.workers()[before.ownerOf(key)];
        const std::string &b = after.workers()[after.ownerOf(key)];
        if (a != b) {
            moved++;
            if (b != newcomer)
                movedBetweenSurvivors++;
        }
    }
    // Adding a worker only *steals* keys for the newcomer — keys
    // never shuffle between the existing workers...
    EXPECT_EQ(movedBetweenSurvivors, 0);
    // ...and it steals about its fair share, 1/(N+1); the ISSUE
    // bound is <= 2/N of the keyspace.
    EXPECT_GT(moved, kKeys / 20);
    EXPECT_LT(moved, kKeys * 2 / 4);

    // Removing a worker moves only the keys it owned.
    std::vector<std::string> minus = {addrs[0], addrs[2], addrs[3]};
    ShardRing smaller(minus);
    int orphansMoved = 0, survivorsMoved = 0, orphans = 0;
    for (uint64_t k = 0; k < kKeys; k++) {
        uint64_t key = splitmix64(k);
        const std::string &a =
            before.workers()[before.ownerOf(key)];
        const std::string &b =
            smaller.workers()[smaller.ownerOf(key)];
        if (a == addrs[1]) {
            orphans++;
            orphansMoved += (b != a);
        } else {
            survivorsMoved += (b != a);
        }
    }
    EXPECT_EQ(survivorsMoved, 0);
    EXPECT_EQ(orphansMoved, orphans); // every orphan finds a home
    EXPECT_GT(orphans, 0);
    EXPECT_LT(orphans, kKeys * 2 / 4); // <= 2/N of the keyspace
}

TEST(ShardRing, ReplicaSetsDistinctDeterministicAndClamped)
{
    ShardRing ring(fleetAddrs(4));
    for (uint64_t k = 0; k < 2000; k++) {
        uint64_t key = splitmix64(k);
        std::vector<size_t> owners = ring.ownersOf(key, 2);
        ASSERT_EQ(owners.size(), 2u);
        EXPECT_NE(owners[0], owners[1]);
        // The replica set starts at the primary.
        EXPECT_EQ(owners[0], ring.ownerOf(key));
    }
    // Asking for more replicas than workers clamps and still yields
    // all-distinct owners.
    std::vector<size_t> all = ring.ownersOf(12345, 9);
    ASSERT_EQ(all.size(), 4u);
    std::vector<size_t> sorted = all;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<size_t> want = {0, 1, 2, 3};
    EXPECT_EQ(sorted, want);

    ShardRing one(fleetAddrs(1));
    const std::vector<size_t> only = {0};
    EXPECT_EQ(one.ownersOf(5, 3), only);
}

// ---------------------------------------------------------------
// Router fleet
// ---------------------------------------------------------------

TEST(RouterE2E, RelaysByteIdenticalAndRollsUpFleetStats)
{
    Server::Options w1o, w2o;
    w1o.address = testSocketPath("rw1");
    w2o.address = testSocketPath("rw2");
    Server w1(w1o), w2(w2o);
    std::string err;
    ASSERT_TRUE(w1.start(&err)) << err;
    ASSERT_TRUE(w2.start(&err)) << err;

    Router::Options ro;
    ro.address = testSocketPath("rt");
    ro.workers = {w1o.address, w2o.address};
    ro.replicas = 1;
    Router router(ro);
    ASSERT_TRUE(router.start(&err)) << err;

    Client c;
    ASSERT_TRUE(c.connect(ro.address, &err)) << err;
    EXPECT_EQ(c.ping(), Status::Ok);

    // A slab served through the router is byte-identical to the
    // direct library result.
    constexpr int kSlab = 4;
    Response via;
    ASSERT_TRUE(c.call(Request::slabPerf(kSlab), &via))
        << c.lastError();
    ASSERT_EQ(via.status, Status::Ok);
    ByteWriter w;
    encodeSlabPerf(w, Campaign::get().slabPerf(kSlab));
    EXPECT_EQ(via.body, w.bytes());

    // Stats through the router is the fleet roll-up, not a single
    // worker's view.
    StatsSnap snap;
    ASSERT_EQ(c.stats(&snap), Status::Ok);
    EXPECT_EQ(snap.workersKnown, 2u);
    EXPECT_EQ(snap.workersUp, 2u);
    EXPECT_GE(snap.totalRequests(), 2u); // ping + slab, somewhere
    EXPECT_GE(snap.connsAccepted, 1u);   // router's client side

    c.close();
    router.stop();
    w1.stop();
    w2.stop();
}

TEST(RouterE2E, DeadWorkersSlabsFailOverByteIdentical)
{
    Server::Options w1o, w2o;
    w1o.address = testSocketPath("fw1");
    w2o.address = testSocketPath("fw2");
    auto w1 = std::make_unique<Server>(w1o);
    Server w2(w2o);
    std::string err;
    ASSERT_TRUE(w1->start(&err)) << err;
    ASSERT_TRUE(w2.start(&err)) << err;

    Router::Options ro;
    ro.address = testSocketPath("ft");
    ro.workers = {w1o.address, w2o.address};
    ro.replicas = 1; // deterministic primary: reroute only on death
    ro.healthMs = 50;
    Router router(ro);
    ASSERT_TRUE(router.start(&err)) << err;

    // One slab primarily owned by each worker (with 49 slabs split
    // over 2 workers both always own several).
    const ShardRing &ring = router.ring();
    int slabOfW1 = -1, slabOfW2 = -1;
    for (int s = 0; s < phaseCount(); s++) {
        size_t o = ring.ownerOf(Request::slabPerf(s).routingKey());
        if (ring.workers()[o] == w1o.address && slabOfW1 < 0)
            slabOfW1 = s;
        if (ring.workers()[o] == w2o.address && slabOfW2 < 0)
            slabOfW2 = s;
    }
    ASSERT_GE(slabOfW1, 0);
    ASSERT_GE(slabOfW2, 0);

    Client c;
    ASSERT_TRUE(c.connect(ro.address, &err)) << err;
    Response a1, b1;
    ASSERT_TRUE(c.call(Request::slabPerf(slabOfW1), &a1));
    ASSERT_TRUE(c.call(Request::slabPerf(slabOfW2), &b1));
    ASSERT_EQ(a1.status, Status::Ok);
    ASSERT_EQ(b1.status, Status::Ok);

    // Kill the worker that owns slabOfW1. Its slab must keep being
    // served — rerouted to the survivor, byte-identical, because
    // any worker can adopt any slab through the shared store.
    w1->stop();
    Response a2;
    ASSERT_TRUE(c.call(Request::slabPerf(slabOfW1), &a2))
        << c.lastError();
    EXPECT_EQ(a2.status, Status::Ok);
    EXPECT_EQ(a2.body, a1.body);
    StatsSnap snap;
    ASSERT_EQ(c.stats(&snap), Status::Ok);
    EXPECT_EQ(snap.downMarks, 1u); // the failed exchange, once
    EXPECT_EQ(snap.rejoins, 0u);

    // Zero loss across a spread of slabs with one worker down.
    for (int s = 0; s < 8; s++) {
        Response r;
        ASSERT_TRUE(c.call(Request::slabPerf(s), &r))
            << "slab " << s << ": " << c.lastError();
        EXPECT_EQ(r.status, Status::Ok) << "slab " << s;
    }

    ASSERT_EQ(c.stats(&snap), Status::Ok);
    EXPECT_GE(snap.reroutes, 1u);
    EXPECT_EQ(snap.workersUp, 1u);
    EXPECT_EQ(snap.workersKnown, 2u);
    EXPECT_EQ(snap.downMarks, 1u); // pass 0 skips a down worker

    // A worker coming back on the same address rejoins after a
    // health probe, without a router restart. The rejoin is counted
    // just after the up flag flips, so wait for both.
    w1 = std::make_unique<Server>(w1o);
    ASSERT_TRUE(w1->start(&err)) << err;
    for (int i = 0;
         i < 200 && (snap.workersUp != 2 || snap.rejoins == 0); i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ASSERT_EQ(c.stats(&snap), Status::Ok);
    }
    EXPECT_EQ(snap.workersUp, 2u);
    EXPECT_EQ(snap.rejoins, 1u);
    EXPECT_EQ(snap.downMarks, 1u);

    c.close();
    router.stop();
    w2.stop();
    w1->stop();
}

TEST(RouterE2E, MidResponseWorkerDeathIsRetriedInvisibly)
{
    // A fake worker that reads each request, writes half a response
    // frame, and drops the connection — the worst kind of death,
    // mid-stream with valid header bytes already delivered.
    const std::string flakyAddr = testSocketPath("flaky");
    std::string err, flakyBound;
    int lfd = listenOn(flakyAddr, 8, &flakyBound, &err);
    ASSERT_GE(lfd, 0) << err;
    std::atomic<bool> stopFlaky{false};
    std::atomic<int> flakyHits{0};
    std::thread flaky([&] {
        while (!stopFlaky.load()) {
            pollfd p{lfd, POLLIN, 0};
            if (::poll(&p, 1, 20) <= 0)
                continue;
            int fd = ::accept(lfd, nullptr, nullptr);
            if (fd < 0)
                continue;
            std::vector<uint8_t> req;
            FrameKind kind = FrameKind::Request;
            if (readFrameWire(fd, &req, &kind, nullptr) ==
                FrameRead::Ok) {
                flakyHits++;
                std::vector<uint8_t> resp =
                    encodeFrame(FrameKind::Response, somePayload());
                [[maybe_unused]] ssize_t n =
                    ::write(fd, resp.data(), resp.size() / 2);
            }
            ::close(fd);
        }
    });

    Server::Options wo;
    wo.address = testSocketPath("solid");
    Server real(wo);
    ASSERT_TRUE(real.start(&err)) << err;

    Router::Options ro;
    ro.address = testSocketPath("frt");
    ro.workers = {flakyAddr, wo.address};
    ro.replicas = 1;
    Router router(ro);
    ASSERT_TRUE(router.start(&err)) << err;

    // A slab whose primary is the flaky worker: the router sends
    // there, sees the truncated response, marks it down, and
    // retries on the real worker — invisible to the client.
    const ShardRing &ring = router.ring();
    int slab = -1;
    for (int s = 0; s < phaseCount() && slab < 0; s++) {
        size_t o = ring.ownerOf(Request::slabPerf(s).routingKey());
        if (ring.workers()[o] == flakyAddr)
            slab = s;
    }
    ASSERT_GE(slab, 0);

    Client c;
    ASSERT_TRUE(c.connect(ro.address, &err)) << err;
    Response r;
    ASSERT_TRUE(c.call(Request::slabPerf(slab), &r))
        << c.lastError();
    EXPECT_EQ(r.status, Status::Ok);
    ByteWriter w;
    encodeSlabPerf(w, Campaign::get().slabPerf(slab));
    EXPECT_EQ(r.body, w.bytes());
    EXPECT_GE(flakyHits.load(), 1);

    StatsSnap snap;
    ASSERT_EQ(c.stats(&snap), Status::Ok);
    EXPECT_GE(snap.reroutes, 1u);

    c.close();
    router.stop();
    real.stop();
    stopFlaky = true;
    flaky.join();
    ::close(lfd);
    unlinkIfUnix(flakyAddr);
}

// ---------------------------------------------------------------
// Client retry policy
// ---------------------------------------------------------------

TEST(ClientRetry, BusyRetriesUntilCapacityFrees)
{
    GatedHandler gate;
    Server::Options opts;
    opts.address = testSocketPath("busyretry");
    opts.exec.queueBound = 1;
    opts.exec.workers = 1;
    opts.exec.handler = std::ref(gate);
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;

    // Fill the single worker, then the single queue slot.
    Response r1, r2;
    std::thread t1([&] {
        Client c;
        if (c.connect(opts.address))
            c.call(Request::slabPerf(0), &r1);
    });
    gate.awaitInvocations(1);
    std::thread t2([&] {
        Client c;
        if (c.connect(opts.address))
            c.call(Request::slabPerf(1), &r2);
    });
    while (server.executor().snapshot().queueDepth == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // The service is now saturated: new work bounces with BUSY. A
    // retrying client must ride the window out and succeed once the
    // gate opens, which happens only after it has been bounced.
    std::thread releaser([&] {
        while (server.executor()
                   .snapshot()
                   .ep[size_t(ReqType::Slab)]
                   .busy == 0)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        gate.release();
    });
    Client probe;
    ASSERT_TRUE(probe.connect(opts.address, &err)) << err;
    probe.setRetryPolicy(RetryPolicy{50, 2});
    Response r;
    ASSERT_TRUE(probe.call(Request::slabPerf(2), &r))
        << probe.lastError();
    EXPECT_EQ(r.status, Status::Ok);

    releaser.join();
    t1.join();
    t2.join();
    EXPECT_EQ(r1.status, Status::Ok);
    EXPECT_EQ(r2.status, Status::Ok);
    server.stop();
}

TEST(ClientRetry, ConnectRetriesUntilServerAppears)
{
    const std::string addr = testSocketPath("late");
    ::unlink(addr.c_str());
    Server::Options opts;
    opts.address = addr;
    Server server(opts);
    std::thread starter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
        std::string serr;
        server.start(&serr);
    });

    // The daemon does not exist yet when the first connect attempt
    // fires; the backoff schedule must span its startup delay.
    Client c;
    c.setRetryPolicy(RetryPolicy{10, 15});
    std::string err;
    ASSERT_TRUE(c.connect(addr, &err)) << err;
    EXPECT_EQ(c.ping(), Status::Ok);
    starter.join();
    c.close();
    server.stop();

    // Zero retries (the default) still fails fast on a cold
    // address.
    Client fast;
    std::string ferr;
    EXPECT_FALSE(fast.connect(testSocketPath("nobody"), &ferr));
    EXPECT_FALSE(ferr.empty());
}

} // namespace
} // namespace cisa
