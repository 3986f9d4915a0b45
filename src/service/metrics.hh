/**
 * @file
 * Per-endpoint observability for cisa-serve: lock-free request
 * counters and log-bucketed latency histograms, snapshotted (and
 * wire-encoded) by the `stats` endpoint.
 *
 * All mutators are single atomic increments so the hot path never
 * takes a lock; a snapshot is a relaxed read of every counter, which
 * is allowed to tear across counters (stats are advisory) but never
 * within one.
 */

#ifndef CISA_SERVICE_METRICS_HH
#define CISA_SERVICE_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/faultinject.hh"
#include "explore/campaign.hh"
#include "explore/slabstore.hh"
#include "service/request.hh"

namespace cisa
{

/**
 * Latency histogram with power-of-two microsecond buckets: bucket i
 * holds samples in [2^(i-1), 2^i) us (bucket 0 is < 1 us). 40
 * buckets cover ~12 days, enough for any request.
 */
class LatencyHisto
{
  public:
    static constexpr int kBuckets = 40;
    using Buckets = std::array<uint64_t, kBuckets>;

    void
    add(uint64_t us)
    {
        int b = 0;
        while (us > 0 && b < kBuckets - 1) {
            us >>= 1;
            b++;
        }
        counts_[size_t(b)].fetch_add(1, std::memory_order_relaxed);
    }

    /** Relaxed copy of every bucket. */
    Buckets buckets() const;

  private:
    std::array<std::atomic<uint64_t>, kBuckets> counts_{};
};

/** Approximate p-quantile of @p b in microseconds (the bucket's
 * upper edge); 0 for an empty histogram. */
uint64_t percentileUs(const LatencyHisto::Buckets &b, double p);

/** Live counters of one endpoint. */
struct EndpointMetrics
{
    std::atomic<uint64_t> requests{0};  ///< submitted (any outcome)
    std::atomic<uint64_t> ok{0};        ///< completed Ok
    std::atomic<uint64_t> coalesced{0}; ///< joined an in-flight twin
    std::atomic<uint64_t> cacheHits{0}; ///< served from result cache
    std::atomic<uint64_t> stale{0};     ///< degraded cache serves
    std::atomic<uint64_t> busy{0};      ///< rejected: queue full/drain
    std::atomic<uint64_t> deadline{0};  ///< expired before completion
    std::atomic<uint64_t> errors{0};    ///< handler failure/bad req
    std::atomic<uint64_t> bytesIn{0};   ///< request wire bytes
    std::atomic<uint64_t> bytesOut{0};  ///< response wire bytes
    LatencyHisto latency;               ///< submit-to-response, Ok only
};

/** Point-in-time copy of one endpoint's counters. */
struct EndpointSnap
{
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t coalesced = 0;
    uint64_t cacheHits = 0;
    uint64_t stale = 0;
    uint64_t busy = 0;
    uint64_t deadline = 0;
    uint64_t errors = 0;
    uint64_t bytesIn = 0;
    uint64_t bytesOut = 0;
    LatencyHisto::Buckets lat{}; ///< the latency histogram's buckets

    /** Derived from lat by summarize() (never on the wire), so a
     * merged fleet snapshot reports exact fleet percentiles. */
    uint64_t latCount = 0;
    uint64_t p50Us = 0;
    uint64_t p99Us = 0;

    void summarize();
};

/**
 * The ten endpoint counters, each named once: calls
 * f(label, e.counter...) per counter, in wire order. Each @p e is an
 * EndpointSnap or an EndpointMetrics (same member names), so one
 * walk can read live atomics into a snapshot or combine two
 * snapshots.
 */
template <class F, class... E>
void
forEachCounter(F &&f, E &...e)
{
    f("req", e.requests...);
    f("ok", e.ok...);
    f("coal", e.coalesced...);
    f("cache", e.cacheHits...);
    f("stale", e.stale...);
    f("busy", e.busy...);
    f("ddl", e.deadline...);
    f("err", e.errors...);
    f("B in", e.bytesIn...);
    f("B out", e.bytesOut...);
}

/** Point-in-time copy of the whole service's metrics. */
struct StatsSnap
{
    std::array<EndpointSnap, size_t(ReqType::kCount)> ep{};
    uint64_t queueDepth = 0; ///< queued (not running) right now
    uint64_t queuePeak = 0;  ///< high-water mark of queueDepth
    uint64_t inFlight = 0;   ///< running right now
    uint64_t draining = 0;   ///< 1 while the executor drains

    /** Transport-level connection accounting (the listener of the
     * daemon or of the router). */
    uint64_t liveConns = 0;     ///< connections open right now
    uint64_t connsAccepted = 0; ///< accepted since start
    uint64_t connsRejected = 0; ///< refused with BUSY at max-conns

    /** Fleet fields, non-zero only in a router's merged snapshot. */
    uint64_t reroutes = 0;     ///< requests moved off a down worker
    uint64_t workersUp = 0;    ///< workers passing health checks
    uint64_t workersKnown = 0; ///< workers configured
    uint64_t downMarks = 0;    ///< workers marked down (up -> down)
    uint64_t rejoins = 0;      ///< down workers back up (down -> up)
    /** Requests shed in the router because their propagated
     * deadline budget was already spent. */
    uint64_t deadlineShed = 0;

    /** Supervisor roll-up (cisa_fleetd): workers under supervision,
     * restarts performed, workers currently declared crash-looping. */
    uint64_t workersSupervised = 0;
    uint64_t supervisorRestarts = 0;
    uint64_t supervisorCrashLoops = 0;

    /** Fault-injection counters; non-empty only when CISA_FAULTS is
     * armed somewhere in the fleet (merged across processes). */
    std::vector<FaultCounterSnap> faults;

    /** Durable slab-store health (records loaded/salvaged/appended,
     * bytes, lock waits, quarantines) of the campaign cache this
     * process is bound to; all-zero until the campaign exists. */
    StoreHealth store{};

    /** Slab-engine mode counters (cells simulated in lockstep
     * batches vs per cell, trace walks performed vs saved) of the
     * same campaign; all-zero until it computes a slab. */
    EngineHealth engine{};

    /** How a fleet roll-up combines one scalar across workers. */
    enum class Merge
    {
        Sum,
        Max
    };

    /**
     * Every scalar above, named once: calls
     * f(group, label, merge, s.field...) per scalar, in wire and
     * render order. encode, decode, merge and render all walk this
     * list. Counters add across a fleet; the shared slab-store
     * file's size and the draining flag take the max (adding
     * per-worker views of one file would multiply-count its bytes).
     */
    template <class F, class... S>
    static void
    forEachStat(F &&f, S &...s)
    {
        constexpr Merge Sum = Merge::Sum, Max = Merge::Max;
        f("queue", "queued", Sum, s.queueDepth...);
        f("queue", "peak", Sum, s.queuePeak...);
        f("queue", "in-flight", Sum, s.inFlight...);
        f("queue", "draining", Max, s.draining...);
        f("transport", "live conns", Sum, s.liveConns...);
        f("transport", "accepted", Sum, s.connsAccepted...);
        f("transport", "rejected", Sum, s.connsRejected...);
        f("fleet", "workers up", Sum, s.workersUp...);
        f("fleet", "workers known", Sum, s.workersKnown...);
        f("fleet", "reroutes", Sum, s.reroutes...);
        f("fleet", "down-marks", Sum, s.downMarks...);
        f("fleet", "rejoins", Sum, s.rejoins...);
        f("fleet", "deadline-shed", Sum, s.deadlineShed...);
        f("supervisor", "workers", Sum, s.workersSupervised...);
        f("supervisor", "restarts", Sum, s.supervisorRestarts...);
        f("supervisor", "crash-looping", Sum,
          s.supervisorCrashLoops...);
        f("slab store", "loaded", Sum, s.store.loaded...);
        f("slab store", "salvaged", Sum, s.store.salvaged...);
        f("slab store", "stale", Sum, s.store.stale...);
        f("slab store", "appended", Sum, s.store.appended...);
        f("slab store", "B appended", Sum, s.store.appendedBytes...);
        f("slab store", "B on disk", Max, s.store.fileBytes...);
        f("slab store", "lock waits", Sum, s.store.lockWaits...);
        f("slab store", "us lock wait", Sum, s.store.lockWaitUs...);
        f("slab store", "quarantined", Sum, s.store.quarantined...);
        f("slab engine", "cells batched", Sum,
          s.engine.cellsBatched...);
        f("slab engine", "per-cell", Sum, s.engine.cellsPerCell...);
        f("slab engine", "walks done", Sum, s.engine.walksDone...);
        f("slab engine", "walks saved", Sum, s.engine.walksSaved...);
    }

    /** Totals across endpoints. */
    uint64_t totalRequests() const
    {
        return total(&EndpointSnap::requests);
    }
    uint64_t totalCacheHits() const
    {
        return total(&EndpointSnap::cacheHits);
    }
    uint64_t totalBytesOut() const
    {
        return total(&EndpointSnap::bytesOut);
    }
    uint64_t total(uint64_t EndpointSnap::*counter) const;

    /**
     * Fold one worker's snapshot into this fleet roll-up: scalars
     * merge by their forEachStat rule, endpoint counters and latency
     * buckets add (so the fleet's percentiles are exact), fault
     * counters add per site.
     */
    void merge(const StatsSnap &w);

    /** Rendered ASCII table (one row per endpoint with traffic),
     * then one "group: value label, ..." line per non-zero group,
     * then one line per fault site. */
    std::string render() const;

    void encode(ByteWriter &w) const;
    static bool decode(ByteReader &r, StatsSnap *out);
};

/** The live metrics of one executor, or of a router's own front
 * end (connection counters only). */
class ServiceMetrics
{
  public:
    EndpointMetrics &
    at(ReqType t)
    {
        return ep_[size_t(t)];
    }

    /** Record a new queued-depth observation (keeps the peak). */
    void
    observeQueueDepth(uint64_t depth)
    {
        uint64_t prev = queuePeak_.load(std::memory_order_relaxed);
        while (prev < depth &&
               !queuePeak_.compare_exchange_weak(
                   prev, depth, std::memory_order_relaxed)) {
        }
    }

    void
    connAccepted()
    {
        liveConns_.fetch_add(1, std::memory_order_relaxed);
        connsAccepted_.fetch_add(1, std::memory_order_relaxed);
    }

    void
    connClosed()
    {
        liveConns_.fetch_sub(1, std::memory_order_relaxed);
    }

    void
    connRejected()
    {
        connsRejected_.fetch_add(1, std::memory_order_relaxed);
    }

    StatsSnap snapshot(uint64_t queue_depth, uint64_t in_flight,
                       bool draining) const;

  private:
    std::array<EndpointMetrics, size_t(ReqType::kCount)> ep_{};
    std::atomic<uint64_t> queuePeak_{0};
    std::atomic<uint64_t> liveConns_{0};
    std::atomic<uint64_t> connsAccepted_{0};
    std::atomic<uint64_t> connsRejected_{0};
};

} // namespace cisa

#endif // CISA_SERVICE_METRICS_HH
