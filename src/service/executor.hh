/**
 * @file
 * The batching request executor behind cisa-serve: a bounded
 * priority queue drained by a small set of dispatcher threads, with
 * in-flight request coalescing, a bounded completed-response cache,
 * per-waiter deadlines with cooperative cancellation, and graceful
 * drain-on-shutdown.
 *
 * Layering: each dispatcher runs one request at a time; the request
 * handler itself fans out over the process-wide CISA_THREADS pool
 * (slab cells, search sweeps — the PR 1 parallel layer), so a single
 * heavy request still saturates the machine while the queue bounds
 * how much work is ever outstanding.
 *
 * Identity and deduplication: requests are keyed by their canonical
 * fingerprint (src/service/request.hh). A submit whose key matches a
 * queued or running job *attaches* to it instead of enqueueing
 * (coalescing — the computation runs once, every waiter gets the
 * same Response); a key matching a completed cached response returns
 * it immediately. Both paths are exact: equal keys mean equal
 * canonical request bytes.
 *
 * Backpressure: at most `queueBound` jobs may be queued (running
 * jobs and attached waiters don't count — they consume no queue
 * memory). A submit that would exceed the bound is rejected with
 * Busy and buffers nothing, so a saturated daemon's memory stays
 * bounded no matter the offered load.
 *
 * Deadlines: each waiter carries its own deadline. A waiter whose
 * deadline passes gets a Deadline response and detaches; the shared
 * job keeps running while any waiter remains (its cancel token's
 * deadline is the maximum over attached waiters) and is cancelled
 * cooperatively once the last waiter gives up.
 *
 * Drain: drain() stops admission (submits return Busy), lets queued
 * and running jobs finish, and joins the dispatchers. Used by the
 * server's SIGTERM path.
 *
 * Degraded mode: while draining or with the queue at its bound, a
 * cacheable request whose answer is cached is still served, with the
 * response's stale bit set instead of Busy (see submit()).
 */

#ifndef CISA_SERVICE_EXECUTOR_HH
#define CISA_SERVICE_EXECUTOR_HH

#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.hh"
#include "service/metrics.hh"
#include "service/request.hh"

namespace cisa
{

class Executor
{
  public:
    /**
     * Request handler: computes the Response for one request,
     * polling @p token at its own pace. The default (null) handler
     * dispatches to the campaign/search/table library code; tests
     * inject synthetic handlers to probe queueing behaviour.
     */
    using Handler =
        std::function<Response(const Request &, CancelToken &)>;

    struct Options
    {
        int queueBound = 0;   ///< 0 = CISA_SERVE_QUEUE
        int workers = 0;      ///< 0 = CISA_SERVE_WORKERS
        int cacheEntries = -1; ///< -1 = CISA_SERVE_CACHE
        Handler handler;      ///< null = built-in dispatch
    };

    Executor() : Executor(Options()) {}
    explicit Executor(const Options &opts);
    ~Executor(); ///< drains

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    class Job;
    using JobPtr = std::shared_ptr<Job>;

    enum class Admit
    {
        Accepted, ///< queued or coalesced; wait() for the response
        CacheHit, ///< *cached filled in, nothing queued
        Busy      ///< queue at bound, or draining
    };

    /**
     * Admit one request. @p deadline_ms (0 = none) is this waiter's
     * budget, counted from now. On Accepted, @p job receives the
     * (possibly shared) job to wait() on.
     */
    Admit submit(const Request &req, uint32_t deadline_ms,
                 JobPtr *job, Response *cached);

    /**
     * Block until @p job completes or this waiter's deadline passes.
     * Each accepted submit must be waited exactly once (wait
     * balances the waiter count submit registered).
     */
    Response wait(const JobPtr &job, uint32_t deadline_ms);

    /** submit + wait, mapping Busy to a BUSY response. Stats
     * requests are answered inline and never queued. */
    Response call(const Request &req, uint32_t deadline_ms = 0);

    /** Stop admission and finish queued + running work. Idempotent;
     * afterwards every submit returns Busy, except a cache hit,
     * which is served stale. */
    void drain();

    bool draining() const;

    /** Jobs currently queued (excludes running). Never exceeds the
     * queue bound — the backpressure invariant test_service asserts. */
    size_t queueDepth() const;

    size_t queueBound() const { return bound_; }

    /** Resolved response-cache capacity (0 = caching off); the
     * server sizes its wire cache from it. */
    size_t cacheCapacity() const { return cacheCap_; }

    ServiceMetrics &metrics() { return metrics_; }

    /** Metrics snapshot including live queue state. */
    StatsSnap snapshot() const;

  private:
    using Clock = std::chrono::steady_clock;

    void workerLoop();
    void finishJob(const JobPtr &job, Response &&resp);
    Response runHandler(const Request &req, CancelToken &token);

    Handler handler_;
    size_t bound_;
    size_t cacheCap_;
    ServiceMetrics metrics_;

    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< workers: queue/stop changes
    std::condition_variable doneCv_;  ///< waiters: job completion
    std::condition_variable idleCv_;  ///< drain: all work finished

    /** Queued jobs ordered by (priority class, admission seq). */
    std::map<std::pair<int, uint64_t>, JobPtr> queue_;
    /** Queued or running jobs by fingerprint (coalescing index). */
    std::unordered_map<uint64_t, JobPtr> inflight_;
    /** Completed Ok responses, most recent first (bounded LRU). */
    std::list<std::pair<uint64_t, Response>> cache_;
    std::unordered_map<
        uint64_t,
        std::list<std::pair<uint64_t, Response>>::iterator>
        cacheIdx_;

    std::vector<std::thread> workers_;
    uint64_t seq_ = 0;
    size_t running_ = 0;
    /** Atomic so the server's wire-cache fast path can check it
     * without taking the queue mutex (writes still happen under
     * mu_, which orders them with the queue state). */
    std::atomic<bool> draining_{false};
};

} // namespace cisa

#endif // CISA_SERVICE_EXECUTOR_HH
