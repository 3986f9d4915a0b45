/**
 * @file
 * The batching request executor behind cisa-serve: a bounded
 * priority queue drained by a small set of dispatcher threads, with
 * in-flight request coalescing, per-waiter deadlines with
 * cooperative cancellation, and graceful drain-on-shutdown.
 * Completed responses are cached one layer up, as encoded frames in
 * the server (src/service/server.hh).
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
 * same Response). Equal keys mean equal canonical request bytes.
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
 */

#ifndef CISA_SERVICE_EXECUTOR_HH
#define CISA_SERVICE_EXECUTOR_HH

#include <chrono>
#include <condition_variable>
#include <functional>
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
     * polling @p token at its own pace. The default is dispatch();
     * tests inject synthetic handlers to probe queueing behaviour,
     * and the server wraps the handler to cache what it computes.
     */
    using Handler =
        std::function<Response(const Request &, CancelToken &)>;

    /** The default handler: the campaign/search/table library code. */
    static Response dispatch(const Request &req, CancelToken &token);

    struct Options
    {
        int queueBound = 0;         ///< 0 = CISA_SERVE_QUEUE
        int workers = 0;            ///< 0 = CISA_SERVE_WORKERS
        Handler handler = dispatch;
    };

    Executor() : Executor(Options()) {}
    explicit Executor(const Options &opts);
    ~Executor(); ///< drains

    Executor(const Executor &) = delete;
    Executor &operator=(const Executor &) = delete;

    class Job;
    using JobPtr = std::shared_ptr<Job>;

    /**
     * Admit one request. @p deadline_ms (0 = none) is this waiter's
     * budget, counted from now. Returns the (possibly shared) job to
     * wait() on, or null for Busy: queue at bound, or draining.
     */
    JobPtr submit(const Request &req, uint32_t deadline_ms);

    /**
     * Block until @p job completes or this waiter's deadline passes;
     * a null @p job (a Busy submit) gets a BUSY response. Each
     * accepted submit must be waited exactly once (wait balances the
     * waiter count submit registered).
     */
    Response wait(const JobPtr &job, uint32_t deadline_ms);

    /** submit + wait. Stats requests are answered inline and never
     * queued. */
    Response call(const Request &req, uint32_t deadline_ms = 0);

    /** Stop admission and finish queued + running work. Idempotent;
     * afterwards every submit returns Busy. */
    void drain();

    bool draining() const;

    /** Jobs currently queued (excludes running). Never exceeds the
     * queue bound — the backpressure invariant test_service asserts. */
    size_t queueDepth() const;

    size_t queueBound() const { return bound_; }

    ServiceMetrics &metrics() { return metrics_; }

    /** Metrics snapshot including live queue state. */
    StatsSnap snapshot() const;

  private:
    using Clock = std::chrono::steady_clock;

    void workerLoop();
    void finishJob(const JobPtr &job, Response &&resp);

    Handler handler_;
    size_t bound_;
    ServiceMetrics metrics_;

    mutable std::mutex mu_;
    std::condition_variable queueCv_; ///< workers: queue/stop changes
    std::condition_variable doneCv_;  ///< waiters: job completion
    std::condition_variable idleCv_;  ///< drain: all work finished

    /** Queued jobs ordered by (priority class, admission seq). */
    std::map<std::pair<int, uint64_t>, JobPtr> queue_;
    /** Queued or running jobs by fingerprint (coalescing index). */
    std::unordered_map<uint64_t, JobPtr> inflight_;

    std::vector<std::thread> workers_;
    uint64_t seq_ = 0;
    size_t running_ = 0;
    /** Atomic so the server's cache-hit path can check it without
     * taking the queue mutex (writes still happen under mu_, which
     * orders them with the queue state). */
    std::atomic<bool> draining_{false};
};

} // namespace cisa

#endif // CISA_SERVICE_EXECUTOR_HH
