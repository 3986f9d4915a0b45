#include "service/executor.hh"

#include <algorithm>
#include <atomic>

#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "explore/campaign.hh"

namespace cisa
{

/**
 * One admitted computation, possibly shared by several coalesced
 * waiters. All fields are guarded by the executor's mutex except the
 * immutable request/key and the token and waiter count, which are
 * atomic: a worker reads both outside the lock while computing (to
 * notice cancellation and to label the failure it produces).
 */
class Executor::Job
{
  public:
    Job(const Request &req, uint64_t key) : req(req), key(key) {}

    const Request req;
    const uint64_t key;
    CancelToken token;

    Clock::time_point submitTime{};
    std::atomic<int> waiters{0}; ///< attached, not yet timed out
    bool done = false;
    Response resp;
};

Executor::Executor(const Options &opts)
    : handler_(opts.handler),
      bound_(size_t(opts.queueBound))
{
    panic_if(opts.queueBound < 1 || opts.workers < 1,
             "executor needs a queue bound and a dispatcher");
    workers_.reserve(size_t(opts.workers));
    for (int i = 0; i < opts.workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    drain();
}

bool
Executor::draining() const
{
    return draining_.load(std::memory_order_acquire);
}

size_t
Executor::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

StatsSnap
Executor::snapshot() const
{
    size_t depth, running;
    bool draining;
    {
        std::lock_guard<std::mutex> lk(mu_);
        depth = queue_.size();
        running = running_;
        draining = draining_;
    }
    StatsSnap s = metrics_.snapshot(depth, running, draining);
    // Surface the durable slab store's health and the slab engine's
    // mode counters without instantiating the campaign as a side
    // effect of a stats probe.
    if (const Campaign *c = Campaign::maybeGet()) {
        s.store = c->storeHealth();
        s.engine = c->engineHealth();
    }
    return s;
}

Executor::JobPtr
Executor::submit(const Request &req, uint32_t deadline_ms)
{
    EndpointMetrics &m = metrics_.at(req.type);
    m.requests.fetch_add(1, std::memory_order_relaxed);

    uint64_t key = req.fingerprint();
    Clock::time_point now = Clock::now();

    std::unique_lock<std::mutex> lk(mu_);
    if (draining_) {
        m.busy.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }

    // Coalesce with a queued or running twin: same key, same
    // canonical request — share its computation and response.
    auto inflight = inflight_.find(key);
    if (inflight != inflight_.end() && !inflight->second->done) {
        JobPtr j = inflight->second;
        j->waiters++;
        if (deadline_ms > 0) {
            j->token.extendDeadline(
                now + std::chrono::milliseconds(deadline_ms));
        }
        m.coalesced.fetch_add(1, std::memory_order_relaxed);
        return j;
    }

    if (queue_.size() >= bound_) {
        m.busy.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }

    JobPtr j = std::make_shared<Job>(req, key);
    j->submitTime = now;
    j->waiters = 1;
    if (deadline_ms > 0) {
        j->token.extendDeadline(
            now + std::chrono::milliseconds(deadline_ms));
    }
    queue_.emplace(std::make_pair(req.priorityClass(), seq_++), j);
    inflight_[key] = j;
    metrics_.observeQueueDepth(queue_.size());
    lk.unlock();
    queueCv_.notify_one();
    return j;
}

Response
Executor::wait(const JobPtr &job, uint32_t deadline_ms)
{
    if (!job) {
        return Response::fail(Status::Busy,
                              draining() ? "server draining"
                                         : "queue full");
    }
    EndpointMetrics &m = metrics_.at(job->req.type);
    // This waiter's own budget counts from now (an attach via
    // coalescing starts later than the job's original submit).
    Clock::time_point until =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
    std::unique_lock<std::mutex> lk(mu_);
    bool timed_out = false;
    if (deadline_ms == 0) {
        doneCv_.wait(lk, [&] { return job->done; });
    } else {
        timed_out = !doneCv_.wait_until(lk, until,
                                        [&] { return job->done; });
    }

    if (timed_out) {
        // Detach; if nobody else cares, cancel the computation so a
        // dispatcher (or the queue) doesn't keep burning time on it.
        if (--job->waiters == 0)
            job->token.cancel();
        m.deadline.fetch_add(1, std::memory_order_relaxed);
        return Response::fail(
            Status::Deadline,
            strfmt("deadline of %u ms passed", deadline_ms));
    }

    job->waiters--;
    Response resp = job->resp;
    lk.unlock();

    switch (resp.status) {
      case Status::Ok: {
        m.ok.fetch_add(1, std::memory_order_relaxed);
        auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - job->submitTime)
                      .count();
        m.latency.add(uint64_t(std::max<int64_t>(us, 0)));
        break;
      }
      case Status::Deadline:
        m.deadline.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        m.errors.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return resp;
}

Response
Executor::call(const Request &req, uint32_t deadline_ms)
{
    // Stats are answered from counters without touching the queue,
    // so observability works even when the service is saturated.
    if (req.type == ReqType::Stats) {
        metrics_.at(req.type).requests.fetch_add(
            1, std::memory_order_relaxed);
        metrics_.at(req.type).ok.fetch_add(
            1, std::memory_order_relaxed);
        StatsSnap s = snapshot();
        Response resp;
        ByteWriter w;
        s.encode(w);
        resp.body = w.take();
        return resp;
    }

    return wait(submit(req, deadline_ms), deadline_ms);
}

void
Executor::drain()
{
    {
        std::unique_lock<std::mutex> lk(mu_);
        draining_ = true;
        queueCv_.notify_all();
        idleCv_.wait(lk, [&] {
            return queue_.empty() && running_ == 0;
        });
    }
    for (std::thread &t : workers_) {
        if (t.joinable())
            t.join();
    }
    workers_.clear();
}

void
Executor::finishJob(const JobPtr &job, Response &&resp)
{
    std::unique_lock<std::mutex> lk(mu_);
    job->resp = std::move(resp);
    job->done = true;
    inflight_.erase(job->key);
    lk.unlock();
    doneCv_.notify_all();
}

void
Executor::workerLoop()
{
    for (;;) {
        JobPtr job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            queueCv_.wait(lk, [&] {
                return !queue_.empty() || draining_;
            });
            if (queue_.empty()) {
                // Draining with nothing queued: exit once running
                // peers are also done (they notify idleCv_).
                if (running_ == 0)
                    idleCv_.notify_all();
                return;
            }
            auto it = queue_.begin();
            job = it->second;
            queue_.erase(it);
            running_++;
        }

        Response resp;
        if (job->token.expired()) {
            // Every waiter gave up (or the deadline passed) while
            // the job sat in the queue; don't compute for nobody.
            resp = Response::fail(job->waiters == 0
                                      ? Status::CancelledByPeer
                                      : Status::Deadline,
                                  "expired before execution");
        } else {
            // exec.delay fault site: inject compute latency so
            // deadline/shed behaviour can be driven deterministically
            // (the fired "fault" is the sleep; the result is fine).
            if (faultArmed())
                faultPoint(FaultSite::ExecDelay);
            try {
                resp = handler_(job->req, job->token);
            } catch (const Cancelled &) {
                resp = Response::fail(job->waiters == 0
                                          ? Status::CancelledByPeer
                                          : Status::Deadline,
                                      "cancelled mid-computation");
            } catch (const std::exception &e) {
                resp = Response::fail(Status::Error, e.what());
            }
        }
        finishJob(job, std::move(resp));

        {
            std::lock_guard<std::mutex> lk(mu_);
            running_--;
            if (draining_ && queue_.empty() && running_ == 0)
                idleCv_.notify_all();
        }
    }
}

namespace
{

/** Geometric-mean summary table of one slab (the Table endpoint). */
std::string
renderSlabTable(int slab, const std::vector<PhasePerf> &cells)
{
    std::string isa_name =
        DesignPoint::fromRow(slab * DesignPoint::kUarchCount)
            .vendorModel()
            .name();
    Table t(strfmt("slab %d (%s): per-uarch geomean over %d phases",
                   slab, isa_name.c_str(), phaseCount()));
    t.header({"uarch", "t_solo(s)", "e_solo(J)", "t_mp(s)",
              "e_mp(J)"});
    size_t phases = size_t(phaseCount());
    for (int u = 0; u < DesignPoint::kUarchCount; u++) {
        std::vector<double> ts, es, tm, em;
        ts.reserve(phases);
        es.reserve(phases);
        tm.reserve(phases);
        em.reserve(phases);
        for (size_t p = 0; p < phases; p++) {
            const PhasePerf &c = cells[size_t(u) * phases + p];
            ts.push_back(c.timePerRun);
            es.push_back(c.energyPerRun);
            tm.push_back(c.timePerRunMp);
            em.push_back(c.energyPerRunMp);
        }
        t.row({MicroArchConfig::byId(u).name(),
               Table::num(geomean(ts), 6), Table::num(geomean(es), 6),
               Table::num(geomean(tm), 6),
               Table::num(geomean(em), 6)});
    }
    return t.str();
}

} // namespace

Response
Executor::dispatch(const Request &req, CancelToken &token)
{
    Response resp;
    ByteWriter w;
    switch (req.type) {
      case ReqType::Ping:
        break;
      case ReqType::Eval: {
        DesignPoint dp = req.designPoint();
        Campaign &camp = Campaign::get();
        camp.ensureSlab(Campaign::slabOf(dp), &token);
        encodePhasePerf(w, camp.at(dp, req.eval.phase));
        break;
      }
      case ReqType::Slab: {
        encodeSlabPerf(
            w, Campaign::get().slabPerf(req.slab.slab, &token));
        break;
      }
      case ReqType::Search: {
        Budget b;
        b.powerW = req.search.powerW;
        b.areaMm2 = req.search.areaMm2;
        b.dynamicMulticore = req.search.dynamicMulticore != 0;
        SearchResult res = searchDesign(
            Family(req.search.family), Objective(req.search.objective),
            b, req.search.seed, nullptr, &token);
        encodeSearchResult(w, res);
        break;
      }
      case ReqType::Table: {
        std::vector<PhasePerf> cells =
            Campaign::get().slabPerf(req.slab.slab, &token);
        w.str(renderSlabTable(req.slab.slab, cells));
        break;
      }
      case ReqType::Stats:
      case ReqType::kCount:
        return Response::fail(Status::BadRequest,
                              "not a queueable request");
    }
    resp.body = w.take();
    return resp;
}

} // namespace cisa
