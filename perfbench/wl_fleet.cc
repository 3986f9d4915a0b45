/**
 * @file
 * fleet_open: cisa_router in front of two cisa_serve workers on TCP
 * loopback, over the warm store. Frame codec, router relay and the
 * executor's response cache do the work; the simulator does none.
 *
 * The load is a seeded mix of slab / eval / table / ping requests
 * in the shares of the repository's documented fleet traffic (the
 * README quick-start and scripts/fleet_smoke.sh), over two
 * connections, in three legs:
 *  - fixed: open loop at a fixed absolute rate, straight after the
 *    warm-up; every request is timed from when it was due (op_p50_us,
 *    op_p99_us). The workers' Stats are read around it, so their
 *    lifetime figures (latency histograms, queue peak) cover only
 *    the warm-up and this leg, never the overload legs below;
 *  - burst: a fixed batch sent closed loop (work_s);
 *  - ladder: open-loop rungs bisecting a range of fractions of the
 *    burst rate; the highest rate whose p99 meets the limit without
 *    a growing backlog, interpolated inside the final bracket, is
 *    ops_per_s.
 * The traced run adds a direct-to-worker leg at the fixed rate right
 * after the fixed leg (the router's relay cost is the difference of
 * the two p50s).
 *
 * Every response body must equal the in-process Executor's answer
 * to the same request (Campaign::slabPerf, evalPoint, tableOf); a
 * mismatch, refusal or transport failure counts as failed.
 *
 * The fleet's stdout/stderr go to /dev/null, children die with the
 * harness (PR_SET_PDEATHSIG), and every exit path reaps them.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/serialize.hh"
#include "explore/campaign.hh"
#include "harness.hh"
#include "service/client.hh"
#include "service/executor.hh"
#include "service/request.hh"
#include "trace.hh"

using namespace cisa;

namespace perfbench
{

namespace
{

/** Load connections: two, below nproc, because four client threads
 * crowded the fleet off the 4-core host and made capacity bimodal. */
constexpr int kConns = 2;
constexpr int kWorkers = 2;
constexpr int kEvalPoints = 64;      ///< distinct eval requests
constexpr int kBursts = 5;
constexpr size_t kBurstRequests = 8000;
constexpr double kFixedRate = 10000; ///< req/s of the fixed leg
constexpr double kFixedSeconds = 2.5;
/** Backlog growth over a rung, as a share of its requests, beyond
 * which the generator is falling behind. */
constexpr double kGrowthBound = 0.02;
constexpr double kWindowS = 0.25;    ///< fixed-leg statistics window
constexpr double kP99LimitUs = 5000; ///< ladder latency limit
constexpr double kRungSeconds = 0.6;
constexpr uint64_t kSpinNs = 50000; ///< send-time spin before due
/** Ladder range as fractions of the burst capacity, and its
 * bisection steps after the first rung at kLadderLo. */
constexpr double kLadderLo = 0.6;
constexpr double kLadderHi = 1.25;
constexpr int kLadderSteps = 5;

/** The fleet's child processes; the destructor reaps them. */
class Fleet
{
  public:
    Fleet() = default;
    ~Fleet() { stop(); }
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Fork/exec @p args with stdio silenced; the child is killed
     * if this process dies first. */
    void spawn(const std::vector<std::string> &args, bool readonlyStore)
    {
        std::vector<char *> argv;
        for (const std::string &s : args)
            argv.push_back(const_cast<char *>(s.c_str()));
        argv.push_back(nullptr);
        pid_t parent = ::getpid();
        pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(127);
            int null = ::open("/dev/null", O_RDWR);
            if (null >= 0) {
                ::dup2(null, 0);
                ::dup2(null, 1);
                ::dup2(null, 2);
                if (null > 2)
                    ::close(null);
            }
            if (readonlyStore)
                ::setenv("CISA_DSE_READONLY", "1", 1);
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        pids_.push_back(pid);
    }

    /** SIGTERM, wait up to 5 s, then SIGKILL; sums the children's
     * peak RSS. Idempotent. */
    void stop()
    {
        for (pid_t p : pids_)
            ::kill(p, SIGTERM);
        for (pid_t p : pids_) {
            struct rusage ru{};
            int status = 0;
            bool done = false;
            for (int i = 0; i < 500 && !done; i++) {
                if (::wait4(p, &status, WNOHANG, &ru) == p)
                    done = true;
                else
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
            }
            if (!done) {
                ::kill(p, SIGKILL);
                ::wait4(p, &status, 0, &ru);
            }
            rssMb_ += double(ru.ru_maxrss) / 1024.0;
        }
        pids_.clear();
    }

    double rssMb() const { return rssMb_; }

  private:
    std::vector<pid_t> pids_;
    double rssMb_ = 0;
};

/** Wait up to 6 s for the --print-address file; empty on timeout. */
std::string
waitAddress(const std::string &file)
{
    for (int i = 0; i < 6000; i++) {
        if (FILE *f = std::fopen(file.c_str(), "r")) {
            char buf[256] = {0};
            char *line = std::fgets(buf, sizeof(buf), f);
            std::fclose(f);
            std::string s = line ? line : "";
            while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
                s.pop_back();
            if (!s.empty() && line && std::strchr(buf, '\n'))
                return s;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return {};
}

/** Distinct requests of the mix with their reference bodies. */
struct Universe
{
    std::vector<Request> reqs;
    std::vector<std::vector<uint8_t>> bodies;
    std::vector<double> weight;

    /** Seeded request sequence of length @p n (indices). */
    std::vector<uint32_t> sequence(uint64_t seed, size_t n) const
    {
        std::mt19937_64 rng(seed);
        std::discrete_distribution<uint32_t> pick(weight.begin(),
                                                  weight.end());
        std::vector<uint32_t> seq(n);
        for (uint32_t &s : seq)
            s = pick(rng);
        return seq;
    }
};

/**
 * The mix "slab=4,ping=2,table=1,eval=1" of the README quick-start
 * and scripts/fleet_smoke.sh: 50% slab (one of 29, 141 KiB bodies),
 * 25% ping, 12.5% table (one of 29), 12.5% eval (one of 64 seeded
 * design-point/phase pairs). Reference bodies come from an
 * in-process Executor over the same store.
 */
Universe
buildUniverse(uint64_t seed, Report &r)
{
    Universe u;
    auto add = [&](const Request &q, double w) {
        u.reqs.push_back(q);
        u.weight.push_back(w);
    };
    for (int s = 0; s < Campaign::kSlabs; s++)
        add(Request::slabPerf(s), 4.0 / Campaign::kSlabs);
    for (int s = 0; s < Campaign::kSlabs; s++)
        add(Request::tableOf(s), 1.0 / Campaign::kSlabs);
    std::mt19937_64 rng(seed ^ 0x5eed5eedULL);
    for (int i = 0; i < kEvalPoints; i++) {
        int row = int(rng() % uint64_t(DesignPoint::kTotalRows));
        int ph = int(rng() % uint64_t(phaseCount()));
        add(Request::evalPoint(DesignPoint::fromRow(row), ph),
            1.0 / kEvalPoints);
    }
    add(Request::ping(), 2.0);

    Executor ex;
    for (const Request &q : u.reqs) {
        Response resp = ex.call(q);
        if (resp.status != Status::Ok)
            throw std::runtime_error("in-process reference failed: " +
                                     resp.message);
        u.bodies.push_back(resp.body);
    }
    // The Slab endpoint must also agree with the campaign table.
    for (int s = 0; s < Campaign::kSlabs; s++) {
        ByteWriter w;
        encodeSlabPerf(w, Campaign::get().slabPerf(s));
        if (w.bytes() != u.bodies[size_t(s)])
            r.fail("slab " + std::to_string(s) +
                   ": executor body differs from Campaign::slabPerf");
    }
    return u;
}

struct LegResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double wallS = 0; ///< leg start to last completion
    /** Open loop: per window of kWindowS due time, latency from due
     * (p50, p99), sending lateness (p99) and the requests still
     * unsent when the window closed. A stall of the host then moves
     * one window, not the leg's median window. */
    std::vector<double> winP50, winP99, winLate, winBacklog;

    double p50() const { return median(winP50); }
    double p99() const { return median(winP99); }
    double lateP99() const { return median(winLate); }
    double backlog() const { return median(winBacklog); }

    /** Backlog growth from the first to the last window, as a share
     * of the leg's requests; a generator that keeps up stays near 0
     * however much the backlog jitters between windows. */
    double growth() const
    {
        if (winBacklog.empty())
            return 0;
        double n = double(attempted);
        return std::max(0.0, winBacklog.back() - winBacklog.front()) / n;
    }

    static double median(std::vector<double> v)
    {
        return quantile(v, 0.5);
    }
};

/**
 * Send @p seq over @p conns connections. rate > 0: open loop, request
 * i due at t0 + i / rate and timed from its due time. rate == 0:
 * closed loop, each connection sends back to back.
 */
LegResult
runLeg(const std::string &addr, const Universe &u,
       const std::vector<uint32_t> &seq, int conns, double rate,
       double windowS, const char *span)
{
    size_t n = seq.size();
    std::vector<uint64_t> startNs(n, 0), endNs(n, 0);
    std::vector<uint8_t> bad(n, 0);
    std::atomic<size_t> next{0};
    std::atomic<bool> connectFailed{false};
    Span legSpan(span);
    uint64_t legId = legSpan.id();
    uint64_t t0 = nowNs() + 2000000; // 2 ms to get the threads going
    auto dueNs = [&](size_t i) {
        return rate > 0 ? t0 + uint64_t(double(i) * 1e9 / rate) : t0;
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < conns; c++) {
        threads.emplace_back([&] {
            ::prctl(PR_SET_TIMERSLACK, 1UL);
            Client cl;
            cl.setRetryPolicy(RetryPolicy{0, 0});
            if (!cl.connect(addr)) {
                connectFailed = true;
                return;
            }
            Response resp;
            for (;;) {
                size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                // Sleep to just short of the due time, then spin: a
                // sleeping thread on an idle vCPU wakes tens of
                // microseconds late, which would count against the
                // fleet.
                uint64_t due = dueNs(i);
                uint64_t now = nowNs();
                if (now + kSpinNs < due)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(due - kSpinNs - now));
                while (nowNs() < due) {
                }
                startNs[i] = nowNs();
                bool ok;
                {
                    Span s("service.call", i, legId);
                    ok = cl.call(u.reqs[seq[i]], &resp);
                }
                endNs[i] = nowNs();
                if (!ok || resp.status != Status::Ok ||
                    resp.body != u.bodies[seq[i]]) {
                    bad[i] = 1;
                    if (!ok) {
                        cl.close();
                        cl.connect(addr);
                    }
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    LegResult lr;
    lr.attempted = n;
    uint64_t lastEnd = t0;
    for (size_t i = 0; i < n; i++) {
        if (startNs[i] == 0 || bad[i])
            lr.failed++;
        else
            lastEnd = std::max(lastEnd, endNs[i]);
    }
    if (connectFailed)
        lr.failed = std::max<uint64_t>(lr.failed, 1);
    lr.wallS = double(lastEnd - t0) * 1e-9;
    if (rate <= 0)
        return lr;

    size_t perWin = std::max<size_t>(1, size_t(rate * windowS));
    for (size_t w0 = 0; w0 + perWin <= n; w0 += perWin) {
        size_t w1 = w0 + perWin;
        uint64_t close = dueNs(w1 - 1);
        std::vector<double> lat, late;
        for (size_t i = w0; i < w1; i++) {
            if (startNs[i] == 0 || bad[i])
                continue;
            lat.push_back(double(endNs[i] - dueNs(i)) * 1e-3);
            late.push_back(double(startNs[i] - std::min(startNs[i],
                                                         dueNs(i))) *
                           1e-3);
        }
        double unsent = 0;
        for (size_t i = 0; i < w1; i++)
            if (startNs[i] == 0 || startNs[i] > close)
                unsent++;
        lr.winP50.push_back(quantile(lat, 0.50));
        lr.winP99.push_back(quantile(lat, 0.99));
        lr.winLate.push_back(quantile(late, 0.99));
        lr.winBacklog.push_back(unsent);
    }
    return lr;
}

/** Stats of every worker, fetched directly. */
std::vector<StatsSnap>
workerStats(const std::vector<std::string> &addrs)
{
    std::vector<StatsSnap> out;
    for (const std::string &a : addrs) {
        Client cl;
        cl.setRetryPolicy(RetryPolicy{2, 5});
        StatsSnap s;
        if (!cl.connect(a) || cl.stats(&s) != Status::Ok)
            throw std::runtime_error("stats from " + a + " failed");
        out.push_back(s);
    }
    return out;
}

uint64_t
sumOf(const std::vector<StatsSnap> &v, uint64_t (StatsSnap::*f)() const)
{
    uint64_t t = 0;
    for (const StatsSnap &s : v)
        t += (s.*f)();
    return t;
}

uint64_t
busyOf(const std::vector<StatsSnap> &v)
{
    uint64_t t = 0;
    for (const StatsSnap &s : v)
        for (const EndpointSnap &e : s.ep)
            t += e.busy;
    return t;
}

} // namespace

int
runFleet(const Args &a, Report &r)
{
    if (!loadWarmStore(a))
        return 1;
    Universe u = buildUniverse(a.seed, r);

    // The workers start side by side; the router needs their addresses.
    Fleet fleet;
    std::vector<std::string> addrFiles, workers;
    for (int i = 0; i < kWorkers; i++) {
        addrFiles.push_back(a.scratch + "/worker" + std::to_string(i) +
                            ".addr");
        ::unlink(addrFiles.back().c_str());
        fleet.spawn({a.toolDir + "/cisa_serve", "--address", "127.0.0.1:0",
                     "--print-address", addrFiles.back()},
                    true);
    }
    for (const std::string &af : addrFiles) {
        workers.push_back(waitAddress(af));
        if (workers.back().empty())
            throw std::runtime_error("worker did not come up");
    }
    std::string rf = a.scratch + "/router.addr";
    ::unlink(rf.c_str());
    std::vector<std::string> rargs = {a.toolDir + "/cisa_router",
                                      "--address",
                                      "127.0.0.1:0",
                                      "--replicas",
                                      std::to_string(kWorkers),
                                      "--print-address",
                                      rf};
    for (const std::string &w : workers) {
        rargs.push_back("--worker");
        rargs.push_back(w);
    }
    fleet.spawn(rargs, true);
    std::string router = waitAddress(rf);
    if (router.empty())
        throw std::runtime_error("router did not come up");

    // Warm every worker's store and response cache: each distinct
    // request twice through the router and once to each worker.
    std::vector<uint32_t> all(u.reqs.size());
    for (uint32_t i = 0; i < all.size(); i++)
        all[i] = i;
    for (const std::string &addr : {router, router, workers[0], workers[1]}) {
        LegResult w = runLeg(addr, u, all, kConns, 0, 0, "loadgen.warmup");
        if (w.failed)
            throw std::runtime_error("warm-up against " + addr + " failed");
    }
    r.setupS = secondsSince(a.startNs);
    if (a.setupOnly) {
        fleet.stop();
        r.childRssMb = fleet.rssMb();
        return 0;
    }

    uint64_t seedBase = a.seed * 7919;
    auto account = [&](const LegResult &lr, const char *leg) {
        r.attempted += lr.attempted;
        if (lr.failed) {
            r.failed += lr.failed;
            r.errors.push_back(std::string(leg) + ": " +
                               std::to_string(lr.failed) +
                               " requests failed or mismatched");
        }
    };

    // Fixed rate, first: latency from due time. The workers' latency
    // histograms and queue peak are lifetime figures, so this leg
    // runs before the overload legs and its Stats are read right
    // around it; they then cover the warm-up and this leg only.
    std::vector<StatsSnap> before = workerStats(workers);
    std::vector<uint32_t> fixedSeq =
        u.sequence(seedBase + 1000, size_t(kFixedRate * kFixedSeconds));
    LegResult fixed = runLeg(router, u, fixedSeq, kConns, kFixedRate,
                             kWindowS, "loadgen.fixed");
    account(fixed, "fixed");
    std::vector<StatsSnap> after = workerStats(workers);
    r.opP50Us = fixed.p50();
    r.opP99Us = fixed.p99();
    // Window k holds the same requests in every repetition with this
    // seed, so run.py can take each window's best repetition.
    for (size_t k = 0; k < fixed.winP50.size(); k++) {
        char name[16];
        std::snprintf(name, sizeof(name), "p50.w%02zu", k);
        r.opUs[name] = fixed.winP50[k];
        std::snprintf(name, sizeof(name), "p99.w%02zu", k);
        r.opUs[name] = fixed.winP99[k];
    }
    r.layers["loadgen.late_p99_us"] = fixed.lateP99();
    r.layers["loadgen.backlog"] = fixed.backlog();

    uint64_t dReq = sumOf(after, &StatsSnap::totalRequests) -
                    sumOf(before, &StatsSnap::totalRequests);
    uint64_t dHits = sumOf(after, &StatsSnap::totalCacheHits) -
                     sumOf(before, &StatsSnap::totalCacheHits);
    uint64_t dOut = sumOf(after, &StatsSnap::totalBytesOut) -
                    sumOf(before, &StatsSnap::totalBytesOut);
    // The executor's latency histograms record only requests that
    // went through its queue; cache hits skip it. Pings are never
    // cached, so their histogram is the queue + dispatch latency.
    double p50 = 0, p99 = 0, qpeak = 0;
    for (const StatsSnap &s : after) {
        const EndpointSnap &ping = s.ep[size_t(ReqType::Ping)];
        p50 = std::max(p50, double(ping.p50Us));
        p99 = std::max(p99, double(ping.p99Us));
        qpeak = std::max(qpeak, double(s.queuePeak));
    }
    r.layers["service.cache_hit_ratio"] =
        dReq ? double(dHits) / double(dReq) : 0;
    r.layers["service.bytes_out_per_req"] =
        dReq ? double(dOut) / double(dReq) : 0;
    r.layers["service.queue_peak"] = qpeak;
    r.layers["service.busy"] = double(busyOf(after) - busyOf(before));
    r.layers["service.worker_p50_us"] = p50;
    r.layers["service.worker_p99_us"] = p99;

    if (a.traced()) {
        // Same schedule straight at one worker: the router's relay
        // cost is the difference of the two p50s.
        LegResult direct = runLeg(workers[0], u, fixedSeq, kConns,
                                  kFixedRate, kWindowS, "loadgen.direct");
        account(direct, "direct");
        r.layers["service.relay_us"] = r.opP50Us - direct.p50();
    }

    // Bursts: closed-loop capacity, median of several.
    std::vector<double> burstS;
    for (int b = 0; b < kBursts; b++) {
        LegResult lr = runLeg(router, u,
                              u.sequence(seedBase + uint64_t(b),
                                         kBurstRequests),
                              kConns, 0, 0, "loadgen.burst");
        account(lr, "burst");
        burstS.push_back(lr.wallS);
    }
    r.workS = quantile(burstS, 0.5);
    double capacity = double(kBurstRequests) / r.workS;

    // Ladder: the highest rate whose p99 meets the limit with a
    // bounded backlog. A rung's load is the larger of p99 / limit and
    // backlog growth / kGrowthBound; it passes at <= 1. The rungs bisect
    // [kLadderLo, kLadderHi] x capacity, so the bracket around the
    // knee ends 2% of capacity wide; the result interpolates on load
    // inside it. If even the lowest rung fails, the rate is scaled
    // down by its load.
    auto rung = [&](int k, double frac) {
        double rate = frac * capacity;
        LegResult lr = runLeg(router, u,
                              u.sequence(seedBase + 100 + uint64_t(k),
                                         size_t(rate * kRungSeconds)),
                              kConns, rate, kRungSeconds / 4, "loadgen.rung");
        account(lr, "ladder");
        double load = std::max(lr.p99() / kP99LimitUs,
                               lr.growth() / kGrowthBound);
        std::string key = "loadgen.rung" + std::to_string(k);
        r.layers[key + "_frac"] = frac;
        r.layers[key + "_load"] = load;
        return lr.failed == 0 ? load : std::max(load, 2.0);
    };
    double lo = kLadderLo, hi = kLadderHi;
    double loLoad = rung(0, lo), hiLoad = 0;
    if (loLoad > 1.0) {
        r.opsPerS = lo * capacity / loLoad;
    } else {
        for (int k = 1; k <= kLadderSteps; k++) {
            double mid = 0.5 * (lo + hi);
            double load = rung(k, mid);
            if (load <= 1.0) {
                lo = mid;
                loLoad = load;
            } else {
                hi = mid;
                hiLoad = load;
            }
        }
        double frac = hiLoad > 1.0 ? lo + (hi - lo) * (1.0 - loLoad) /
                                              (hiLoad - loLoad)
                                   : lo;
        r.opsPerS = frac * capacity;
    }

    fleet.stop();
    r.childRssMb = fleet.rssMb();
    return 0;
}

} // namespace perfbench
