#include "dcsim/dcsim.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <queue>
#include <vector>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "explore/schedule.hh"
#include "migration/cost.hh"
#include "power/calib.hh"
#include "workloads/profiles.hh"

namespace cisa
{

namespace
{

enum : uint8_t
{
    kArrival = 0,  ///< arg = job uid
    kPhaseDone = 1 ///< arg = job slot
};

struct Ev
{
    uint64_t tick;
    uint64_t seq; ///< push order — the deterministic tie-break
    uint64_t arg;
    uint8_t kind;
};

struct EvAfter
{
    bool
    operator()(const Ev &a, const Ev &b) const
    {
        if (a.tick != b.tick)
            return a.tick > b.tick;
        return a.seq > b.seq;
    }
};

/** One in-flight job. Slots are recycled through a free list, so
 * live memory is O(in-flight + waiting), not O(total jobs). */
struct Job
{
    uint64_t uid = 0;
    uint64_t arrivalTick = 0;
    int64_t tile = -1;
    int16_t cls = -1;
    uint8_t bench = 0;
    uint8_t phase = 0; ///< local phase index within the benchmark
};

struct PlaceReq
{
    uint32_t slot;
    uint8_t holding; ///< still occupies a tile (phase boundary)
};

uint64_t
wallNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Approximate percentile from a log2-bucketed histogram whose
 * bucket b holds [2^b, 2^(b+1)) ns: the lower edge 2^b of the bucket
 * holding the rank (the service's percentileUs reports upper edges
 * instead). */
uint64_t
histPercentile(const uint64_t (&h)[64], uint64_t total, double p)
{
    if (total == 0)
        return 0;
    uint64_t target = uint64_t(p * double(total - 1)) + 1;
    uint64_t cum = 0;
    for (int b = 0; b < 64; b++) {
        cum += h[b];
        if (cum >= target)
            return b == 0 ? 1 : (uint64_t(1) << b);
    }
    return ~uint64_t(0);
}

class Engine
{
  public:
    Engine(const DcsimConfig &cfg, PerfSource &src, Cluster &cluster)
        : cfg_(cfg), src_(src), cluster_(cluster)
    {
        uint64_t base = splitmix64(cfg.seed);
        arrSeed_ = hashCombine(base, 1);
        benchSeed_ = hashCombine(base, 2);
        polSeed_ = hashCombine(base, 3);
        closedLoop_ = cfg.rate <= 0;
    }

    DcsimResult run();

  private:
    // --- the seeded synthetic job stream ------------------------
    uint8_t
    benchOf(uint64_t uid) const
    {
        return uint8_t(splitmix64(hashCombine(benchSeed_, uid)) %
                       uint64_t(nBench_));
    }

    /** Exponential interarrival gap ahead of job @p uid, in ticks.
     * Hash-keyed by uid: the stream is order-independent. */
    uint64_t
    interTicks(uint64_t uid) const
    {
        uint64_t h = splitmix64(hashCombine(arrSeed_, uid));
        double u = double(h >> 11) * 0x1p-53; // [0, 1)
        double dt = -std::log1p(-u) / cfg_.rate;
        return std::max<uint64_t>(1, uint64_t(std::llround(dt * 1e9)));
    }

    void
    pushEvent(uint64_t tick, uint8_t kind, uint64_t arg)
    {
        heap_.push(Ev{tick, seq_++, arg, kind});
    }

    uint32_t
    allocSlot()
    {
        if (!freeSlots_.empty()) {
            uint32_t s = freeSlots_.back();
            freeSlots_.pop_back();
            return s;
        }
        jobs_.emplace_back();
        return uint32_t(jobs_.size() - 1);
    }

    void arrive(uint64_t t, uint64_t uid);
    void phaseDone(uint64_t t, uint32_t slot);
    void scoreAndCommit(uint64_t t);
    void commit(uint64_t t, const PlaceReq &rq, const uint8_t *rank);
    DcsimResult finalize(uint64_t wall_ns,
                         const PerfSource::Stats &s0,
                         const PerfSource::Stats &s1) const;

    const DcsimConfig &cfg_;
    PerfSource &src_;
    Cluster &cluster_;

    uint64_t arrSeed_, benchSeed_, polSeed_;
    bool closedLoop_;

    int nBench_ = 0;
    std::vector<int> starts_;      ///< bench -> first global phase
    std::vector<int> phasesPer_;   ///< bench -> phase count
    std::vector<double> runsByGp_; ///< global phase -> run count

    std::priority_queue<Ev, std::vector<Ev>, EvAfter> heap_;
    uint64_t seq_ = 0;
    uint64_t nextUid_ = 0; ///< closed loop: next admission

    std::vector<Job> jobs_;
    std::vector<uint32_t> freeSlots_;
    std::vector<std::vector<uint32_t>> freeTiles_; ///< LIFO per class
    std::deque<uint32_t> waitQ_;                   ///< FIFO

    // Per-tick scratch, reused across batches.
    std::vector<PlaceReq> reqs_;
    std::vector<uint8_t> rankBuf_;
    std::vector<uint32_t> latBuf_;
    uint64_t freedThisTick_ = 0;

    // Accounting.
    uint64_t jobsDone_ = 0, placements_ = 0, migrations_ = 0;
    uint64_t crossIsa_ = 0, waited_ = 0, peakWaiting_ = 0;
    uint64_t lastTick_ = 0;
    double busyEnergyJ_ = 0;
    std::vector<uint64_t> busyTicks_; ///< per class
    std::vector<uint64_t> sojourns_;
    uint64_t traceHash_ = kFnv1aBasis;
    uint64_t placeHist_[64] = {};
    uint64_t placeCount_ = 0;
    FILE *trace_ = nullptr;
};

void
Engine::arrive(uint64_t t, uint64_t uid)
{
    uint32_t slot = allocSlot();
    Job &j = jobs_[slot];
    j.uid = uid;
    j.arrivalTick = t;
    j.tile = -1;
    j.cls = -1;
    j.bench = benchOf(uid);
    j.phase = 0;
    if (!closedLoop_ && uid + 1 < cfg_.jobs)
        pushEvent(t + interTicks(uid + 1), kArrival, uid + 1);
    reqs_.push_back(PlaceReq{slot, 0});
}

void
Engine::phaseDone(uint64_t t, uint32_t slot)
{
    Job &j = jobs_[slot];
    j.phase++;
    if (int(j.phase) < phasesPer_[j.bench]) {
        reqs_.push_back(PlaceReq{slot, 1});
        return;
    }
    sojourns_.push_back(t - j.arrivalTick);
    freeTiles_[size_t(j.cls)].push_back(uint32_t(j.tile));
    freedThisTick_++;
    jobsDone_++;
    freeSlots_.push_back(slot);
    if (closedLoop_ && nextUid_ < cfg_.jobs)
        pushEvent(t, kArrival, nextUid_++);
}

void
Engine::commit(uint64_t t, const PlaceReq &rq, const uint8_t *rank)
{
    Job &j = jobs_[rq.slot];
    const auto &classes = cluster_.classes();
    size_t nc = classes.size();

    int chosen = -1;
    for (size_t i = 0; i < nc; i++) {
        int c = rank[i];
        if (!freeTiles_[size_t(c)].empty() ||
            (rq.holding && c == j.cls)) {
            chosen = c;
            break;
        }
    }
    if (chosen < 0) {
        // All classes full and the job holds no tile: queue FIFO.
        waitQ_.push_back(rq.slot);
        waited_++;
        peakWaiting_ = std::max(peakWaiting_, uint64_t(waitQ_.size()));
        return;
    }

    int gp = starts_[j.bench] + j.phase;
    double runs = runsByGp_[size_t(gp)];
    const TileClass &tc = classes[size_t(chosen)];

    uint64_t penalty_ticks = 0;
    if (rq.holding && chosen != j.cls) {
        migrations_++;
        const TileClass &from = classes[size_t(j.cls)];
        if (from.point.vendor != tc.point.vendor)
            crossIsa_++;
        uint64_t cyc = migrationPenaltyCycles(from.point.vendor,
                                              tc.point.vendor);
        penalty_ticks = uint64_t(
            std::llround(double(cyc) / power_calib::kFreqHz * 1e9));
    }
    if (!rq.holding || chosen != j.cls) {
        if (rq.holding)
            freeTiles_[size_t(j.cls)].push_back(uint32_t(j.tile));
        std::vector<uint32_t> &stack = freeTiles_[size_t(chosen)];
        j.tile = int64_t(stack.back());
        stack.pop_back();
        j.cls = int16_t(chosen);
    }

    double dur_s = runs * double(tc.timePerRun[size_t(gp)]);
    uint64_t dur = penalty_ticks +
                   std::max<uint64_t>(
                       1, uint64_t(std::llround(dur_s * 1e9)));
    busyTicks_[size_t(chosen)] += dur;
    busyEnergyJ_ += runs * double(tc.energyPerRun[size_t(gp)]);
    pushEvent(t + dur, kPhaseDone, rq.slot);
    placements_++;

    traceHash_ = hashCombine(traceHash_, t);
    traceHash_ = hashCombine(traceHash_, j.uid);
    traceHash_ = hashCombine(traceHash_, uint64_t(gp));
    traceHash_ = hashCombine(traceHash_, uint64_t(j.tile));
    if (trace_) {
        fprintf(trace_, "%llu %llu %d %d %llu\n",
                (unsigned long long)t, (unsigned long long)j.uid, gp,
                chosen, (unsigned long long)j.tile);
    }
}

/** Smallest same-tick placement batch scored on the thread pool;
 * smaller batches score inline on the event loop thread. Results
 * are bit-identical either way. */
constexpr size_t kParBatch = 64;

void
Engine::scoreAndCommit(uint64_t t)
{
    size_t n = reqs_.size();
    if (n == 0)
        return;
    size_t nc = cluster_.classes().size();
    rankBuf_.resize(n * nc);
    latBuf_.resize(n);

    // Rankings are pure in (tables, job fields) and write disjoint
    // slots, so scoring in parallel cannot perturb the outcome; the
    // free-tile state only moves in the serial commit below.
    auto score1 = [&](uint64_t i) {
        uint64_t t0 = wallNs();
        const PlaceReq &rq = reqs_[i];
        const Job &j = jobs_[rq.slot];
        int gp = starts_[j.bench] + j.phase;
        uint64_t rnd =
            hashCombine(polSeed_, j.uid * 131 + j.phase);
        rankClasses(cluster_, cfg_.policy, cfg_.objective, gp,
                    rq.holding ? j.cls : -1, runsByGp_[size_t(gp)],
                    rnd, rankBuf_.data() + i * nc);
        latBuf_[i] = uint32_t(std::min<uint64_t>(
            wallNs() - t0, ~uint32_t(0)));
    };
    if (n >= kParBatch) {
        parallelFor(n, score1);
    } else {
        for (size_t i = 0; i < n; i++)
            score1(i);
    }
    src_.countLookups(rankLookups(cfg_.policy, nc) * uint64_t(n));

    for (size_t i = 0; i < n; i++) {
        uint64_t lat = std::max<uint32_t>(1, latBuf_[i]);
        placeHist_[63 - __builtin_clzll(lat)]++;
        placeCount_++;
        commit(t, reqs_[i], rankBuf_.data() + i * nc);
    }
    reqs_.clear();
}

DcsimResult
Engine::run()
{
    panic_if(cluster_.tiles() >> 32,
             "dcsim: tile ids are 32-bit; %llu cores is too many",
             (unsigned long long)cluster_.tiles());
    PerfSource::Stats s0 = src_.stats();
    cluster_.bindPerf(src_);

    nBench_ = int(specSuite().size());
    starts_.resize(size_t(nBench_));
    phasesPer_.resize(size_t(nBench_));
    runsByGp_.resize(size_t(phaseCount()));
    for (int b = 0; b < nBench_; b++) {
        starts_[size_t(b)] = phaseStartIndex(b);
        int np = int(specSuite()[size_t(b)].phases.size());
        phasesPer_[size_t(b)] = np;
        for (int p = 0; p < np; p++) {
            runsByGp_[size_t(starts_[size_t(b)] + p)] = std::max(
                1.0, phaseRunCount(b, p) * cfg_.runsScale);
        }
    }

    const auto &classes = cluster_.classes();
    freeTiles_.resize(classes.size());
    busyTicks_.assign(classes.size(), 0);
    for (size_t c = 0; c < classes.size(); c++) {
        // Push descending so the LIFO hands out low tile ids first.
        freeTiles_[c].reserve(size_t(classes[c].count));
        for (uint64_t k = classes[c].count; k-- > 0;)
            freeTiles_[c].push_back(
                uint32_t(classes[c].firstTile + k));
    }
    if (!closedLoop_ && cfg_.jobs > 0)
        sojourns_.reserve(size_t(std::min<uint64_t>(cfg_.jobs,
                                                    uint64_t(1) << 24)));

    if (!cfg_.tracePath.empty()) {
        trace_ = fopen(cfg_.tracePath.c_str(), "w");
        panic_if(!trace_, "dcsim: cannot write trace to %s",
                 cfg_.tracePath.c_str());
    }

    if (cfg_.jobs > 0) {
        if (closedLoop_) {
            uint64_t k = cfg_.inflight ? cfg_.inflight
                                       : cluster_.tiles();
            k = std::min(k, cfg_.jobs);
            for (nextUid_ = 0; nextUid_ < k; nextUid_++)
                pushEvent(0, kArrival, nextUid_);
        } else {
            pushEvent(interTicks(0), kArrival, 0);
        }
    }

    uint64_t wall0 = wallNs();
    while (!heap_.empty()) {
        uint64_t t = heap_.top().tick;
        lastTick_ = t;
        freedThisTick_ = 0;
        // Drain the whole same-tick batch in seq order: completions
        // free tiles and spawn re-placement requests, arrivals spawn
        // first placements.
        std::vector<PlaceReq> ev_reqs;
        std::swap(ev_reqs, reqs_); // reqs_ empty; reuse its storage
        ev_reqs.clear();
        while (!heap_.empty() && heap_.top().tick == t) {
            Ev ev = heap_.top();
            heap_.pop();
            std::swap(ev_reqs, reqs_);
            if (ev.kind == kPhaseDone)
                phaseDone(t, uint32_t(ev.arg));
            else
                arrive(t, ev.arg);
            std::swap(ev_reqs, reqs_);
        }
        // Freed tiles wake the longest-waiting jobs first; they are
        // committed ahead of this tick's events, so the queue stays
        // FIFO-fair. Invariant: waitQ nonempty => zero free tiles,
        // hence at most freedThisTick_ waiters can place.
        uint64_t pull = std::min<uint64_t>(freedThisTick_,
                                           uint64_t(waitQ_.size()));
        for (uint64_t k = 0; k < pull; k++) {
            reqs_.push_back(PlaceReq{waitQ_.front(), 0});
            waitQ_.pop_front();
        }
        reqs_.insert(reqs_.end(), ev_reqs.begin(), ev_reqs.end());
        scoreAndCommit(t);
    }
    uint64_t wall1 = wallNs();

    if (trace_) {
        fclose(trace_);
        trace_ = nullptr;
    }
    return finalize(wall1 - wall0, s0, src_.stats());
}

DcsimResult
Engine::finalize(uint64_t wall_ns, const PerfSource::Stats &s0,
                 const PerfSource::Stats &s1) const
{
    DcsimResult r;
    r.mix = cluster_.describe();
    r.policy = cfg_.policy;
    r.objective = cfg_.objective;
    r.seed = cfg_.seed;
    r.jobs = cfg_.jobs;
    r.rate = closedLoop_ ? 0 : cfg_.rate;
    r.runsScale = cfg_.runsScale;

    r.cores = cluster_.tiles();
    r.jobsDone = jobsDone_;
    r.placements = placements_;
    r.migrations = migrations_;
    r.crossIsaMigrations = crossIsa_;
    r.waitedJobs = waited_;
    r.peakWaiting = peakWaiting_;
    r.makespanTicks = lastTick_;
    r.traceHash = traceHash_;

    std::vector<uint64_t> s = sojourns_;
    std::sort(s.begin(), s.end());
    if (!s.empty()) {
        r.sojournP50 = s[(s.size() - 1) / 2];
        r.sojournP99 = s[std::min(s.size() - 1,
                                  (s.size() * 99) / 100)];
        r.sojournMax = s.back();
    }

    double span_s = double(lastTick_) * 1e-9;
    r.throughputVs = span_s > 0 ? double(jobsDone_) / span_s : 0;
    r.busyEnergyJ = busyEnergyJ_;
    const auto &classes = cluster_.classes();
    uint64_t busy_total = 0;
    for (size_t c = 0; c < classes.size(); c++) {
        busy_total += busyTicks_[c];
        uint64_t cap = classes[c].count * lastTick_;
        uint64_t idle = cap > busyTicks_[c] ? cap - busyTicks_[c]
                                            : 0;
        r.idleEnergyJ += classes[c].idlePowerW * double(idle) * 1e-9;
    }
    r.energyJ = r.busyEnergyJ + r.idleEnergyJ;
    r.edp = r.energyJ * span_s;
    r.utilization =
        lastTick_ > 0 && cluster_.tiles() > 0
            ? double(busy_total) /
                  (double(cluster_.tiles()) * double(lastTick_))
            : 0;

    r.cellLookups = s1.cellLookups - s0.cellLookups;
    r.slabFetches = s1.slabFetches - s0.slabFetches;
    r.slabHitRate =
        r.cellLookups == 0
            ? 1.0
            : 1.0 - double(r.slabFetches) / double(r.cellLookups);

    r.wallSeconds = double(wall_ns) * 1e-9;
    r.wallJobsPerSec =
        r.wallSeconds > 0 ? double(jobsDone_) / r.wallSeconds : 0;
    r.placeP50Ns = histPercentile(placeHist_, placeCount_, 0.50);
    r.placeP99Ns = histPercentile(placeHist_, placeCount_, 0.99);
    r.remoteCalls = s1.remoteCalls - s0.remoteCalls;
    r.fetchSeconds = double(s1.fetchNs - s0.fetchNs) * 1e-9;
    return r;
}

} // namespace

DcsimResult
runDcsim(const DcsimConfig &cfg, PerfSource &src, Cluster &cluster)
{
    return Engine(cfg, src, cluster).run();
}

DcsimResult
runDcsim(const DcsimConfig &cfg, PerfSource &src)
{
    Cluster cluster = Cluster::fromMix(cfg.mix, cfg.cores);
    return runDcsim(cfg, src, cluster);
}

DcsimComparison
runWithBaseline(const DcsimConfig &cfg, PerfSource &src)
{
    DcsimComparison c;
    Cluster cluster = Cluster::fromMix(cfg.mix, cfg.cores);
    c.run = runDcsim(cfg, src, cluster);

    // Same job stream and objective on the iso-area homogeneous
    // grid, scheduled homogeneous-best (there is only one class).
    DcsimConfig bcfg = cfg;
    bcfg.policy = DcPolicy::HomogBest;
    bcfg.tracePath.clear();
    Cluster base = cluster.homogeneousBaseline();
    bcfg.cores = base.tiles();
    c.baseline = runDcsim(bcfg, src, base);

    c.throughputX = c.baseline.throughputVs > 0
                        ? c.run.throughputVs / c.baseline.throughputVs
                        : 0;
    c.edpX = c.run.edp > 0 ? c.baseline.edp / c.run.edp : 0;
    return c;
}

namespace
{

void
addU64(std::vector<std::string> &f, const char *k, uint64_t v)
{
    char buf[96];
    snprintf(buf, sizeof(buf), "\"%s\": %llu", k,
             (unsigned long long)v);
    f.push_back(buf);
}

void
addF64(std::vector<std::string> &f, const char *k, double v)
{
    char buf[96];
    snprintf(buf, sizeof(buf), "\"%s\": %.17g", k, v);
    f.push_back(buf);
}

void
addStr(std::vector<std::string> &f, const char *k,
       const std::string &v)
{
    f.push_back("\"" + std::string(k) + "\": \"" + v + "\"");
}

std::string
joinObject(const std::vector<std::string> &fields, int indent)
{
    std::string pad(size_t(indent), ' ');
    std::string s = "{\n";
    for (size_t i = 0; i < fields.size(); i++) {
        s += pad + "  " + fields[i];
        s += i + 1 < fields.size() ? ",\n" : "\n";
    }
    s += pad + "}";
    return s;
}

} // namespace

std::string
dcsimJson(const DcsimResult &r, bool host_stats, int indent)
{
    std::vector<std::string> f;
    addU64(f, "cores", r.cores);
    addStr(f, "mix", r.mix);
    addU64(f, "jobs", r.jobs);
    addStr(f, "policy", dcPolicyName(r.policy));
    addStr(f, "objective", dcObjectiveName(r.objective));
    addU64(f, "seed", r.seed);
    addF64(f, "rate_jobs_per_vsec", r.rate);
    addF64(f, "runs_scale", r.runsScale);
    addU64(f, "jobs_done", r.jobsDone);
    addU64(f, "placements", r.placements);
    addU64(f, "migrations", r.migrations);
    addU64(f, "cross_isa_migrations", r.crossIsaMigrations);
    addU64(f, "waited_jobs", r.waitedJobs);
    addU64(f, "peak_waiting", r.peakWaiting);
    addU64(f, "makespan_ns", r.makespanTicks);
    addF64(f, "throughput_jobs_per_vsec", r.throughputVs);
    addU64(f, "sojourn_p50_ns", r.sojournP50);
    addU64(f, "sojourn_p99_ns", r.sojournP99);
    addU64(f, "sojourn_max_ns", r.sojournMax);
    addF64(f, "busy_energy_j", r.busyEnergyJ);
    addF64(f, "idle_energy_j", r.idleEnergyJ);
    addF64(f, "energy_j", r.energyJ);
    addF64(f, "edp_js", r.edp);
    addF64(f, "utilization", r.utilization);
    addU64(f, "cell_lookups", r.cellLookups);
    {
        char buf[64];
        snprintf(buf, sizeof(buf),
                 "\"trace_hash\": \"0x%016llx\"",
                 (unsigned long long)r.traceHash);
        f.push_back(buf);
    }
    if (host_stats) {
        // Warm-state metrics: a reused PerfSource fetches fewer
        // slabs, so these live with the wall-clock block rather
        // than the deterministic surface.
        addU64(f, "slab_fetches", r.slabFetches);
        addF64(f, "slab_hit_rate", r.slabHitRate);
        addF64(f, "wall_seconds", r.wallSeconds);
        addF64(f, "wall_jobs_per_sec", r.wallJobsPerSec);
        addU64(f, "place_p50_ns", r.placeP50Ns);
        addU64(f, "place_p99_ns", r.placeP99Ns);
        addU64(f, "remote_calls", r.remoteCalls);
        addF64(f, "fetch_seconds", r.fetchSeconds);
    }
    return joinObject(f, indent);
}

std::string
dcsimComparisonJson(const DcsimComparison &c, bool host_stats)
{
    std::vector<std::string> vs;
    addF64(vs, "throughput_x", c.throughputX);
    addF64(vs, "edp_x", c.edpX);

    std::string s = "{\n";
    s += "  \"run\": " + dcsimJson(c.run, host_stats, 2) + ",\n";
    s += "  \"baseline\": " + dcsimJson(c.baseline, host_stats, 2) +
         ",\n";
    s += "  \"vs\": " + joinObject(vs, 2) + "\n";
    s += "}";
    return s;
}

} // namespace cisa
