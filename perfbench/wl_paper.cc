/**
 * @file
 * paper_warm: the paper figures' library calls over a store that
 * already holds every slab (loading it is set-up). The batch walk
 * does no work here; search and the stage-1 work that
 * evaluatePhase / measureDowngrade redo take all of it.
 *
 * The suite is a fixed subset of the benches that keeps their
 * search / evaluate split; the independent calls of each figure run
 * concurrently on the process pool:
 *  - fig05: the 20 peak-power throughput searches (5 families x
 *    4 budgets, seed 2019) and the exact score of each result, which
 *    give the composite-full vs single-ISA-hetero gain the paper
 *    reports as +17.6%;
 *  - fig11: energyOf() of the unconstrained area-48 design and of
 *    two constrained ones (register depth <= 8, 32-bit only),
 *    evaluatePhase on every third phase;
 *  - fig14: measureDowngrade for every case on two benchmarks.
 *
 * The traced run replaces evaluatePhase and measureDowngrade with
 * mirrors built from compile, executeMachine, simulateCore and
 * coreEnergy (resp. downgradeProgram / downgradeWidthTrace), one
 * span per call; every result is digested and checked against the
 * same pins as the bundled calls.
 */

#include <array>
#include <functional>
#include <mutex>
#include <set>
#include <tuple>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "core/cisa.hh"
#include "harness.hh"
#include "trace.hh"

using namespace cisa;

namespace perfbench
{

namespace
{

const Family kFamilies[] = {
    Family::Homogeneous, Family::SingleIsaHetero, Family::MultiVendor,
    Family::CompositeXized, Family::CompositeFull};

/** The paper's reference: composite-full beats single-ISA hetero
 * by 17.6% on average multiprogrammed throughput. */
constexpr double kPaperFig05GainPct = 17.6;

Budget
powerBudget(double w)
{
    Budget b;
    if (w > 0)
        b.powerW = w;
    return b;
}

Budget
areaBudget(double mm2)
{
    Budget b;
    if (mm2 > 0)
        b.areaMm2 = mm2;
    return b;
}

/** The numbers of one evaluatePhase call the gate pins. */
struct EvalOut
{
    uint64_t cycles = 0;
    double ipc = 0;
    double timePerRun = 0;
    double energyPerRun = 0;
    double area = 0;
    double peak = 0;
    uint64_t macroOps = 0;
    uint64_t uops = 0;
    EnergyBreakdown energy;
};

std::string
digestOf(const EvalOut &e)
{
    Digest d;
    d.pod(e.cycles).pod(e.ipc).pod(e.timePerRun).pod(e.energyPerRun);
    d.pod(e.area).pod(e.peak).pod(e.macroOps).pod(e.uops);
    for (double v : {e.energy.fetch, e.energy.bpred, e.energy.decode,
                     e.energy.rename, e.energy.scheduler,
                     e.energy.regfile, e.energy.fu, e.energy.lsq,
                     e.energy.leakage})
        d.pod(v);
    return d.hex();
}

std::string
digestOf(const DowngradeCost &c)
{
    return Digest()
        .pod(c.slowdown)
        .pod(c.depthRewrites)
        .pod(c.unfoldedOps)
        .pod(c.reverseIfConverted)
        .pod(c.widthExpansions)
        .hex();
}

/** evaluatePhase rebuilt from its parts (src/core/cisa.cc). */
EvalOut
mirrorEvaluate(int ph, const FeatureSet &isa, const MicroArchConfig &ua,
               uint64_t timed_uops)
{
    Span top("core.evaluate", uint64_t(ph));
    const IrModule &mod = phaseModule(ph);
    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = isa;
    IrModule ir;
    MachineProgram prog;
    {
        Span s("compiler.compile", uint64_t(ph));
        prog = compile(mod, opts, nullptr, &ir);
    }
    Trace trace;
    {
        Span s("compiler.exec", uint64_t(ph));
        MemImage img = MemImage::build(ir, isa.widthBits());
        executeMachine(prog, img, 1ULL << 31, &trace, 1ULL << 21);
    }
    panic_if(trace.truncated, "phase %d trace truncated", ph);
    CoreConfig cc{isa, ua};
    PerfResult perf;
    {
        Span s("uarch.simulate", uint64_t(ph));
        perf = simulateCore(cc, trace, timed_uops, simWarmupUops());
    }
    EvalOut o;
    {
        Span s("power.energy", uint64_t(ph));
        o.energy = coreEnergy(cc, perf.stats);
        o.area = coreAreaMm2(cc);
        o.peak = corePeakPowerW(cc);
    }
    double scale = double(trace.ops.size()) / double(perf.stats.macroOps);
    o.cycles = perf.cycles;
    o.ipc = perf.ipc;
    o.timePerRun = secondsOf(perf.cycles) * scale;
    o.energyPerRun = o.energy.total() * scale;
    o.macroOps = trace.dyn.macroOps;
    o.uops = trace.dyn.uops;
    return o;
}

EvalOut
bundledEvaluate(int ph, const FeatureSet &isa, const MicroArchConfig &ua,
                uint64_t timed_uops)
{
    PhaseRun run = evaluatePhase(ph, isa, ua, timed_uops);
    EvalOut o;
    o.cycles = run.perf.cycles;
    o.ipc = run.perf.ipc;
    o.timePerRun = run.timePerRunSec;
    o.energyPerRun = run.energyPerRunJ;
    o.area = run.areaMm2;
    o.peak = run.peakPowerW;
    o.macroOps = run.mix.macroOps;
    o.uops = run.mix.uops;
    o.energy = run.energy;
    return o;
}

/** measureDowngrade rebuilt from its parts (src/migration/cost.cc). */
DowngradeCost
mirrorDowngrade(int ph, const FeatureSet &code_fs,
                const FeatureSet &core_fs, const MicroArchConfig &ua)
{
    Span top("migration.downgrade", uint64_t(ph));
    const IrModule &m = phaseModule(ph);
    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = code_fs;
    opts.enableVectorize &= code_fs.simd() && core_fs.simd();
    IrModule ir;
    MachineProgram prog;
    {
        Span s("compiler.compile", uint64_t(ph));
        prog = compile(m, opts, nullptr, &ir);
    }
    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();

    Trace native;
    {
        Span s("compiler.exec", uint64_t(ph));
        MemImage img = MemImage::build(ir, code_fs.widthBits());
        executeMachine(prog, img, 1ULL << 30, &native);
    }
    panic_if(native.truncated, "native trace truncated");
    PerfResult base;
    {
        Span s("uarch.simulate", uint64_t(ph));
        base = simulateCore(CoreConfig{code_fs, ua}, native, timed, warm);
    }
    double base_time = double(base.cycles) /
                       double(base.stats.macroOps) *
                       double(native.ops.size());

    DowngradeStats dst;
    MachineProgram down = prog;
    bool needs_binary =
        core_fs.regDepth < code_fs.regDepth ||
        (core_fs.complexity == Complexity::MicroX86 &&
         code_fs.complexity == Complexity::X86) ||
        (!core_fs.fullPredication() && code_fs.fullPredication());
    MemImage img_down = MemImage::build(ir, code_fs.widthBits());
    if (needs_binary) {
        Span s("migration.translate", uint64_t(ph));
        down = downgradeProgram(prog, core_fs, img_down.stackBase, &dst);
    }
    Trace downgraded;
    {
        Span s("compiler.exec", uint64_t(ph));
        executeMachine(down, img_down, 1ULL << 30, &downgraded);
    }
    panic_if(downgraded.truncated, "downgraded trace truncated");
    if (core_fs.width == RegWidth::W32 && code_fs.width == RegWidth::W64) {
        Span s("migration.translate", uint64_t(ph));
        downgraded = downgradeWidthTrace(downgraded, &dst);
    }
    PerfResult got;
    {
        Span s("uarch.simulate", uint64_t(ph));
        got = simulateCore(CoreConfig{core_fs, ua}, downgraded, timed,
                           warm);
    }
    double down_time = double(got.cycles) / double(got.stats.macroOps) *
                       double(downgraded.ops.size());

    DowngradeCost out;
    out.slowdown = down_time / base_time - 1.0;
    out.depthRewrites = dst.depthRewrites;
    out.unfoldedOps = dst.unfoldedOps;
    out.reverseIfConverted = dst.reverseIfConverted;
    out.widthExpansions = dst.widthExpansions;
    return out;
}

std::string
designKey(const SearchResult &res)
{
    std::string k;
    for (const DesignPoint &dp : res.design.cores)
        k += std::to_string(dp.row()) + ",";
    return k;
}

/**
 * The suite's library calls. Independent calls of one figure run
 * concurrently on the process pool (nproc threads), the way the
 * campaign runs its slabs; each call's latency is timed on its own.
 */
class Suite
{
  public:
    Suite(const Args &a, Report &r) : a_(a), r_(r) {}

    void run();

    double fig05GainPct = 0;

  private:
    using Job = std::function<void()>;

    static void runConcurrently(const std::vector<Job> &jobs)
    {
        parallelFor(jobs.size(), [&](uint64_t i) { jobs[i](); });
    }

    /** Time one library call, record its digest. */
    template <typename Fn>
    void call(const std::string &key, Fn &&fn)
    {
        uint64_t t0 = nowNs();
        std::string d = fn();
        double us = secondsSince(t0) * 1e6;
        std::lock_guard<std::mutex> lk(mu_);
        r_.opUs[key] = us;
        r_.digests[key] = d;
        r_.attempted++;
    }

    Job search(const std::string &key, Family fam, Objective obj,
               const Budget &b, const IsaFilter &filter,
               SearchResult *out);
    void evaluateJobs(const std::string &key, const MulticoreDesign &d,
                      std::vector<Job> *jobs);
    void countStage1(int ph, const FeatureSet &fs,
                     const CompileOptions &opts);

    const Args &a_;
    Report &r_;
    std::mutex mu_; ///< guards r_ inside call()
    std::set<std::tuple<int, int, uint64_t>> stage1Distinct_;
    uint64_t stage1Calls_ = 0;
    uint64_t searches_ = 0, evaluates_ = 0, downgrades_ = 0;
};

Suite::Job
Suite::search(const std::string &key, Family fam, Objective obj,
              const Budget &b, const IsaFilter &filter, SearchResult *out)
{
    searches_++;
    return [this, key, fam, obj, b, filter, out] {
        call(key, [&] {
            SearchResult res;
            {
                Span s("explore.search");
                res = searchDesign(fam, obj, b, 2019, filter);
            }
            double exact = 0;
            if (res.feasible) {
                Span s("explore.score");
                exact = designScore(res.design, obj, 0);
            }
            res.score = exact; // fig05 compares exact scores
            *out = res;
            return Digest()
                .str(designKey(res))
                .pod(res.feasible)
                .pod(exact)
                .hex();
        });
    };
}

void
Suite::countStage1(int ph, const FeatureSet &fs,
                   const CompileOptions &opts)
{
    stage1Calls_++;
    stage1Distinct_.insert({ph, fs.id(), opts.pipelineKey()});
}

/** fig11's energyOf(): every third phase on every core of @p d, one
 * evaluation per job. */
void
Suite::evaluateJobs(const std::string &key, const MulticoreDesign &d,
                    std::vector<Job> *jobs)
{
    for (size_t c = 0; c < d.cores.size(); c++) {
        CoreConfig cc = d.cores[c].coreConfig();
        for (int ph = 0; ph < phaseCount(); ph += 3) {
            CompileOptions opts = CompileOptions::fromEnv();
            opts.target = cc.isa;
            countStage1(ph, cc.isa, opts);
            evaluates_++;
            std::string k = key + ".c" + std::to_string(c) + ".p" +
                            std::to_string(ph);
            jobs->push_back([this, k, cc, ph] {
                call(k, [&] {
                    return digestOf(
                        a_.traced()
                            ? mirrorEvaluate(ph, cc.isa, cc.uarch, 2500)
                            : bundledEvaluate(ph, cc.isa, cc.uarch, 2500));
                });
            });
        }
    }
}

void
Suite::run()
{
    // fig05, peak-power sweep: gain of composite-full over
    // single-ISA hetero averaged over the budgets where both are
    // feasible (the bench's first summary line).
    const std::array<double, 4> budgets{20, 40, 60, 0};
    SearchResult fig05[5][4];
    std::vector<Job> jobs;
    for (int fi = 0; fi < 5; fi++)
        for (int bi = 0; bi < 4; bi++)
            jobs.push_back(search(
                "fig05." + std::to_string(fi) + "." + std::to_string(bi),
                kFamilies[fi], Objective::MpThroughput,
                powerBudget(budgets[size_t(bi)]), nullptr, &fig05[fi][bi]));
    runConcurrently(jobs);
    double gain = 0;
    int n = 0;
    for (int bi = 0; bi < 4; bi++) {
        const SearchResult &full = fig05[4][bi];
        const SearchResult &hetero = fig05[1][bi];
        if (full.feasible && hetero.feasible && full.score > 0 &&
            hetero.score > 0) {
            gain += full.score / hetero.score - 1.0;
            n++;
        }
    }
    fig05GainPct = 100.0 * gain / std::max(1, n);

    // fig11: the unconstrained area-48 design and two constrained
    // ones (register depth <= 8, 32-bit only).
    Budget b48 = areaBudget(48);
    const char *names[3] = {"fig11.free", "fig11.depth8", "fig11.w32"};
    const IsaFilter filters[3] = {
        nullptr, [](const FeatureSet &f) { return f.regDepth <= 8; },
        [](const FeatureSet &f) { return f.width == RegWidth::W32; }};
    SearchResult fig11[3];
    jobs.clear();
    for (int i = 0; i < 3; i++)
        jobs.push_back(search(names[i], Family::CompositeFull,
                              Objective::MpThroughput, b48, filters[i],
                              &fig11[i]));
    runConcurrently(jobs);
    jobs.clear();
    for (int i = 0; i < 3; i++)
        if (fig11[i].feasible)
            evaluateJobs(names[i], fig11[i].design, &jobs);
    runConcurrently(jobs);

    // fig14: every downgrade case on the first phase of two
    // benchmarks, on the fig14 mid-range out-of-order core.
    MicroArchConfig ua;
    for (const auto &c : MicroArchConfig::enumerate()) {
        if (c.outOfOrder && c.width == 2 &&
            c.bpred == BpKind::Tournament && c.iqSize == 64 &&
            c.uopCache) {
            ua = c;
            break;
        }
    }
    const std::pair<const char *, const char *> cases[] = {
        {"x86-32D-64W-P", "x86-32D-32W-P"},
        {"x86-64D-64W-P", "x86-32D-64W-P"},
        {"x86-64D-64W-P", "x86-16D-64W-P"},
        {"x86-32D-64W-P", "x86-16D-64W-P"},
        {"x86-64D-32W-P", "x86-8D-32W-P"},
        {"x86-32D-32W-P", "x86-8D-32W-P"},
        {"x86-16D-32W-P", "x86-8D-32W-P"},
        {"x86-32D-64W-P", "microx86-32D-64W-P"},
        {"x86-64D-64W-F", "x86-64D-64W-P"},
    };
    jobs.clear();
    for (size_t ci = 0; ci < std::size(cases); ci++) {
        FeatureSet code = FeatureSet::parse(cases[ci].first);
        FeatureSet core = FeatureSet::parse(cases[ci].second);
        for (int bench : {0, 3}) {
            int ph = phaseStartIndex(bench);
            CompileOptions opts = CompileOptions::fromEnv();
            opts.target = code;
            opts.enableVectorize &= code.simd() && core.simd();
            countStage1(ph, code, opts);
            downgrades_++;
            std::string k =
                "fig14." + std::to_string(ci) + ".b" + std::to_string(bench);
            jobs.push_back([this, k, ph, code, core, ua] {
                call(k, [&] {
                    return digestOf(
                        a_.traced() ? mirrorDowngrade(ph, code, core, ua)
                                    : measureDowngrade(ph, code, core, ua));
                });
            });
        }
    }
    runConcurrently(jobs);

    r_.layers["explore.searches"] = double(searches_);
    r_.layers["core.evaluates"] = double(evaluates_);
    r_.layers["migration.downgrades"] = double(downgrades_);
    r_.layers["core.stage1_distinct_ratio"] =
        double(stage1Distinct_.size()) / double(stage1Calls_);
}

} // namespace

int
runPaper(const Args &a, Report &r)
{
    if (!loadWarmStore(a))
        return 1;
    r.setupS = secondsSince(a.startNs);
    if (a.setupOnly)
        return 0;

    Suite suite(a, r);
    uint64_t t0 = nowNs();
    suite.run();
    r.workS = secondsSince(t0);
    std::vector<double> callUs;
    for (const auto &[key, us] : r.opUs)
        callUs.push_back(us);
    r.opsPerS = double(callUs.size()) / r.workS;
    r.opP50Us = quantile(callUs, 0.50);
    r.opP99Us = quantile(callUs, 0.99);

    // The reproduced gain is pinned with the other results; its
    // distance from the paper's figure is the model's error.
    r.digests["fig05.gain"] = Digest().pod(suite.fig05GainPct).hex();
    r.layers["explore.fig05_gain_err_pp"] =
        suite.fig05GainPct - kPaperFig05GainPct;
    return 0;
}

} // namespace perfbench
