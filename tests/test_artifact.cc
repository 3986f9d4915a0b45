/**
 * @file
 * Tests of the shared stage-1 artifact (workloads/artifact.hh): the
 * (phase, width) image template must equal the image of the compiled
 * module, the memoized, record-capped evaluatePhase and
 * measureDowngrade must reproduce the uncapped path they replaced bit
 * for bit, concurrent callers of one key must share one build, and
 * the executor's runaway guard must trip on capped runs too.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/env.hh"
#include "common/logging.hh"
#include "core/cisa.hh"

namespace cisa
{
namespace
{

MicroArchConfig
midCore()
{
    for (const auto &c : MicroArchConfig::enumerate()) {
        if (c.outOfOrder && c.width == 2 &&
            c.bpred == BpKind::Tournament && c.iqSize == 64 &&
            c.uopCache) {
            return c;
        }
    }
    return MicroArchConfig{};
}

/** Bitwise equality of a plain struct (doubles compared as bits). */
template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    static_assert(std::is_trivially_copyable_v<T>);
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/** evaluatePhase as it was before artifacts: fresh compile, fresh
 * image, every op recorded, run length from ops.size(). */
PhaseRun
uncappedEvaluate(int phase_idx, const FeatureSet &isa,
                 const MicroArchConfig &uarch, uint64_t timed_uops)
{
    CompileOptions opts;
    opts.target = isa;
    CompileReport rep;
    IrModule ir;
    MachineProgram prog =
        compile(phaseModule(phase_idx), opts, &rep, &ir);
    MemImage img = MemImage::build(ir, isa.widthBits());
    Trace trace;
    executeMachine(prog, img, 1ULL << 31, &trace, 1ULL << 21);
    EXPECT_FALSE(trace.truncated);

    uint64_t timed = timed_uops ? timed_uops : simUopBudget();
    CoreConfig cc{isa, uarch};
    PerfResult perf = simulateCore(cc, trace, timed, simWarmupUops());

    PhaseRun run;
    run.code = prog.stats;
    run.passes = rep;
    run.mix = trace.dyn;
    run.perf = perf;
    run.energy = coreEnergy(cc, perf.stats);
    run.areaMm2 = coreAreaMm2(cc);
    run.peakPowerW = corePeakPowerW(cc);
    double scale =
        double(trace.ops.size()) / double(perf.stats.macroOps);
    run.timePerRunSec = secondsOf(perf.cycles) * scale;
    run.energyPerRunJ = run.energy.total() * scale;
    return run;
}

/** measureDowngrade as it was before artifacts. */
DowngradeCost
uncappedDowngrade(int phase_idx, const FeatureSet &code_fs,
                  const FeatureSet &core_fs, const MicroArchConfig &ua)
{
    CompileOptions opts;
    opts.target = code_fs;
    opts.enableVectorize &= code_fs.simd() && core_fs.simd();
    IrModule ir;
    MachineProgram prog =
        compile(phaseModule(phase_idx), opts, nullptr, &ir);
    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();

    MemImage img_native = MemImage::build(ir, code_fs.widthBits());
    Trace native;
    executeMachine(prog, img_native, 1ULL << 30, &native);
    EXPECT_FALSE(native.truncated);
    PerfResult base =
        simulateCore(CoreConfig{code_fs, ua}, native, timed, warm);
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
    if (needs_binary)
        down = downgradeProgram(prog, core_fs, img_down.stackBase, &dst);
    Trace downgraded;
    executeMachine(down, img_down, 1ULL << 30, &downgraded);
    EXPECT_FALSE(downgraded.truncated);
    if (core_fs.width == RegWidth::W32 &&
        code_fs.width == RegWidth::W64)
        downgraded = downgradeWidthTrace(downgraded, &dst);
    PerfResult got =
        simulateCore(CoreConfig{core_fs, ua}, downgraded, timed, warm);
    double down_time = double(got.cycles) /
                       double(got.stats.macroOps) *
                       double(downgraded.ops.size());

    DowngradeCost out;
    out.slowdown = down_time / base_time - 1.0;
    out.depthRewrites = dst.depthRewrites;
    out.unfoldedOps = dst.unfoldedOps;
    out.reverseIfConverted = dst.reverseIfConverted;
    out.widthExpansions = dst.widthExpansions;
    return out;
}

void
expectSameRun(const PhaseRun &a, const PhaseRun &b)
{
    EXPECT_TRUE(sameBytes(a.code, b.code));
    EXPECT_TRUE(sameBytes(a.passes, b.passes));
    EXPECT_TRUE(sameBytes(a.mix, b.mix));
    EXPECT_TRUE(sameBytes(a.perf.stats, b.perf.stats));
    EXPECT_TRUE(sameBytes(a.perf.ipc, b.perf.ipc));
    EXPECT_TRUE(sameBytes(a.perf.upc, b.perf.upc));
    EXPECT_EQ(a.perf.cycles, b.perf.cycles);
    EXPECT_TRUE(sameBytes(a.energy, b.energy));
    EXPECT_TRUE(sameBytes(a.areaMm2, b.areaMm2));
    EXPECT_TRUE(sameBytes(a.peakPowerW, b.peakPowerW));
    EXPECT_TRUE(sameBytes(a.timePerRunSec, b.timePerRunSec));
    EXPECT_TRUE(sameBytes(a.energyPerRunJ, b.energyPerRunJ));
}

TEST(Artifact, ImageTemplateMatchesTransformedIr)
{
    // Every phase at both widths, rotating through the feature sets
    // of each width so all 26 are covered.
    std::vector<FeatureSet> by_width[2];
    for (const FeatureSet &fs : FeatureSet::enumerate())
        by_width[fs.widthBits() == 64].push_back(fs);
    ASSERT_FALSE(by_width[0].empty());
    ASSERT_FALSE(by_width[1].empty());
    for (int ph = 0; ph < phaseCount(); ph++) {
        for (const auto &sets : by_width) {
            const FeatureSet &fs = sets[size_t(ph) % sets.size()];
            CompileOptions opts;
            opts.target = fs;
            IrModule ir;
            compile(phaseModule(ph), opts, nullptr, &ir);
            MemImage want = MemImage::build(ir, fs.widthBits());
            const MemImage &got = phaseImage(ph, fs.widthBits());
            SCOPED_TRACE(strfmt("phase %d, %s", ph, fs.name().c_str()));
            EXPECT_EQ(got.ptrBits, want.ptrBits);
            EXPECT_EQ(got.stackBase, want.stackBase);
            EXPECT_EQ(got.stackSize, want.stackSize);
            EXPECT_EQ(got.regionBase, want.regionBase);
            EXPECT_TRUE(got.mem == want.mem);
        }
    }
}

TEST(Artifact, CappedTraceIsThePrefixOfTheFullRun)
{
    CompileOptions opts;
    opts.target = FeatureSet::x86_64();
    uint64_t cap = stage1RecordCap();
    PhaseArtifact capped = buildPhaseArtifact(5, opts, cap);
    PhaseArtifact full = buildPhaseArtifact(5, opts, ~uint64_t(0));
    ASSERT_GT(full.trace.ops.size(), cap);
    EXPECT_EQ(capped.trace.ops.size(), cap);
    EXPECT_EQ(capped.runOps(), full.trace.ops.size());
    EXPECT_TRUE(sameBytes(capped.trace.dyn, full.trace.dyn));
    // Every stored op but the last (whose successor was never run)
    // equals the full trace's.
    auto same = [](const DynOp &a, const DynOp &b) {
        return a.pc == b.pc && a.maddr == b.maddr &&
               a.target == b.target && a.len == b.len &&
               a.uops == b.uops && a.msize == b.msize &&
               a.opBits == b.opBits && a.flags == b.flags &&
               a.cls == b.cls && a.form == b.form && a.dst == b.dst &&
               a.src1 == b.src1 && a.src2 == b.src2 &&
               a.base == b.base && a.index == b.index &&
               a.pred == b.pred && a.writesFlags == b.writesFlags &&
               a.readsFlags == b.readsFlags &&
               a.readsDst == b.readsDst;
    };
    for (size_t i = 0; i + 1 < cap; i++)
        ASSERT_TRUE(same(capped.trace.ops[i], full.trace.ops[i]))
            << "op " << i;
}

TEST(Artifact, EvaluateMatchesUncappedPath)
{
    MicroArchConfig ua = midCore();
    uint64_t above = 2 * simUopBudget();
    struct Case
    {
        int phase;
        const char *isa;
        uint64_t timed;
    };
    const Case cases[] = {
        {0, "x86-16D-64W-P", 2500},
        {0, "x86-16D-64W-P", above}, // regrows the memo entry's cap
        {0, "x86-16D-64W-P", 0},     // served by the larger entry
        {phaseStartIndex(4), "microx86-8D-32W-P", 0},
        {phaseStartIndex(6), "x86-64D-64W-F", above},
    };
    for (const Case &c : cases) {
        FeatureSet fs = FeatureSet::parse(c.isa);
        SCOPED_TRACE(strfmt("phase %d, %s, timed %llu", c.phase, c.isa,
                            (unsigned long long)c.timed));
        expectSameRun(evaluatePhase(c.phase, fs, ua, c.timed),
                      uncappedEvaluate(c.phase, fs, ua, c.timed));
    }
}

TEST(Artifact, DowngradeMatchesUncappedPath)
{
    MicroArchConfig ua = midCore();
    const std::pair<const char *, const char *> cases[] = {
        {"x86-32D-64W-P", "x86-32D-32W-P"},      // 64 -> 32-bit width
        {"x86-64D-64W-F", "x86-64D-64W-P"},      // predication
        {"x86-64D-64W-P", "x86-16D-64W-P"},      // register depth
        {"x86-32D-64W-P", "microx86-32D-64W-P"}, // complexity
    };
    for (int bench : {0, 3}) {
        int ph = phaseStartIndex(bench);
        for (const auto &[code, core] : cases) {
            FeatureSet cfs = FeatureSet::parse(code);
            FeatureSet kfs = FeatureSet::parse(core);
            SCOPED_TRACE(strfmt("phase %d, %s on %s", ph, code, core));
            DowngradeCost got = measureDowngrade(ph, cfs, kfs, ua);
            DowngradeCost want = uncappedDowngrade(ph, cfs, kfs, ua);
            EXPECT_TRUE(sameBytes(got.slowdown, want.slowdown));
            EXPECT_EQ(got.depthRewrites, want.depthRewrites);
            EXPECT_EQ(got.unfoldedOps, want.unfoldedOps);
            EXPECT_EQ(got.reverseIfConverted, want.reverseIfConverted);
            EXPECT_EQ(got.widthExpansions, want.widthExpansions);
        }
    }
}

TEST(Artifact, ConcurrentCallersShareOneBuild)
{
    // LVN-off keys no other test asks for.
    CompileOptions opts;
    opts.enableLvn = false;
    opts.target = FeatureSet::byId(3);
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PhaseArtifact>> got(kThreads);
    std::atomic<bool> go{false};
    uint64_t before = phaseArtifactBuilds();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            got[size_t(t)] = phaseArtifact(7, opts);
        });
    }
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(phaseArtifactBuilds() - before, 1u);
    for (const auto &a : got)
        EXPECT_EQ(a.get(), got[0].get());
    EXPECT_EQ(got[0]->trace.ops.size(), stage1RecordCap());

    // A later call is a hit too.
    EXPECT_EQ(phaseArtifact(7, opts).get(), got[0].get());
    EXPECT_EQ(phaseArtifactBuilds() - before, 1u);
}

TEST(Artifact, MemoKeepsTheMostRecentKeys)
{
    CompileOptions opts;
    opts.enableSchedule = false; // keys of this test only
    opts.target = FeatureSet::byId(0);
    uint64_t before = phaseArtifactBuilds();
    // One more key than the memo holds: the first is evicted.
    int keys = int(kPhaseArtifactMemoEntries) + 1;
    for (int k = 0; k < keys; k++) {
        opts.target = FeatureSet::byId(k / phaseCount());
        phaseArtifact(k % phaseCount(), opts);
    }
    EXPECT_EQ(phaseArtifactBuilds() - before, uint64_t(keys));
    opts.target = FeatureSet::byId((keys - 1) / phaseCount());
    phaseArtifact((keys - 1) % phaseCount(), opts); // newest: a hit
    EXPECT_EQ(phaseArtifactBuilds() - before, uint64_t(keys));
    opts.target = FeatureSet::byId(0);
    phaseArtifact(0, opts); // oldest: rebuilt
    EXPECT_EQ(phaseArtifactBuilds() - before, uint64_t(keys) + 1);
}

TEST(Exec, RunawayGuardTripsCappedRuns)
{
    CompileOptions opts;
    opts.target = FeatureSet::x86_64();
    MachineProgram prog = compile(phaseModule(0), opts);
    const MemImage &tmpl = phaseImage(0, 64);

    // Uncapped: the guard stores trace_cap ops and stops.
    MemImage img = tmpl;
    Trace full;
    ExecResult rf = executeMachine(prog, img, 1ULL << 31, &full, 1000);
    EXPECT_TRUE(full.truncated);
    EXPECT_EQ(full.ops.size(), 1000u);
    EXPECT_EQ(full.dyn.macroOps, 1001u);

    // Capped below the guard: it trips at the same op.
    img = tmpl;
    Trace capped;
    ExecResult rc =
        executeMachine(prog, img, 1ULL << 31, &capped, 1000, 100);
    EXPECT_TRUE(capped.truncated);
    EXPECT_EQ(capped.ops.size(), 100u);
    EXPECT_EQ(capped.dyn.macroOps, 1001u);
    EXPECT_EQ(rc.dynInstrs, rf.dynInstrs);

    // A guard above the run: the capped run completes.
    img = tmpl;
    Trace whole;
    executeMachine(prog, img, 1ULL << 31, &whole, 1ULL << 21, 100);
    EXPECT_FALSE(whole.truncated);
    EXPECT_EQ(whole.ops.size(), 100u);
    EXPECT_GT(whole.dyn.macroOps, 100000u);
}

} // namespace
} // namespace cisa
