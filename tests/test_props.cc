/**
 * @file
 * Property-based sweeps across the whole (feature set x phase x
 * microarchitecture) space: invariants that must hold for every
 * combination, parameterized with TEST_P. These complement the
 * equivalence suite by checking structural properties of generated
 * code and simulation outputs rather than semantics.
 */

#include <gtest/gtest.h>

#include "core/cisa.hh"

namespace cisa
{
namespace
{

// ---------- code-structure properties per feature set ----------

class CodeProps : public ::testing::TestWithParam<int>
{};

TEST_P(CodeProps, StructuralInvariants)
{
    FeatureSet fs = FeatureSet::byId(GetParam());
    PhaseProfile prof = allPhases()[7]; // bzip2: uses every feature
    prof.targetDynOps = 10000;
    prof.outerTrip = 2;
    IrModule m = buildPhase(prof);
    CompileOptions opts;
    opts.target = fs;
    MachineProgram prog = compile(m, opts);

    uint64_t code_end = 0;
    for (const auto &f : prog.funcs) {
        for (const auto &b : f.blocks) {
            for (const auto &i : b.instrs) {
                // Encoded lengths within the superset limit.
                EXPECT_GE(int(i.len), 1);
                EXPECT_LE(int(i.len), kSupersetMaxLen);
                // Addresses are laid out monotonically.
                EXPECT_GT(i.addr, code_end);
                code_end = i.addr;
                // Micro-op expansion legality.
                EXPECT_GE(int(i.uops), 1);
                if (fs.complexity == Complexity::MicroX86) {
                    EXPECT_EQ(int(i.uops), 1) << i.str();
                }
                // Register bounds.
                if (!i.fp) {
                    EXPECT_LT(i.dst, int(fs.regDepth));
                    EXPECT_LT(i.src1, int(fs.regDepth));
                    EXPECT_LT(i.src2, int(fs.regDepth));
                }
                EXPECT_LT(i.mem.base, int(fs.regDepth));
                EXPECT_LT(i.mem.index, int(fs.regDepth));
                // Predication only on fully-predicated targets.
                if (!fs.fullPredication()) {
                    EXPECT_LT(i.predReg, 0);
                }
                // SIMD only with SSE.
                if (!fs.simd()) {
                    EXPECT_FALSE(isSimdOp(i.op)) << i.str();
                }
                // 32-bit targets never emit 64-bit integer ops.
                if (fs.width == RegWidth::W32 && !i.fp) {
                    EXPECT_EQ(int(i.opBits), 32) << i.str();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFeatureSets, CodeProps,
    ::testing::Range(0, FeatureSet::count()),
    [](const ::testing::TestParamInfo<int> &info) {
        std::string n = FeatureSet::byId(info.param).name();
        for (auto &ch : n) {
            if (ch == '-')
                ch = '_';
        }
        return n;
    });

// ---------- timing properties per microarchitecture ----------

class UarchProps : public ::testing::TestWithParam<int>
{};

TEST_P(UarchProps, SimulationInvariants)
{
    MicroArchConfig ua = MicroArchConfig::byId(GetParam());
    static const Trace trace = [] {
        PhaseProfile prof = allPhases()[40]; // sjeng: branchy
        prof.targetDynOps = 12000;
        prof.outerTrip = 2;
        IrModule m = buildPhase(prof);
        CompiledRun run = compileAndRun(m, FeatureSet::x86_64());
        return run.trace;
    }();

    CoreConfig cc{FeatureSet::x86_64(), ua};
    PerfResult r = simulateCore(cc, trace, 3000, 800);

    // Throughput bounded by machine width.
    EXPECT_LE(r.upc, double(ua.width) + 0.01) << ua.name();
    EXPECT_GT(r.ipc, 0.01) << ua.name();
    // Conservation: issued uops track dispatched work.
    EXPECT_GE(r.stats.issuedUops, r.stats.uops) << ua.name();
    // Cache accounting.
    EXPECT_GE(r.stats.l1dAccesses, r.stats.l1dMisses);
    EXPECT_GE(r.stats.l1iAccesses, r.stats.l1iMisses);
    // Branch accounting.
    EXPECT_GE(r.stats.bpLookups, r.stats.bpMispredicts);
    if (!ua.uopCache) {
        EXPECT_EQ(r.stats.uopCacheLookups, 0u);
    }
    if (!ua.outOfOrder) {
        EXPECT_EQ(r.stats.renamedUops, 0u);
        EXPECT_EQ(r.stats.iqWrites, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(SampledConfigs, UarchProps,
                         ::testing::Values(0, 13, 29, 47, 61, 88,
                                           101, 123, 140, 151, 166,
                                           179));

// ---------- power-model properties over the space ----------

class PowerProps : public ::testing::TestWithParam<int>
{};

TEST_P(PowerProps, AreaAndPowerWithinSpace)
{
    FeatureSet fs = FeatureSet::byId(GetParam());
    for (int u = 0; u < 180; u += 37) {
        CoreConfig cc{fs, MicroArchConfig::byId(u)};
        double a = coreAreaMm2(cc);
        double p = corePeakPowerW(cc);
        EXPECT_GT(a, 8.0) << cc.name();
        EXPECT_LT(a, 30.0) << cc.name();
        EXPECT_GT(p, 4.0) << cc.name();
        EXPECT_LT(p, 24.0) << cc.name();
        // Breakdown groups are non-negative.
        CoreBreakdown b = coreArea(cc);
        EXPECT_GE(b.fetchGroup(), 0.0);
        EXPECT_GE(b.fuGroup(), 0.0);
        EXPECT_GE(b.coreOnly(), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(AllFeatureSets, PowerProps,
                         ::testing::Range(0, FeatureSet::count()));

} // namespace
} // namespace cisa
