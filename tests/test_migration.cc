/**
 * @file
 * Tests of the feature-downgrade binary translator: downgraded
 * programs must be semantically identical to the originals (the RCB
 * and scratch traffic is architecturally invisible), must decode as
 * legal code for the constrained core, and must show the paper's
 * cost ordering (deeper register-depth downgrades hurt more; the
 * x86-to-microx86 addressing transform is cheap).
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "migration/cost.hh"
#include "migration/translate.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{
namespace
{

IrModule
smallModule(const char *bench, bool vectorize_target = false)
{
    int bi = benchIndex(bench);
    PhaseProfile p = specSuite()[size_t(bi)].phases[0];
    p.targetDynOps = 15000;
    p.outerTrip = 2;
    if (!vectorize_target)
        p.vecLoops = 0;
    return buildPhase(p);
}

struct DownCase
{
    const char *bench;
    const char *code;
    const char *core;
};

class DowngradeEquiv : public ::testing::TestWithParam<DownCase>
{};

TEST_P(DowngradeEquiv, SemanticsPreserved)
{
    DownCase c = GetParam();
    FeatureSet code = FeatureSet::parse(c.code);
    FeatureSet core = FeatureSet::parse(c.core);
    IrModule m = smallModule(c.bench);

    CompileOptions opts;
    opts.target = code;
    opts.enableVectorize = false; // SIMD can't downgrade to microx86
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);

    MemImage img1 = MemImage::build(ir, code.widthBits());
    ExecResult ref = executeMachine(prog, img1);
    ASSERT_FALSE(ref.ranOut);

    MemImage img2 = MemImage::build(ir, code.widthBits());
    DowngradeStats st;
    MachineProgram down =
        downgradeProgram(prog, core, img2.stackBase, &st);
    ExecResult got = executeMachine(down, img2);
    ASSERT_FALSE(got.ranOut);

    EXPECT_EQ(got.retVal, ref.retVal);
    EXPECT_EQ(got.intChecksum, ref.intChecksum);
    EXPECT_DOUBLE_EQ(got.fpSum, ref.fpSum);
    // The translation is not a no-op.
    EXPECT_GT(st.depthRewrites + st.unfoldedOps +
                  st.reverseIfConverted,
              0);
    // Translated code only uses features of the constrained core.
    for (const auto &f : down.funcs) {
        for (const auto &b : f.blocks) {
            for (const auto &i : b.instrs) {
                if (core.complexity == Complexity::MicroX86) {
                    EXPECT_EQ(i.uops, 1) << i.str();
                }
                if (!core.fullPredication()) {
                    EXPECT_LT(i.predReg, 0) << i.str();
                }
                if (!i.fp) {
                    EXPECT_LT(i.dst, core.regDepth) << i.str();
                    EXPECT_LT(i.src1, core.regDepth) << i.str();
                    EXPECT_LT(i.src2, core.regDepth) << i.str();
                }
                EXPECT_LT(i.mem.base, int(core.regDepth));
                EXPECT_LT(i.mem.index, int(core.regDepth));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DowngradeEquiv,
    ::testing::Values(
        // Register-depth downgrades.
        DownCase{"hmmer", "x86-64D-64W-P", "x86-32D-64W-P"},
        DownCase{"hmmer", "x86-64D-64W-P", "x86-16D-64W-P"},
        DownCase{"bzip2", "x86-32D-64W-P", "x86-16D-64W-P"},
        DownCase{"astar", "x86-32D-32W-P", "x86-8D-32W-P"},
        // Complexity downgrades.
        DownCase{"mcf", "x86-32D-64W-P", "microx86-32D-64W-P"},
        DownCase{"hmmer", "x86-64D-64W-P", "microx86-64D-64W-P"},
        // Predication downgrades.
        DownCase{"sjeng", "x86-64D-64W-F", "x86-64D-64W-P"},
        DownCase{"gobmk", "x86-32D-64W-F", "x86-32D-64W-P"},
        // Combined downgrades.
        DownCase{"sjeng", "x86-64D-64W-F", "microx86-16D-64W-P"},
        DownCase{"milc", "x86-64D-64W-F", "microx86-32D-64W-P"}),
    [](const ::testing::TestParamInfo<DownCase> &info) {
        std::string n = std::string(info.param.bench) + "_" +
                        info.param.code + "_to_" + info.param.core;
        for (auto &ch : n) {
            if (ch == '-')
                ch = '_';
        }
        return n;
    });

TEST(Downgrade, WidthTraceExpansion)
{
    FeatureSet code = FeatureSet::parse("x86-32D-64W-P");
    IrModule m = smallModule("bzip2"); // I64-heavy
    CompileOptions opts;
    opts.target = code;
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, 64);
    Trace tr;
    executeMachine(prog, img, 1ULL << 30, &tr);
    DowngradeStats st;
    Trace down = downgradeWidthTrace(tr, &st);
    EXPECT_GT(st.widthExpansions, 0);
    EXPECT_GT(down.ops.size(), tr.ops.size());
    EXPECT_GT(down.dyn.uops, tr.dyn.uops);
}

TEST(Downgrade, DepthCostOrdering)
{
    MicroArchConfig ua = MicroArchConfig::byId(150);
    FeatureSet code = FeatureSet::parse("x86-64D-64W-P");
    int hmmer0 = 0;
    // hmmer is the first benchmark alphabetically? Find its phase.
    int at = 0;
    for (const auto &b : specSuite()) {
        if (b.name == "hmmer")
            hmmer0 = at;
        at += int(b.phases.size());
    }
    DowngradeCost to32 = measureDowngrade(
        hmmer0, code, FeatureSet::parse("x86-32D-64W-P"), ua);
    DowngradeCost to16 = measureDowngrade(
        hmmer0, code, FeatureSet::parse("x86-16D-64W-P"), ua);
    // hmmer uses the deep register file; cutting it deeper hurts
    // more (Figure 14's ordering).
    EXPECT_GT(to16.slowdown, to32.slowdown);
    EXPECT_GT(to16.slowdown, 0.02);
    EXPECT_GT(to16.depthRewrites, to32.depthRewrites);
}

TEST(Downgrade, Microx86TransformIsCheap)
{
    MicroArchConfig ua = MicroArchConfig::byId(150);
    DowngradeCost c = measureDowngrade(
        0, FeatureSet::parse("x86-32D-64W-P"),
        FeatureSet::parse("microx86-32D-64W-P"), ua);
    EXPECT_GT(c.unfoldedOps, 0);
    EXPECT_LT(c.slowdown, 0.25); // "4.2% on average" scale
}

TEST(Downgrade, UpgradeNeedsNoTranslation)
{
    FeatureSet small = FeatureSet::parse("microx86-16D-32W-P");
    FeatureSet big = FeatureSet::parse("x86-64D-64W-F");
    EXPECT_TRUE(big.subsumes(small));
    // An upgrade keeps the binary byte-for-byte.
    IrModule m = smallModule("astar");
    CompileOptions opts;
    opts.target = small;
    MachineProgram prog = compile(m, opts);
    DowngradeStats st;
    MachineProgram same = downgradeProgram(prog, big, 0x1000, &st);
    EXPECT_EQ(st.depthRewrites, 0);
    EXPECT_EQ(st.unfoldedOps, 0);
    EXPECT_EQ(st.reverseIfConverted, 0);
    EXPECT_EQ(same.stats.instrs, prog.stats.instrs);
}

TEST(Downgrade, VendorTraceAdjustment)
{
    IrModule m = smallModule("astar");
    CompileOptions opts;
    opts.target = FeatureSet::thumbLike();
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, 32);
    Trace tr;
    executeMachine(prog, img, 1ULL << 30, &tr);
    Trace thumb = vendorAdjustTrace(tr, 0.72);
    uint64_t orig_bytes = 0, thumb_bytes = 0;
    for (size_t i = 0; i < tr.ops.size(); i++) {
        orig_bytes += tr.ops[i].len;
        thumb_bytes += thumb.ops[i].len;
    }
    EXPECT_LT(thumb_bytes, orig_bytes * 85 / 100);
}

} // namespace
} // namespace cisa
