/**
 * @file
 * The compiler's correctness oracle: for every viable feature set,
 * compile every workload phase-family representative (and, with each
 * enable flag cleared in turn, one representative per feature set)
 * and check that machine execution reproduces the IR interpreter's
 * observable result exactly (integer checksum, return value) and the
 * FP store sum bit-for-bit (vectorization keeps per-element
 * operations exact; reductions are compared against the
 * *transformed* IR, which shares the vector association).
 */

#include <gtest/gtest.h>

#include <iterator>

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{
namespace
{

/** One representative phase per benchmark keeps runtime sane. */
std::vector<int>
representativePhases()
{
    std::vector<int> idx;
    int at = 0;
    for (const auto &b : specSuite()) {
        idx.push_back(at);          // first phase of each benchmark
        at += int(b.phases.size());
    }
    return idx;
}

/** The enable flags a case can clear, with their case-name tags. */
struct Gate
{
    const char *name;
    bool CompileOptions::*flag;
};
const Gate kGates[] = {
    {"lvn", &CompileOptions::enableLvn},
    {"vectorize", &CompileOptions::enableVectorize},
    {"ifconvert", &CompileOptions::enableIfConvert},
    {"schedule", &CompileOptions::enableSchedule}};

struct EquivCase
{
    int featureId;
    int phase;
    int cleared; ///< index into kGates, or -1 for the defaults
};

class EquivTest : public ::testing::TestWithParam<EquivCase>
{};

TEST_P(EquivTest, MachineMatchesIr)
{
    EquivCase c = GetParam();
    FeatureSet fs = FeatureSet::byId(c.featureId);
    PhaseProfile prof = allPhases()[size_t(c.phase)];
    // Shrink the run so the full 26x8 matrix stays fast.
    prof.targetDynOps = 20000;
    prof.outerTrip = 3;
    IrModule m = buildPhase(prof);

    CompileOptions opts;
    opts.target = fs;
    if (c.cleared >= 0)
        opts.*kGates[c.cleared].flag = false;
    IrModule transformed;
    MachineProgram prog = compile(m, opts, nullptr, &transformed);

    MemImage ref_img = MemImage::build(transformed, fs.widthBits());
    ExecResult ref = interpret(transformed, ref_img);
    ASSERT_FALSE(ref.ranOut);

    MemImage img = MemImage::build(transformed, fs.widthBits());
    ExecResult got = executeMachine(prog, img);
    ASSERT_FALSE(got.ranOut);

    EXPECT_EQ(got.retVal, ref.retVal) << fs.name() << " "
                                      << prof.name();
    EXPECT_EQ(got.intChecksum, ref.intChecksum)
        << fs.name() << " " << prof.name();
    EXPECT_DOUBLE_EQ(got.fpSum, ref.fpSum)
        << fs.name() << " " << prof.name();
}

std::vector<EquivCase>
allCases()
{
    std::vector<EquivCase> cases;
    std::vector<int> reps = representativePhases();
    for (int f = 0; f < FeatureSet::count(); f++) {
        for (int p : reps)
            cases.push_back({f, p, -1});
    }
    // One flag cleared: every feature set, the phase rotating over
    // the representatives.
    for (int g = 0; g < int(std::size(kGates)); g++) {
        for (int f = 0; f < FeatureSet::count(); f++)
            cases.push_back({f, reps[size_t(f + g) % reps.size()], g});
    }
    return cases;
}

std::string
caseName(const ::testing::TestParamInfo<EquivCase> &info)
{
    FeatureSet fs = FeatureSet::byId(info.param.featureId);
    std::string n = fs.name() + "_" +
                    allPhases()[size_t(info.param.phase)].name();
    if (info.param.cleared >= 0)
        n += std::string("_no_") + kGates[info.param.cleared].name;
    for (auto &ch : n) {
        if (ch == '-' || ch == '.')
            ch = '_';
    }
    return n;
}

INSTANTIATE_TEST_SUITE_P(AllFeatureSets, EquivTest,
                         ::testing::ValuesIn(allCases()), caseName);

/** The memory image must not depend on who executes it. */
TEST(Equiv, ImageDeterminism)
{
    const IrModule &m = phaseModule(0);
    MemImage a = MemImage::build(m, 64);
    MemImage b = MemImage::build(m, 64);
    EXPECT_EQ(a.mem, b.mem);
    EXPECT_EQ(a.regionBase, b.regionBase);
}

/** Program runs must be deterministic end to end. */
TEST(Equiv, ExecutionDeterminism)
{
    PhaseProfile prof = allPhases()[10];
    prof.targetDynOps = 10000;
    IrModule m = buildPhase(prof);
    CompileOptions opts;
    opts.target = FeatureSet::superset();
    MachineProgram prog = compile(m, opts);
    MemImage i1 = MemImage::build(m, 64);
    MemImage i2 = MemImage::build(m, 64);
    ExecResult a = executeMachine(prog, i1);
    ExecResult b = executeMachine(prog, i2);
    EXPECT_EQ(a.retVal, b.retVal);
    EXPECT_EQ(a.intChecksum, b.intChecksum);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
}

} // namespace
} // namespace cisa
