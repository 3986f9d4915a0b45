/**
 * @file
 * Unit tests for the superset ISA feature model: viability rules,
 * the 26-set enumeration, subsumption (upgrade/downgrade), naming,
 * registers, micro-op expansion rules, and vendor models.
 */

#include <gtest/gtest.h>

#include "isa/features.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"
#include "isa/vendor.hh"

namespace cisa
{
namespace
{

TEST(Features, ExactlyTwentySix)
{
    EXPECT_EQ(FeatureSet::count(), 26);
}

TEST(Features, ViabilityRules)
{
    // 64-bit requires depth >= 16.
    FeatureSet f{Complexity::X86, 8, RegWidth::W64,
                 Predication::Partial};
    EXPECT_FALSE(f.isViable());
    // Full predication with 8 registers is excluded.
    f = {Complexity::X86, 8, RegWidth::W32, Predication::Full};
    EXPECT_FALSE(f.isViable());
    f = {Complexity::X86, 8, RegWidth::W32, Predication::Partial};
    EXPECT_TRUE(f.isViable());
    // Bad depth.
    f = {Complexity::X86, 24, RegWidth::W32, Predication::Partial};
    EXPECT_FALSE(f.isViable());
}

TEST(Features, IdRoundTrip)
{
    for (int i = 0; i < FeatureSet::count(); i++) {
        FeatureSet f = FeatureSet::byId(i);
        EXPECT_EQ(f.id(), i);
        EXPECT_TRUE(f.isViable());
        EXPECT_EQ(FeatureSet::parse(f.name()), f);
    }
}

TEST(Features, SimdTiedToComplexity)
{
    for (const auto &f : FeatureSet::enumerate())
        EXPECT_EQ(f.simd(), f.complexity == Complexity::X86);
}

TEST(Features, SupersetSubsumesEverything)
{
    FeatureSet sup = FeatureSet::superset();
    for (const auto &f : FeatureSet::enumerate())
        EXPECT_TRUE(sup.subsumes(f)) << f.name();
}

TEST(Features, MinimalSubsumedByEverything64)
{
    FeatureSet min = FeatureSet::minimal();
    for (const auto &f : FeatureSet::enumerate()) {
        if (f.regDepth >= 8 && f.width == RegWidth::W64 &&
            f.complexity == Complexity::X86) {
            EXPECT_TRUE(f.subsumes(min)) << f.name();
        }
    }
}

TEST(Features, SubsumptionIsDirectional)
{
    FeatureSet big = FeatureSet::parse("x86-64D-64W-F");
    FeatureSet small = FeatureSet::parse("microx86-16D-32W-P");
    EXPECT_TRUE(big.subsumes(small));
    EXPECT_FALSE(small.subsumes(big));
    // microx86 cannot run full-x86 code.
    FeatureSet ux = FeatureSet::parse("microx86-64D-64W-F");
    FeatureSet x = FeatureSet::parse("x86-16D-32W-P");
    EXPECT_FALSE(ux.subsumes(x));
}

TEST(Features, NamesAreCanonical)
{
    EXPECT_EQ(FeatureSet::x86_64().name(), "x86-16D-64W-P");
    EXPECT_EQ(FeatureSet::thumbLike().name(), "microx86-8D-32W-P");
    EXPECT_EQ(FeatureSet::alphaLike().name(), "microx86-32D-64W-P");
    EXPECT_EQ(FeatureSet::superset().name(), "x86-64D-64W-F");
}

TEST(Features, DistinctFeatureCount)
{
    // The full enumeration exercises all 12 feature options.
    EXPECT_EQ(distinctFeatureCount(FeatureSet::enumerate()), 12);
    // A single set exercises exactly 5 (one per axis).
    EXPECT_EQ(distinctFeatureCount({FeatureSet::x86_64()}), 5);
}

TEST(Registers, Tiers)
{
    EXPECT_EQ(regTier(0), RegTier::Legacy);
    EXPECT_EQ(regTier(7), RegTier::Legacy);
    EXPECT_EQ(regTier(8), RegTier::Rex);
    EXPECT_EQ(regTier(15), RegTier::Rex);
    EXPECT_EQ(regTier(16), RegTier::Rexbc);
    EXPECT_EQ(regTier(63), RegTier::Rexbc);
    EXPECT_EQ(regPrefixBytes(3), 0);
    EXPECT_EQ(regPrefixBytes(9), 1);
    EXPECT_EQ(regPrefixBytes(40), 2);
}

TEST(Registers, Names)
{
    EXPECT_EQ(regName(0, 64), "rax");
    EXPECT_EQ(regName(0, 32), "eax");
    EXPECT_EQ(regName(4, 64), "rsp");
    EXPECT_EQ(regName(12, 64), "r12");
    EXPECT_EQ(regName(12, 32), "r12d");
    EXPECT_EQ(regName(47, 16), "r47w");
    EXPECT_EQ(xmmName(3), "xmm3");
}

TEST(Opcodes, Microx86LegalityIsOneToOne)
{
    for (int o = 0; o < int(Op::NumOps); o++) {
        Op op = Op(o);
        for (int fm = 0; fm < 5; fm++) {
            MemForm f = MemForm(fm);
            if (microx86Legal(op, f)) {
                EXPECT_EQ(uopExpansion(op, f), 1)
                    << opName(op) << " form " << fm;
            }
        }
    }
}

TEST(Opcodes, ComplexFormsExpand)
{
    EXPECT_EQ(uopExpansion(Op::Add, MemForm::LoadOp), 2);
    EXPECT_EQ(uopExpansion(Op::Add, MemForm::LoadOpStore), 4);
    EXPECT_EQ(uopExpansion(Op::VMul, MemForm::None), 2);
    EXPECT_EQ(uopExpansion(Op::Load, MemForm::Load), 1);
}

TEST(Opcodes, SimdNeverMicrox86)
{
    EXPECT_FALSE(microx86Legal(Op::VAdd, MemForm::None));
    EXPECT_FALSE(microx86Legal(Op::VMul, MemForm::Load));
}

TEST(Opcodes, ClassesAndLatencies)
{
    EXPECT_EQ(opClass(Op::Mul), MicroClass::IntMul);
    EXPECT_EQ(opClass(Op::FDiv), MicroClass::FpDiv);
    EXPECT_EQ(opClass(Op::Branch), MicroClass::Branch);
    EXPECT_GE(microLatency(MicroClass::IntDiv),
              microLatency(MicroClass::IntMul));
    EXPECT_TRUE(isIntClass(MicroClass::IntAlu));
    EXPECT_TRUE(isFpSimdClass(MicroClass::SimdMul));
    EXPECT_FALSE(isFpSimdClass(MicroClass::Load));
}

TEST(Vendor, TableTwoMapping)
{
    auto palette = VendorModel::multiVendorPalette();
    ASSERT_EQ(palette.size(), 3u);
    EXPECT_EQ(palette[0].features, FeatureSet::x86_64());
    EXPECT_EQ(palette[1].features, FeatureSet::alphaLike());
    EXPECT_EQ(palette[2].features, FeatureSet::thumbLike());
    EXPECT_FALSE(palette[0].fixedLength);
    EXPECT_TRUE(palette[1].fixedLength);
    EXPECT_TRUE(palette[2].fixedLength);
    EXPECT_LT(palette[2].codeSizeFactor, 1.0); // Thumb compression
    EXPECT_GT(palette[1].fpArchRegs, 16);      // Alpha FP registers
    for (const auto &v : palette)
        EXPECT_TRUE(v.crossIsaMigration);
}

TEST(Vendor, X86izedPaletteHasNoExclusives)
{
    auto palette = VendorModel::x86izedPalette();
    ASSERT_EQ(palette.size(), 3u);
    for (const auto &v : palette) {
        EXPECT_FALSE(v.crossIsaMigration);
        EXPECT_FALSE(v.fixedLength);
        EXPECT_EQ(v.codeSizeFactor, 1.0);
    }
}

} // namespace
} // namespace cisa
