/**
 * @file
 * Unit tests for the variable-length encoding model: prefix costs of
 * REXBC registers and predication, and displacement/immediate
 * sizing. Vendor code density is VendorModel::codeSizeFactor, not
 * an encoder.
 */

#include <gtest/gtest.h>

#include "isa/encoding.hh"

namespace cisa
{
namespace
{

EncInfo
basicAdd()
{
    EncInfo e;
    e.op = Op::Add;
    e.form = MemForm::None;
    e.maxGpr = 3;
    return e;
}

TEST(Encoding, BaselineAluLength)
{
    // add reg, reg with legacy registers: opcode + modrm.
    EXPECT_EQ(x86EncodedLength(basicAdd()), 2);
}

TEST(Encoding, RexAddsOneByte)
{
    EncInfo e = basicAdd();
    int base = x86EncodedLength(e);
    e.w64 = true;
    EXPECT_EQ(x86EncodedLength(e), base + 1);
    e.w64 = false;
    e.maxGpr = 12;
    EXPECT_EQ(x86EncodedLength(e), base + 1);
}

TEST(Encoding, RexbcAddsThreeBytes)
{
    // REXBC escape+payload (2) plus the REX byte it extends.
    EncInfo e = basicAdd();
    int base = x86EncodedLength(e);
    e.maxGpr = 32;
    EXPECT_EQ(x86EncodedLength(e), base + 3);
}

TEST(Encoding, PredicationAddsTwoBytes)
{
    EncInfo e = basicAdd();
    int base = x86EncodedLength(e);
    e.predicated = true;
    EXPECT_EQ(x86EncodedLength(e), base + 2);
}

TEST(Encoding, DisplacementSizing)
{
    EXPECT_EQ(dispBytesFor(0), 0);
    EXPECT_EQ(dispBytesFor(100), 1);
    EXPECT_EQ(dispBytesFor(-100), 1);
    EXPECT_EQ(dispBytesFor(200), 4);
    EXPECT_EQ(dispBytesFor(-200), 4);
}

TEST(Encoding, ImmediateSizing)
{
    EXPECT_EQ(immBytesFor(0, false), 0);
    EXPECT_EQ(immBytesFor(100, false), 1);
    EXPECT_EQ(immBytesFor(5000, false), 4);
    EXPECT_EQ(immBytesFor(1LL << 40, true), 8);
}

TEST(Encoding, MemoryOperandCosts)
{
    EncInfo e = basicAdd();
    e.form = MemForm::LoadOp;
    e.dispBytes = 1;
    int with_disp8 = x86EncodedLength(e);
    e.indexReg = true;
    EXPECT_EQ(x86EncodedLength(e), with_disp8 + 1); // SIB byte
    e.dispBytes = 4;
    EXPECT_EQ(x86EncodedLength(e), with_disp8 + 4);
}

TEST(Encoding, SseOpcodesAreLonger)
{
    EncInfo e;
    e.op = Op::FAdd;
    e.maxGpr = -1;
    EXPECT_GE(x86EncodedLength(e), 4); // prefix + 0f + opcode + modrm
}

TEST(Encoding, WithinSupersetLimit)
{
    // Worst case: predicated REXBC RMW with disp32 + imm32.
    EncInfo e;
    e.op = Op::Add;
    e.form = MemForm::LoadOpStore;
    e.w64 = true;
    e.maxGpr = 63;
    e.predicated = true;
    e.dispBytes = 4;
    e.immBytes = 4;
    e.indexReg = true;
    int len = x86EncodedLength(e);
    EXPECT_LE(len, kSupersetMaxLen);
    EXPECT_GT(len, kX86MaxLen); // genuinely uses the extension room
}

} // namespace
} // namespace cisa
