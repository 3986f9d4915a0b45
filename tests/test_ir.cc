/**
 * @file
 * Unit tests for the IR core: builder/validation, the interpreter's
 * semantics, memory image initialization, and the CFG analyses
 * (successors and predecessors, reverse postorder, liveness).
 */

#include <gtest/gtest.h>

#include "compiler/analysis.hh"
#include "compiler/interp.hh"
#include "compiler/ir.hh"

namespace cisa
{
namespace
{

/** sum = 0; for (i = 0; i < 10; i++) sum += i; ret sum. */
IrModule
countingLoop()
{
    IrModule m;
    m.name = "count";
    IrBuilder b(m);
    b.startFunc("main");
    int sum = b.constInt(0, Type::I64);
    int i = b.constInt(0, Type::I64);
    int loop = b.newBlock();
    int exit = b.newBlock();
    b.jmp(loop);
    b.setBlock(loop);
    b.arithInto(sum, IrOp::Add, sum, i, Type::I64);
    b.arithImmInto(i, IrOp::Add, i, 1, Type::I64);
    int c = b.icmpImm(Cond::Lt, i, 10);
    b.br(c, loop, exit, 0.9, true);
    b.setBlock(exit);
    b.ret(sum);
    m.validate();
    return m;
}

TEST(IrInterp, CountingLoop)
{
    IrModule m = countingLoop();
    MemImage img = MemImage::build(m, 64);
    ExecResult r = interpret(m, img);
    EXPECT_EQ(r.retVal, 45);
    EXPECT_FALSE(r.ranOut);
    EXPECT_EQ(r.branches, 12u); // jmp + 10 loop branches + ret
}

TEST(IrInterp, FuelLimit)
{
    IrModule m = countingLoop();
    MemImage img = MemImage::build(m, 64);
    ExecResult r = interpret(m, img, 5);
    EXPECT_TRUE(r.ranOut);
    EXPECT_EQ(r.dynInstrs, 5u);
}

TEST(IrInterp, MemoryRoundTrip)
{
    IrModule m;
    m.name = "mem";
    MemRegion reg;
    reg.name = "a";
    reg.elem = ElemKind::I32;
    reg.count = 64;
    reg.init = RegionInit::Zero;
    m.regions.push_back(reg);
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int v = b.constInt(1234, Type::I32);
    int addr = b.gep(base, -1, 1, 8);
    b.store(addr, v, Type::I32);
    int back = b.load(addr, Type::I32);
    b.ret(back);
    m.validate();
    MemImage img = MemImage::build(m, 64);
    ExecResult r = interpret(m, img);
    EXPECT_EQ(r.retVal, 1234);
    EXPECT_EQ(r.loads, 1u);
    EXPECT_EQ(r.stores, 1u);
    EXPECT_NE(r.intChecksum, 0u);
}

TEST(IrInterp, SelectAndPredication)
{
    IrModule m;
    m.name = "sel";
    IrBuilder b(m);
    b.startFunc("main");
    int a = b.constInt(5, Type::I64);
    int c = b.icmpImm(Cond::Gt, a, 3);
    int x = b.constInt(10, Type::I64);
    int y = b.constInt(20, Type::I64);
    int s = b.select(c, x, y, Type::I64);
    // Predicated add: only applies when c != 0.
    IrInstr pi;
    pi.op = IrOp::Add;
    pi.type = Type::I64;
    pi.dst = s;
    pi.a = s;
    pi.imm = 100;
    pi.predVreg = c;
    pi.predSense = false; // false sense: should be skipped
    b.emit(pi);
    b.ret(s);
    m.validate();
    MemImage img = MemImage::build(m, 64);
    EXPECT_EQ(interpret(m, img).retVal, 10);
}

TEST(IrInterp, I32Semantics)
{
    IrModule m;
    m.name = "i32";
    IrBuilder b(m);
    b.startFunc("main");
    int a = b.constInt(0x7fffffff, Type::I32);
    int r1 = b.arithImm(IrOp::Add, a, 1, Type::I32); // overflow
    int r2 = b.arithImm(IrOp::Shr, r1, 1, Type::I32);
    b.ret(r2);
    m.validate();
    MemImage img = MemImage::build(m, 64);
    // 0x80000000 (as -2^31) logically shifted right by 1 at 32 bits
    // = 0x40000000.
    EXPECT_EQ(interpret(m, img).retVal, 0x40000000);
}

TEST(IrInterp, PointerWidthAffectsLayout)
{
    IrModule m;
    m.name = "ptr";
    MemRegion reg;
    reg.name = "p";
    reg.elem = ElemKind::Ptr;
    reg.count = 4096;
    reg.init = RegionInit::PermutePtr;
    reg.seed = 3;
    m.regions.push_back(reg);
    MemImage i64 = MemImage::build(m, 64);
    MemImage i32 = MemImage::build(m, 32);
    // Pointer arrays shrink on 32-bit targets.
    EXPECT_EQ(m.regions[0].sizeBytes(64), 4096u * 8);
    EXPECT_EQ(m.regions[0].sizeBytes(32), 4096u * 4);
    EXPECT_GT(i64.dataBytes(), i32.dataBytes());
}

TEST(IrInterp, PermutePtrIsFullCycle)
{
    IrModule m;
    m.name = "cycle";
    MemRegion reg;
    reg.name = "p";
    reg.elem = ElemKind::Ptr;
    reg.count = 64;
    reg.init = RegionInit::PermutePtr;
    reg.seed = 9;
    m.regions.push_back(reg);
    MemImage img = MemImage::build(m, 64);
    uint64_t p = img.regionBase[0];
    int steps = 0;
    do {
        p = img.load(p, 8);
        steps++;
        ASSERT_LE(steps, 64);
    } while (p != img.regionBase[0]);
    EXPECT_EQ(steps, 64); // Sattolo: a single 64-cycle
}

TEST(Analysis, CfgAndRpo)
{
    IrModule m = countingLoop();
    Cfg cfg = Cfg::build(m.funcs[0]);
    ASSERT_EQ(cfg.succs.size(), 3u);
    EXPECT_EQ(cfg.succs[0].size(), 1u);
    EXPECT_EQ(cfg.succs[1].size(), 2u);
    EXPECT_EQ(cfg.preds[1].size(), 2u); // entry + backedge
    EXPECT_EQ(cfg.rpo.front(), 0);
}

TEST(Analysis, Liveness)
{
    IrModule m = countingLoop();
    Cfg cfg = Cfg::build(m.funcs[0]);
    Liveness lv = Liveness::build(m.funcs[0], cfg);
    // sum (vreg 0) is live into the loop and into the exit.
    EXPECT_TRUE(lv.isLiveIn(1, 0));
    EXPECT_TRUE(lv.isLiveIn(2, 0));
    // The compare temp is not live into the exit block... it is used
    // only by the branch.
    EXPECT_GE(lv.maxPressure(m.funcs[0], 1), 2);
}

TEST(Ir, PrintDoesNotCrash)
{
    IrModule m = countingLoop();
    EXPECT_FALSE(m.print().empty());
}

TEST(Ir, TypeBytes)
{
    EXPECT_EQ(typeBytes(Type::I32, 64), 4);
    EXPECT_EQ(typeBytes(Type::PtrInt, 64), 8);
    EXPECT_EQ(typeBytes(Type::PtrInt, 32), 4);
    EXPECT_EQ(typeBytes(Type::V128, 64), 16);
}

TEST(Ir, CondHelpers)
{
    EXPECT_EQ(negateCond(Cond::Lt), Cond::Ge);
    EXPECT_EQ(negateCond(Cond::Ult), Cond::Uge);
    EXPECT_TRUE(evalCond(Cond::Ult, -1, 1) == false);
    EXPECT_TRUE(evalCond(Cond::Lt, -1, 1));
}

} // namespace
} // namespace cisa
