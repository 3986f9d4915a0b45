/**
 * @file
 * Focused unit tests of individual compiler mechanisms on hand-built
 * IR: LVN redundancy elimination and copy propagation, DCE, branch
 * displacement relaxation, register-allocation spilling and
 * rematerialization, caller-saves, RMW folding, if-conversion
 * transforms, and the absolute-address fold.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "compiler/passes/dce.hh"
#include "compiler/passes/ifconvert.hh"
#include "compiler/passes/lvn.hh"

namespace cisa
{
namespace
{

/** Module with one region and an empty main; caller fills blocks. */
IrModule
shell()
{
    IrModule m;
    m.name = "unit";
    MemRegion r;
    r.name = "a";
    r.elem = ElemKind::I32;
    r.count = 256;
    r.init = RegionInit::RandomInt;
    r.seed = 11;
    m.regions.push_back(r);
    return m;
}

int64_t
runBoth(const IrModule &m, const FeatureSet &fs,
        uint64_t *machine_loads = nullptr)
{
    CompileOptions opts;
    opts.target = fs;
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage i1 = MemImage::build(ir, fs.widthBits());
    ExecResult ref = interpret(ir, i1);
    MemImage i2 = MemImage::build(ir, fs.widthBits());
    ExecResult got = executeMachine(prog, i2);
    EXPECT_EQ(got.retVal, ref.retVal);
    EXPECT_EQ(got.intChecksum, ref.intChecksum);
    if (machine_loads)
        *machine_loads = got.loads;
    return got.retVal;
}

TEST(Lvn, EliminatesAndPropagates)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int addr = b.gep(base, -1, 1, 4);
    int x = b.load(addr, Type::I32);
    // The same expression twice.
    int y1 = b.arithImm(IrOp::Add, x, 9, Type::I32);
    int y2 = b.arithImm(IrOp::Add, x, 9, Type::I32);
    int s = b.arith(IrOp::Add, y1, y2, Type::I32);
    b.ret(s);
    m.validate();

    IrFunction f = m.funcs[0];
    LvnStats st = runLvn(f, 64);
    EXPECT_EQ(st.exprsEliminated, 1);
    int removed = runDce(f);
    EXPECT_GE(removed, 1); // the copy falls dead after propagation

    // Semantics unchanged end-to-end.
    runBoth(m, FeatureSet::superset());
}

TEST(Lvn, PressureBudgetSuppressesCse)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    // Lots of live values: budget at depth 8 goes negative.
    std::vector<int> live;
    for (int k = 0; k < 12; k++)
        live.push_back(b.constInt(k, Type::I32));
    int x = b.constInt(7, Type::I32);
    int y1 = b.arithImm(IrOp::Mul, x, 3, Type::I32);
    int y2 = b.arithImm(IrOp::Mul, x, 3, Type::I32);
    int s = b.arith(IrOp::Add, y1, y2, Type::I32);
    for (int v : live)
        b.arithInto(s, IrOp::Add, s, v, Type::I32);
    b.ret(s);
    m.validate();

    IrFunction f8 = m.funcs[0];
    LvnStats st8 = runLvn(f8, 8);
    EXPECT_EQ(st8.exprsEliminated, 0);
    EXPECT_GT(st8.skippedForPressure, 0);
    IrFunction f64 = m.funcs[0];
    LvnStats st64 = runLvn(f64, 64);
    EXPECT_GE(st64.exprsEliminated, 1);
}

TEST(Lvn, LoadCseKilledByStores)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int addr = b.gep(base, -1, 1, 8);
    int x1 = b.load(addr, Type::I32);
    int t = b.arithImm(IrOp::Add, x1, 1, Type::I32);
    b.store(addr, t, Type::I32); // kills the remembered load
    int x2 = b.load(addr, Type::I32);
    int s = b.arith(IrOp::Add, x1, x2, Type::I32);
    b.ret(s);
    m.validate();

    IrFunction f = m.funcs[0];
    LvnStats st = runLvn(f, 64);
    EXPECT_EQ(st.loadsEliminated, 0);
    runBoth(m, FeatureSet::superset());
}

TEST(Regalloc, RematerializationAvoidsSlots)
{
    // A function with many constants under pressure: remat should
    // fire rather than spilling constant slots.
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    std::vector<int> cs;
    for (int k = 0; k < 24; k++)
        cs.push_back(b.constInt(1000 + k, Type::I32));
    int s = b.constInt(0, Type::I32);
    // Use all constants twice so they stay live a while.
    for (int round = 0; round < 2; round++) {
        for (int c : cs)
            b.arithInto(s, IrOp::Add, s, c, Type::I32);
    }
    b.ret(s);
    m.validate();

    CompileOptions opts;
    opts.target = FeatureSet::parse("x86-8D-32W-P");
    MachineProgram prog = compile(m, opts);
    EXPECT_GT(prog.stats.remats, 0u);
    runBoth(m, opts.target);
}

TEST(Regalloc, CallerSavesAroundCalls)
{
    IrModule m = shell();
    IrBuilder b(m);
    // main: keeps values live across a call.
    b.startFunc("main");
    int a = b.constInt(41, Type::I32);
    int c = b.constInt(59, Type::I32);
    b.call(1);
    int s = b.arith(IrOp::Add, a, c, Type::I32);
    b.ret(s);
    // leaf: clobbers low registers.
    b.startFunc("leaf");
    int base = b.baseAddr(0);
    int acc = b.constInt(5, Type::I32);
    for (int k = 0; k < 6; k++) {
        int v = b.load(b.gep(base, -1, 1, k * 4), Type::I32);
        b.arithInto(acc, IrOp::Add, acc, v, Type::I32);
    }
    int out = b.gep(base, -1, 1, 128);
    b.store(out, acc, Type::I32);
    b.ret();
    m.validate();

    // Constants survive the call on every depth.
    for (const char *fs : {"x86-8D-32W-P", "x86-64D-64W-P"}) {
        EXPECT_EQ(runBoth(m, FeatureSet::parse(fs)), 100)
            << fs;
    }
}

TEST(Encode, BranchRelaxation)
{
    // A loop whose body is > 127 bytes forces a rel32 backedge;
    // a tiny loop keeps rel8.
    auto build = [&](int body) {
        IrModule m = shell();
        IrBuilder b(m);
        b.startFunc("main");
        int base = b.baseAddr(0);
        int acc = b.constInt(0, Type::I32);
        int i = b.constInt(0, Type::PtrInt);
        int loop = b.newBlock();
        int exit = b.newBlock();
        b.jmp(loop);
        b.setBlock(loop);
        for (int k = 0; k < body; k++) {
            int v = b.load(b.gep(base, -1, 1, (k % 64) * 4),
                           Type::I32);
            b.arithInto(acc, IrOp::Add, acc, v, Type::I32);
        }
        b.arithImmInto(i, IrOp::Add, i, 1, Type::PtrInt);
        int c = b.icmpImm(Cond::Lt, i, 4);
        b.br(c, loop, exit, 0.75, true);
        b.setBlock(exit);
        b.ret(acc);
        m.validate();
        CompileOptions opts;
        opts.target = FeatureSet::x86_64();
        return compile(m, opts);
    };
    MachineProgram small = build(2);
    MachineProgram big = build(40);
    auto backedge_len = [](const MachineProgram &p) {
        for (const auto &f : p.funcs) {
            for (const auto &blk : f.blocks) {
                const MachineInstr &t = blk.instrs.back();
                if (t.op == Op::Branch &&
                    t.addr > p.funcs[0].blocks[0].instrs[0].addr)
                    return int(t.len);
            }
        }
        return -1;
    };
    EXPECT_LT(backedge_len(small), backedge_len(big));
}

TEST(Isel, AbsoluteAddressingDropsBaseRegisters)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int i = b.constInt(3, Type::PtrInt);
    int v = b.load(b.gep(base, i, 4, 8), Type::I32);
    b.ret(v);
    m.validate();
    CompileOptions opts;
    opts.target = FeatureSet::x86_64();
    MachineProgram prog = compile(m, opts);
    // The load uses [disp + idx*4]; no base register.
    bool found = false;
    for (const auto &f : prog.funcs) {
        for (const auto &blk : f.blocks) {
            for (const auto &ins : blk.instrs) {
                if (ins.op == Op::Load &&
                    ins.form == MemForm::Load) {
                    EXPECT_LT(ins.mem.base, 0);
                    EXPECT_GE(ins.mem.index, 0);
                    EXPECT_GT(ins.mem.disp, 0x1000);
                    found = true;
                }
            }
        }
    }
    EXPECT_TRUE(found);
    runBoth(m, opts.target);
}

TEST(Isel, RmwFoldsOnX86Only)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int addr = b.gep(base, -1, 1, 16);
    int v = b.load(addr, Type::I32);
    int v2 = b.arithImm(IrOp::Add, v, 7, Type::I32);
    b.store(addr, v2, Type::I32);
    int back = b.load(addr, Type::I32);
    b.ret(back);
    m.validate();

    CompileOptions opts;
    opts.target = FeatureSet::x86_64();
    opts.enableLvn = false;
    MachineProgram cisc = compile(m, opts);
    bool has_rmw = false;
    for (const auto &f : cisc.funcs) {
        for (const auto &blk : f.blocks) {
            for (const auto &ins : blk.instrs)
                has_rmw |= ins.form == MemForm::LoadOpStore;
        }
    }
    EXPECT_TRUE(has_rmw);

    opts.target = FeatureSet::parse("microx86-16D-64W-P");
    MachineProgram risc = compile(m, opts);
    for (const auto &f : risc.funcs) {
        for (const auto &blk : f.blocks) {
            for (const auto &ins : blk.instrs)
                EXPECT_NE(ins.form, MemForm::LoadOpStore);
        }
    }
    EXPECT_EQ(runBoth(m, FeatureSet::x86_64()),
              runBoth(m, FeatureSet::parse("microx86-16D-64W-P")));
}

TEST(IfConvert, ConvertsUnpredictableDiamond)
{
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int acc = b.constInt(0, Type::I32);
    int i = b.constInt(0, Type::PtrInt);
    int loop = b.newBlock();
    int t = b.newBlock();
    int f = b.newBlock();
    int join = b.newBlock();
    int exit = b.newBlock();
    b.jmp(loop);
    b.setBlock(loop);
    int v = b.load(b.gep(base, i, 4, 0), Type::I32);
    int bit = b.arithImm(IrOp::And, v, 1, Type::I32);
    int c = b.icmpImm(Cond::Ne, bit, 0);
    b.br(c, t, f, 0.5, false);
    b.setBlock(t);
    b.arithInto(acc, IrOp::Add, acc, v, Type::I32);
    b.jmp(join);
    b.setBlock(f);
    b.arithInto(acc, IrOp::Sub, acc, v, Type::I32);
    b.jmp(join);
    b.setBlock(join);
    b.arithImmInto(i, IrOp::Add, i, 1, Type::PtrInt);
    int cc = b.icmpImm(Cond::Lt, i, 64);
    b.br(cc, loop, exit, 0.98, true);
    b.setBlock(exit);
    b.ret(acc);
    m.validate();

    CompileOptions opts;
    opts.target = FeatureSet::parse("x86-32D-64W-F");
    CompileReport rep;
    compile(m, opts, &rep);
    EXPECT_EQ(rep.ifc.diamondsConverted, 1);

    // Identical result with and without predication.
    EXPECT_EQ(runBoth(m, FeatureSet::parse("x86-32D-64W-F")),
              runBoth(m, FeatureSet::parse("x86-32D-64W-P")));
}

/** Interpret a module standalone (fresh image) for a retval. */
int64_t
interpRet(const IrModule &m)
{
    MemImage img = MemImage::build(m, 64);
    ExecResult r = interpret(m, img);
    EXPECT_FALSE(r.ranOut);
    return r.retVal;
}

TEST(Dce, RunsWithLvnDisabled)
{
    // The historical bug: dead-code elimination was nested under the
    // LVN flag, so disabling LVN silently disabled cleanup too.
    IrModule m = shell();
    IrBuilder b(m);
    b.startFunc("main");
    int base = b.baseAddr(0);
    int addr = b.gep(base, -1, 1, 4);
    int x = b.load(addr, Type::I32);
    b.arithImm(IrOp::Mul, x, 3, Type::I32); // dead
    int s = b.arithImm(IrOp::Add, x, 1, Type::I32);
    b.ret(s);
    m.validate();

    CompileOptions opts;
    opts.target = FeatureSet::superset();
    opts.enableLvn = false;
    CompileReport rep;
    IrModule ir;
    compile(m, opts, &rep, &ir);
    EXPECT_EQ(rep.pipeline, "dce,vectorize,ifconvert,dce");
    EXPECT_GT(rep.dceRemoved, 0);
    for (const auto &i : ir.funcs[0].blocks[0].instrs)
        EXPECT_NE(i.op, IrOp::Mul);
    runBoth(m, opts.target);
}

TEST(Dce, CleansUpAfterIfConversion)
{
    // A convertible diamond plus a dead multiply in the join block:
    // the fixed pipeline must run DCE again after if-conversion.
    auto build = [] {
        IrModule m = shell();
        IrBuilder b(m);
        b.startFunc("main");
        int base = b.baseAddr(0);
        int acc = b.constInt(0, Type::I32);
        int i = b.constInt(0, Type::PtrInt);
        int loop = b.newBlock();
        int t = b.newBlock();
        int f = b.newBlock();
        int join = b.newBlock();
        int exit = b.newBlock();
        b.jmp(loop);
        b.setBlock(loop);
        int v = b.load(b.gep(base, i, 4, 0), Type::I32);
        int bit = b.arithImm(IrOp::And, v, 1, Type::I32);
        int c = b.icmpImm(Cond::Ne, bit, 0);
        b.br(c, t, f, 0.5, false);
        b.setBlock(t);
        b.arithInto(acc, IrOp::Add, acc, v, Type::I32);
        b.jmp(join);
        b.setBlock(f);
        b.arithInto(acc, IrOp::Sub, acc, v, Type::I32);
        b.jmp(join);
        b.setBlock(join);
        b.arith(IrOp::Mul, v, v, Type::I32); // dead
        b.arithImmInto(i, IrOp::Add, i, 1, Type::PtrInt);
        int cc = b.icmpImm(Cond::Lt, i, 64);
        b.br(cc, loop, exit, 0.98, true);
        b.setBlock(exit);
        b.ret(acc);
        m.validate();
        return m;
    };
    FeatureSet fs = FeatureSet::parse("x86-32D-64W-F");
    auto has_mul = [](const IrModule &m) {
        for (const auto &bb : m.funcs[0].blocks) {
            for (const auto &i : bb.instrs) {
                if (i.op == IrOp::Mul)
                    return true;
            }
        }
        return false;
    };

    // If-conversion alone leaves the dead multiply behind; a DCE run
    // after it removes it without changing the result.
    IrModule m = build();
    int64_t want = interpRet(m);
    IfConvertParams p;
    p.regDepth = fs.regDepth;
    EXPECT_EQ(runIfConvert(m.funcs[0], p).diamondsConverted, 1);
    EXPECT_TRUE(has_mul(m));
    EXPECT_GT(runDce(m.funcs[0]), 0);
    EXPECT_FALSE(has_mul(m));
    m.validate();
    EXPECT_EQ(interpRet(m), want);

    // The default pipeline ends with exactly that cleanup.
    CompileOptions opts;
    opts.target = fs;
    CompileReport rep;
    IrModule ir;
    compile(build(), opts, &rep, &ir);
    EXPECT_EQ(rep.pipeline, "lvn,dce,vectorize,ifconvert,dce");
    EXPECT_EQ(rep.ifc.diamondsConverted, 1);
    EXPECT_FALSE(has_mul(ir));
    runBoth(build(), fs);
}

} // namespace
} // namespace cisa
