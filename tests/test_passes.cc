/**
 * @file
 * Behavioural tests of individual compiler passes through the public
 * pipeline: the five ISA axes must each show their signature effect
 * on generated code (spills vs register depth, 1:1 micro-ops on
 * microx86, fewer branches under full predication, fewer dynamic ops
 * with SIMD, wider code with REXBC registers).
 */

#include <gtest/gtest.h>

#include <iterator>

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "compiler/passes/dce.hh"
#include "compiler/passes/encode.hh"
#include "compiler/passes/isel.hh"
#include "compiler/passes/regalloc.hh"
#include "compiler/passes/sched.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{
namespace
{

PhaseProfile
smallProfile(const char *bench_like, int phase = 0)
{
    int bi = benchIndex(bench_like);
    EXPECT_GE(bi, 0);
    PhaseProfile p = specSuite()[size_t(bi)].phases[size_t(phase)];
    p.targetDynOps = 15000;
    p.outerTrip = 2;
    return p;
}

DynStats
runDyn(const IrModule &m, const FeatureSet &fs,
       bool vectorize = true)
{
    CompileOptions opts;
    opts.target = fs;
    opts.enableVectorize = vectorize;
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, fs.widthBits());
    Trace tr;
    ExecResult r = executeMachine(prog, img, 1ULL << 30, &tr);
    EXPECT_FALSE(r.ranOut);
    return tr.dyn;
}

TEST(Regalloc, SpillsGrowAsDepthShrinks)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    uint64_t prev_spills = 0;
    bool first = true;
    for (int depth : {64, 32, 16, 8}) {
        FeatureSet fs = FeatureSet::make(
            Complexity::X86, depth, RegWidth::W32,
            Predication::Partial);
        CompileOptions opts;
        opts.target = fs;
        MachineProgram prog = compile(m, opts);
        uint64_t spills =
            prog.stats.spillStores + prog.stats.spillLoads;
        if (!first)
            EXPECT_GE(spills, prev_spills) << "depth " << depth;
        first = false;
        prev_spills = spills;
    }
    // hmmer at depth 8 must spill heavily; at 64 barely.
    FeatureSet deep = FeatureSet::make(Complexity::X86, 64,
                                       RegWidth::W32,
                                       Predication::Partial);
    CompileOptions opts;
    opts.target = deep;
    MachineProgram prog = compile(m, opts);
    EXPECT_LT(prog.stats.spillLoads, 60u);
}

TEST(Isel, Microx86IsOneToOne)
{
    IrModule m = buildPhase(smallProfile("bzip2"));
    for (const auto &fs : FeatureSet::enumerate()) {
        if (fs.complexity != Complexity::MicroX86)
            continue;
        CompileOptions opts;
        opts.target = fs;
        MachineProgram prog = compile(m, opts);
        EXPECT_EQ(prog.stats.uops, prog.stats.instrs) << fs.name();
    }
}

TEST(Isel, X86FoldsMemoryOperands)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    FeatureSet cisc = FeatureSet::make(Complexity::X86, 32,
                                       RegWidth::W64,
                                       Predication::Partial);
    FeatureSet risc = FeatureSet::make(Complexity::MicroX86, 32,
                                       RegWidth::W64,
                                       Predication::Partial);
    CompileOptions co;
    co.target = cisc;
    MachineProgram pc = compile(m, co);
    co.target = risc;
    MachineProgram pr = compile(m, co);
    // CISC code: fewer macro instructions, more uops per instr.
    EXPECT_LT(pc.stats.instrs, pr.stats.instrs);
    EXPECT_GT(double(pc.stats.uops) / double(pc.stats.instrs), 1.01);
}

TEST(IfConvert, ReducesDynamicBranches)
{
    IrModule m = buildPhase(smallProfile("sjeng"));
    FeatureSet part = FeatureSet::make(Complexity::X86, 32,
                                       RegWidth::W64,
                                       Predication::Partial);
    FeatureSet full = FeatureSet::make(Complexity::X86, 32,
                                       RegWidth::W64,
                                       Predication::Full);
    DynStats dp = runDyn(m, part);
    DynStats df = runDyn(m, full);
    EXPECT_LT(df.branches, dp.branches);
    EXPECT_GT(df.predicated, 0u);
    // Predication slightly inflates the instruction stream.
    EXPECT_GE(double(df.uops) * 1.25, double(dp.uops));
}

TEST(IfConvert, PredictableBranchesStay)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    FeatureSet full = FeatureSet::make(Complexity::X86, 64,
                                       RegWidth::W64,
                                       Predication::Full);
    CompileOptions opts;
    opts.target = full;
    CompileReport rep;
    compile(m, opts, &rep);
    // hmmer's single hammock is highly predictable: LLVM-style
    // profitability leaves it alone.
    EXPECT_EQ(rep.ifc.diamondsConverted, 0);
}

TEST(Vectorize, ReducesDynamicUops)
{
    IrModule m = buildPhase(smallProfile("lbm"));
    // Depth 64 isolates the SIMD effect from GPR spill pressure.
    FeatureSet simd = FeatureSet::make(Complexity::X86, 64,
                                       RegWidth::W64,
                                       Predication::Partial);
    DynStats dv = runDyn(m, simd, true);
    DynStats ds = runDyn(m, simd, false);
    uint64_t simd_uops =
        dv.uopsByClass[size_t(MicroClass::SimdAlu)] +
        dv.uopsByClass[size_t(MicroClass::SimdMul)];
    EXPECT_GT(simd_uops, 0u);
    EXPECT_LT(dv.uops, ds.uops);
}

TEST(Vectorize, ReportsLoops)
{
    IrModule m = buildPhase(smallProfile("milc"));
    CompileOptions opts;
    opts.target = FeatureSet::superset();
    CompileReport rep;
    compile(m, opts, &rep);
    EXPECT_GT(rep.vec.loopsVectorized, 0);
}

TEST(Width, RegisterPairsExpandCode)
{
    IrModule m = buildPhase(smallProfile("bzip2")); // uses I64
    FeatureSet w64 = FeatureSet::make(Complexity::X86, 32,
                                      RegWidth::W64,
                                      Predication::Partial);
    FeatureSet w32 = FeatureSet::make(Complexity::X86, 32,
                                      RegWidth::W32,
                                      Predication::Partial);
    DynStats d64 = runDyn(m, w64);
    DynStats d32 = runDyn(m, w32);
    EXPECT_GT(d32.uops, d64.uops);
}

TEST(Lvn, DeepRegisterFilesEliminateMoreRedundancy)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    CompileOptions opts;
    opts.target = FeatureSet::make(Complexity::X86, 64,
                                   RegWidth::W64,
                                   Predication::Partial);
    CompileReport deep;
    compile(m, opts, &deep);
    opts.target = FeatureSet::make(Complexity::X86, 8,
                                   RegWidth::W32,
                                   Predication::Partial);
    CompileReport shallow;
    compile(m, opts, &shallow);
    EXPECT_GT(deep.lvn.exprsEliminated,
              shallow.lvn.exprsEliminated);
    EXPECT_GT(deep.dceRemoved, 0);
}

TEST(Encode, RexbcRegistersWidenCode)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    CompileOptions opts;
    opts.target = FeatureSet::make(Complexity::X86, 64,
                                   RegWidth::W64,
                                   Predication::Partial);
    MachineProgram deep = compile(m, opts);
    opts.target = FeatureSet::make(Complexity::X86, 16,
                                   RegWidth::W64,
                                   Predication::Partial);
    MachineProgram narrow = compile(m, opts);
    double bpi_deep =
        double(deep.stats.codeBytes) / double(deep.stats.instrs);
    double bpi_narrow = double(narrow.stats.codeBytes) /
                        double(narrow.stats.instrs);
    EXPECT_GT(bpi_deep, bpi_narrow);
}

TEST(Encode, AddressesAreMonotone)
{
    IrModule m = buildPhase(smallProfile("astar"));
    CompileOptions opts;
    opts.target = FeatureSet::x86_64();
    MachineProgram prog = compile(m, opts);
    uint64_t prev = 0;
    for (const auto &f : prog.funcs) {
        for (const auto &b : f.blocks) {
            for (const auto &i : b.instrs) {
                EXPECT_GT(i.addr, prev);
                EXPECT_GT(i.len, 0);
                prev = i.addr;
            }
        }
    }
}

TEST(Trace, CarriesGenuineAddressesAndBranches)
{
    IrModule m = buildPhase(smallProfile("mcf"));
    FeatureSet fs = FeatureSet::x86_64();
    CompileOptions opts;
    opts.target = fs;
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, fs.widthBits());
    Trace tr;
    executeMachine(prog, img, 1ULL << 30, &tr);
    ASSERT_GT(tr.ops.size(), 1000u);
    uint64_t mem_ops = 0, branches = 0, taken = 0;
    for (const auto &op : tr.ops) {
        if (op.readsMem() || op.writesMem()) {
            mem_ops++;
            EXPECT_GT(op.maddr, 0u);
            EXPECT_LT(op.maddr, img.mem.size());
        }
        if (op.isBranch()) {
            branches++;
            taken += op.taken();
        }
    }
    EXPECT_GT(mem_ops, 100u);
    EXPECT_GT(branches, 100u);
    EXPECT_GT(taken, 0u);
    EXPECT_LT(taken, branches);
}

/**
 * The pre-PassManager compiler, reproduced by direct pass calls: the
 * fixed mid-end sequence (with DCE correctly un-nested from the LVN
 * flag) followed by the unchanged backend. This is the golden
 * reference the data-driven O1 pipeline must match byte for byte.
 */
MachineProgram
legacyCompile(const IrModule &m, const FeatureSet &t)
{
    IrModule work = m;
    for (auto &f : work.funcs) {
        runLvn(f, t.regDepth);
        runDce(f);
        if (t.simd())
            runVectorize(f);
        if (t.fullPredication()) {
            IfConvertParams p;
            p.regDepth = t.regDepth;
            runIfConvert(f, p);
        }
        runDce(f);
    }
    work.validate();

    MachineProgram prog;
    prog.name = work.name;
    prog.target = t;
    std::vector<uint64_t> bases = regionLayout(work, t.widthBits());
    for (const auto &f : work.funcs) {
        MachineFunction mf = runIsel(f, work, bases, t);
        runRegalloc(mf, t);
        runSchedule(mf);
        prog.funcs.push_back(std::move(mf));
    }
    runEncode(prog);
    return prog;
}

TEST(Pipeline, GoldenO1MatchesLegacyFixedSequence)
{
    const char *benches[] = {"hmmer", "sjeng", "milc"};
    const char *sets[] = {"x86-64D-64W-F", "x86-32D-64W-P",
                          "microx86-8D-32W-P", "x86-32D-64W-F"};
    for (const char *bench : benches) {
        IrModule m = buildPhase(smallProfile(bench));
        for (const char *fs : sets) {
            FeatureSet t = FeatureSet::parse(fs);
            MachineProgram ref = legacyCompile(m, t);
            CompileOptions opts;
            opts.target = t;
            MachineProgram got = compile(m, opts);
            EXPECT_EQ(got.print(), ref.print())
                << bench << " @ " << fs;
            EXPECT_EQ(got.stats.codeBytes, ref.stats.codeBytes)
                << bench << " @ " << fs;
            EXPECT_EQ(got.stats.instrs, ref.stats.instrs)
                << bench << " @ " << fs;
            EXPECT_EQ(got.stats.spillStores, ref.stats.spillStores)
                << bench << " @ " << fs;
        }
    }
}

TEST(Pipeline, ReportNamesEveryStage)
{
    IrModule m = buildPhase(smallProfile("hmmer"));
    CompileOptions opts;
    opts.target = FeatureSet::superset();
    CompileReport rep;
    compile(m, opts, &rep);
    EXPECT_EQ(rep.pipeline, "lvn,dce,vectorize,ifconvert,dce");
    // The five mid-end stages, then the four backend stages.
    const char *want[] = {"lvn",  "dce",  "vectorize", "ifconvert",
                          "dce",  "isel", "regalloc",  "sched",
                          "encode"};
    ASSERT_EQ(rep.passRuns.size(), std::size(want));
    for (size_t i = 0; i < rep.passRuns.size(); i++) {
        EXPECT_EQ(rep.passRuns[i].name, want[i]);
        EXPECT_GE(rep.passRuns[i].micros, 0.0);
    }
}

TEST(Pipeline, KeyIgnoresVerifyAndCoversEveryEnableFlag)
{
    CompileOptions base;
    CompileOptions verified = base;
    verified.verifyIr = true;
    EXPECT_EQ(verified.pipelineKey(), base.pipelineKey());

    bool CompileOptions::*flags[] = {
        &CompileOptions::enableLvn, &CompileOptions::enableVectorize,
        &CompileOptions::enableIfConvert,
        &CompileOptions::enableSchedule};
    for (auto flag : flags) {
        CompileOptions o = base;
        o.*flag = !(o.*flag);
        EXPECT_NE(o.pipelineKey(), base.pipelineKey());
    }
}

TEST(Pipeline, VerifyModeIsTransparent)
{
    IrModule m = buildPhase(smallProfile("milc"));
    CompileOptions opts;
    opts.target = FeatureSet::superset();
    MachineProgram plain = compile(m, opts);
    opts.verifyIr = true;
    MachineProgram checked = compile(m, opts);
    EXPECT_EQ(plain.print(), checked.print());
}

} // namespace
} // namespace cisa
