#include "compiler/compiler.hh"

#include "common/hash.hh"
#include "common/logging.hh"
#include "compiler/interp.hh"
#include "compiler/passes/dce.hh"
#include "compiler/passes/encode.hh"
#include "compiler/passes/isel.hh"
#include "compiler/passes/regalloc.hh"
#include "compiler/passes/sched.hh"

namespace cisa
{

uint64_t
CompileOptions::pipelineKey() const
{
    uint64_t h = fnv1a("cisa-pipeline-v1");
    return hashCombine(h, uint64_t(enableLvn) |
                              uint64_t(enableVectorize) << 1 |
                              uint64_t(enableIfConvert) << 2 |
                              uint64_t(enableSchedule) << 3);
}

namespace
{

/** Panic, naming @p pass and @p f, unless @p m is well formed. */
void
checkAfter(const IrModule &m, const char *pass, const IrFunction &f)
{
    std::string err = m.check();
    panic_if(!err.empty(),
             "IR check failed after pass '%s' on function '%s': %s",
             pass, f.name.c_str(), err.c_str());
}

} // namespace

MachineProgram
compile(const IrModule &m, const CompileOptions &opts,
        CompileReport *report, IrModule *transformed_ir)
{
    const FeatureSet &t = opts.target;
    panic_if(!t.isViable(), "compiling for non-viable feature set");
    // A well-formed input lets every later check blame its pass.
    m.validate();

    IrModule work = m; // passes mutate a private copy
    CompileReport rep;

    // The mid-end, function-major. A cleared enable flag drops its
    // stage, and vectorize and ifconvert also need a target that can
    // lower their output. Both DCE stages always run, so dead and
    // predicated-off code never reaches instruction selection.
    for (auto &f : work.funcs) {
        if (opts.enableLvn) {
            LvnStats s = runLvn(f, t.regDepth);
            rep.lvn.exprsEliminated += s.exprsEliminated;
            rep.lvn.loadsEliminated += s.loadsEliminated;
            rep.lvn.skippedForPressure += s.skippedForPressure;
            checkAfter(work, "lvn", f);
        }
        rep.dceRemoved += runDce(f);
        checkAfter(work, "dce", f);
        if (opts.enableVectorize && t.simd()) {
            VectorizeStats s = runVectorize(f);
            rep.vec.loopsVectorized += s.loopsVectorized;
            rep.vec.loopsRejected += s.loopsRejected;
            checkAfter(work, "vectorize", f);
        }
        if (opts.enableIfConvert && t.fullPredication()) {
            IfConvertParams p;
            p.regDepth = t.regDepth;
            IfConvertStats s = runIfConvert(f, p);
            rep.ifc.diamondsConverted += s.diamondsConverted;
            rep.ifc.trianglesConverted += s.trianglesConverted;
            rep.ifc.rejectedUnprofitable += s.rejectedUnprofitable;
            rep.ifc.rejectedShape += s.rejectedShape;
            checkAfter(work, "ifconvert", f);
        }
        rep.dceRemoved += runDce(f);
        checkAfter(work, "dce", f);
    }

    MachineProgram prog;
    prog.name = work.name;
    prog.target = t;
    std::vector<uint64_t> bases = regionLayout(work, t.widthBits());
    for (const auto &f : work.funcs) {
        MachineFunction mf = runIsel(f, work, bases, t);
        runRegalloc(mf, t);
        if (opts.enableSchedule)
            rep.blocksScheduled += runSchedule(mf).blocksScheduled;
        prog.funcs.push_back(std::move(mf));
    }
    runEncode(prog);

    if (report)
        *report = rep;
    if (transformed_ir)
        *transformed_ir = std::move(work);
    return prog;
}

} // namespace cisa
