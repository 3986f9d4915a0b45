#include "compiler/passmanager.hh"

#include <chrono>

#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "compiler/passes/dce.hh"
#include "compiler/passes/ifconvert.hh"
#include "compiler/passes/lvn.hh"
#include "compiler/passes/vectorize.hh"

namespace cisa
{

namespace
{

class LvnPass final : public FunctionPass
{
  public:
    const char *name() const override { return "lvn"; }

    bool run(IrFunction &f, const CompileOptions &opts,
             CompileReport &rep) override
    {
        LvnStats s = runLvn(f, opts.target.regDepth);
        rep.lvn.exprsEliminated += s.exprsEliminated;
        rep.lvn.loadsEliminated += s.loadsEliminated;
        rep.lvn.skippedForPressure += s.skippedForPressure;
        return s.exprsEliminated > 0 || s.loadsEliminated > 0;
    }
};

class DcePass final : public FunctionPass
{
  public:
    const char *name() const override { return "dce"; }

    bool run(IrFunction &f, const CompileOptions &,
             CompileReport &rep) override
    {
        int n = runDce(f);
        rep.dceRemoved += n;
        return n > 0;
    }
};

class VectorizePass final : public FunctionPass
{
  public:
    const char *name() const override { return "vectorize"; }

    bool run(IrFunction &f, const CompileOptions &opts,
             CompileReport &rep) override
    {
        // Lowering gate, not a pipeline gate: packed IR only exists
        // for targets that can select it.
        if (!opts.target.simd())
            return false;
        VectorizeStats s = runVectorize(f);
        rep.vec.loopsVectorized += s.loopsVectorized;
        rep.vec.loopsRejected += s.loopsRejected;
        return s.loopsVectorized > 0;
    }
};

class IfConvertPass final : public FunctionPass
{
  public:
    const char *name() const override { return "ifconvert"; }

    bool run(IrFunction &f, const CompileOptions &opts,
             CompileReport &rep) override
    {
        if (!opts.target.fullPredication())
            return false;
        IfConvertParams p;
        p.regDepth = opts.target.regDepth;
        IfConvertStats s = runIfConvert(f, p);
        rep.ifc.diamondsConverted += s.diamondsConverted;
        rep.ifc.trianglesConverted += s.trianglesConverted;
        rep.ifc.rejectedUnprofitable += s.rejectedUnprofitable;
        rep.ifc.rejectedShape += s.rejectedShape;
        return s.diamondsConverted + s.trianglesConverted > 0;
    }
};

} // namespace

PassManager::PassManager(const CompileOptions &opts)
{
    if (opts.enableLvn)
        passes_.push_back(std::make_unique<LvnPass>());
    passes_.push_back(std::make_unique<DcePass>());
    if (opts.enableVectorize)
        passes_.push_back(std::make_unique<VectorizePass>());
    if (opts.enableIfConvert)
        passes_.push_back(std::make_unique<IfConvertPass>());
    passes_.push_back(std::make_unique<DcePass>());
}

void
PassManager::run(IrModule &m, const CompileOptions &opts,
                 CompileReport &rep)
{
    size_t base = rep.passRuns.size();
    rep.pipeline.clear();
    for (const auto &p : passes_) {
        if (!rep.pipeline.empty())
            rep.pipeline += ',';
        rep.pipeline += p->name();
        rep.passRuns.push_back({p->name(), 0.0, false});
    }

    using clk = std::chrono::steady_clock;
    for (auto &f : m.funcs) {
        for (size_t pi = 0; pi < passes_.size(); pi++) {
            auto t0 = clk::now();
            bool changed = passes_[pi]->run(f, opts, rep);
            auto t1 = clk::now();
            PassRun &pr = rep.passRuns[base + pi];
            pr.micros +=
                std::chrono::duration<double, std::micro>(t1 - t0)
                    .count();
            pr.changed |= changed;
            if (opts.verifyIr) {
                std::string err = m.check();
                panic_if(!err.empty(),
                         "IR verify failed after pass '%s' on "
                         "function '%s': %s",
                         passes_[pi]->name(), f.name.c_str(),
                         err.c_str());
            }
        }
    }
}

} // namespace cisa
