/**
 * @file
 * Pass-pipeline infrastructure for the mid-end.
 *
 * The mid-end is one fixed sequence, `lvn, dce, vectorize,
 * ifconvert, dce`, built from the CompileOptions enable* flags: a
 * cleared flag drops its stage, while both DCE stages always run so
 * dead and predicated-off instructions cannot leak into instruction
 * selection. Each stage is a FunctionPass wrapping one pass's run
 * function; the wrapper folds the pass's statistics into the
 * CompileReport and skips targets the transform cannot lower to
 * (vectorize needs SIMD, ifconvert full predication).
 */

#ifndef CISA_COMPILER_PASSMANAGER_HH
#define CISA_COMPILER_PASSMANAGER_HH

#include <memory>
#include <string>
#include <vector>

#include "compiler/ir.hh"

namespace cisa
{

struct CompileOptions;
struct CompileReport;

/** One mid-end transformation stage. */
class FunctionPass
{
  public:
    virtual ~FunctionPass() = default;

    /** Stage name in CompileReport::pipeline and passRuns. */
    virtual const char *name() const = 0;

    /** Transform @p f; true when the IR changed. */
    virtual bool run(IrFunction &f, const CompileOptions &opts,
                     CompileReport &rep) = 0;
};

/** Wall-clock and outcome of one pipeline stage, summed over the
 * module's functions. */
struct PassRun
{
    std::string name;
    double micros = 0.0;
    bool changed = false;
};

/**
 * Executes the mid-end over a module, function-major (every stage
 * runs on a function before the next function starts). The report
 * receives the canonical pipeline string and per-stage wall clock
 * and change flags; with opts.verifyIr the module is re-checked
 * after every stage and a corrupting pass is blamed by name.
 */
class PassManager
{
  public:
    /** Builds the fixed sequence gated by @p opts' enable* flags. */
    explicit PassManager(const CompileOptions &opts);

    void run(IrModule &m, const CompileOptions &opts,
             CompileReport &rep);

  private:
    std::vector<std::unique_ptr<FunctionPass>> passes_;
};

} // namespace cisa

#endif // CISA_COMPILER_PASSMANAGER_HH
