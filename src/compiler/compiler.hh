/**
 * @file
 * The compiler driver: runs the mid-end pass pipeline (see
 * passmanager.hh) and the back end to lower one target-independent
 * IrModule onto one composite feature set.
 *
 * Mid-end (Section IV.A): pressure-sensitive LVN -> dead-code
 * elimination -> loop vectorization (SIMD targets) -> if-conversion
 * (fully-predicated targets) -> final DCE cleanup. Back end:
 * instruction selection (folding on full x86; 64-on-32
 * legalization) -> linear-scan register allocation at the target's
 * register depth -> post-RA list scheduling -> layout + encoding.
 *
 * compile() optionally returns the transformed IR, which is the
 * semantic reference the machine code must match exactly — the
 * equivalence harness in the tests interprets it and compares
 * checksums against machine execution.
 */

#ifndef CISA_COMPILER_COMPILER_HH
#define CISA_COMPILER_COMPILER_HH

#include <cstdint>
#include <string>

#include "compiler/ir.hh"
#include "compiler/machine.hh"
#include "compiler/passes/ifconvert.hh"
#include "compiler/passes/lvn.hh"
#include "compiler/passes/vectorize.hh"
#include "compiler/passmanager.hh"
#include "isa/features.hh"

namespace cisa
{

/** Per-compilation knobs. */
struct CompileOptions
{
    FeatureSet target = FeatureSet::superset();

    /** Re-check IR invariants after every mid-end pass and blame the
     * corrupting pass by name (CISA_VERIFY_IR). */
    bool verifyIr = false;

    bool enableLvn = true;
    bool enableVectorize = true; ///< effective only with SIMD
    bool enableIfConvert = true; ///< effective only with full pred.
    bool enableSchedule = true;  ///< post-RA list scheduling

    /**
     * Options seeded from the environment (CISA_VERIFY_IR) — the one
     * constructor every compile site that wants the campaign's
     * configuration must go through, so the explorer, the service
     * and migration recompiles cannot silently diverge.
     */
    static CompileOptions fromEnv();

    /**
     * Stable fingerprint of everything here that changes generated
     * code except the target itself; verifyIr only checks, so it is
     * left out. Folded into the DSE slab budget key so results
     * compiled under different pipelines never alias in the cache.
     */
    uint64_t pipelineKey() const;
};

/** Aggregate pass statistics for one compilation. */
struct CompileReport
{
    LvnStats lvn;
    VectorizeStats vec;
    IfConvertStats ifc;
    int dceRemoved = 0;
    int blocksScheduled = 0;

    /** Canonical string of the mid-end pipeline that ran. */
    std::string pipeline;

    /** Per-stage wall clock and change flags: one entry per mid-end
     * pass, then the backend stages (isel/regalloc/sched/encode). */
    std::vector<PassRun> passRuns;
};

/**
 * Compile @p m for @p opts.target.
 *
 * @param transformed_ir if non-null, receives the post-optimization
 *        IR whose interpretation the machine code reproduces.
 */
MachineProgram compile(const IrModule &m, const CompileOptions &opts,
                       CompileReport *report = nullptr,
                       IrModule *transformed_ir = nullptr);

} // namespace cisa

#endif // CISA_COMPILER_COMPILER_HH
