/**
 * @file
 * The compiler entry point: lowers one target-independent IrModule
 * onto one composite feature set by calling each pass in turn.
 *
 * Mid-end (Section IV.A), function by function: pressure-sensitive
 * LVN -> dead-code elimination -> loop vectorization (SIMD targets)
 * -> if-conversion (fully-predicated targets) -> final DCE cleanup,
 * with the IR checked after every stage so a corrupting pass is
 * named in the panic. Back end: instruction selection (folding on
 * full x86; 64-on-32 legalization) -> linear-scan register
 * allocation at the target's register depth -> post-RA list
 * scheduling -> layout + encoding.
 *
 * compile() optionally returns the transformed IR, which is the
 * semantic reference the machine code must match exactly — the
 * equivalence harness in the tests interprets it and compares
 * checksums against machine execution.
 */

#ifndef CISA_COMPILER_COMPILER_HH
#define CISA_COMPILER_COMPILER_HH

#include <cstdint>

#include "compiler/ir.hh"
#include "compiler/machine.hh"
#include "compiler/passes/ifconvert.hh"
#include "compiler/passes/lvn.hh"
#include "compiler/passes/vectorize.hh"
#include "isa/features.hh"

namespace cisa
{

/** Per-compilation knobs. */
struct CompileOptions
{
    FeatureSet target = FeatureSet::superset();

    bool enableLvn = true;
    bool enableVectorize = true; ///< effective only with SIMD
    bool enableIfConvert = true; ///< effective only with full pred.
    bool enableSchedule = true;  ///< post-RA list scheduling

    /** The defaults: no environment knob configures the compiler.
     * It stays only while perfbench, whose sources change only with
     * the benchmark, still calls it. */
    static CompileOptions fromEnv() { return {}; }

    /**
     * Stable fingerprint of everything here that changes generated
     * code except the target itself. Folded into the DSE slab budget
     * key so results compiled under different pipelines never alias
     * in the cache.
     */
    uint64_t pipelineKey() const;
};

/** Aggregate pass statistics for one compilation: plain counts, so
 * two compiles of the same input report the same bytes. */
struct CompileReport
{
    LvnStats lvn;
    VectorizeStats vec;
    IfConvertStats ifc;
    int dceRemoved = 0;
    int blocksScheduled = 0;
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
