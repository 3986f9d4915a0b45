/**
 * @file
 * Stage-1 phase artifacts: one phase compiled for one target and
 * functionally executed — the input every timing model consumes.
 *
 * The campaign's slab stage 1, evaluatePhase and measureDowngrade all
 * need the same thing for a (phase, CompileOptions) pair: the machine
 * program, what the compiler did, and the dynamic trace.
 * buildPhaseArtifact() is the one place that produces it, and
 * phaseArtifact() shares one build per (phase, FeatureSet::id(),
 * pipelineKey()) between callers. Slab stage 1 takes the two halves
 * apart: it compiles, keys the program by its code, and calls
 * runPhaseProgram() only when no earlier slab simulated that code
 * (src/explore/campaign.hh).
 *
 * Two costs are cut on the way:
 * - Record cap. A simulation reads at most warm + timed trace entries
 *   (every macro-op has at least one micro-op), so an artifact stores
 *   DynOps only up to stage1RecordCap() while execution still runs to
 *   completion: Trace::dyn covers the whole run, and runOps() is the
 *   per-run op count that scales a simulated window up to a whole run.
 * - Image template. A phase's initial memory image depends only on
 *   the phase and the pointer width (no compiler pass touches the
 *   module's regions), so each (phase, width) image is built once and
 *   every run executes on a copy of it.
 */

#ifndef CISA_WORKLOADS_ARTIFACT_HH
#define CISA_WORKLOADS_ARTIFACT_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"

namespace cisa
{

/** One phase, compiled for one target and executed once. */
struct PhaseArtifact
{
    MachineProgram program;
    CompileReport report;
    /** DynOps stored up to the record cap; dyn covers the whole run. */
    Trace trace;

    /** Macro-ops of the whole run (ops.size() only when uncapped). */
    uint64_t runOps() const { return trace.dyn.macroOps; }
};

/** Entries phaseArtifact() keeps (about 0.4 MB each at the cap). */
constexpr size_t kPhaseArtifactMemoEntries = 64;

/**
 * Trace entries a simulation of @p timed_uops (0 = CISA_SIM_UOPS)
 * after the CISA_SIM_WARMUP warm-up can read, plus one so the last
 * consumed op keeps its real successor:
 * warm + max(timed, simUopBudget()) + 1.
 */
uint64_t stage1RecordCap(uint64_t timed_uops = 0);

/**
 * Pristine initial memory image of phase @p phase_idx at pointer
 * width @p ptr_bits (32 or 64), built once per (phase, width) and
 * kept for the life of the process. Execute on a copy.
 */
const MemImage &phaseImage(int phase_idx, int ptr_bits);

/**
 * Execute @p prog — phase @p phase_idx compiled (and possibly
 * downgraded) for a target of the phase's pointer width — on a fresh
 * copy of the phase's image, storing at most @p record_cap DynOps.
 * Panics if the run trips the 2^21-macro-op runaway guard.
 */
Trace runPhaseProgram(int phase_idx, const MachineProgram &prog,
                      uint64_t record_cap);

/** Compile phase @p phase_idx for @p opts.target and run it, uncached. */
PhaseArtifact buildPhaseArtifact(int phase_idx,
                                 const CompileOptions &opts,
                                 uint64_t record_cap);

/**
 * The memoized artifact of phase @p phase_idx under @p opts, capped
 * for a simulation of @p timed_uops (0 = CISA_SIM_UOPS). Concurrent
 * callers for one key wait for a single build; the memo keeps the
 * kPhaseArtifactMemoEntries most recently used keys. An entry whose
 * cap is below the request's is rebuilt with the larger one.
 */
std::shared_ptr<const PhaseArtifact>
phaseArtifact(int phase_idx, const CompileOptions &opts,
              uint64_t timed_uops = 0);

/** Builds phaseArtifact() has started since the process began. */
uint64_t phaseArtifactBuilds();

} // namespace cisa

#endif // CISA_WORKLOADS_ARTIFACT_HH
