/**
 * @file
 * The public facade of the composite-ISA library.
 *
 * A downstream user typically wants one of three things:
 *
 * 1. Compile and run a workload phase on one composite core and get
 *    performance, energy, and instruction-mix numbers
 *    (evaluatePhase).
 * 2. Search for an optimal heterogeneous multicore under a budget
 *    (searchDesign, re-exported from explore/).
 * 3. Study migration between feature sets (measureDowngrade,
 *    re-exported from migration/).
 *
 * Everything else (the IR, the compiler passes, the timing engine)
 * is available through the per-subsystem headers this one includes.
 */

#ifndef CISA_CORE_CISA_HH
#define CISA_CORE_CISA_HH

#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "compiler/interp.hh"
#include "explore/campaign.hh"
#include "explore/schedule.hh"
#include "explore/search.hh"
#include "isa/features.hh"
#include "isa/vendor.hh"
#include "migration/cost.hh"
#include "migration/translate.hh"
#include "power/energy.hh"
#include "power/power.hh"
#include "uarch/core.hh"
#include "workloads/artifact.hh"
#include "workloads/profiles.hh"
#include "workloads/simpoint.hh"
#include "workloads/synth.hh"

namespace cisa
{

/** Everything one (phase, core) evaluation produces. */
struct PhaseRun
{
    CodeStats code;          ///< static code properties
    CompileReport passes;    ///< the compile's pass statistics
    DynStats mix;            ///< dynamic instruction mix
    PerfResult perf;         ///< timing
    EnergyBreakdown energy;  ///< energy by stage
    double areaMm2 = 0;
    double peakPowerW = 0;
    double timePerRunSec = 0;
    double energyPerRunJ = 0;
};

/**
 * Compile phase @p phase_idx for @p isa, execute it functionally,
 * and simulate it on @p uarch.
 *
 * Stage 1 is memoized (phaseArtifact(), workloads/artifact.hh):
 * calls that share the phase, feature set and compile pipeline reuse
 * one compile and one functional run. Every field equals a fresh
 * build's bit for bit.
 *
 * @param timed_uops 0 selects the CISA_SIM_UOPS default
 */
PhaseRun evaluatePhase(int phase_idx, const FeatureSet &isa,
                       const MicroArchConfig &uarch,
                       uint64_t timed_uops = 0,
                       const RunEnv &env = {});

/**
 * Compile an arbitrary module and return program + trace + result;
 * the building block behind evaluatePhase for custom workloads.
 */
struct CompiledRun
{
    MachineProgram program;
    IrModule transformedIr;
    Trace trace;
    ExecResult result;
};

CompiledRun compileAndRun(const IrModule &module,
                          const FeatureSet &isa,
                          const CompileOptions *options = nullptr);

/** Library version string. */
const char *versionString();

} // namespace cisa

#endif // CISA_CORE_CISA_HH
