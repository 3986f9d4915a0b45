/**
 * @file
 * The live reference for one campaign slab: every (uarch, phase,
 * environment) cell simulated alone by simulateCore on the phase's
 * trace — no replay packing, structural streams or lockstep walks.
 * computeSlabPerf must reproduce it byte for byte. The oracle is
 * built from public calls only and takes the fold (foldPhasePerf) and
 * the contended environment (kContendedEnv) from production, so the
 * comparison checks the engine rather than a copy of the arithmetic.
 */

#ifndef CISA_TESTS_SLAB_ORACLE_HH
#define CISA_TESTS_SLAB_ORACLE_HH

#include <vector>

#include "common/env.hh"
#include "common/parallel.hh"
#include "compiler/compiler.hh"
#include "explore/campaign.hh"
#include "migration/translate.hh"
#include "workloads/artifact.hh"

namespace cisa
{

/** Slab @p slab computed cell by cell on the live engine, laid out
 * like computeSlabPerf's result. */
inline std::vector<PhasePerf>
liveSlabPerf(int slab)
{
    const uint64_t timed = simUopBudget();
    const uint64_t warm = simWarmupUops();
    const size_t phases = size_t(phaseCount());
    auto pointOf = [slab](int u) {
        return DesignPoint::fromRow(slab * DesignPoint::kUarchCount +
                                    u);
    };
    const VendorModel vm = pointOf(0).vendorModel();
    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = pointOf(0).isa();

    std::vector<Trace> traces(phases);
    parallelFor(phases, [&](uint64_t p) {
        Trace t =
            buildPhaseArtifact(int(p), opts, stage1RecordCap(timed))
                .trace;
        if (vm.codeSizeFactor != 1.0)
            t = vendorAdjustTrace(t, vm.codeSizeFactor);
        traces[p] = std::move(t);
    });

    std::vector<PhasePerf> cells(size_t(DesignPoint::kUarchCount) *
                                 phases);
    parallelFor(cells.size(), [&](uint64_t k) {
        DesignPoint dp = pointOf(int(k / phases));
        CoreConfig cc = dp.coreConfig();
        const Trace &t = traces[k % phases];
        cells[k] = foldPhasePerf(
            dp, t.dyn.macroOps,
            simulateCore(cc, t, timed, warm, RunEnv{}),
            simulateCore(cc, t, timed, warm, kContendedEnv));
    });
    return cells;
}

} // namespace cisa

#endif // CISA_TESTS_SLAB_ORACLE_HH
