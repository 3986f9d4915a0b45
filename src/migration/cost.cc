#include "migration/cost.hh"

#include "common/env.hh"
#include "compiler/compiler.hh"
#include "migration/translate.hh"
#include "uarch/core.hh"
#include "workloads/artifact.hh"

namespace cisa
{

DowngradeCost
measureDowngrade(int phase_idx, const FeatureSet &code_fs,
                 const FeatureSet &core_fs, const MicroArchConfig &ua)
{
    // Share the campaign's pipeline configuration (opt level, pass
    // override, verify mode) so downgrade costs are measured on the
    // same code the explorer scores.
    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = code_fs;
    // Any reasonable scheduler keeps vector-heavy regions off
    // SIMD-less cores, so the downgrade experiment measures the
    // scalar build (Section VII.D).
    opts.enableVectorize &= code_fs.simd() && core_fs.simd();

    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();

    // Native execution on a code_fs core: the memoized artifact.
    std::shared_ptr<const PhaseArtifact> native =
        phaseArtifact(phase_idx, opts);
    CoreConfig native_core{code_fs, ua};
    PerfResult base =
        simulateCore(native_core, native->trace, timed, warm);
    double base_time = double(base.cycles) /
                       double(base.stats.macroOps) *
                       double(native->runOps());

    // Downgraded execution on the constrained core.
    DowngradeStats dst;
    bool needs_binary =
        core_fs.regDepth < code_fs.regDepth ||
        (core_fs.complexity == Complexity::MicroX86 &&
         code_fs.complexity == Complexity::X86) ||
        (!core_fs.fullPredication() && code_fs.fullPredication());
    bool needs_width = core_fs.width == RegWidth::W32 &&
                       code_fs.width == RegWidth::W64;
    MachineProgram translated;
    const MachineProgram *down = &native->program;
    if (needs_binary) {
        uint64_t rcb =
            phaseImage(phase_idx, code_fs.widthBits()).stackBase;
        translated =
            downgradeProgram(native->program, core_fs, rcb, &dst);
        down = &translated;
    }
    // Long-mode emulation rewrites the whole run (and counts every
    // expansion), so only a width downgrade records every op.
    Trace downgraded = runPhaseProgram(
        phase_idx, *down, needs_width ? ~uint64_t(0) : stage1RecordCap());
    if (needs_width)
        downgraded = downgradeWidthTrace(downgraded, &dst);

    // The constrained core: core_fs features, same microarchitecture.
    CoreConfig down_core{core_fs, ua};
    PerfResult got = simulateCore(down_core, downgraded, timed, warm);
    double down_time =
        double(got.cycles) / double(got.stats.macroOps) *
        double(downgraded.dyn.macroOps);

    DowngradeCost out;
    out.slowdown = down_time / base_time - 1.0;
    out.depthRewrites = dst.depthRewrites;
    out.unfoldedOps = dst.unfoldedOps;
    out.reverseIfConverted = dst.reverseIfConverted;
    out.widthExpansions = dst.widthExpansions;
    return out;
}

uint64_t
migrationPenaltyCycles(VendorIsa from, VendorIsa to)
{
    // Within the superset encoding (any composite pair) or within
    // one vendor family, migration moves register state and refills
    // cold structures. Across vendor families — and between a vendor
    // core and a composite one — the binary must be translated and
    // the program state transformed.
    return from == to ? migration_cost::kCompositeCycles
                       : migration_cost::kCrossIsaCycles;
}

} // namespace cisa
