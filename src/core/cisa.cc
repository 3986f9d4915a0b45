#include "core/cisa.hh"

#include "common/env.hh"

namespace cisa
{

const char *
versionString()
{
    return "cisa 1.0.0 (composite-ISA cores, HPCA'19 reproduction)";
}

CompiledRun
compileAndRun(const IrModule &module, const FeatureSet &isa,
              const CompileOptions *options)
{
    CompileOptions opts =
        options ? *options : CompileOptions::fromEnv();
    opts.target = isa;

    CompiledRun out;
    CompileReport rep;
    out.program = compile(module, opts, &rep, &out.transformedIr);
    MemImage img = MemImage::build(out.transformedIr,
                                   isa.widthBits());
    out.result = executeMachine(out.program, img, 1ULL << 31,
                                &out.trace, 1ULL << 21);
    return out;
}

PhaseRun
evaluatePhase(int phase_idx, const FeatureSet &isa,
              const MicroArchConfig &uarch, uint64_t timed_uops,
              const RunEnv &env)
{
    CompileOptions opts = CompileOptions::fromEnv();
    opts.target = isa;
    uint64_t timed = timed_uops ? timed_uops : simUopBudget();
    std::shared_ptr<const PhaseArtifact> art =
        phaseArtifact(phase_idx, opts, timed);

    CoreConfig cc{isa, uarch};
    PerfResult perf =
        simulateCore(cc, art->trace, timed, simWarmupUops(), env);

    PhaseRun run;
    run.code = art->program.stats;
    run.passes = art->report;
    run.mix = art->trace.dyn;
    run.perf = perf;
    run.energy = coreEnergy(cc, perf.stats);
    run.areaMm2 = coreAreaMm2(cc);
    run.peakPowerW = corePeakPowerW(cc);
    double scale =
        double(art->runOps()) / double(perf.stats.macroOps);
    run.timePerRunSec = secondsOf(perf.cycles) * scale;
    run.energyPerRunJ = run.energy.total() * scale;
    return run;
}

} // namespace cisa
