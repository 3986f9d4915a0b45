#include "compiler/compiler.hh"

#include <chrono>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "compiler/interp.hh"
#include "compiler/passes/encode.hh"
#include "compiler/passes/isel.hh"
#include "compiler/passes/regalloc.hh"
#include "compiler/passes/sched.hh"

namespace cisa
{

CompileOptions
CompileOptions::fromEnv()
{
    CompileOptions o;
    o.verifyIr = pipelineVerifyEnabled();
    return o;
}

uint64_t
CompileOptions::pipelineKey() const
{
    uint64_t h = fnv1a("cisa-pipeline-v1");
    return hashCombine(h, uint64_t(enableLvn) |
                              uint64_t(enableVectorize) << 1 |
                              uint64_t(enableIfConvert) << 2 |
                              uint64_t(enableSchedule) << 3);
}

MachineProgram
compile(const IrModule &m, const CompileOptions &opts,
        CompileReport *report, IrModule *transformed_ir)
{
    const FeatureSet &t = opts.target;
    panic_if(!t.isViable(), "compiling for non-viable feature set");

    IrModule work = m; // passes mutate a private copy
    CompileReport rep;

    PassManager(opts).run(work, opts, rep);
    work.validate();

    MachineProgram prog;
    prog.name = work.name;
    prog.target = t;

    using clk = std::chrono::steady_clock;
    double us[4] = {0, 0, 0, 0}; // isel, regalloc, sched, encode
    auto timed = [&](int stage, auto &&fn) {
        auto t0 = clk::now();
        fn();
        us[stage] +=
            std::chrono::duration<double, std::micro>(clk::now() -
                                                      t0)
                .count();
    };

    std::vector<uint64_t> bases = regionLayout(work, t.widthBits());
    for (const auto &f : work.funcs) {
        MachineFunction mf;
        timed(0, [&] { mf = runIsel(f, work, bases, t); });
        timed(1, [&] { runRegalloc(mf, t); });
        if (opts.enableSchedule) {
            timed(2, [&] {
                SchedStats s = runSchedule(mf);
                rep.blocksScheduled += s.blocksScheduled;
            });
        }
        prog.funcs.push_back(std::move(mf));
    }
    timed(3, [&] { runEncode(prog); });

    const char *stage_names[4] = {"isel", "regalloc", "sched",
                                  "encode"};
    for (int s = 0; s < 4; s++) {
        if (s == 2 && !opts.enableSchedule)
            continue;
        rep.passRuns.push_back({stage_names[s], us[s], true});
    }

    if (report)
        *report = rep;
    if (transformed_ir)
        *transformed_ir = std::move(work);
    return prog;
}

} // namespace cisa
