/**
 * @file
 * Figure 11 reproduction: processor energy breakdown by pipeline
 * stage for the constrained-optimal designs of Figure 9, normalized
 * to the unconstrained composite design.
 *
 * Paper observations: the fetch unit outspends the decoder at run
 * time (the micro-op cache gates the decode pipeline); the
 * depth-8-constrained design burns extra fetch energy on spill/
 * refill/rematerialization bloat; x86-only designs' SIMD investment
 * doesn't show up proportionally in energy (vectors are
 * intermittent); 64-bit-only designs keep high register-file energy.
 */

#include <cstdio>
#include <vector>

#include "bench/benchcommon.hh"
#include "common/parallel.hh"

using namespace cisa;
using namespace cisa::benchutil;

namespace
{

struct StageEnergy
{
    double fetch = 0, decode = 0, bpred = 0, sched = 0, rf = 0,
           fu = 0, mem = 0;

    double total() const
    {
        return fetch + decode + bpred + sched + rf + fu + mem;
    }
};

/**
 * Energy of running every phase (weighted) once on each core of the
 * design — a workload-representative activity mix.
 */
StageEnergy
energyOf(const MulticoreDesign &d)
{
    // Evaluate every (core, phase) pair on the pool, then sum in
    // order so the result does not depend on the thread count.
    size_t phases = size_t(phaseCount());
    std::vector<EnergyBreakdown> runs(d.cores.size() * phases);
    parallelFor(runs.size(), [&](uint64_t k) {
        CoreConfig cc = d.cores[k / phases].coreConfig();
        runs[k] =
            evaluatePhase(int(k % phases), cc.isa, cc.uarch, 2500)
                .energy;
    });
    StageEnergy s;
    for (size_t k = 0; k < runs.size(); k++) {
        const EnergyBreakdown &e = runs[k];
        double w = allPhases()[k % phases].weight;
        s.fetch += w * e.fetch;
        s.decode += w * (e.decode + e.rename);
        s.bpred += w * e.bpred;
        s.sched += w * e.scheduler;
        s.rf += w * e.regfile;
        s.fu += w * e.fu;
        s.mem += w * e.lsq;
    }
    return s;
}

} // namespace

int
main()
{
    std::printf("== Figure 11: processor energy breakdown by stage, "
                "normalized to the unconstrained composite design "
                "==\n\n");

    Budget bud = areaBudget(48);
    SearchResult free_r = searchDesign(
        Family::CompositeFull, Objective::MpThroughput, bud, 2019);
    StageEnergy base = energyOf(free_r.design);

    Table t("energy by stage (fraction of the unconstrained "
            "design's total)");
    t.header({"constraint", "fetch", "decode", "bpred", "sched",
              "regfile", "FUs", "mem", "total"});
    auto printRow = [&](const std::string &label,
                        const MulticoreDesign &d) {
        StageEnergy e = energyOf(d);
        t.row({label, Table::num(e.fetch / base.total(), 3),
               Table::num(e.decode / base.total(), 3),
               Table::num(e.bpred / base.total(), 3),
               Table::num(e.sched / base.total(), 3),
               Table::num(e.rf / base.total(), 3),
               Table::num(e.fu / base.total(), 3),
               Table::num(e.mem / base.total(), 3),
               Table::num(e.total() / base.total(), 3)});
    };

    for (const auto &c : featureConstraints()) {
        SearchResult r = constrainedSearch(c);
        if (r.feasible)
            printRow(c.group + " " + c.label, r.design);
    }
    printRow("(unconstrained)", free_r.design);
    t.print();
    return 0;
}
