/**
 * @file
 * dcsim_grid: the datacenter simulator, closed loop, on a 4096-core
 * grid of the four-class mix (big, x86, alpha, thumb) under the
 * affinity policy, with slabs from a warm in-process PerfSource. The
 * event engine and placement scoring do all the work; the campaign
 * only serves table lookups.
 *
 * Gate: a fixed-seed reference run whose trace hash and
 * deterministic JSON are pinned, and the seeded measured run's
 * digest, which run.py requires to agree across every repetition
 * with the same seed.
 */

#include <algorithm>
#include <cstdio>

#include "dcsim/dcsim.hh"
#include "dcsim/perfsource.hh"
#include "harness.hh"
#include "trace.hh"

using namespace cisa;

namespace perfbench
{

namespace
{

/** Simulations per repetition, and jobs in each: many short
 * simulations, so that each one's fastest repetition is a clean
 * sample and their median does not hang on one seed's job stream. */
constexpr uint64_t kSims = 16;
constexpr uint64_t kJobsPerSim = 62500;

DcsimConfig
gridConfig(uint64_t seed, uint64_t jobs)
{
    DcsimConfig cfg;
    cfg.cores = 4096;
    cfg.jobs = jobs;
    cfg.policy = DcPolicy::Affinity;
    cfg.objective = DcObjective::Time;
    cfg.seed = seed;
    cfg.rate = 0;     // closed loop
    cfg.inflight = 0; // one job per tile
    cfg.mix = "big=1,x86=1,alpha=1,thumb=1";
    return cfg;
}

std::string
digestOf(const DcsimResult &res)
{
    return Digest().str(dcsimJson(res, false)).pod(res.traceHash).hex();
}

} // namespace

int
runDcsim(const Args &a, Report &r)
{
    if (!loadWarmStore(a))
        return 1;
    PerfSource src;
    {
        // A short run binds (fetches) every slab the grid uses.
        Span s("dcsim.fetch");
        runDcsim(gridConfig(a.seed, 1000), src);
    }
    r.setupS = secondsSince(a.startNs);
    r.layers["dcsim.fetch_s"] = double(src.stats().fetchNs) * 1e-9;
    if (a.setupOnly)
        return 0;

    // One operation is one simulation; the seeds of a repetition
    // derive from --seed, so every repetition with that seed runs
    // the identical job streams.
    std::vector<double> simUs;
    Digest seeded;
    uint64_t jobsDone = 0, placements = 0, lookups = 0;
    double hitRate = 1.0;
    DcsimResult res;
    uint64_t t0 = nowNs();
    for (uint64_t i = 0; i < kSims; i++) {
        uint64_t seed = a.seed * 1000 + i;
        uint64_t ts = nowNs();
        {
            Span s("dcsim.run", seed);
            res = runDcsim(gridConfig(seed, kJobsPerSim), src);
        }
        simUs.push_back(secondsSince(ts) * 1e6);
        char name[16];
        std::snprintf(name, sizeof(name), "sim%02llu", (unsigned long long)i);
        r.opUs[name] = simUs.back();
        r.attempted += res.jobs;
        if (res.jobsDone != res.jobs)
            r.fail("dcsim seed " + std::to_string(seed) + " finished " +
                   std::to_string(res.jobsDone) + " of " +
                   std::to_string(res.jobs) + " jobs");
        seeded.str(digestOf(res));
        jobsDone += res.jobsDone;
        placements += res.placements;
        lookups += res.cellLookups;
        hitRate = std::min(hitRate, res.slabHitRate);
    }
    r.workS = secondsSince(t0);
    r.opsPerS = double(jobsDone) / r.workS;
    r.opP50Us = quantile(simUs, 0.50);
    r.opP99Us = quantile(simUs, 0.99);
    r.digests["dcsim.seeded"] = seeded.hex();

    // Placement latencies are the library's own power-of-two
    // histogram buckets (last simulation).
    r.layers["dcsim.place_p50_ns"] = double(res.placeP50Ns);
    r.layers["dcsim.place_p99_ns"] = double(res.placeP99Ns);
    r.layers["dcsim.placements"] = double(placements);
    r.layers["dcsim.cell_lookups"] = double(lookups);
    r.layers["dcsim.slab_hit_rate"] = hitRate;

    // Pinned reference: fixed seed and size, independent of --seed.
    DcsimResult ref = runDcsim(gridConfig(1, 100000), src);
    r.digests["dcsim.pinned"] = digestOf(ref);
    return 0;
}

} // namespace perfbench
