/**
 * @file
 * cisa-dcsim: a discrete-event scheduling simulator for a grid of
 * thousands-to-millions of composite-ISA cores — the paper's 4-core
 * multiprogrammed regime (Section VII, Figures 13/15) scaled to the
 * datacenter.
 *
 * Model: jobs are benchmark programs from the workload suite; each
 * runs its SimPoint phase sequence, one phase at a time, on one tile
 * of the cluster. At every phase boundary the placement policy
 * re-ranks the tile classes (so jobs migrate toward affine cores,
 * paying the src/migration penalty per move), and the phase's
 * duration and energy come from the DSE slab tables through a
 * PerfSource — in-process or served by the cisa-serve fleet.
 *
 * Engine: a binary-heap event queue over an integer virtual clock
 * (1 tick = 1 ns) with (tick, seq) tie-breaking. All randomness —
 * job interarrivals (open loop, exponential), benchmark draws, the
 * random policy's shuffles — is hash-keyed per (seed, index), never
 * a shared stream. Same-tick placement batches of at least
 * kParBatch (dcsim.cc) score in parallel on the thread pool into
 * disjoint slots and commit serially in event order, so the
 * placement trace, every counter, and the summary JSON are
 * byte-identical at any CISA_THREADS and between the in-process and
 * fleet-served slab paths.
 */

#ifndef CISA_DCSIM_DCSIM_HH
#define CISA_DCSIM_DCSIM_HH

#include <cstdint>
#include <string>

#include "dcsim/cluster.hh"
#include "dcsim/policy.hh"

namespace cisa
{

/** One simulation's knobs. */
struct DcsimConfig
{
    uint64_t cores = 4096;
    uint64_t jobs = 100000;
    DcPolicy policy = DcPolicy::Affinity;
    DcObjective objective = DcObjective::Time;
    uint64_t seed = 1;

    /** Open-loop arrival rate in jobs per virtual second; <= 0 runs
     * closed-loop with `inflight` jobs admitted at once. */
    double rate = 0;
    /** Closed-loop multiprogramming level (0 = one job per tile). */
    uint64_t inflight = 0;

    /** Tile mix spec (see cluster.hh). */
    std::string mix = "big=1,x86=1,alpha=1,thumb=1";

    /** Scales every phase's run count — virtual work per job. */
    double runsScale = 0.01;

    /** Optional path for the full placement trace (one line per
     * placement); empty = hash only. */
    std::string tracePath;
};

/** Simulation outcome. Everything above the host-stats block is
 * virtual-time and bit-deterministic in (config, slab tables). */
struct DcsimResult
{
    // Echo of what actually ran (the baseline run differs from the
    // requested config), so a result renders without its config.
    std::string mix;     ///< resolved "label=count,..." of the grid
    DcPolicy policy = DcPolicy::Affinity;
    DcObjective objective = DcObjective::Time;
    uint64_t seed = 0;
    uint64_t jobs = 0;   ///< requested job count
    double rate = 0;
    double runsScale = 0;

    uint64_t cores = 0;
    uint64_t jobsDone = 0;
    uint64_t placements = 0;
    uint64_t migrations = 0;        ///< placements that moved tiles
    uint64_t crossIsaMigrations = 0;///< moved across vendor families
    uint64_t waitedJobs = 0;        ///< placements that queued first
    uint64_t peakWaiting = 0;       ///< wait-queue high-water mark
    uint64_t makespanTicks = 0;     ///< ns of virtual time
    uint64_t sojournP50 = 0;        ///< job arrival->finish, ns
    uint64_t sojournP99 = 0;
    uint64_t sojournMax = 0;
    double throughputVs = 0;        ///< jobs per virtual second
    double busyEnergyJ = 0;
    double idleEnergyJ = 0;
    double energyJ = 0;
    double edp = 0;                 ///< energy x makespan
    double utilization = 0;         ///< busy ticks / (tiles x span)
    uint64_t cellLookups = 0;
    uint64_t traceHash = 0;         ///< FNV/mix over all placements

    // Host-side (wall clock / source cache state; NOT part of the
    // deterministic surface, reported separately).
    uint64_t slabFetches = 0; ///< 0 when the PerfSource was warm
    double slabHitRate = 0;
    double wallSeconds = 0;
    double wallJobsPerSec = 0;
    uint64_t placeP50Ns = 0; ///< per-placement scoring latency
    uint64_t placeP99Ns = 0;
    uint64_t remoteCalls = 0;
    double fetchSeconds = 0; ///< wall time fetching slabs
};

/** Run one simulation on a cluster built from @p cfg.mix/cores. */
DcsimResult runDcsim(const DcsimConfig &cfg, PerfSource &src);

/** Run one simulation on an explicit (already apportioned) cluster;
 * bindPerf() is called if needed. */
DcsimResult runDcsim(const DcsimConfig &cfg, PerfSource &src,
                     Cluster &cluster);

/** A run plus its iso-area homogeneous baseline (same job stream on
 * a plain-x86-64 grid of equal silicon, homog policy). */
struct DcsimComparison
{
    DcsimResult run;
    DcsimResult baseline;
    double throughputX = 0; ///< run / baseline (higher = better)
    double edpX = 0;        ///< baseline / run (higher = better)
};

DcsimComparison runWithBaseline(const DcsimConfig &cfg,
                                PerfSource &src);

/**
 * Canonical JSON rendering. The default body contains only the
 * deterministic virtual-time fields — the byte-identity surface of
 * the determinism contract; @p host_stats appends the wall-clock
 * block (bench use). Lines after the first are indented @p indent
 * spaces so the object can nest.
 */
std::string dcsimJson(const DcsimResult &r, bool host_stats = false,
                      int indent = 0);

/** Comparison JSON: {"run": ..., "baseline": ..., "vs": ...}. */
std::string dcsimComparisonJson(const DcsimComparison &c,
                                bool host_stats = false);

} // namespace cisa

#endif // CISA_DCSIM_DCSIM_HH
