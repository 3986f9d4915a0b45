/**
 * @file
 * cisa_dcsim — the datacenter-scale scheduling simulator CLI. Builds
 * a heterogeneous grid of composite-ISA tiles, replays a seeded
 * synthetic job stream through a placement policy, and reports
 * virtual-time throughput/energy/EDP plus migration and tail-latency
 * statistics.
 *
 * Usage:
 *   cisa_dcsim [--cores N] [--jobs N] [--policy P] [--objective O]
 *              [--seed S] [--mix SPEC] [--rate R] [--inflight N]
 *              [--runs-scale X] [--fleet ADDR] [--baseline]
 *              [--trace PATH] [--host-stats] [--json]
 *
 * P: random | homog | affinity | migration   (default affinity)
 * O: time | edp                              (default time)
 * SPEC: tile mix, e.g. "big=1,x86=2,alpha=1,thumb=4" — presets or
 *       raw c<isa>u<uarch> composite coordinates.
 * --rate R runs open-loop at R jobs per virtual second; the default
 *       is closed-loop with --inflight jobs resident (0 = one per
 *       tile). --fleet pulls the slab tables from a cisa-serve
 *       worker or router instead of the in-process campaign; the
 *       output is byte-identical either way. --baseline also runs
 *       the iso-area homogeneous x86 grid on the same job stream and
 *       reports the ratios.
 *
 * Integer flags are checked against their ranges — --cores 1 to
 * 2^32-1 (tile ids are 32-bit), --jobs >= 1, --inflight >= 0,
 * --seed >= 0 — and a malformed or out-of-range value exits 2 before
 * anything is allocated. --rate and --runs-scale are read as
 * floating point and not checked this way.
 *
 * --json prints the canonical deterministic JSON (the smoke test
 * diffs it byte-for-byte between local and fleet runs); --host-stats
 * appends wall-clock throughput and placement-latency percentiles,
 * which are machine-dependent and excluded by default.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "dcsim/dcsim.hh"

using namespace cisa;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--cores N] [--jobs N] [--policy "
        "random|homog|affinity|migration]\n"
        "          [--objective time|edp] [--seed S] [--mix SPEC]\n"
        "          [--rate R] [--inflight N] [--runs-scale X]\n"
        "          [--fleet ADDR] [--baseline] [--trace PATH]\n"
        "          [--host-stats] [--json]\n",
        argv0);
}

void
printHuman(const DcsimResult &r, bool host_stats)
{
    std::printf("%llu cores (%s), %llu jobs, policy %s/%s, seed "
                "%llu\n",
                (unsigned long long)r.cores, r.mix.c_str(),
                (unsigned long long)r.jobsDone,
                dcPolicyName(r.policy), dcObjectiveName(r.objective),
                (unsigned long long)r.seed);
    std::printf("  makespan %.6f vs, throughput %.1f jobs/vs, "
                "utilization %.3f\n",
                double(r.makespanTicks) * 1e-9, r.throughputVs,
                r.utilization);
    std::printf("  energy %.3f J (busy %.3f + idle %.3f), EDP %.6g "
                "Js\n",
                r.energyJ, r.busyEnergyJ, r.idleEnergyJ, r.edp);
    std::printf("  placements %llu, migrations %llu (%llu "
                "cross-ISA), waited %llu (peak queue %llu)\n",
                (unsigned long long)r.placements,
                (unsigned long long)r.migrations,
                (unsigned long long)r.crossIsaMigrations,
                (unsigned long long)r.waitedJobs,
                (unsigned long long)r.peakWaiting);
    std::printf("  sojourn p50 %.6f vs, p99 %.6f vs, max %.6f vs\n",
                double(r.sojournP50) * 1e-9,
                double(r.sojournP99) * 1e-9,
                double(r.sojournMax) * 1e-9);
    std::printf("  slab cells %llu, fetches %llu (hit rate "
                "%.6f), trace hash 0x%016llx\n",
                (unsigned long long)r.cellLookups,
                (unsigned long long)r.slabFetches, r.slabHitRate,
                (unsigned long long)r.traceHash);
    if (host_stats) {
        std::printf("  host: %.3f s wall, %.0f jobs/s, place p50 "
                    "%llu ns, p99 %llu ns, %llu remote calls "
                    "(%.3f s fetching)\n",
                    r.wallSeconds, r.wallJobsPerSec,
                    (unsigned long long)r.placeP50Ns,
                    (unsigned long long)r.placeP99Ns,
                    (unsigned long long)r.remoteCalls,
                    r.fetchSeconds);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    DcsimConfig cfg;
    std::string fleet;
    bool baseline = false;
    bool json = false;
    bool hostStats = false;

    for (int i = 1; i < argc; i++) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--cores"))
            cfg.cores = uint64_t(
                flagIntIn("--cores", val(), 1, UINT32_MAX));
        else if (!std::strcmp(argv[i], "--jobs"))
            cfg.jobs = uint64_t(flagIntIn("--jobs", val(), 1, INT64_MAX));
        else if (!std::strcmp(argv[i], "--policy")) {
            if (!parseDcPolicy(val(), &cfg.policy)) {
                usage(argv[0]);
                return 1;
            }
        } else if (!std::strcmp(argv[i], "--objective")) {
            if (!parseDcObjective(val(), &cfg.objective)) {
                usage(argv[0]);
                return 1;
            }
        } else if (!std::strcmp(argv[i], "--seed"))
            cfg.seed = uint64_t(flagIntIn("--seed", val(), 0, INT64_MAX));
        else if (!std::strcmp(argv[i], "--mix"))
            cfg.mix = val();
        else if (!std::strcmp(argv[i], "--rate"))
            cfg.rate = std::atof(val());
        else if (!std::strcmp(argv[i], "--inflight"))
            cfg.inflight =
                uint64_t(flagIntIn("--inflight", val(), 0, INT64_MAX));
        else if (!std::strcmp(argv[i], "--runs-scale"))
            cfg.runsScale = std::atof(val());
        else if (!std::strcmp(argv[i], "--fleet"))
            fleet = val();
        else if (!std::strcmp(argv[i], "--baseline"))
            baseline = true;
        else if (!std::strcmp(argv[i], "--trace"))
            cfg.tracePath = val();
        else if (!std::strcmp(argv[i], "--host-stats"))
            hostStats = true;
        else if (!std::strcmp(argv[i], "--json"))
            json = true;
        else {
            usage(argv[0]);
            return std::strcmp(argv[i], "--help") ? 1 : 0;
        }
    }
    if (cfg.runsScale <= 0) {
        usage(argv[0]);
        return 1;
    }

    PerfSource src(fleet);
    if (baseline) {
        DcsimComparison c = runWithBaseline(cfg, src);
        if (json) {
            std::string s = dcsimComparisonJson(c, hostStats);
            std::printf("%s\n", s.c_str());
        } else {
            printHuman(c.run, hostStats);
            std::printf("baseline (iso-area homogeneous x86):\n");
            printHuman(c.baseline, hostStats);
            std::printf("vs baseline: %.3fx throughput, %.3fx "
                        "EDP\n",
                        c.throughputX, c.edpX);
        }
    } else {
        DcsimResult r = runDcsim(cfg, src);
        if (json) {
            std::string s = dcsimJson(r, hostStats);
            std::printf("%s\n", s.c_str());
        } else {
            printHuman(r, hostStats);
        }
    }
    return 0;
}
