/**
 * @file
 * Tests of the datacenter-scale discrete-event scheduler: the
 * determinism contract (bit-identical placement traces and summary
 * JSON at any thread count and any parallel-batch threshold),
 * conservation invariants (every job placed once per phase, tiles
 * never oversubscribed, the wait queue only forms at saturation),
 * and the policy/baseline machinery the scale bench relies on.
 */

#include <cstdio>
#include <cstdlib>

// Must run before any Campaign::get() in this process. The tiny
// budget keeps slab computation to seconds; the low parallel-batch
// threshold makes even small test runs take the parallel scoring
// path under the thread limits the tests impose.
namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "900", 1);
        setenv("CISA_SIM_WARMUP", "200", 1);
        setenv("CISA_DSE_CACHE", "/tmp/cisa_dcsim_test_cache.bin",
               1);
        setenv("CISA_DCSIM_PAR_BATCH", "4", 1);
        std::remove("/tmp/cisa_dcsim_test_cache.bin");
        std::remove("/tmp/cisa_dcsim_test_cache.bin.corrupt");
    }
} env_setup;
} // namespace

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/parallel.hh"
#include "dcsim/dcsim.hh"
#include "workloads/profiles.hh"

namespace cisa
{
namespace
{

DcsimConfig
smallConfig()
{
    DcsimConfig cfg;
    cfg.cores = 24;
    cfg.jobs = 150;
    cfg.mix = "x86=1,thumb=1"; // two slabs keep the campaign cheap
    cfg.seed = 7;
    return cfg;
}

TEST(Dcsim, ByteIdenticalAtAnyThreadCount)
{
    DcsimConfig cfg = smallConfig();
    std::string json[3];
    int threads[3] = {1, 2, 4};
    for (int i = 0; i < 3; i++) {
        ScopedThreadLimit limit(threads[i]);
        PerfSource src;
        DcsimResult r = runDcsim(cfg, src);
        json[i] = dcsimJson(r);
    }
    EXPECT_EQ(json[0], json[1]);
    EXPECT_EQ(json[0], json[2]);
}

TEST(Dcsim, SerialAndParallelScoringAgree)
{
    DcsimConfig cfg = smallConfig();
    PerfSource src;
    // Batch threshold far above any batch size: all-serial scoring.
    setenv("CISA_DCSIM_PAR_BATCH", "1000000", 1);
    std::string serial = dcsimJson(runDcsim(cfg, src));
    // Threshold 2: essentially every batch scores on the pool.
    setenv("CISA_DCSIM_PAR_BATCH", "2", 1);
    std::string parallel = dcsimJson(runDcsim(cfg, src));
    setenv("CISA_DCSIM_PAR_BATCH", "4", 1);
    EXPECT_EQ(serial, parallel);
}

TEST(Dcsim, ConservationInvariants)
{
    DcsimConfig cfg = smallConfig();
    PerfSource src;
    DcsimResult r = runDcsim(cfg, src);
    EXPECT_EQ(r.jobsDone, cfg.jobs);
    EXPECT_EQ(r.cores, cfg.cores);

    // Each job is placed exactly once per phase of its benchmark,
    // so placements is bounded by the suite's phase-count range.
    uint64_t min_ph = ~uint64_t(0), max_ph = 0;
    for (const auto &b : specSuite()) {
        min_ph = std::min(min_ph, uint64_t(b.phases.size()));
        max_ph = std::max(max_ph, uint64_t(b.phases.size()));
    }
    EXPECT_GE(r.placements, r.jobsDone * min_ph);
    EXPECT_LE(r.placements, r.jobsDone * max_ph);
    EXPECT_LE(r.migrations, r.placements);
    EXPECT_LE(r.crossIsaMigrations, r.migrations);

    EXPECT_GT(r.makespanTicks, 0u);
    EXPECT_GT(r.throughputVs, 0.0);
    EXPECT_GT(r.busyEnergyJ, 0.0);
    EXPECT_GE(r.idleEnergyJ, 0.0);
    EXPECT_DOUBLE_EQ(r.energyJ, r.busyEnergyJ + r.idleEnergyJ);
    EXPECT_GT(r.utilization, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_LE(r.sojournP50, r.sojournP99);
    EXPECT_LE(r.sojournP99, r.sojournMax);
    EXPECT_NE(r.traceHash, 0u);
    EXPECT_GT(r.cellLookups, 0u);
    EXPECT_EQ(r.slabFetches, 2u); // x86 + thumb
}

TEST(Dcsim, OversubscriptionQueuesFifoAndDrains)
{
    DcsimConfig cfg = smallConfig();
    cfg.cores = 4;
    cfg.inflight = 16; // 4x oversubscribed
    PerfSource src;
    DcsimResult r = runDcsim(cfg, src);
    EXPECT_EQ(r.jobsDone, cfg.jobs);
    EXPECT_GT(r.waitedJobs, 0u);
    EXPECT_GT(r.peakWaiting, 0u);
    EXPECT_LE(r.peakWaiting, cfg.inflight);
    // Saturated grid: essentially all virtual time is busy.
    EXPECT_GT(r.utilization, 0.9);
}

TEST(Dcsim, OpenLoopArrivalsRespectSeedAndRate)
{
    DcsimConfig cfg = smallConfig();
    cfg.rate = 1e5; // jobs per virtual second
    PerfSource src;
    DcsimResult a = runDcsim(cfg, src);
    DcsimResult b = runDcsim(cfg, src);
    EXPECT_EQ(dcsimJson(a), dcsimJson(b));
    EXPECT_EQ(a.jobsDone, cfg.jobs);

    cfg.seed = 8;
    DcsimResult c = runDcsim(cfg, src);
    EXPECT_NE(a.traceHash, c.traceHash);
}

TEST(Dcsim, PoliciesDivergeAndStayDeterministic)
{
    DcsimConfig cfg = smallConfig();
    PerfSource src;
    cfg.policy = DcPolicy::Random;
    DcsimResult rnd = runDcsim(cfg, src);
    cfg.policy = DcPolicy::Affinity;
    DcsimResult aff = runDcsim(cfg, src);
    EXPECT_NE(rnd.traceHash, aff.traceHash);
    // Re-running each policy reproduces it exactly.
    cfg.policy = DcPolicy::Random;
    EXPECT_EQ(runDcsim(cfg, src).traceHash, rnd.traceHash);
}

TEST(Dcsim, TraceFileMatchesHashAndCount)
{
    DcsimConfig cfg = smallConfig();
    cfg.jobs = 40;
    cfg.tracePath = "/tmp/cisa_dcsim_test_trace.txt";
    std::remove(cfg.tracePath.c_str());
    PerfSource src;
    DcsimResult with_trace = runDcsim(cfg, src);

    uint64_t lines = 0;
    FILE *f = fopen(cfg.tracePath.c_str(), "r");
    ASSERT_NE(f, nullptr);
    int ch;
    while ((ch = fgetc(f)) != EOF) {
        if (ch == '\n')
            lines++;
    }
    fclose(f);
    std::remove(cfg.tracePath.c_str());
    EXPECT_EQ(lines, with_trace.placements);

    cfg.tracePath.clear();
    DcsimResult without = runDcsim(cfg, src);
    EXPECT_EQ(with_trace.traceHash, without.traceHash);
}

TEST(Dcsim, BaselineComparisonIsPopulated)
{
    DcsimConfig cfg = smallConfig();
    cfg.jobs = 60;
    cfg.inflight = 12;
    PerfSource src;
    DcsimComparison c = runWithBaseline(cfg, src);
    EXPECT_EQ(c.run.jobsDone, cfg.jobs);
    EXPECT_EQ(c.baseline.jobsDone, cfg.jobs);
    EXPECT_EQ(c.baseline.policy, DcPolicy::HomogBest);
    EXPECT_GT(c.throughputX, 0.0);
    EXPECT_GT(c.edpX, 0.0);
    // The baseline grid matches the heterogeneous grid's silicon.
    std::string j = dcsimComparisonJson(c);
    EXPECT_NE(j.find("\"vs\""), std::string::npos);
    EXPECT_NE(j.find("\"baseline\""), std::string::npos);
}

TEST(Dcsim, AffinityBeatsIsoAreaHomogeneousAtHalfLoad)
{
    // The datacenter result: on the default four-class mix, affinity
    // placement beats the iso-area homogeneous grid on throughput
    // and on EDP with half the tiles busy. Size and seed are fixed
    // in advance, not tuned until the ratios clear 1.
    DcsimConfig cfg;
    cfg.cores = 64;
    cfg.jobs = 600;
    cfg.inflight = 32;
    cfg.seed = 1;
    PerfSource src;
    DcsimComparison c = runWithBaseline(cfg, src);
    EXPECT_EQ(c.run.jobsDone, cfg.jobs);
    EXPECT_EQ(c.baseline.jobsDone, cfg.jobs);
    EXPECT_GT(c.throughputX, 1.0);
    EXPECT_GT(c.edpX, 1.0);
}

TEST(Cluster, ApportionmentIsExactAndBlocked)
{
    Cluster cl = Cluster::fromMix("x86=3,thumb=1", 17);
    EXPECT_EQ(cl.tiles(), 17u);
    ASSERT_EQ(cl.classes().size(), 2u);
    uint64_t sum = 0, at = 0;
    for (const auto &tc : cl.classes()) {
        EXPECT_GE(tc.count, 1u);
        EXPECT_EQ(tc.firstTile, at);
        at += tc.count;
        sum += tc.count;
    }
    EXPECT_EQ(sum, 17u);
    EXPECT_EQ(cl.classOf(0), 0u);
    EXPECT_EQ(cl.classOf(16), 1u);
    EXPECT_GT(cl.totalAreaMm2(), 0.0);

    Cluster base = cl.homogeneousBaseline();
    ASSERT_EQ(base.classes().size(), 1u);
    // Iso-area sizing: the x86 grid fills the same silicon.
    double tile = base.classes()[0].areaMm2;
    EXPECT_LE(double(base.tiles()) * tile, cl.totalAreaMm2() + tile);
}

TEST(DcPolicy, ParseRoundTrip)
{
    const char *names[] = {"random", "homog", "affinity",
                           "migration"};
    for (const char *n : names) {
        DcPolicy p;
        ASSERT_TRUE(parseDcPolicy(n, &p));
        EXPECT_STREQ(dcPolicyName(p), n);
    }
    DcPolicy p;
    EXPECT_FALSE(parseDcPolicy("bogus", &p));
    DcObjective o;
    ASSERT_TRUE(parseDcObjective("edp", &o));
    EXPECT_STREQ(dcObjectiveName(o), "edp");
    EXPECT_FALSE(parseDcObjective("speed", &o));
}

} // namespace
} // namespace cisa
