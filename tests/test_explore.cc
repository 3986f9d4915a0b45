/**
 * @file
 * Tests of the exploration layer: design-point indexing, campaign
 * caching, the phase-boundary scheduler, and the budgeted search.
 * Uses a reduced simulation budget and a private cache so the test
 * stays fast and does not disturb the benchmark campaign cache.
 */

#include <cstdio>
#include <cstdlib>

// Must run before any Campaign::get() in this process.
namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "1500", 1);
        setenv("CISA_SIM_WARMUP", "400", 1);
        setenv("CISA_DSE_CACHE", "/tmp/cisa_test_cache.bin", 1);
        setenv("CISA_SEARCH_RESTARTS", "1", 1);
        // Start from a cold store: a stale (or quarantined) file
        // from a previous run must not feed this one.
        std::remove("/tmp/cisa_test_cache.bin");
        std::remove("/tmp/cisa_test_cache.bin.corrupt");
    }
} env_setup;
} // namespace

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/parallel.hh"
#include "explore/campaign.hh"
#include "explore/schedule.hh"
#include "explore/search.hh"
#include "uarch/batch.hh"
#include "slab_oracle.hh"

namespace cisa
{
namespace
{

int
x64Isa()
{
    return FeatureSet::x86_64().id();
}

/** An x86-64-only filter keeps tests to two campaign slabs. */
bool
x64Only(const FeatureSet &f)
{
    return f == FeatureSet::x86_64() ||
           f == FeatureSet::thumbLike();
}

TEST(DesignPoint, RowRoundTrip)
{
    for (int row = 0; row < DesignPoint::kTotalRows; row += 97) {
        DesignPoint dp = DesignPoint::fromRow(row);
        EXPECT_EQ(dp.row(), row);
    }
    DesignPoint v =
        DesignPoint::vendorPoint(VendorIsa::ThumbLike, 17);
    EXPECT_EQ(DesignPoint::fromRow(v.row()), v);
    EXPECT_GE(v.row(), DesignPoint::kCompositeRows);

    // Rows are slab-major: row slab * kUarchCount + u is cell u of
    // that slab, which is how computeSlabPerf and the Table endpoint
    // name a slab's design points.
    for (int s = 0; s < Campaign::kSlabs; s++) {
        for (int u = 0; u < DesignPoint::kUarchCount; u++) {
            DesignPoint dp = DesignPoint::fromRow(
                s * DesignPoint::kUarchCount + u);
            ASSERT_EQ(Campaign::slabOf(dp), s) << "uarch " << u;
            ASSERT_EQ(dp.uarchId, u);
        }
    }
}

TEST(DesignPoint, CostsArePositive)
{
    DesignPoint dp = DesignPoint::composite(x64Isa(), 100);
    EXPECT_GT(dp.areaMm2(), 5.0);
    EXPECT_GT(dp.peakPowerW(), 2.0);
    DesignPoint th =
        DesignPoint::vendorPoint(VendorIsa::ThumbLike, 0);
    // Thumb-like vendor core: no SIMD, small ISA state.
    EXPECT_LT(th.areaMm2(), dp.areaMm2());
}

TEST(Campaign, ValuesAreSane)
{
    Campaign &c = Campaign::get();
    DesignPoint dp = DesignPoint::composite(x64Isa(), 150);
    for (int ph = 0; ph < phaseCount(); ph += 11) {
        const PhasePerf &pp = c.at(dp, ph);
        EXPECT_GT(pp.timePerRun, 0.0f);
        EXPECT_GT(pp.energyPerRun, 0.0f);
        // Contention never helps.
        EXPECT_GE(pp.timePerRunMp, pp.timePerRun * 0.98f);
    }
}

TEST(Campaign, BiggerCoreIsFasterSomewhere)
{
    Campaign &c = Campaign::get();
    // uarch 0 is a small in-order; a big OoO exists later on.
    DesignPoint small = DesignPoint::composite(x64Isa(), 0);
    int big_id = -1;
    for (const auto &ua : MicroArchConfig::enumerate()) {
        if (ua.outOfOrder && ua.width == 4 && ua.iqSize == 64 &&
            ua.uopCache && ua.l1iKB == 64) {
            big_id = ua.id();
            break;
        }
    }
    ASSERT_GE(big_id, 0);
    DesignPoint big = DesignPoint::composite(x64Isa(), big_id);
    int faster = 0;
    for (int ph = 0; ph < phaseCount(); ph++) {
        faster += c.at(big, ph).timePerRun <
                  c.at(small, ph).timePerRun;
    }
    EXPECT_GT(faster, phaseCount() * 3 / 4);
}

TEST(Campaign, CachePersists)
{
    Campaign::get().ensureSlab(x64Isa());
    FILE *f = std::fopen("/tmp/cisa_test_cache.bin", "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
}

TEST(Campaign, BudgetKeyNeverAliases)
{
    // The old key, simUops * 1000003 + warmup, aliased whenever one
    // budget's warmup spilled into another's uops slot — e.g.
    // (1, 1000003) and (2, 0) shared a cache. Mixed keys must keep
    // every distinct (uops, warmup) pair distinct.
    EXPECT_NE(Campaign::budgetKeyFor(1, 1000003),
              Campaign::budgetKeyFor(2, 0));
    // Arguments are not interchangeable either.
    EXPECT_NE(Campaign::budgetKeyFor(1500, 400),
              Campaign::budgetKeyFor(400, 1500));

    std::set<uint64_t> keys;
    size_t n = 0;
    for (uint64_t u : {0ull, 1ull, 2ull, 1500ull, 6000ull}) {
        for (uint64_t w : {0ull, 1ull, 400ull, 1500ull, 1000003ull}) {
            keys.insert(Campaign::budgetKeyFor(u, w));
            n++;
        }
    }
    EXPECT_EQ(keys.size(), n);
    // The whole colliding family of the old scheme (constant
    // u * 1000003 + w) must now fan out to distinct keys.
    keys.clear();
    for (uint64_t u = 0; u <= 12; u++)
        keys.insert(Campaign::budgetKeyFor(u, (12 - u) * 1000003));
    EXPECT_EQ(keys.size(), 13u);
}

bool
sameCells(const std::vector<PhasePerf> &a,
          const std::vector<PhasePerf> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(PhasePerf)) == 0;
}

TEST(Campaign, SlabMatchesLiveOracleAtAnyThreadsAndWidths)
{
    // The batched lockstep engine must reproduce the live per-cell
    // reference byte for byte — serially and on a 4-lane pool (each
    // cell is written by exactly one task, so thread count must not
    // matter).
    std::vector<PhasePerf> live = liveSlabPerf(x64Isa());
    std::vector<PhasePerf> serial;
    EngineHealth eh1;
    {
        ScopedThreadLimit one(1);
        serial = computeSlabPerf(x64Isa(), nullptr, &eh1);
    }
    EXPECT_TRUE(sameCells(live, serial));

    // Engine accounting: every (uarch, phase, env) sim either shared
    // a lockstep walk or walked alone, and each saved walk came out
    // of a shared one. Without the vector kernel every cell walks
    // alone.
    uint64_t sims = uint64_t(DesignPoint::kUarchCount) *
                    uint64_t(phaseCount()) * 2;
    EXPECT_EQ(eh1.cellsBatched + eh1.cellsPerCell, sims);
    EXPECT_EQ(eh1.walksDone + eh1.walksSaved, sims);
    if (batchSimdAvailable()) {
        EXPECT_GT(eh1.cellsBatched, eh1.cellsPerCell);
        EXPECT_GT(eh1.walksSaved, 0u);
    } else {
        EXPECT_EQ(eh1.cellsPerCell, sims);
        EXPECT_EQ(eh1.walksSaved, 0u);
    }

    ScopedThreadLimit four(4);
    EngineHealth eh4;
    std::vector<PhasePerf> pool =
        computeSlabPerf(x64Isa(), nullptr, &eh4);
    EXPECT_TRUE(sameCells(live, pool));
    // The (phase, slice, chunk) decomposition is thread-independent,
    // so the counters are too.
    EXPECT_EQ(eh4.cellsBatched, eh1.cellsBatched);
    EXPECT_EQ(eh4.walksDone, eh1.walksDone);

    // A tiny chunk width forces more (smaller) walks but must not
    // change a single byte. setenv is safe here: the knob is read
    // once on this thread at the top of computeSlabPerf, before any
    // pool fan-out.
    setenv("CISA_BATCH_WIDTH", "4", 1);
    EngineHealth narrow_h;
    std::vector<PhasePerf> narrow =
        computeSlabPerf(x64Isa(), nullptr, &narrow_h);
    unsetenv("CISA_BATCH_WIDTH");
    EXPECT_TRUE(sameCells(live, narrow));
    if (batchSimdAvailable()) {
        EXPECT_GT(narrow_h.walksDone, eh4.walksDone);
    }
    EXPECT_EQ(narrow_h.walksDone + narrow_h.walksSaved, sims);

    // Without the vector kernel every chunk replays cell by cell
    // through Engine::step: the same bytes, one walk per sim. The
    // pool's threads read this knob only inside the call, after the
    // setenv.
    setenv("CISA_BATCH_SIMD", "0", 1);
    EngineHealth replay_h;
    std::vector<PhasePerf> replay =
        computeSlabPerf(x64Isa(), nullptr, &replay_h);
    unsetenv("CISA_BATCH_SIMD");
    EXPECT_TRUE(sameCells(live, replay));
    EXPECT_EQ(replay_h.walksDone, sims);
    EXPECT_EQ(replay_h.walksSaved, 0u);
    EXPECT_EQ(replay_h.cellsPerCell, sims);
}

MulticoreDesign
mixedDesign()
{
    // Two big OoO + two small in-order x86-64 cores.
    int big = -1, small = -1;
    for (const auto &ua : MicroArchConfig::enumerate()) {
        if (ua.outOfOrder && ua.width == 4 && ua.iqSize == 64 &&
            ua.uopCache && big < 0)
            big = ua.id();
        if (!ua.outOfOrder && ua.width == 1 && !ua.uopCache &&
            small < 0)
            small = ua.id();
    }
    return {{DesignPoint::composite(x64Isa(), big),
             DesignPoint::composite(x64Isa(), big),
             DesignPoint::composite(x64Isa(), small),
             DesignPoint::composite(x64Isa(), small)}};
}

TEST(Schedule, SingleThreadPicksGoodCores)
{
    MulticoreDesign d = mixedDesign();
    StOutcome o = runSingleThread(d, 0, Objective::StPerf);
    EXPECT_GT(o.time, 0.0);
    EXPECT_GT(o.energy, 0.0);
    // Best-core-per-phase can't be slower than pinning to core 2
    // (a small core).
    MulticoreDesign small_only{{d.cores[2], d.cores[2], d.cores[2],
                                d.cores[2]}};
    StOutcome so = runSingleThread(small_only, 0, Objective::StPerf);
    EXPECT_LE(o.time, so.time * 1.0001);
}

TEST(Schedule, ObjectivesSteerCoreChoice)
{
    // Greedy per-phase selection: the perf objective minimizes total
    // time exactly; the EDP objective minimizes the per-phase t*e
    // sum (a heuristic for the product of sums, so no strict global
    // EDP guarantee).
    MulticoreDesign d = mixedDesign();
    for (int b = 0; b < 3; b++) {
        StOutcome perf = runSingleThread(d, b, Objective::StPerf);
        StOutcome edp = runSingleThread(d, b, Objective::StEdp);
        EXPECT_LE(perf.time, edp.time * 1.0001);
        EXPECT_GT(edp.edp, 0.0);
    }
}

TEST(Schedule, MultiprogCompletesAllApps)
{
    MulticoreDesign d = mixedDesign();
    MpOutcome o = runMultiprog(d, {0, 2, 4, 6},
                               Objective::MpThroughput);
    EXPECT_GT(o.throughput, 0.0);
    EXPECT_GT(o.makespan, 0.0);
    EXPECT_GT(o.energy, 0.0);
    EXPECT_NEAR(o.edp, o.energy * o.makespan, 1e-12);
}

TEST(Schedule, MigrationCostsReduceThroughput)
{
    MulticoreDesign d = mixedDesign();
    MigrationModel mig;
    mig.perMigrationSeconds = 1e-4; // deliberately large
    for (int b = 0; b < 8; b++)
        mig.binaryFs[size_t(b)] = FeatureSet::x86_64();
    MpOutcome base = runMultiprog(d, {0, 2, 4, 6},
                                  Objective::MpThroughput);
    MpOutcome cost = runMultiprog(d, {0, 2, 4, 6},
                                  Objective::MpThroughput, nullptr,
                                  &mig);
    EXPECT_LE(cost.throughput, base.throughput);
    EXPECT_GE(cost.census.migrations, 0);
}

TEST(Schedule, UsageAccountsAllTime)
{
    MulticoreDesign d = mixedDesign();
    AffinityUsage usage;
    MpOutcome o = runMultiprog(d, {0, 2, 4, 6},
                               Objective::MpThroughput, &usage);
    double total = 0;
    for (const auto &[isa, by_bench] : usage) {
        for (double t : by_bench)
            total += t;
    }
    // Total attributed time is at most 4 cores x makespan.
    EXPECT_LE(total, 4.0 * o.makespan * 1.001);
    EXPECT_GT(total, o.makespan * 0.5);
}

TEST(Search, HomogeneousRespectsBudget)
{
    Budget b;
    b.powerW = 30;
    SearchResult r = searchDesign(Family::Homogeneous,
                                  Objective::MpThroughput, b, 1);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.design.totalPeakPowerW(), 30.0 + 1e-6);
    // All four cores identical.
    EXPECT_EQ(r.design.cores[0], r.design.cores[1]);
    EXPECT_EQ(r.design.cores[0], r.design.cores[3]);
}

TEST(Search, HeteroBeatsHomogeneousUnconstrained)
{
    Budget b; // unlimited
    SearchResult homo = searchDesign(Family::Homogeneous,
                                     Objective::MpThroughput, b, 1);
    SearchResult het = searchDesign(Family::SingleIsaHetero,
                                    Objective::MpThroughput, b, 1);
    ASSERT_TRUE(homo.feasible && het.feasible);
    EXPECT_GE(designScore(het.design, Objective::MpThroughput, 12),
              designScore(homo.design, Objective::MpThroughput, 12) *
                  0.999);
}

TEST(Search, FilterIsRespected)
{
    Budget b;
    b.areaMm2 = 60;
    SearchResult r = searchDesign(Family::CompositeFull,
                                  Objective::MpThroughput, b, 1,
                                  x64Only);
    ASSERT_TRUE(r.feasible);
    for (const auto &c : r.design.cores)
        EXPECT_TRUE(x64Only(c.isa())) << c.name();
}

TEST(Search, DynamicMulticoreBindsMaxPower)
{
    Budget b;
    b.powerW = 9;
    b.dynamicMulticore = true;
    SearchResult r = searchDesign(Family::SingleIsaHetero,
                                  Objective::StPerf, b, 1);
    ASSERT_TRUE(r.feasible);
    EXPECT_LE(r.design.maxPeakPowerW(), 9.0 + 1e-6);
    // The sum may well exceed the per-core cap.
    EXPECT_GT(r.design.totalPeakPowerW(), 9.0);
}

} // namespace
} // namespace cisa
