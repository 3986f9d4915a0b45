/**
 * @file
 * Tests of the parallel-execution layer and the determinism
 * guarantee of the parallel campaign: parallelFor semantics (empty
 * range, fewer items than threads, full coverage, exception
 * propagation, nesting), the task-queue API, byte-identical slab
 * computation across thread counts, and slabs that fold shared
 * phases from the PhaseSimMemo (in order and concurrently) equal
 * their full recompute, with the memo's LRU bound. The ctest suite
 * runs this binary under CISA_THREADS=4 (and TSan when configured
 * with CISA_SANITIZE=tsan) so races on the campaign/search hot path
 * are caught.
 */

#include <cstdlib>

// Must run before any Campaign::get() in this process.
namespace
{
struct EnvSetup
{
    EnvSetup()
    {
        setenv("CISA_SIM_UOPS", "700", 1);
        setenv("CISA_SIM_WARMUP", "150", 1);
        setenv("CISA_DSE_CACHE", "/tmp/cisa_parallel_cache.bin", 1);
        // Exercise the pool even where ctest didn't set the knob;
        // never shrink an explicit setting.
        setenv("CISA_THREADS", "4", 0);
    }
} env_setup;
} // namespace

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "explore/campaign.hh"
#include "slab_oracle.hh"

namespace cisa
{
namespace
{

TEST(ParallelFor, EmptyRangeRunsNothing)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](uint64_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    constexpr uint64_t n = 10007; // prime: uneven chunking
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](uint64_t i) { hits[i]++; });
    for (uint64_t i = 0; i < n; i++)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, FewerItemsThanThreads)
{
    ASSERT_GE(ThreadPool::get().threads(), 2)
        << "run with CISA_THREADS >= 2";
    std::vector<std::atomic<int>> hits(3);
    parallelFor(3, [&](uint64_t i) { hits[i]++; });
    for (int i = 0; i < 3; i++)
        EXPECT_EQ(hits[size_t(i)].load(), 1);
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives)
{
    EXPECT_THROW(
        parallelFor(1000,
                    [&](uint64_t i) {
                        if (i == 37)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
    // The pool stays usable after a failed loop.
    std::atomic<int> calls{0};
    parallelFor(64, [&](uint64_t) { calls++; });
    EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock)
{
    std::atomic<int> total{0};
    parallelFor(4, [&](uint64_t) {
        parallelFor(100, [&](uint64_t) { total++; });
    });
    EXPECT_EQ(total.load(), 400);
}

TEST(ParallelFor, ScopedLimitOneIsSerialAndOrdered)
{
    ScopedThreadLimit serial(1);
    std::vector<uint64_t> order; // unsynchronized: serial contract
    parallelFor(257, [&](uint64_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 257u);
    for (uint64_t i = 0; i < order.size(); i++)
        ASSERT_EQ(order[i], i);
}

TEST(TaskGroup, RunsAllTasks)
{
    std::atomic<int> done{0};
    TaskGroup g;
    for (int t = 0; t < 100; t++)
        g.run([&] { done++; });
    g.wait();
    EXPECT_EQ(done.load(), 100);
}

TEST(TaskGroup, WaitRethrowsTaskError)
{
    TaskGroup g;
    g.run([] { throw std::runtime_error("task failed"); });
    EXPECT_THROW(g.wait(), std::runtime_error);
}

TEST(ThreadPool, PrivatePoolAndThreadKnob)
{
    EXPECT_GE(parallelThreads(), 1);
    ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3);
    std::vector<std::atomic<int>> hits(500);
    pool.parallelFor(500, [&](uint64_t i) { hits[i]++; });
    for (int i = 0; i < 500; i++)
        ASSERT_EQ(hits[size_t(i)].load(), 1);
}

/**
 * The acceptance property of the whole PR: one slab computed
 * serially (CISA_THREADS=1 semantics via ScopedThreadLimit) and on
 * the full pool must produce byte-identical PhasePerf tables.
 */
TEST(CampaignDeterminism, SlabIsBitIdenticalAcrossThreadCounts)
{
    int slab = FeatureSet::thumbLike().id();
    std::vector<PhasePerf> serial;
    {
        ScopedThreadLimit limit(1);
        serial = computeSlabPerf(slab);
    }
    std::vector<PhasePerf> parallel = computeSlabPerf(slab);
    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.size(),
              size_t(DesignPoint::kUarchCount) *
                  size_t(phaseCount()));
    static_assert(std::is_trivially_copyable_v<PhasePerf>);
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(PhasePerf)),
              0);
}

/**
 * The acceptance property of the slab engine: the batched lockstep
 * walk over memoized structural streams must reproduce the live
 * per-cell reference byte for byte over a whole slab — every
 * (uarch, phase, environment) cell of a full ISA — on the full
 * thread pool.
 */
TEST(CampaignDeterminism, SlabIsBitIdenticalToLiveOracle)
{
    // One composite slab and one vendor slab (vendor traces are
    // code-size-adjusted before packing, a path worth covering).
    for (int slab : {FeatureSet::thumbLike().id(), 27}) {
        std::vector<PhasePerf> live = liveSlabPerf(slab);
        std::vector<PhasePerf> batch = computeSlabPerf(slab);
        ASSERT_EQ(live.size(), batch.size());
        EXPECT_EQ(std::memcmp(live.data(), batch.data(),
                              live.size() * sizeof(PhasePerf)),
                  0)
            << "slab " << slab;
    }
}

bool
sameBytes(const std::vector<PhasePerf> &a,
          const std::vector<PhasePerf> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(PhasePerf)) == 0;
}

/**
 * Phases whose code is identical across slabs are simulated once and
 * folded from the memo in later slabs; the folded slabs must equal
 * their full recompute byte for byte. Slab 20 (x86-16D-64W-P) and
 * vendor slab 26 (x86-64, code-size factor 1.0) compile every phase
 * to the same code; slab 21 (x86-16D-64W-F) differs from slab 20
 * only in full predication, which leaves some phases unchanged.
 */
TEST(CampaignDeterminism, SharedPhasesMatchRecompute)
{
    const uint64_t sims = uint64_t(DesignPoint::kUarchCount) *
                          uint64_t(phaseCount()) * 2;
    auto accounted = [&](const EngineHealth &h) {
        return h.walksDone + h.walksSaved + h.simsShared == sims &&
               h.cellsBatched + h.cellsPerCell + h.simsShared ==
                   sims;
    };

    std::map<int, std::vector<PhasePerf>> unshared;
    PhaseSimMemo memo;
    std::map<int, EngineHealth> health;
    for (int slab : {20, 21, 26}) {
        EngineHealth plain;
        unshared[slab] = computeSlabPerf(slab, nullptr, &plain);
        EXPECT_EQ(plain.simsShared, 0u);
        std::vector<PhasePerf> folded =
            computeSlabPerf(slab, nullptr, &health[slab], &memo);
        EXPECT_TRUE(sameBytes(unshared[slab], folded))
            << "slab " << slab;
        EXPECT_TRUE(accounted(health[slab])) << "slab " << slab;
        EXPECT_LE(memo.size(), PhaseSimMemo::kCapacity);
    }
    EXPECT_EQ(health[20].simsShared, 0u);
    EXPECT_GT(health[21].simsShared, 0u);
    EXPECT_LT(health[21].simsShared, sims);
    EXPECT_EQ(health[26].walksDone, 0u);
    EXPECT_EQ(health[26].simsShared, sims);

    // The P/F pair at once on the pool over one fresh memo: whichever
    // slab simulates a shared phase first, or both at the same time,
    // both results keep the unshared bytes. (TSan covers the memo.)
    PhaseSimMemo pairMemo;
    const int pair[2] = {20, 21};
    std::vector<PhasePerf> out[2];
    EngineHealth pairHealth[2];
    parallelFor(2, [&](uint64_t i) {
        out[i] = computeSlabPerf(pair[i], nullptr, &pairHealth[i],
                                 &pairMemo);
    });
    for (int i = 0; i < 2; i++) {
        EXPECT_TRUE(sameBytes(unshared[pair[i]], out[i]))
            << "slab " << pair[i];
        EXPECT_TRUE(accounted(pairHealth[i])) << "slab " << pair[i];
    }
}

TEST(PhaseSimMemo, EvictsTheLeastRecentlyUsedEntry)
{
    const uint64_t cap = PhaseSimMemo::kCapacity;
    auto entry = [] { return std::make_shared<const PhaseSims>(); };

    // capacity + 1 inserts: the first key goes.
    PhaseSimMemo m;
    for (uint64_t k = 0; k <= cap; k++) {
        m.insert(k, entry());
        ASSERT_LE(m.size(), cap);
    }
    EXPECT_EQ(m.size(), cap);
    EXPECT_EQ(m.find(0), nullptr);
    for (uint64_t k = 1; k <= cap; k++)
        ASSERT_NE(m.find(k), nullptr) << k;

    // A lookup refreshes: after touching key 0, the next insert
    // evicts key 1, the least recently used one now.
    PhaseSimMemo r;
    for (uint64_t k = 0; k < cap; k++)
        r.insert(k, entry());
    ASSERT_NE(r.find(0), nullptr);
    r.insert(cap, entry());
    EXPECT_EQ(r.size(), cap);
    EXPECT_NE(r.find(0), nullptr);
    EXPECT_EQ(r.find(1), nullptr);

    // Re-inserting a present key keeps its entry and its count.
    PhaseSimMemo::Entry kept = r.find(2);
    ASSERT_NE(kept, nullptr);
    r.insert(2, entry());
    EXPECT_EQ(r.find(2), kept);
    EXPECT_EQ(r.size(), cap);
}

TEST(CampaignDeterminism, ConcurrentAtOnSameSlabIsConsistent)
{
    Campaign &camp = Campaign::get();
    DesignPoint dp = DesignPoint::composite(
        FeatureSet::thumbLike().id(), 17);
    // Hammer at() for an uncomputed-or-cached slab from many tasks;
    // every reader must observe the same published cell.
    const PhasePerf &first = camp.at(dp, 3);
    float t0 = first.timePerRun;
    std::atomic<int> mismatches{0};
    parallelFor(64, [&](uint64_t) {
        if (camp.at(dp, 3).timePerRun != t0)
            mismatches++;
    });
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_TRUE(camp.slabReady(Campaign::slabOf(dp)));
}

} // namespace
} // namespace cisa
