/**
 * @file
 * Tests of the timing substrate: predictor learning, cache
 * geometry/LRU behaviour, config enumeration, and engine sanity
 * properties (IPC bounds, out-of-order > in-order, wider > narrower,
 * memory-bound workloads punished by small caches, branchy workloads
 * punished by misprediction, uop-cache benefit on CISC code).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "uarch/batch.hh"
#include "uarch/bpred.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/engine.hh"
#include "uarch/replay.hh"
#include "uarch/uopcache.hh"
#include "workloads/profiles.hh"
#include "workloads/synth.hh"

namespace cisa
{
namespace
{

Trace
phaseTrace(PhaseProfile p, const FeatureSet &fs)
{
    p.targetDynOps = 30000;
    p.outerTrip = 3;
    IrModule m = buildPhase(p);
    CompileOptions opts;
    opts.target = fs;
    IrModule ir;
    MachineProgram prog = compile(m, opts, nullptr, &ir);
    MemImage img = MemImage::build(ir, fs.widthBits());
    Trace tr;
    executeMachine(prog, img, 1ULL << 30, &tr);
    return tr;
}

Trace
traceFor(const char *bench, const FeatureSet &fs, int phase = 0)
{
    int bi = benchIndex(bench);
    return phaseTrace(specSuite()[size_t(bi)].phases[size_t(phase)],
                      fs);
}

PerfResult
runOn(const Trace &tr, const MicroArchConfig &ua,
      const FeatureSet &fs)
{
    CoreConfig cc{fs, ua};
    return simulateCore(cc, tr, 12000, 3000);
}

MicroArchConfig
bigOoo()
{
    MicroArchConfig c;
    c.outOfOrder = true;
    c.width = 4;
    c.intAlus = 6;
    c.intMuls = 2;
    c.fpAlus = 4;
    c.iqSize = 64;
    c.robSize = 128;
    c.intPrf = 192;
    c.fpPrf = 160;
    c.lsqSize = 32;
    c.l1iKB = 64;
    c.l1dKB = 64;
    c.l2KB = 8192;
    c.l2Assoc = 8;
    return c;
}

MicroArchConfig
smallIo()
{
    MicroArchConfig c;
    c.outOfOrder = false;
    c.width = 1;
    c.intAlus = 1;
    c.intMuls = 1;
    c.fpAlus = 1;
    c.iqSize = 32;
    c.robSize = 64;
    c.intPrf = 64;
    c.fpPrf = 16;
    c.lsqSize = 16;
    c.simpleDecoders = 1;
    return c;
}

TEST(Bpred, LearnsPeriodicPattern)
{
    for (BpKind k : {BpKind::Local2Level, BpKind::Gshare,
                     BpKind::Tournament}) {
        auto bp = BranchPredictor::create(k);
        int wrong = 0;
        for (int i = 0; i < 4000; i++) {
            bool taken = (i % 8) != 0; // loop-like pattern
            bool pred = bp->predict(0x4000);
            bp->update(0x4000, taken);
            if (i > 1000 && pred != taken)
                wrong++;
        }
        EXPECT_LT(wrong, 120) << bpName(k);
    }
}

TEST(Bpred, RandomIsHard)
{
    Pcg32 rng(1, 2);
    auto bp = BranchPredictor::create(BpKind::Tournament);
    int wrong = 0;
    int n = 8000;
    for (int i = 0; i < n; i++) {
        bool taken = rng.chance(0.5);
        bool pred = bp->predict(0x4000 + (i % 16) * 8);
        bp->update(0x4000 + (i % 16) * 8, taken);
        wrong += pred != taken;
    }
    EXPECT_GT(wrong, n / 4); // near-chance accuracy
}

TEST(Bpred, TournamentBeatsComponentsOnMix)
{
    // Half the branches periodic (local-friendly), half correlated
    // with global history (gshare-friendly).
    auto run = [&](BpKind k) {
        auto bp = BranchPredictor::create(k);
        Pcg32 rng(7, 3);
        int wrong = 0;
        bool last = false;
        for (int i = 0; i < 20000; i++) {
            uint64_t pc = (i % 2) ? 0x1000 : 0x2000;
            bool taken = (i % 2) ? ((i / 2) % 4) != 0 : !last;
            bool pred = bp->predict(pc);
            bp->update(pc, taken);
            if (i > 4000 && pred != taken)
                wrong++;
            if (i % 2 == 0)
                last = taken;
        }
        return wrong;
    };
    int tournament = run(BpKind::Tournament);
    EXPECT_LE(tournament, run(BpKind::Local2Level) + 200);
    EXPECT_LE(tournament, run(BpKind::Gshare) + 200);
}

TEST(Cache, GeometryAndLru)
{
    Cache c(4, 2); // 4 KB, 2-way, 64B lines: 32 sets
    EXPECT_FALSE(c.access(0, false));
    EXPECT_TRUE(c.access(0, false));
    // Two more lines mapping to set 0: 64*32 apart.
    EXPECT_FALSE(c.access(64 * 32, false));
    EXPECT_TRUE(c.access(0, false));        // still resident
    EXPECT_FALSE(c.access(2 * 64 * 32, false)); // evicts LRU (set0#2)
    EXPECT_TRUE(c.access(0, false));        // MRU survived
    EXPECT_FALSE(c.access(64 * 32, false)); // the LRU one was evicted
    EXPECT_EQ(c.stats().accesses, 7u);
}

TEST(Cache, WritebackCounted)
{
    Cache c(4, 1);
    c.access(0, true);            // dirty
    c.access(64 * 64, false);     // same set, evicts dirty line
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, ShareShrinksCapacity)
{
    // A working set that fits in the full cache but not a quarter.
    auto misses = [&](double share) {
        Cache c(256, 4, share);
        uint64_t lines = 256 * 1024 / 64 / 2; // half capacity
        for (int pass = 0; pass < 4; pass++) {
            for (uint64_t i = 0; i < lines; i++)
                c.access(i * 64, false);
        }
        return c.stats().misses;
    };
    EXPECT_LT(misses(1.0), misses(0.25) / 2);
}

TEST(UopCacheModel, HitsOnRepeats)
{
    UopCache uc;
    for (int i = 0; i < 100; i++)
        uc.fill(0x400000 + uint64_t(i) * 32);
    uint64_t before = uc.hits();
    for (int i = 0; i < 8; i++)
        EXPECT_TRUE(uc.lookup(0x400000 + uint64_t(i % 4) * 32));
    EXPECT_EQ(uc.hits() - before, 8u);
}

TEST(UConfig, ExactlyPaperSize)
{
    EXPECT_EQ(MicroArchConfig::enumerate().size(), 180u);
    // 180 microarch x 26 ISAs = the paper's 4680 design points.
    EXPECT_EQ(int(MicroArchConfig::enumerate().size()) *
                  FeatureSet::count(),
              4680);
}

TEST(UConfig, IdRoundTrip)
{
    for (int i = 0; i < 180; i += 17) {
        MicroArchConfig c = MicroArchConfig::byId(i);
        EXPECT_EQ(c.id(), i);
    }
}

TEST(UConfig, PruningRules)
{
    for (const auto &c : MicroArchConfig::enumerate()) {
        if (c.width == 4) {
            EXPECT_GE(c.intAlus, 6); // no starved wide cores
        }
        if (c.width == 1) {
            EXPECT_EQ(c.lsqSize, 16);
        }
        if (!c.outOfOrder) {
            EXPECT_EQ(c.intPrf, 64); // architectural file only
            EXPECT_EQ(c.fpPrf, 16);
        }
        EXPECT_EQ(c.uopCache, c.uopFusion);
    }
}

TEST(Engine, IpcWithinPhysicalBounds)
{
    Trace tr = traceFor("hmmer", FeatureSet::x86_64());
    for (int id : {0, 45, 90, 135, 179}) {
        MicroArchConfig ua = MicroArchConfig::byId(id);
        PerfResult r = runOn(tr, ua, FeatureSet::x86_64());
        EXPECT_GT(r.ipc, 0.05) << ua.name();
        EXPECT_LE(r.upc, double(ua.width) + 0.01) << ua.name();
        EXPECT_GT(r.cycles, 0u);
    }
}

TEST(Engine, OutOfOrderBeatsInOrder)
{
    Trace tr = traceFor("mcf", FeatureSet::x86_64());
    MicroArchConfig ooo = bigOoo();
    MicroArchConfig io = ooo;
    io.outOfOrder = false;
    io.intPrf = 64;
    io.fpPrf = 16;
    PerfResult r_ooo = runOn(tr, ooo, FeatureSet::x86_64());
    PerfResult r_io = runOn(tr, io, FeatureSet::x86_64());
    EXPECT_GT(r_ooo.ipc, r_io.ipc * 1.1);
}

TEST(Engine, WidthHelpsComputeBoundCode)
{
    Trace tr = traceFor("hmmer", FeatureSet::x86_64());
    MicroArchConfig wide = bigOoo();
    MicroArchConfig narrow = wide;
    narrow.width = 1;
    narrow.intAlus = 1;
    narrow.fpAlus = 1;
    narrow.simpleDecoders = 1;
    PerfResult rw = runOn(tr, wide, FeatureSet::x86_64());
    PerfResult rn = runOn(tr, narrow, FeatureSet::x86_64());
    EXPECT_GT(rw.ipc, rn.ipc * 1.3);
}

TEST(Engine, CacheSizeMattersForBigFootprints)
{
    Trace tr = traceFor("lbm", FeatureSet::x86_64());
    MicroArchConfig big = bigOoo();
    MicroArchConfig small = big;
    small.l1dKB = 32;
    small.l2KB = 4096;
    small.l2Assoc = 4;
    PerfResult rb = runOn(tr, big, FeatureSet::x86_64());
    PerfResult rs = runOn(tr, small, FeatureSet::x86_64());
    EXPECT_GE(rb.ipc, rs.ipc * 0.99);
    EXPECT_GT(rs.stats.l2Misses + rs.stats.l1dMisses, 0u);
}

TEST(Engine, PointerChaseIsMemoryBound)
{
    Trace tr = traceFor("mcf", FeatureSet::x86_64());
    PerfResult r = runOn(tr, bigOoo(), FeatureSet::x86_64());
    Trace tc = traceFor("hmmer", FeatureSet::x86_64());
    PerfResult rc = runOn(tc, bigOoo(), FeatureSet::x86_64());
    // hmmer (compute bound) runs at much higher IPC than mcf.
    EXPECT_GT(rc.ipc, r.ipc * 1.2);
}

TEST(Engine, BranchyCodeMispredicts)
{
    Trace ts = traceFor("sjeng", FeatureSet::x86_64());
    PerfResult rs = runOn(ts, bigOoo(), FeatureSet::x86_64());
    Trace th = traceFor("hmmer", FeatureSet::x86_64());
    PerfResult rh = runOn(th, bigOoo(), FeatureSet::x86_64());
    EXPECT_GT(rs.stats.mispredictRate(),
              rh.stats.mispredictRate() * 2);
}

TEST(Engine, UopCacheHelpsCiscFrontend)
{
    Trace tr = traceFor("hmmer", FeatureSet::x86_64());
    MicroArchConfig with = bigOoo();
    MicroArchConfig without = with;
    without.uopCache = false;
    without.uopFusion = false;
    PerfResult rw = runOn(tr, with, FeatureSet::x86_64());
    PerfResult ro = runOn(tr, without, FeatureSet::x86_64());
    EXPECT_GE(rw.ipc, ro.ipc);
    EXPECT_GT(rw.stats.uopCacheHits, 0u);
    EXPECT_EQ(ro.stats.uopCacheLookups, 0u);
}

TEST(Engine, SharedL2ContentionHurts)
{
    Trace tr = traceFor("lbm", FeatureSet::x86_64());
    CoreConfig cc{FeatureSet::x86_64(), bigOoo()};
    RunEnv alone;
    RunEnv shared;
    shared.l2Share = 0.25;
    shared.memContention = 1.3;
    PerfResult ra = simulateCore(cc, tr, 12000, 3000, alone);
    PerfResult rs = simulateCore(cc, tr, 12000, 3000, shared);
    EXPECT_GE(ra.ipc, rs.ipc);
}

TEST(Engine, DeterministicAcrossRuns)
{
    Trace tr = traceFor("astar", FeatureSet::x86_64());
    PerfResult a = runOn(tr, bigOoo(), FeatureSet::x86_64());
    PerfResult b = runOn(tr, bigOoo(), FeatureSet::x86_64());
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.bpMispredicts, b.stats.bpMispredicts);
}

TEST(Engine, PredicationTradesFetchForBranches)
{
    FeatureSet part = FeatureSet::make(Complexity::X86, 32,
                                       RegWidth::W64,
                                       Predication::Partial);
    FeatureSet full = FeatureSet::make(Complexity::X86, 32,
                                       RegWidth::W64,
                                       Predication::Full);
    Trace tp = traceFor("sjeng", part);
    Trace tf = traceFor("sjeng", full);
    PerfResult rp = runOn(tp, bigOoo(), part);
    PerfResult rf = runOn(tf, bigOoo(), full);
    // Full predication removes hard-to-predict branches.
    EXPECT_LT(rf.stats.mispredictRate() * 1.2,
              rp.stats.mispredictRate());
    EXPECT_GT(rf.stats.predFalseUops, 0u);
}


TEST(Engine, StoreForwardingFiresOnSpillTraffic)
{
    // hmmer at depth 16 spills; reloads hit the store buffer.
    FeatureSet fs = FeatureSet::parse("x86-16D-64W-P");
    Trace tr = traceFor("hmmer", fs);
    PerfResult r = runOn(tr, bigOoo(), fs);
    EXPECT_GT(r.stats.sbForwards, 0u);
    // Forwarded loads skip the D-cache: lsqOps exceed cache ops.
    EXPECT_GT(r.stats.lsqOps, r.stats.l1dAccesses);
}

TEST(Engine, PrefetcherHelpsStreaming)
{
    // lbm streams; the next-line prefetcher must be active and the
    // memory system must report prefetch traffic indirectly through
    // additional L2 accesses relative to demand misses.
    Trace tr = traceFor("lbm", FeatureSet::x86_64());
    PerfResult r = runOn(tr, bigOoo(), FeatureSet::x86_64());
    EXPECT_GT(r.stats.l2Accesses, r.stats.l1dMisses);
}

TEST(Engine, BtbWarmsUp)
{
    Trace tr = traceFor("sjeng", FeatureSet::x86_64());
    PerfResult r = runOn(tr, bigOoo(), FeatureSet::x86_64());
    // Taken branches exist; BTB misses are rare once warm.
    uint64_t taken_est = r.stats.bpLookups / 2;
    EXPECT_LT(r.stats.btbMisses, taken_est / 4 + 100);
}

TEST(Engine, CallsUseReturnStack)
{
    // gobmk calls leaf functions; after warmup the RAS predicts all
    // returns, so BTB misses stay low despite frequent call/ret.
    Trace tr = traceFor("gobmk", FeatureSet::x86_64());
    PerfResult a = runOn(tr, bigOoo(), FeatureSet::x86_64());
    EXPECT_LT(double(a.stats.btbMisses),
              0.05 * double(a.stats.macroOps));
}

bool
sameResult(const PerfResult &a, const PerfResult &b)
{
    static_assert(std::is_trivially_copyable_v<PerfStats>);
    return std::memcmp(&a.stats, &b.stats, sizeof(PerfStats)) == 0 &&
           a.cycles == b.cycles && a.ipc == b.ipc && a.upc == b.upc;
}

TEST(Replay, MemoizedStreamsMatchLiveBitForBit)
{
    // The acceptance property of the decoupled replay engine: for
    // any (config, environment, budget), replaying the packed trace
    // against the memoized structural stream reproduces the live
    // engine's PerfResult exactly — including repeated-call
    // determinism of the replay path itself.
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("sjeng", fs);
    const uint64_t timed = 9000, warm = 2000;
    ReplayTrace rt = ReplayTrace::build(tr, timed + warm);

    MicroArchConfig gshareSmall = smallIo();
    gshareSmall.bpred = BpKind::Gshare;
    MicroArchConfig noUc = bigOoo();
    noUc.uopCache = false;
    noUc.uopFusion = false;
    MicroArchConfig localBig = bigOoo();
    localBig.bpred = BpKind::Local2Level;

    RunEnv solo;
    RunEnv contended{0.25, 1.30};
    for (const MicroArchConfig &ua :
         {bigOoo(), smallIo(), gshareSmall, noUc, localBig}) {
        for (const RunEnv &env : {solo, contended}) {
            CoreConfig cc{fs, ua};
            PerfResult live = simulateCore(cc, tr, timed, warm, env);
            StructuralStream ss =
                buildStructuralStream(cc, env, tr, rt, timed, warm);
            EXPECT_EQ(ss.key, structuralFingerprint(ua, env));
            PerfResult rep =
                simulateCoreReplay(cc, rt, ss, timed, warm, env);
            EXPECT_TRUE(sameResult(live, rep)) << ua.name();
            PerfResult rep2 =
                simulateCoreReplay(cc, rt, ss, timed, warm, env);
            EXPECT_TRUE(sameResult(rep, rep2)) << ua.name();
        }
    }
}

TEST(Replay, MatchesLiveWithoutWarmup)
{
    // warmup = 0 exercises the no-snapshot path (MemSnap::warm stays
    // zeroed and must never be consumed).
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("mcf", fs);
    CoreConfig cc{fs, bigOoo()};
    ReplayTrace rt = ReplayTrace::build(tr, 8000);
    StructuralStream ss =
        buildStructuralStream(cc, {}, tr, rt, 8000, 0);
    PerfResult live = simulateCore(cc, tr, 8000, 0);
    PerfResult rep = simulateCoreReplay(cc, rt, ss, 8000, 0);
    EXPECT_TRUE(sameResult(live, rep));
}

TEST(Replay, StreamSharedAcrossTimingConfigs)
{
    // The point of the memo: every timing-side parameter can change
    // without invalidating the structural stream. One stream, built
    // once, must serve both the widest out-of-order config and a
    // minimal in-order one that share the structural slice.
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("astar", fs);
    const uint64_t timed = 6000, warm = 1500;
    ReplayTrace rt = ReplayTrace::build(tr, timed + warm);

    MicroArchConfig wide = bigOoo();
    MicroArchConfig tiny = smallIo();
    // Align the structural slice (caches + bpred); everything else
    // stays maximally different.
    tiny.bpred = wide.bpred;
    tiny.l1iKB = wide.l1iKB;
    tiny.l1dKB = wide.l1dKB;
    tiny.l2KB = wide.l2KB;
    tiny.l2Assoc = wide.l2Assoc;
    ASSERT_EQ(structuralFingerprint(wide, {}),
              structuralFingerprint(tiny, {}));

    StructuralStream ss = buildStructuralStream(
        CoreConfig{fs, wide}, {}, tr, rt, timed, warm);
    for (const MicroArchConfig &ua : {wide, tiny}) {
        CoreConfig cc{fs, ua};
        PerfResult live = simulateCore(cc, tr, timed, warm);
        PerfResult rep =
            simulateCoreReplay(cc, rt, ss, timed, warm);
        EXPECT_TRUE(sameResult(live, rep)) << ua.name();
    }
}

TEST(Replay, FingerprintCoversEveryStructuralField)
{
    // The memo key must change whenever a field feeding a structural
    // model changes (no aliasing), and must NOT change for
    // timing-only fields (or the memo would stop deduplicating).
    const MicroArchConfig base;
    const RunEnv env;
    uint64_t key = structuralFingerprint(base, env);

    auto perturbed = [&](auto &&set) {
        MicroArchConfig c = base;
        set(c);
        return structuralFingerprint(c, env);
    };

    // Cache-slice fields.
    EXPECT_NE(key, perturbed([](auto &c) { c.l1iKB *= 2; }));
    EXPECT_NE(key, perturbed([](auto &c) { c.l1iAssoc *= 2; }));
    EXPECT_NE(key, perturbed([](auto &c) { c.l1dKB *= 2; }));
    EXPECT_NE(key, perturbed([](auto &c) { c.l1dAssoc *= 2; }));
    EXPECT_NE(key, perturbed([](auto &c) { c.l2KB *= 2; }));
    EXPECT_NE(key, perturbed([](auto &c) { c.l2Assoc *= 2; }));
    // Environment fields (scale L2 sets and memory latency).
    EXPECT_NE(key, structuralFingerprint(base, RunEnv{0.25, 1.0}));
    EXPECT_NE(key, structuralFingerprint(base, RunEnv{1.0, 1.30}));
    // Predictor kind.
    EXPECT_NE(key,
              perturbed([](auto &c) { c.bpred = BpKind::Gshare; }));

    // Timing-only fields must leave the key unchanged.
    EXPECT_EQ(key, perturbed([](auto &c) { c.outOfOrder = false; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.width = 4; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.intAlus = 6; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.intMuls = 2; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.fpAlus = 4; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.iqSize = 128; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.robSize = 256; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.intPrf = 256; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.fpPrf = 256; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.lsqSize = 64; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.simpleDecoders = 4; }));
    // The uop cache's hit stream is config-independent (fixed
    // geometry); the enable bit is a timing-side gate.
    EXPECT_EQ(key, perturbed([](auto &c) { c.uopCache = false; }));
    EXPECT_EQ(key, perturbed([](auto &c) { c.uopFusion = false; }));

    // Individual slices react only to their own fields.
    MicroArchConfig c = base;
    c.bpred = BpKind::Local2Level;
    EXPECT_EQ(cacheSliceFingerprint(base, env),
              cacheSliceFingerprint(c, env));
    EXPECT_NE(bpredSliceFingerprint(base), bpredSliceFingerprint(c));
    c = base;
    c.l2KB *= 2;
    EXPECT_EQ(bpredSliceFingerprint(base), bpredSliceFingerprint(c));
    EXPECT_NE(cacheSliceFingerprint(base, env),
              cacheSliceFingerprint(c, env));
    EXPECT_EQ(uopCacheSliceFingerprint(base),
              uopCacheSliceFingerprint(c));
}

/** Slice-aligned config family spanning every lockstep-relevant
 * combination: in-order/out-of-order x uop cache x fusion x widths,
 * all sharing bigOoo's structural slice. */
std::vector<MicroArchConfig>
sliceFamily()
{
    MicroArchConfig base = bigOoo();
    auto aligned = [&](MicroArchConfig c) {
        c.bpred = base.bpred;
        c.l1iKB = base.l1iKB;
        c.l1iAssoc = base.l1iAssoc;
        c.l1dKB = base.l1dKB;
        c.l1dAssoc = base.l1dAssoc;
        c.l2KB = base.l2KB;
        c.l2Assoc = base.l2Assoc;
        return c;
    };
    MicroArchConfig noUc = base;
    noUc.uopCache = false;
    noUc.uopFusion = false;
    MicroArchConfig narrow = base;
    narrow.width = 1;
    narrow.intAlus = 1;
    narrow.robSize = 64;
    narrow.iqSize = 16;
    narrow.lsqSize = 8;
    MicroArchConfig io = aligned(smallIo());
    MicroArchConfig ioUc = io;
    ioUc.width = 2;
    ioUc.uopCache = true;
    ioUc.uopFusion = true;
    MicroArchConfig ioNoUc = io;
    ioNoUc.uopCache = false;
    ioNoUc.uopFusion = false;
    return {base, noUc, narrow, io, ioUc, ioNoUc};
}

TEST(Batch, LockstepMatchesPerCellBitForBit)
{
    // The acceptance property of the batched engine: one lockstep
    // walk over a mixed group (in-order and out-of-order cells, uop
    // cache and fusion on/off, different widths and windows) must
    // reproduce the per-cell replay engine — and thus the live
    // engine — byte for byte, in both run environments.
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("sjeng", fs);
    const uint64_t timed = 9000, warm = 2000;
    ReplayTrace rt = ReplayTrace::build(tr, timed + warm);

    std::vector<MicroArchConfig> family = sliceFamily();
    std::vector<CoreConfig> cells;
    for (const MicroArchConfig &ua : family)
        cells.push_back({fs, ua});
    for (size_t i = 1; i < family.size(); i++) {
        ASSERT_EQ(structuralFingerprint(family[0], {}),
                  structuralFingerprint(family[i], {}));
    }

    for (const RunEnv &env : {RunEnv{}, RunEnv{0.25, 1.30}}) {
        StructuralStream ss = buildStructuralStream(
            cells[0], env, tr, rt, timed, warm);
        std::vector<PerfResult> batch = simulateCoreBatch(
            cells.data(), cells.size(), rt, ss, timed, warm, env);
        ASSERT_EQ(batch.size(), cells.size());
        for (size_t i = 0; i < cells.size(); i++) {
            PerfResult rep = simulateCoreReplay(cells[i], rt, ss,
                                                timed, warm, env);
            EXPECT_TRUE(sameResult(batch[i], rep))
                << family[i].name();
            PerfResult live =
                simulateCore(cells[i], tr, timed, warm, env);
            EXPECT_TRUE(sameResult(batch[i], live))
                << family[i].name();
        }
    }
}

TEST(Batch, MatchesPerCellWithoutWarmup)
{
    // warmup = 0 exercises the zero-snapshot baseline (no combo-lane
    // or cycle snapshot is ever taken).
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("mcf", fs);
    ReplayTrace rt = ReplayTrace::build(tr, 8000);
    std::vector<MicroArchConfig> family = sliceFamily();
    std::vector<CoreConfig> cells;
    for (const MicroArchConfig &ua : family)
        cells.push_back({fs, ua});
    StructuralStream ss =
        buildStructuralStream(cells[0], {}, tr, rt, 8000, 0);
    std::vector<PerfResult> batch = simulateCoreBatch(
        cells.data(), cells.size(), rt, ss, 8000, 0);
    for (size_t i = 0; i < cells.size(); i++) {
        PerfResult rep =
            simulateCoreReplay(cells[i], rt, ss, 8000, 0);
        EXPECT_TRUE(sameResult(batch[i], rep)) << family[i].name();
    }
}

TEST(Batch, CellOrderIsIrrelevant)
{
    // Cells only share read-only inputs, so permuting the group (and
    // splitting it down to singletons) cannot change any cell's
    // result.
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("astar", fs);
    const uint64_t timed = 6000, warm = 1500;
    ReplayTrace rt = ReplayTrace::build(tr, timed + warm);
    std::vector<MicroArchConfig> family = sliceFamily();
    std::vector<CoreConfig> cells;
    for (const MicroArchConfig &ua : family)
        cells.push_back({fs, ua});
    StructuralStream ss = buildStructuralStream(cells[0], {}, tr,
                                                rt, timed, warm);
    std::vector<PerfResult> fwd = simulateCoreBatch(
        cells.data(), cells.size(), rt, ss, timed, warm);

    std::vector<CoreConfig> rev(cells.rbegin(), cells.rend());
    std::vector<PerfResult> bwd = simulateCoreBatch(
        rev.data(), rev.size(), rt, ss, timed, warm);
    for (size_t i = 0; i < cells.size(); i++) {
        EXPECT_TRUE(
            sameResult(fwd[i], bwd[cells.size() - 1 - i]))
            << family[i].name();
        // A one-cell batch, as the campaign walks a one-cell chunk.
        std::vector<PerfResult> one =
            simulateCoreBatch(&cells[i], 1, rt, ss, timed, warm);
        EXPECT_TRUE(sameResult(fwd[i], one[0])) << family[i].name();
    }
}

TEST(UConfig, FingerprintSeparatesL1Associativity)
{
    // l1iAssoc/l1dAssoc feed the cache model, so two configs
    // differing only there must not collide (they would alias in
    // every fingerprint-keyed cache, not just the replay memo).
    MicroArchConfig a;
    MicroArchConfig b = a;
    b.l1iAssoc = a.l1iAssoc * 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b = a;
    b.l1dAssoc = a.l1dAssoc * 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

/** Hand-built single-uop op helpers for store-buffer tests. */
DynOp
mkStore(uint64_t pc, uint64_t addr, uint8_t size)
{
    DynOp op;
    op.pc = pc;
    op.len = 4;
    op.form = MemForm::Store;
    op.cls = MicroClass::Store;
    op.maddr = addr;
    op.msize = size;
    op.src1 = 1;
    return op;
}

DynOp
mkLoad(uint64_t pc, uint64_t addr, uint8_t size)
{
    DynOp op;
    op.pc = pc;
    op.len = 4;
    op.form = MemForm::Load;
    op.cls = MicroClass::Load;
    op.maddr = addr;
    op.msize = size;
    op.dst = 2;
    return op;
}

TEST(Engine, StoreBufferForwardsOnlyCoveringStores)
{
    // A load forwards iff a buffered store fully covers its bytes
    // and the store is at most 16 stores in the past (ring size).
    Trace tr;
    uint64_t pc = 0x1000;
    tr.ops.push_back(mkStore(pc += 4, 0x8000, 8));
    tr.ops.push_back(mkLoad(pc += 4, 0x8000, 8));  // covered: fwd
    tr.ops.push_back(mkLoad(pc += 4, 0x8004, 8));  // straddles: no
    tr.ops.push_back(mkLoad(pc += 4, 0x8004, 4));  // inside: fwd
    // 16 more stores push the 0x8000 entry out of the ring.
    for (int i = 0; i < 16; i++)
        tr.ops.push_back(mkStore(pc += 4, 0x20000 + uint64_t(i) * 64,
                                 8));
    tr.ops.push_back(mkLoad(pc += 4, 0x8000, 8));  // evicted: no
    tr.ops.push_back(mkLoad(pc += 4, 0x20000, 8)); // resident: fwd

    uint64_t total = 0;
    for (const DynOp &op : tr.ops)
        total += op.uops;
    CoreConfig cc{FeatureSet::x86_64(), bigOoo()};
    // One exact lap, no warmup: counters cover each op once.
    PerfResult r = simulateCore(cc, tr, total, 0);
    EXPECT_EQ(r.stats.macroOps, tr.ops.size());
    EXPECT_EQ(r.stats.sbForwards, 3u);
    // Every load and store allocates an LSQ slot; only non-forwarded
    // loads and all stores touch the D-cache.
    EXPECT_EQ(r.stats.lsqOps, 22u);
}

TEST(PerfStats, WarmupWindowDiffInvariants)
{
    // sim(T+W, 0) and sim(T, W) execute the identical step sequence;
    // the second subtracts the warmup prefix. So every counter of
    // the windowed run is bounded by the full run, and the uop gap
    // equals the warmup prefix (to within one op's uops of slack).
    FeatureSet fs = FeatureSet::x86_64();
    Trace tr = traceFor("gobmk", fs);
    CoreConfig cc{fs, bigOoo()};
    const uint64_t timed = 6000, warm = 3000;
    PerfResult full = simulateCore(cc, tr, timed + warm, 0);
    PerfResult tail = simulateCore(cc, tr, timed, warm);

    EXPECT_LE(tail.cycles, full.cycles);
    EXPECT_LE(tail.stats.macroOps, full.stats.macroOps);
    EXPECT_LE(tail.stats.uops, full.stats.uops);
    EXPECT_LE(tail.stats.issuedUops, full.stats.issuedUops);
    EXPECT_LE(tail.stats.l1dAccesses, full.stats.l1dAccesses);
    EXPECT_LE(tail.stats.l2Misses, full.stats.l2Misses);
    EXPECT_LE(tail.stats.bpLookups, full.stats.bpLookups);
    EXPECT_LE(tail.stats.btbMisses, full.stats.btbMisses);
    EXPECT_LE(tail.stats.sbForwards, full.stats.sbForwards);
    EXPECT_LE(tail.stats.regReads, full.stats.regReads);

    uint64_t gap = full.stats.uops - tail.stats.uops;
    EXPECT_GE(gap, warm);
    EXPECT_LT(gap, warm + 300); // one op overshoot at most

    // diff(x, x) must be exactly zero everywhere.
    PerfStats zero = PerfStats::diff(full.stats, full.stats);
    PerfStats fresh{};
    EXPECT_EQ(std::memcmp(&zero, &fresh, sizeof(PerfStats)), 0);
}

/** A random structural slice (cache geometry, predictor) and run
 * environment; randomTiming draws the timing-side fields. */
MicroArchConfig
randomSlice(Pcg32 &rng, RunEnv &env)
{
    auto pick = [&](std::initializer_list<int> v) {
        return v.begin()[rng.below(uint32_t(v.size()))];
    };
    MicroArchConfig c;
    c.bpred = BpKind(rng.below(3));
    c.l1iKB = pick({4, 16, 32, 64});
    c.l1iAssoc = pick({1, 2, 4, 8});
    c.l1dKB = pick({4, 16, 32, 64});
    c.l1dAssoc = pick({1, 2, 4, 8});
    c.l2KB = pick({128, 1024, 4096, 8192});
    c.l2Assoc = pick({1, 2, 4, 8});
    env = RunEnv{pick({4, 2, 1}) / 4.0, pick({10, 13, 25}) / 10.0};
    return c;
}

/** @p slice with every timing-side field drawn at random, off the
 * enumerated grid as often as on it. */
MicroArchConfig
randomTiming(Pcg32 &rng, const MicroArchConfig &slice)
{
    const int max_units = engine_detail::FuPools::kMaxUnits;
    MicroArchConfig c = slice;
    c.outOfOrder = rng.chance(0.5);
    c.width = int(rng.range(1, 8));
    c.robSize = int(rng.range(1, 256));
    c.iqSize = int(rng.range(1, 128));
    c.lsqSize = int(rng.range(1, 64));
    c.intAlus = int(rng.range(1, max_units));
    c.intMuls = int(rng.range(1, max_units));
    c.fpAlus = int(rng.range(1, max_units));
    c.simpleDecoders = int(rng.range(1, 4));
    c.uopCache = rng.chance(0.5);
    c.uopFusion = rng.chance(0.5);
    return c;
}

/**
 * A short random DynOp loop that reaches, in a few hundred ops, the
 * timing rules a compiled phase exercises only now and then:
 * unpipelined divides, cracked multi-uop ops, micro-fusable load-op
 * pairs and read-modify-writes, loads and stores over a small
 * address pool (store-buffer forwarding), far loads (hierarchy
 * misses), flag-writing ALU ops followed by conditional branches
 * (macro fusion), predicated ops, and calls and returns.
 */
Trace
synthTrace(Pcg32 &rng)
{
    static const MicroClass kCls[] = {
        MicroClass::IntAlu, MicroClass::IntAlu, MicroClass::IntMul,
        MicroClass::IntDiv, MicroClass::FpMul,  MicroClass::FpDiv,
        MicroClass::SimdMul};
    auto reg = [&](bool fp) {
        return int16_t(fp ? kXmmBase + int(rng.below(8))
                          : kGprBase + int(rng.below(12)));
    };
    std::vector<uint64_t> blocks = {0x400000};
    uint64_t pc = blocks[0];
    Trace tr;
    auto append = [&](DynOp op, int len) {
        op.pc = pc;
        op.len = uint8_t(len);
        pc = op.target = pc + op.len;
        if (op.taken()) { // continue at a (possibly new) block start
            if (rng.chance(0.3))
                blocks.push_back(pc + 0x1000 * rng.range(1, 64));
            pc = op.target = blocks[rng.below(uint32_t(blocks.size()))];
        }
        tr.ops.push_back(op);
    };

    const size_t n = size_t(rng.range(4, 300));
    while (tr.ops.size() < n) {
        DynOp op;
        op.cls = kCls[rng.below(7)];
        const bool fp = op.cls >= MicroClass::FpAlu;
        op.dst = reg(fp);
        op.src1 = reg(fp);
        if (rng.chance(0.5))
            op.src2 = reg(fp);
        op.readsDst = rng.chance(0.3);
        const uint32_t kind = rng.below(10);
        if (kind < 4) { // register op, sometimes cracked
            op.writesFlags = !fp && rng.chance(0.4);
            if (rng.chance(0.2))
                op.uops = uint8_t(rng.chance(0.9) ? rng.range(2, 6)
                                                  : rng.range(7, 40));
        } else if (kind < 8) { // Load, Store, LoadOp, LoadOpStore
            op.form = MemForm(kind - 3);
            op.uops = op.form == MemForm::LoadOp
                          ? uint8_t(rng.range(2, 3))
                          : op.form == MemForm::LoadOpStore ? 4 : 1;
            op.base = reg(false);
            op.maddr = rng.chance(0.7)
                           ? 0x8000 + 4 * uint64_t(rng.below(12))
                           : 0x1000000 + 64 * uint64_t(rng.below(65536));
            op.msize = uint8_t(1u << rng.below(4));
        } else { // jump, call or return
            op = DynOp{};
            op.cls = MicroClass::Branch;
            op.flags = DynIsBranch | DynTaken;
            if (rng.chance(0.3))
                op.flags |= rng.chance(0.5) ? DynCall : DynRet;
        }
        if (kind < 8 && rng.chance(0.1)) { // predicated, maybe out
            op.pred = reg(false);
            op.flags = DynPredicated;
            if (rng.chance(0.5))
                op.flags |= DynPredFalse;
        }
        append(op, int(rng.range(1, 15)));
        if (isFusableCmp(op) && rng.chance(0.8)) {
            DynOp br;
            br.cls = MicroClass::Branch;
            br.flags = rng.chance(0.6) ? DynIsBranch | DynTaken
                                       : DynIsBranch;
            br.readsFlags = true;
            append(br, int(rng.range(2, 6)));
        }
    }
    return tr;
}

/**
 * The 32-bit stamp proof of simulateCoreBatch, restated: the largest
 * maxDloadExtra at which a walk of @p total uops over @p rt and
 * @p ss may take the vector kernel (one step's stamps grow by at
 * most advance = maxStepLatSum + maxStepLoads * maxDloadExtra +
 * maxIfetchExtra + 32, and the walk needs advance <= 2^20 and
 * 1 + total * advance <= 2^31).
 */
uint64_t
maxSimdDloadExtra(const ReplayTrace &rt, const StructuralStream &ss,
                  uint64_t total)
{
    const uint64_t cap = std::min<uint64_t>(
        uint64_t(1) << 20, ((uint64_t(1) << 31) - 1) / total);
    return (cap - rt.maxStepLatSum - ss.maxIfetchExtra - 32) /
           std::max<uint32_t>(1, rt.maxStepLoads);
}

TEST(Batch, RandomizedKernelsMatchLiveEngine)
{
    // Seeded differential test of the lockstep walk against per-cell
    // replay and the live engine: random slices, random timing-side
    // cells, compiled phases of random (phase, feature set) pairs and
    // synthesized DynOp loops, budgets with and without warm-up.
    // Each case's batch runs as the host runs it (one walk where the
    // vector kernel is eligible, else one per cell) and with
    // CISA_BATCH_SIMD=0 (one per cell).
    const char *knob = getenv("CISA_BATCH_SIMD");
    const std::string saved = knob ? knob : "";
    Pcg32 rng(0x5EED, 22);
    for (int c = 0; c < 60; c++) {
        RunEnv env;
        MicroArchConfig slice = randomSlice(rng, env);
        FeatureSet fs = FeatureSet::byId(
            int(rng.below(uint32_t(FeatureSet::count()))));
        Trace tr = c % 4 ? synthTrace(rng)
                         : phaseTrace(allPhases()[rng.below(
                                          uint32_t(phaseCount()))],
                                      fs);
        const uint64_t timed = uint64_t(rng.range(50, 4000));
        const uint64_t warm =
            rng.chance(0.3) ? 0 : uint64_t(rng.range(1, 2000));
        std::vector<CoreConfig> cells(size_t(rng.range(1, 40)));
        for (CoreConfig &cc : cells)
            cc = {fs, randomTiming(rng, slice)};

        ReplayTrace rt = ReplayTrace::build(tr, timed + warm);
        StructuralStream ss =
            buildStructuralStream(cells[0], env, tr, rt, timed, warm);
        const bool vector = batchSimdAvailable() &&
                            ss.maxDloadExtra <=
                                maxSimdDloadExtra(rt, ss, timed + warm);
        size_t walks = 0, solo_walks = 0;
        std::vector<PerfResult> batch =
            simulateCoreBatch(cells.data(), cells.size(), rt, ss, timed,
                              warm, env, &walks);
        setenv("CISA_BATCH_SIMD", "0", 1);
        std::vector<PerfResult> solo =
            simulateCoreBatch(cells.data(), cells.size(), rt, ss, timed,
                              warm, env, &solo_walks);
        if (knob)
            setenv("CISA_BATCH_SIMD", saved.c_str(), 1);
        else
            unsetenv("CISA_BATCH_SIMD");
        EXPECT_EQ(walks, vector ? 1u : cells.size()) << "case " << c;
        EXPECT_EQ(solo_walks, cells.size()) << "case " << c;

        for (size_t i = 0; i < cells.size(); i++) {
            PerfResult rep =
                simulateCoreReplay(cells[i], rt, ss, timed, warm, env);
            PerfResult live =
                simulateCore(cells[i], tr, timed, warm, env);
            EXPECT_TRUE(sameResult(rep, live) &&
                        sameResult(batch[i], rep) &&
                        sameResult(solo[i], rep))
                << "case " << c << " cell " << i;
        }
    }
}

TEST(Batch, StampBoundGuardsTheVectorKernel)
{
    // Raise every hierarchy load latency of a real stream to D, the
    // largest value the vector kernel's 32-bit stamp bound admits,
    // then to D + 1 and 2D, and compare each walk with per-cell
    // replay (64-bit stamps). Past D the walk must replay cell by
    // cell.
    Pcg32 rng(0xB0DE, 22);
    for (int k = 0; k < 3; k++) {
        const int phase = int(rng.below(uint32_t(phaseCount())));
        RunEnv env;
        MicroArchConfig slice = randomSlice(rng, env);
        FeatureSet fs = FeatureSet::x86_64();
        Trace tr = phaseTrace(allPhases()[size_t(phase)], fs);
        std::vector<CoreConfig> cells(24);
        for (CoreConfig &cc : cells)
            cc = {fs, randomTiming(rng, slice)};
        for (uint64_t timed : {1500, 6000}) {
            const uint64_t warm = timed / 4;
            ReplayTrace rt = ReplayTrace::build(tr, timed + warm);
            StructuralStream ss = buildStructuralStream(
                cells[0], env, tr, rt, timed, warm);
            ASSERT_GT(rt.maxStepLoads, 0u);
            const uint64_t d = maxSimdDloadExtra(rt, ss, timed + warm);
            for (uint64_t lat : {d, d + 1, 2 * d}) {
                StructuralStream slow = ss;
                for (uint32_t &x : slow.dloadExtra)
                    x = uint32_t(lat);
                slow.maxDloadExtra = uint32_t(lat);
                size_t walks = 0;
                std::vector<PerfResult> batch = simulateCoreBatch(
                    cells.data(), cells.size(), rt, slow, timed, warm,
                    env, &walks);
                EXPECT_EQ(walks, lat == d && batchSimdAvailable()
                                     ? 1u
                                     : cells.size())
                    << "phase " << phase << " latency " << lat;
                for (size_t i = 0; i < cells.size(); i++) {
                    EXPECT_TRUE(sameResult(
                        batch[i], simulateCoreReplay(cells[i], rt, slow,
                                                     timed, warm, env)))
                        << "phase " << phase << " timed " << timed
                        << " latency " << lat << " cell " << i;
                }
            }
        }
    }
}

} // namespace
} // namespace cisa
