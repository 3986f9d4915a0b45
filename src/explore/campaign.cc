#include "explore/campaign.hh"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include <cstring>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "migration/translate.hh"
#include "power/energy.hh"
#include "uarch/batch.hh"
#include "uarch/core.hh"
#include "uarch/replay.hh"
#include "workloads/artifact.hh"

namespace cisa
{

namespace
{
// A slab record is the raw f32 image of its PhasePerf block.
static_assert(sizeof(PhasePerf) == 4 * sizeof(float),
              "slab store assumes PhasePerf is exactly four floats");
static_assert(std::is_trivially_copyable_v<PhasePerf>,
              "slab store memcpys PhasePerf blocks");

std::atomic<Campaign *> g_campaign{nullptr};
} // namespace

Campaign &
Campaign::get()
{
    static Campaign c;
    g_campaign.store(&c, std::memory_order_release);
    return c;
}

Campaign *
Campaign::maybeGet()
{
    return g_campaign.load(std::memory_order_acquire);
}

uint64_t
Campaign::budgetKeyFor(uint64_t simUops, uint64_t warmupUops)
{
    uint64_t h = fnv1a("cisa-dse-budget");
    h = hashCombine(h, simUops);
    h = hashCombine(h, warmupUops);
    // Results depend on the compile pipeline as much as on the
    // budget: slabs built by a different mid-end must never alias
    // in the store.
    return hashCombine(h, CompileOptions{}.pipelineKey());
}

Campaign::Campaign()
    : store_(dseCachePath(),
             budgetKeyFor(simUopBudget(), simWarmupUops()),
             uint32_t(phaseCount()),
             uint32_t(DesignPoint::kUarchCount) *
                 uint32_t(phaseCount()) * 4,
             kSlabs, dseCacheReadonly())
{
    size_t n = size_t(DesignPoint::kTotalRows) *
               size_t(phaseCount());
    table_.assign(n, {});
    adoptFromStore(-1);
    int ready = 0;
    for (int s = 0; s < kSlabs; s++)
        ready += slabReady(s);
    if (ready) {
        inform("loaded %d/%d DSE slabs from %s", ready, kSlabs,
               store_.path().c_str());
    }
}

int
Campaign::slabOf(const DesignPoint &dp)
{
    if (dp.vendor == VendorIsa::Composite)
        return dp.isaId;
    return 26 + (dp.row() - DesignPoint::kCompositeRows) /
                    DesignPoint::kUarchCount;
}

bool
Campaign::adoptFromStore(int owned)
{
    std::vector<SlabRec> recs = store_.poll();
    if (recs.empty())
        return false;
    size_t span = size_t(DesignPoint::kUarchCount) *
                  size_t(phaseCount());
    bool got = false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const SlabRec &r : recs) {
        size_t s = size_t(r.slab);
        if (ready_[s].load(std::memory_order_relaxed)) {
            got |= r.slab == owned;
            continue;
        }
        if (computing_[s] && r.slab != owned)
            continue;
        // The static_asserts above make this raw-float fill of
        // PhasePerf well defined; the void * cast tells GCC's
        // -Wclass-memaccess so.
        std::memcpy(static_cast<void *>(table_.data() + s * span),
                    r.vals.data(), span * sizeof(PhasePerf));
        ready_[s].store(true, std::memory_order_release);
        got |= r.slab == owned;
    }
    return got;
}

std::vector<PhasePerf>
Campaign::slabPerf(int slab, const CancelToken *cancel)
{
    ensureSlab(slab, cancel);
    size_t rows = size_t(DesignPoint::kUarchCount);
    size_t base = size_t(slab) * rows * size_t(phaseCount());
    return {table_.begin() + long(base),
            table_.begin() + long(base + rows * size_t(phaseCount()))};
}

const PhasePerf &
Campaign::at(const DesignPoint &dp, int phase)
{
    ensureSlab(slabOf(dp));
    return table_[size_t(dp.row()) * size_t(phaseCount()) +
                  size_t(phase)];
}

void
Campaign::ensureSlab(int slab, const CancelToken *cancel)
{
    panic_if(slab < 0 || slab >= kSlabs, "bad slab %d", slab);
    // Lock-free fast path: the release-store below pairs with this
    // acquire, so a ready slab's cells are safe to read unlocked.
    if (ready_[size_t(slab)].load(std::memory_order_acquire))
        return;

    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        if (ready_[size_t(slab)].load(std::memory_order_relaxed))
            return;
        if (!computing_[size_t(slab)])
            break;
        // Another thread is on it; wait rather than recompute. A
        // cancelled waiter gives up without disturbing that run.
        if (cancel) {
            checkCancel(cancel);
            cv_.wait_for(lk, std::chrono::milliseconds(20));
        } else {
            cv_.wait(lk);
        }
    }
    computing_[size_t(slab)] = true;
    lk.unlock();

    // Reload-before-compute: a peer process sharing this store may
    // have published the slab (or others) since our last look —
    // adopt instead of recomputing (cross-process coalescing).
    if (adoptFromStore(slab)) {
        lk.lock();
        computing_[size_t(slab)] = false;
        lk.unlock();
        cv_.notify_all();
        return;
    }

    std::vector<PhasePerf> cells;
    EngineHealth eh;
    try {
        cells = computeSlabPerf(slab, cancel, &eh);
    } catch (...) {
        lk.lock();
        computing_[size_t(slab)] = false;
        cv_.notify_all();
        throw;
    }
    cellsBatched_.fetch_add(eh.cellsBatched,
                            std::memory_order_relaxed);
    cellsPerCell_.fetch_add(eh.cellsPerCell,
                            std::memory_order_relaxed);
    walksDone_.fetch_add(eh.walksDone, std::memory_order_relaxed);
    walksSaved_.fetch_add(eh.walksSaved, std::memory_order_relaxed);

    lk.lock();
    size_t base = size_t(slab) *
                  size_t(DesignPoint::kUarchCount) *
                  size_t(phaseCount());
    std::copy(cells.begin(), cells.end(),
              table_.begin() + long(base));
    computing_[size_t(slab)] = false;
    ready_[size_t(slab)].store(true, std::memory_order_release);
    lk.unlock();
    cv_.notify_all();

    // Persist outside the critical section: disk I/O (exclusive
    // flock + fsync) must not block waiters on other slabs. The
    // `cells` snapshot is this thread's own; the append is a single
    // framed record, so a crash mid-write at worst leaves a torn
    // tail the next load salvages around.
    store_.append(slab,
                  reinterpret_cast<const float *>(cells.data()),
                  cells.size() * 4);
}

PhasePerf
foldPhasePerf(const DesignPoint &dp, uint64_t runOps,
              const PerfResult &solo, const PerfResult &contended)
{
    CoreConfig cc = dp.coreConfig();
    VendorModel vm = dp.vendorModel();
    const VendorModel *vendor =
        dp.vendor == VendorIsa::Composite ? nullptr : &vm;
    auto perRun = [&](const PerfResult &r, float *time,
                      float *energy) {
        double scale = double(runOps) / double(r.stats.macroOps);
        *time = float(secondsOf(r.cycles) * scale);
        *energy =
            float(coreEnergy(cc, r.stats, vendor).total() * scale);
    };
    PhasePerf out;
    perRun(solo, &out.timePerRun, &out.energyPerRun);
    perRun(contended, &out.timePerRunMp, &out.energyPerRunMp);
    return out;
}

std::vector<PhasePerf>
computeSlabPerf(int slab, const CancelToken *cancel,
                EngineHealth *health)
{
    checkCancel(cancel);
    auto pointOf = [slab](int u) {
        return DesignPoint::fromRow(slab * DesignPoint::kUarchCount +
                                    u);
    };
    const FeatureSet fs = pointOf(0).isa();
    const VendorModel vm = pointOf(0).vendorModel();
    inform("campaign: computing slab %d (%s) ...", slab,
           vm.name().c_str());

    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();
    size_t phases = size_t(phaseCount());

    // Structural-slice dedup: one memoized stream per distinct
    // (cache slice + environment + predictor) fingerprint instead of
    // one per cell. The 180-config space collapses onto a handful of
    // structural slices (2 cache geometries x 3 predictors x 2
    // environments), so almost all per-cell cache/predictor work is
    // amortized away. Pure config arithmetic, so it runs before any
    // trace exists.
    uint64_t max_steps = warm + timed;
    struct StreamSlice
    {
        MicroArchConfig uarch;
        RunEnv env;
        int envIdx; ///< 0 = solo, 1 = contended
        uint64_t key;
    };
    std::vector<StreamSlice> slices;
    // slice index per (uarch id, env): env 0 = solo, 1 = contended.
    std::vector<std::array<int, 2>> sliceOf(
        size_t(DesignPoint::kUarchCount));
    const RunEnv envs[2] = {RunEnv{}, kContendedEnv};
    for (int u = 0; u < DesignPoint::kUarchCount; u++) {
        MicroArchConfig ua = MicroArchConfig::byId(u);
        for (int e = 0; e < 2; e++) {
            uint64_t key = structuralFingerprint(ua, envs[e]);
            int si = -1;
            for (size_t k = 0; k < slices.size(); k++) {
                if (slices[k].key == key) {
                    si = int(k);
                    break;
                }
            }
            if (si < 0) {
                si = int(slices.size());
                slices.push_back({ua, envs[e], e, key});
            }
            sliceOf[size_t(u)][size_t(e)] = si;
        }
    }

    // Stage 1: compile and functionally execute each phase exactly
    // once (buildPhaseArtifact, uncached: nothing outlives the slab
    // but the trace); the trace is shared read-only by every
    // simulation below. It stores only the stage1RecordCap prefix a
    // cell can read while trace.dyn covers the whole run, whose
    // macro-op count scales a simulated window to one run. Vendor
    // slabs rescale the stored ops' pcs and lengths
    // (vendorAdjustTrace), which leaves that count alone.
    //
    // As soon as a phase's trace lands, this task packs it and fans
    // its stream builds out onto a TaskGroup, so stream construction
    // for early phases overlaps compilation of late ones instead of
    // waiting at a serial barrier. Declaration order matters:
    // traces/packed/streams precede the group, so an unwinding
    // exception drains the in-flight builds before their inputs and
    // outputs die.
    CompileOptions opts;
    opts.target = fs;
    uint64_t record_cap = stage1RecordCap(timed);
    std::vector<Trace> traces(phases);
    std::vector<ReplayTrace> packed(phases);
    std::vector<std::vector<StructuralStream>> streams(
        phases, std::vector<StructuralStream>(slices.size()));
    TaskGroup streamTasks;
    parallelFor(phases, [&](uint64_t p) {
        checkCancel(cancel);
        Trace trace =
            buildPhaseArtifact(int(p), opts, record_cap).trace;
        if (vm.codeSizeFactor != 1.0)
            trace = vendorAdjustTrace(trace, vm.codeSizeFactor);
        traces[p] = std::move(trace);
        packed[p] = ReplayTrace::build(traces[p], max_steps);
        for (size_t si = 0; si < slices.size(); si++) {
            streamTasks.run([&, p, si] {
                checkCancel(cancel);
                CoreConfig scc{fs, slices[si].uarch};
                streams[p][si] = buildStructuralStream(
                    scc, slices[si].env, traces[p], packed[p],
                    timed, warm);
            });
        }
    });
    streamTasks.wait();

    // Stage 2: group cells by structural slice. Every member consumes
    // the identical stream, so one lockstep walk advances them all
    // (src/uarch/batch.hh). Tasks are (phase, slice, chunk);
    // CISA_BATCH_WIDTH caps a chunk so one giant group cannot
    // serialize the pool. Counters are advisory (relaxed): each
    // output slot is still written by exactly one task.
    std::vector<std::vector<int>> members(slices.size());
    for (int u = 0; u < DesignPoint::kUarchCount; u++)
        for (int e = 0; e < 2; e++)
            members[size_t(sliceOf[size_t(u)][size_t(e)])].push_back(u);
    struct BatchTask
    {
        int ph, si;
        size_t begin, end; ///< range within members[si]
    };
    size_t bw = size_t(batchWidth());
    std::vector<BatchTask> tasks;
    for (int ph = 0; ph < int(phases); ph++) {
        for (size_t si = 0; si < slices.size(); si++) {
            for (size_t b = 0; b < members[si].size(); b += bw) {
                tasks.push_back({ph, int(si), b,
                                 std::min(members[si].size(), b + bw)});
            }
        }
    }

    // Intermediate per-sim results, indexed (u*phases+ph)*2+env; the
    // fold below turns them into PhasePerf so cells[] keeps its
    // one-writer rule.
    std::atomic<uint64_t> nBatched{0}, nPerCell{0}, nWalks{0},
        nSaved{0};
    std::vector<PerfResult> sims(size_t(DesignPoint::kUarchCount) *
                                 phases * 2);
    parallelFor(tasks.size(), [&](uint64_t t) {
        checkCancel(cancel);
        const BatchTask &bt = tasks[t];
        const StreamSlice &sl = slices[size_t(bt.si)];
        const std::vector<int> &mem = members[size_t(bt.si)];
        size_t g = bt.end - bt.begin;
        const ReplayTrace &pk = packed[size_t(bt.ph)];
        const StructuralStream &ss =
            streams[size_t(bt.ph)][size_t(bt.si)];
        std::vector<CoreConfig> ccs;
        ccs.reserve(g);
        for (size_t i = bt.begin; i < bt.end; i++)
            ccs.push_back(pointOf(mem[i]).coreConfig());
        auto slot = [&](size_t i) {
            return (size_t(mem[i]) * phases + size_t(bt.ph)) * 2 +
                   size_t(sl.envIdx);
        };
        size_t walks = 0;
        std::vector<PerfResult> rs = simulateCoreBatch(
            ccs.data(), g, pk, ss, timed, warm, sl.env, &walks);
        for (size_t i = 0; i < g; i++)
            sims[slot(bt.begin + i)] = rs[i];
        (walks < g ? nBatched : nPerCell)
            .fetch_add(g, std::memory_order_relaxed);
        nWalks.fetch_add(walks, std::memory_order_relaxed);
        nSaved.fetch_add(g - walks, std::memory_order_relaxed);
    });

    std::vector<PhasePerf> cells(size_t(DesignPoint::kUarchCount) *
                                 phases);
    parallelFor(cells.size(), [&](uint64_t k) {
        checkCancel(cancel);
        cells[k] = foldPhasePerf(pointOf(int(k / phases)),
                                 traces[k % phases].dyn.macroOps,
                                 sims[k * 2 + 0], sims[k * 2 + 1]);
    });

    if (health) {
        health->cellsBatched +=
            nBatched.load(std::memory_order_relaxed);
        health->cellsPerCell +=
            nPerCell.load(std::memory_order_relaxed);
        health->walksDone += nWalks.load(std::memory_order_relaxed);
        health->walksSaved += nSaved.load(std::memory_order_relaxed);
    }
    return cells;
}

} // namespace cisa
