/**
 * @file
 * The evaluation campaign: per-(design point, phase) performance and
 * energy, the data every search and figure draws from. This is the
 * reproduction's stand-in for the paper's 196,560 gem5+McPAT
 * simulations on the XSEDE Comet cluster — compressed onto one
 * machine by the CISA_SIM_UOPS budget knob and a disk cache keyed by
 * that budget (CISA_DSE_CACHE).
 *
 * Each entry holds seconds and joules per *program run* of the
 * phase — one run is identical IR-level work on every ISA, so the
 * numbers are directly comparable across feature sets — in both a
 * solo environment and a 4-way-contended environment (quartered
 * shared-L2 share, inflated DRAM latency).
 */

#ifndef CISA_EXPLORE_CAMPAIGN_HH
#define CISA_EXPLORE_CAMPAIGN_HH

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/cancel.hh"
#include "explore/designpoint.hh"
#include "explore/slabstore.hh"
#include "workloads/profiles.hh"

namespace cisa
{

/** Per-(design point, phase) measurements. */
struct PhasePerf
{
    float timePerRun = 0;    ///< seconds per run, running alone
    float energyPerRun = 0;  ///< joules per run, running alone
    float timePerRunMp = 0;  ///< seconds per run, 4-way contended
    float energyPerRunMp = 0;
};

/**
 * The environment of PhasePerf's contended half: a quartered shared-L2
 * share and 30% DRAM latency inflation (4-way contention).
 */
inline constexpr RunEnv kContendedEnv{0.25, 1.30};

/**
 * Fold one cell's solo and contended simulation windows into
 * PhasePerf: each window's seconds and joules scaled up to one whole
 * run of the phase (@p runOps macro-ops, Trace::dyn.macroOps). Vendor
 * points are charged their vendor-exclusive traits (coreEnergy).
 */
PhasePerf foldPhasePerf(const DesignPoint &dp, uint64_t runOps,
                        const PerfResult &solo,
                        const PerfResult &contended);

/**
 * Counters of the slab kernel: how many cell simulations shared a
 * lockstep walk vs walked alone (a one-cell chunk, or any chunk that
 * simulateCoreBatch replays cell by cell: no AVX-512,
 * CISA_BATCH_SIMD=0, or cycle stamps that may not fit 32 bits), how
 * many trace walks that cost vs saved (walksSaved = sims that
 * shared another sim's walk), and how many sims were not run at all
 * but folded from a PhaseSimMemo entry of an earlier slab's
 * identical program. Every sim of a slab lands in exactly one of
 * cellsBatched/cellsPerCell/simsShared, and in one of
 * walksDone/walksSaved/simsShared. Accumulated per computeSlabPerf
 * call and, campaign-wide, surfaced through Campaign::engineHealth()
 * and the cisa-serve stats endpoint.
 */
struct EngineHealth
{
    uint64_t cellsBatched = 0; ///< sims that shared a lockstep walk
    uint64_t cellsPerCell = 0; ///< cells that walked alone
    uint64_t walksDone = 0;    ///< trace walks actually performed
    uint64_t walksSaved = 0;   ///< walks amortized away by batching
    uint64_t simsShared = 0;   ///< sims folded from a memo entry
};

/** One phase's simulations on every (uarch, environment) cell of a
 * slab — what foldPhasePerf needs besides the design point. */
struct PhaseSims
{
    uint64_t runOps = 0;          ///< macro-ops of one whole run
    std::vector<PerfResult> sims; ///< [uarch * 2 + env], env 1 contended
};

/**
 * Bounded LRU of PhaseSims keyed by a phase's stage-1 key: the digest
 * of its compiled code (codeDigest) and of everything else stage 1
 * and the cycle kernels read (phase, pointer width, ISA complexity,
 * vendor code-size factor, sim budget). Feature sets that differ only
 * in a feature a phase never uses compile it to the same code, so a
 * later slab folds that phase from its twin's entry instead of
 * executing, packing, stream-building and walking it again.
 *
 * kCapacity entries of about 127 KiB each (~32 MiB): the smallest LRU
 * that covers the longest reuse of the 0..28 slab order (slab 26,
 * x86-64, reads slab 20's 49 phases about 200 inserts later).
 * Thread-safe; entries are immutable once inserted, and a lookup
 * hands out shared ownership, so an eviction never frees an entry a
 * slab is folding from.
 */
class PhaseSimMemo
{
  public:
    using Entry = std::shared_ptr<const PhaseSims>;

    static constexpr size_t kCapacity = 256;

    /** The entry under @p key, now the most recently used; null if
     * absent. */
    Entry find(uint64_t key);

    /** Store @p e under @p key as the most recently used entry,
     * evicting the least recently used one beyond kCapacity. A key
     * already present keeps its entry (equal keys hold equal sims). */
    void insert(uint64_t key, Entry e);

    size_t size() const;

  private:
    struct Slot
    {
        Entry e;
        uint64_t lastUse = 0;
    };

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Slot> slots_;
    uint64_t clock_ = 0;
};

/**
 * Compute one slab's full PhasePerf block: every (microarchitecture,
 * phase) cell of one ISA (or vendor), laid out uarch-major —
 * entry [u * phaseCount() + ph] — exactly the contiguous region the
 * slab occupies inside Campaign's table. Every phase is compiled and
 * keyed by its stage-1 key (PhaseSimMemo); each distinct program is
 * functionally executed once and packed for replay, and cells
 * sharing a structural slice (src/uarch/replay.hh) then advance
 * together in lockstep walks (src/uarch/batch.hh) on the process
 * thread pool. A phase whose key is in @p memo skips all of that and
 * folds its cells from the stored sims; only foldPhasePerf, which
 * reads the whole design point, runs per slab. Results are
 * bit-identical at any CISA_THREADS and CISA_BATCH_WIDTH, with or
 * without a memo, because each cell is written by exactly one task
 * and nothing on the parallel path shares an RNG, and bit-identical
 * to simulating every cell alone with simulateCore (the live
 * reference the tests hold it to). Exposed outside Campaign so tests
 * and perfbench can compute a slab without going through the
 * singleton's disk cache.
 *
 * @p cancel (optional) is polled at phase/task boundaries; an
 * expired token aborts with Cancelled and leaves no partial state.
 * An uncancelled run is byte-identical with or without a token.
 * @p health (optional) has this run's counters added to it on
 * success. @p memo (optional) is looked up for every phase, and the
 * phases this run simulated go into it on success only; without one
 * every phase is simulated.
 */
std::vector<PhasePerf> computeSlabPerf(
    int slab, const CancelToken *cancel = nullptr,
    EngineHealth *health = nullptr, PhaseSimMemo *memo = nullptr);

/**
 * Lazily-computed, disk-backed table of PhasePerf over all design
 * rows and phases. One "slab" = one ISA (or vendor) across all 180
 * microarchitectures and 49 phases; slabs are computed on first
 * touch and persisted immediately.
 *
 * Thread safety: at(), ensureSlab() and slabReady() may be called
 * from any thread. Each slab is computed exactly once; concurrent
 * requests for the same slab block until it is ready, while requests
 * for distinct slabs compute in parallel (each additionally fanning
 * its cells out over the shared pool).
 */
class Campaign
{
  public:
    /** The process-wide instance, bound to CISA_DSE_CACHE. */
    static Campaign &get();

    /** The instance if get() has already constructed it, else null —
     * lets observability report on the store without instantiating
     * the campaign as a side effect. */
    static Campaign *maybeGet();

    /** Measurements for (dp, phase); computes the slab if needed. */
    const PhasePerf &at(const DesignPoint &dp, int phase);

    /** Force a slab (one ISA across all uarches/phases). A token
     * cancels only this caller's own computation: if the slab is
     * being computed by someone else, their run is unaffected and
     * this call keeps waiting for it. */
    void ensureSlab(int slab, const CancelToken *cancel = nullptr);

    /** Copy of one slab's full PhasePerf block (computes it if
     * needed) — the region computeSlabPerf would return, served from
     * the shared table so repeated consumers never recompute. */
    std::vector<PhasePerf> slabPerf(
        int slab, const CancelToken *cancel = nullptr);

    /** Slab index of a design point. Rows are laid out slab-major,
     * so DesignPoint::fromRow(slab * DesignPoint::kUarchCount + u)
     * is cell u of the slab. */
    static int slabOf(const DesignPoint &dp);

    /** Number of slabs (26 composite + 3 vendor). */
    static constexpr int kSlabs =
        26 + DesignPoint::kVendorCount;

    /** True if the slab is already computed (no side effects). */
    bool slabReady(int slab) const
    {
        return ready_[size_t(slab)].load(std::memory_order_acquire);
    }

    /**
     * Cache key of a simulation budget. Mixed with
     * hashCombine/splitmix64 (src/common/hash.hh), so distinct
     * (timed, warmup) pairs never alias the way the old
     * `uops * 1000003 + warmup` scheme did.
     */
    static uint64_t budgetKeyFor(uint64_t simUops,
                                 uint64_t warmupUops);

    /** Health counters of the backing slab store. */
    StoreHealth storeHealth() const { return store_.health(); }

    /** Engine-mode counters accumulated over every slab this
     * campaign computed (adopted slabs cost no simulations and add
     * nothing). */
    EngineHealth
    engineHealth() const
    {
        EngineHealth h;
        h.cellsBatched =
            cellsBatched_.load(std::memory_order_relaxed);
        h.cellsPerCell =
            cellsPerCell_.load(std::memory_order_relaxed);
        h.walksDone = walksDone_.load(std::memory_order_relaxed);
        h.walksSaved = walksSaved_.load(std::memory_order_relaxed);
        h.simsShared = simsShared_.load(std::memory_order_relaxed);
        return h;
    }

  private:
    Campaign();

    /**
     * Poll the store and adopt every newly published slab that is
     * neither ready nor being computed by another thread (their
     * in-flight run will publish identical bytes; writing under
     * them would race). @p owned is the slab this caller holds the
     * compute claim for (-1 if none); returns true when that slab
     * was adopted.
     */
    bool adoptFromStore(int owned);

    SlabStore store_;
    std::vector<PhasePerf> table_; ///< kTotalRows x phases

    /** Fast-path flags: a release-store after the slab's cells land
     * in table_, so an acquire-load suffices to read them unlocked. */
    std::array<std::atomic<bool>, kSlabs> ready_{};

    /** Guards table_ publication, computing_, and cache writes. */
    std::mutex mu_;
    std::condition_variable cv_;
    std::array<bool, kSlabs> computing_{};

    /** Campaign-wide EngineHealth accumulators (relaxed: advisory). */
    std::atomic<uint64_t> cellsBatched_{0};
    std::atomic<uint64_t> cellsPerCell_{0};
    std::atomic<uint64_t> walksDone_{0};
    std::atomic<uint64_t> walksSaved_{0};
    std::atomic<uint64_t> simsShared_{0};

    /** Simulations shared between the slabs this campaign computes. */
    PhaseSimMemo memo_;
};

} // namespace cisa

#endif // CISA_EXPLORE_CAMPAIGN_HH
