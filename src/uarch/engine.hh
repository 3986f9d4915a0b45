/**
 * @file
 * Internal shared implementation of the cycle-level core model.
 *
 * One timing engine, two structural backends: the live backend owns
 * real MemSystem / BranchPredictor / UopCache / BTB / RAS /
 * store-buffer-address state and is what simulateCore runs; the
 * replay backend (src/uarch/replay.cc) answers the same queries from
 * a memoized StructuralStream. The Engine template below contains
 * every cycle-accounting rule exactly once, so the two paths cannot
 * drift — bit-identical PerfResults are a structural property, not a
 * testing aspiration (though tests assert it anyway). The AVX-512
 * lockstep kernel (src/uarch/batch.cc) is a transliteration of
 * Engine::step, held to it by a randomized differential test.
 *
 * This header is internal to cisa_uarch (core.cc and replay.cc); it
 * is not part of the public uarch API.
 */

#ifndef CISA_UARCH_ENGINE_HH
#define CISA_UARCH_ENGINE_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "uarch/bpred.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/replay.hh"
#include "uarch/uopcache.hh"

namespace cisa
{
namespace engine_detail
{

/**
 * Functional-unit pools with per-unit next-free cycles. Inline
 * fixed-capacity arrays (no heap indirection): poolFor + earliest
 * run once per issued uop on the simulation hot path.
 */
struct FuPools
{
    static constexpr int kMaxUnits = 16;

    struct Pool
    {
        uint64_t t[kMaxUnits] = {};
        int n = 0;
    };

    Pool pools[kNumUopPools];

    explicit FuPools(const MicroArchConfig &c)
    {
        auto init = [this](UopPool id, int n) {
            panic_if(n < 1 || n > kMaxUnits,
                     "FU pool size %d out of [1, %d]", n, kMaxUnits);
            pools[id].n = n;
        };
        init(kPoolIntAlu, c.intAlus);
        init(kPoolIntMul, c.intMuls);
        init(kPoolFpAlu, c.fpAlus);
        init(kPoolLd, std::min(2, c.width));
        init(kPoolSt, 1);
    }

    /** Pool a uop issues to (precomputed id; see classPool). */
    Pool &poolFor(uint8_t pool_id) { return pools[pool_id]; }

    /** Earliest-free unit index in @p pool (lowest index on ties).
     * Strict-less select compiles to cmov, so an adversarial
     * busy-unit pattern cannot cost branch mispredicts. */
    static size_t
    earliest(const Pool &p)
    {
        size_t best = 0;
        uint64_t best_t = p.t[0];
        for (int i = 1; i < p.n; i++) {
            bool lt = p.t[i] < best_t;
            best = lt ? size_t(i) : best;
            best_t = lt ? p.t[i] : best_t;
        }
        return best;
    }
};

/** Ring of cycle stamps modelling a finite window (ROB/IQ/LSQ).
 *
 * Every enumerated window fits the inline buffer (ROB tops out at
 * 128 entries), so freeAt/push touch engine-local storage with no
 * heap indirection; oversized custom configs spill to the heap. */
class Ring
{
  public:
    explicit Ring(size_t n)
        : heap_(n > kInline ? new uint64_t[n]() : nullptr),
          slots_(heap_ ? heap_.get() : inline_), n_(n)
    {}

    // slots_ may alias inline_, so relocation would dangle.
    Ring(Ring &&) = delete;
    Ring &operator=(Ring &&) = delete;

    /** Cycle at which a free slot is available. */
    uint64_t freeAt() const { return slots_[head_]; }

    /** Occupy a slot that releases at @p release_cycle. */
    void
    push(uint64_t release_cycle)
    {
        slots_[head_] = release_cycle;
        head_ = head_ + 1 == n_ ? 0 : head_ + 1;
    }

  private:
    static constexpr size_t kInline = 128;
    uint64_t inline_[kInline] = {};
    std::unique_ptr<uint64_t[]> heap_;
    uint64_t *slots_;
    size_t n_;
    size_t head_ = 0;
};

constexpr size_t kSbSize = 16;   ///< store-buffer entries
constexpr size_t kBtbSize = 512; ///< power of two (masked index)
constexpr size_t kRasSize = 16;
constexpr int kIldBytesPerCycle = 16;

/** Decode bandwidth in uops/cycle on the non-uop-cache path. Shared
 * by Engine and the batched lockstep kernel (src/uarch/batch.cc) so
 * the decoder rule exists once. */
inline int
decodeBandwidthFor(const CoreConfig &cfg)
{
    int bw = cfg.uarch.simpleDecoders;
    if (cfg.isa.complexity == Complexity::X86)
        bw += 4; // the 1:4 complex decoder + MSROM
    return bw;
}

/** Fetch-to-dispatch depth in cycles, deeper on out-of-order cores.
 * Shared by Engine and the batched lockstep kernel, like
 * decodeBandwidthFor. */
constexpr int
frontendDepth(bool ooo)
{
    return ooo ? 8 : 5;
}

/** Store-buffer coverage: the buffered store fully covers the load. */
inline bool
sbCovers(uint64_t sb_addr, uint8_t sb_size, uint64_t maddr,
         uint8_t msize)
{
    return maddr >= sb_addr && maddr + msize <= sb_addr + sb_size;
}

/** Fold hierarchy counters @p m into the PerfStats snapshot @p s. */
inline void
setMem(PerfStats &s, const MemSnap &m)
{
    s.l1iAccesses = m.l1iAccesses;
    s.l1iMisses = m.l1iMisses;
    s.l1dAccesses = m.l1dAccesses;
    s.l1dMisses = m.l1dMisses;
    s.l2Accesses = m.l2Accesses;
    s.l2Misses = m.l2Misses;
    s.memAccesses = m.memAccesses;
}

/**
 * Live structural backend: the real cache hierarchy, predictors, and
 * address-matching state. Also reused by the structural-stream
 * generator in replay.cc, which drives it through the identical call
 * sequence the engine would issue.
 */
struct LiveStructural
{
    MemSystem mem;
    std::unique_ptr<BranchPredictor> bp;
    UopCache uc;
    uint64_t curLine = ~uint64_t(0);
    uint64_t btb[kBtbSize] = {};
    uint64_t ras[kRasSize] = {};
    size_t rasTop = 0;

    struct SbAddr
    {
        uint64_t addr = ~uint64_t(0);
        uint8_t size = 0;
    };
    SbAddr sb[kSbSize];

    LiveStructural(const CoreConfig &c, const RunEnv &env)
        : mem(c.uarch, env.l2Share, env.memContention),
          bp(BranchPredictor::create(c.uarch.bpred))
    {}

    void beginStep() {}

    /** A mispredict redirect refetches the current line. */
    void redirectFetch() { curLine = ~uint64_t(0); }

    /** @return -1 if still streaming the current fetch line, else
     * the I-side access latency. */
    int
    fetchAccess(const DynOp *op, uint64_t line)
    {
        if (line == curLine)
            return -1;
        curLine = line;
        return mem.fetchAccess(op->pc);
    }

    /** Uop-cache probe; fills on miss. @return hit */
    bool
    ucAccess(const DynOp *op)
    {
        bool hit = uc.lookup(op->pc);
        if (!hit)
            uc.fill(op->pc);
        return hit;
    }

    /** Bitmask of store-buffer slots whose store covers this load. */
    uint16_t
    sbMatch(const DynOp *op)
    {
        uint16_t m = 0;
        for (size_t j = 0; j < kSbSize; j++) {
            if (sbCovers(sb[j].addr, sb[j].size, op->maddr,
                         op->msize))
                m |= uint16_t(1u << j);
        }
        return m;
    }

    /** D-side load latency beyond the first cycle. */
    uint64_t
    dataLoad(const DynOp *op)
    {
        return uint64_t(mem.dataAccess(op->maddr, false)) - 1;
    }

    void dataStore(const DynOp *op) { mem.dataAccess(op->maddr, true); }

    void
    sbPush(const DynOp *op, size_t slot)
    {
        sb[slot] = {op->maddr, op->msize};
    }

    /** Predict + train the direction predictor. @return mispredict */
    bool
    branchAccess(const DynOp *op)
    {
        bool taken = op->taken();
        bool pred = bp->predict(op->pc);
        bp->update(op->pc, taken);
        return pred != taken;
    }

    /** Taken-target check: RAS for returns, BTB (allocating) for the
     * rest, with call push. @return target missed (+2 cycle bubble) */
    bool
    btbAccess(const DynOp *op)
    {
        if (op->flags & DynRet) {
            rasTop = rasTop == 0 ? kRasSize - 1 : rasTop - 1;
            return ras[rasTop] != op->target;
        }
        size_t slot = size_t(op->pc >> 1) & (kBtbSize - 1);
        bool miss = btb[slot] != op->target;
        if (miss)
            btb[slot] = op->target;
        if (op->flags & DynCall) {
            ras[rasTop] = op->pc + op->len;
            rasTop = rasTop + 1 == kRasSize ? 0 : rasTop + 1;
        }
        return miss;
    }

    void
    snapshotCounters(MemSnap &out) const
    {
        out.l1iAccesses = mem.l1i().accesses;
        out.l1iMisses = mem.l1i().misses;
        out.l1dAccesses = mem.l1d().accesses;
        out.l1dMisses = mem.l1d().misses;
        out.l2Accesses = mem.l2().accesses;
        out.l2Misses = mem.l2().misses;
        out.memAccesses = mem.memAccesses();
    }

    /** Fold hierarchy counters into a PerfStats snapshot. */
    void
    snapshotMem(PerfStats &s, bool /*final*/) const
    {
        MemSnap m;
        snapshotCounters(m);
        setMem(s, m);
    }
};

/** One step's worth of inputs to Engine::step. */
struct StepIn
{
    uint16_t bits = 0;  ///< OpBit mask
    uint8_t len = 0;
    uint8_t uops = 1;
    const PackedUop *xu = nullptr;
    int nxu = 0;
    uint64_t lineId = 0;
    const DynOp *dop = nullptr; ///< live path only; replay passes null
};

/**
 * The timing engine, parameterized on the structural backend. All
 * structural queries go through @p str; everything else is pure
 * cycle arithmetic on engine-owned state.
 */
template <class Structural>
struct Engine
{
    const CoreConfig &cfg;
    Structural &str;
    FuPools fu;
    Ring rob, iq, lsq;
    PerfStats st;

    // Register ready times, indexed by rename-space id, plus the
    // two sentinel slots sealed uops use (see kDummyReadReg).
    uint64_t regReady[kEngineRegSlots] = {};

    // Front-end state.
    uint64_t fetchCycle = 1;
    int fetchMacroBudget;
    int fetchByteBudget;
    int fetchUopBudget;
    uint64_t redirect = 0;

    // Dispatch / issue / commit state.
    uint64_t dispatchCycle = 1;
    int dispatchBudget;
    uint64_t lastIssue = 0;
    uint64_t lastCommit = 0;
    int commitBudget;

    // Timing half of the store buffer (data-ready stamps); the
    // address half lives in the structural backend.
    uint64_t sbReady[kSbSize] = {};
    size_t sbHead = 0;

    Engine(const CoreConfig &c, Structural &s)
        : cfg(c), str(s), fu(c.uarch),
          rob(size_t(c.uarch.robSize)),
          iq(size_t(c.uarch.iqSize)),
          lsq(size_t(c.uarch.lsqSize)),
          fetchMacroBudget(c.uarch.width),
          fetchByteBudget(kIldBytesPerCycle),
          fetchUopBudget(c.uarch.width),
          dispatchBudget(c.uarch.width),
          commitBudget(c.uarch.width)
    {}

    /** Non-template entry point (tests, one-off cells). */
    void
    step(const StepIn &in)
    {
        if (cfg.uarch.outOfOrder)
            step<true>(in);
        else
            step<false>(in);
    }

    void
    resetFetchBudgets(int uop_bw)
    {
        fetchMacroBudget = cfg.uarch.width;
        fetchByteBudget = kIldBytesPerCycle;
        fetchUopBudget = uop_bw;
    }

    template <bool OoO>
    uint64_t
    issueUop(const PackedUop &u, uint64_t dispatch,
             uint64_t chain_ready, uint64_t mem_lat)
    {
        // Sealed uops use sentinel ids, so no validity branches:
        // dummy-read slots are pinned at 0 and never win the max.
        // The maxes form a tree so the four scoreboard loads issue
        // in parallel instead of serializing the ready computation.
        uint64_t r01 = std::max(regReady[u.srcs[0]],
                                regReady[u.srcs[1]]);
        uint64_t r23 = std::max(regReady[u.srcs[2]],
                                regReady[u.srcs[3]]);
        uint64_t ready = std::max(std::max(dispatch + 1, chain_ready),
                                  std::max(r01, r23));
        if constexpr (!OoO)
            ready = std::max(ready, lastIssue);

        auto &pool = fu.poolFor(u.pool);
        size_t unit = FuPools::earliest(pool);
        uint64_t issue = std::max(ready, pool.t[unit]);

        uint64_t complete = issue + u.lat + mem_lat;
        pool.t[unit] =
            (u.flags & kUopUnpipelined) ? complete : issue + 1;

        regReady[u.dst] = complete;
        regReady[(u.flags & kUopWritesFlags) ? kFlagsReg
                                             : kDummyWriteReg] =
            complete;
        lastIssue = std::max(lastIssue, issue);

        st.issuedUops++;
        st.aluOps[size_t(u.cls)]++;
        st.regReads += uint64_t((u.flags >> kUopNsrcShift) & 0x7);
        st.regWrites += (u.flags & kUopWritesReg) != 0;
        st.fpRegOps += (u.flags & kUopFpSimd) != 0;
        return complete;
    }

    // The out-of-order flag is a template parameter: it gates work
    // on the per-uop issue path, and lifting it to a compile-time
    // constant lets the hot loop drop the test entirely (runCore
    // dispatches once per simulated cell).
    template <bool OoO>
    void
    step(const StepIn &in)
    {
        str.beginStep();
        uint16_t bits = in.bits;

        // ---- Fetch ----
        if (fetchCycle < redirect) {
            fetchCycle = redirect;
            resetFetchBudgets(fetchUopBudget);
            str.redirectFetch(); // refetch the line after redirect
        }
        int flat = str.fetchAccess(in.dop, in.lineId);
        if (flat >= 0) {
            st.l1iAccesses++;
            if (flat > 1) {
                st.l1iMisses++;
                fetchCycle += uint64_t(flat - 1);
            }
        }

        bool uc_hit = false;
        if (cfg.uarch.uopCache) {
            st.uopCacheLookups++;
            uc_hit = str.ucAccess(in.dop);
            if (uc_hit)
                st.uopCacheHits++;
        }
        int uop_bw = uc_hit ? 6 : decodeBandwidthFor(cfg);

        // Macro fusion: a conditional branch directly following a
        // flag-writing single-uop ALU op shares its slot.
        bool fused_branch =
            cfg.uarch.uopFusion && (bits & kOpFusableBranch);
        if (fused_branch)
            st.fusedMacroOps++;

        int uops = in.uops;
        int slot_uops = fused_branch ? 0 : uops;

        // Micro fusion: a load-op pair occupies one slot up to issue.
        int window_slots = slot_uops;
        if (cfg.uarch.uopFusion && (bits & kOpMicroFusable)) {
            window_slots = 1;
            st.fusedMicroOps++;
        }

        fetchMacroBudget -= 1;
        fetchByteBudget -= in.len;
        fetchUopBudget -= slot_uops;
        if (fetchMacroBudget < 0 || fetchByteBudget < 0 ||
            fetchUopBudget < 0) {
            fetchCycle++;
            resetFetchBudgets(uop_bw);
            fetchMacroBudget -= 1;
            fetchByteBudget -= in.len;
            fetchUopBudget -= slot_uops;
        }

        st.macroOps++;
        st.uops += uint64_t(uops);
        st.fetchBytes += in.len;
        if (!uc_hit) {
            st.ildInstrs++;
            st.decodedUops += uint64_t(uops);
            if (uops > 1)
                st.msromUops += uint64_t(uops);
        }
        if (bits & kOpPredicated) {
            if (bits & kOpPredFalse)
                st.predFalseUops += uint64_t(uops);
        }

        // ---- Dispatch (rename + window allocation) ----
        uint64_t disp =
            std::max(dispatchCycle,
                     fetchCycle + uint64_t(frontendDepth(OoO)));
        int mem_slots = ((bits & kOpReadsMem) ? 1 : 0) +
                        ((bits & kOpWritesMem) ? 1 : 0) +
                        ((bits & kOpPredFalse) && (bits & kOpHasMem)
                             ? 1
                             : 0);
        // freeAt() is invariant until the commit-stage pushes, so
        // one comparison per ring replaces the per-slot loops.
        if (window_slots > 0) {
            disp = std::max(disp, rob.freeAt());
            if (OoO)
                disp = std::max(disp, iq.freeAt());
        }
        if (mem_slots > 0)
            disp = std::max(disp, lsq.freeAt());

        if (disp > dispatchCycle) {
            dispatchCycle = disp;
            dispatchBudget = cfg.uarch.width;
        }
        dispatchBudget -=
            std::max(window_slots, fused_branch ? 0 : 1);
        if (dispatchBudget < 0) {
            dispatchCycle++;
            dispatchBudget = cfg.uarch.width - window_slots;
            disp = dispatchCycle;
        }
        if (OoO) {
            st.renamedUops += uint64_t(slot_uops);
            st.iqWrites += uint64_t(window_slots);
        }
        st.robWrites += uint64_t(window_slots);

        // ---- Execute ----
        // Memory latency seen by this op's load uop: forwarded from
        // the store buffer when a recent store covers it, else the
        // cache hierarchy.
        uint64_t load_lat = 0;
        uint64_t fwd_ready = 0;
        if (bits & kOpReadsMem) {
            uint16_t match = str.sbMatch(in.dop);
            if (match) {
                for (size_t j = 0; j < kSbSize; j++) {
                    if (match & (1u << j))
                        fwd_ready =
                            std::max(fwd_ready, sbReady[j]);
                }
                st.sbForwards++;
            } else {
                load_lat = str.dataLoad(in.dop);
            }
            st.lsqOps++;
        }

        uint64_t end = disp + 1;
        for (int i = 0; i < in.nxu; i++) {
            const PackedUop &u = in.xu[i];
            // Chain gating: completion of the referenced uop of this
            // same macro-op (e.g. the alu uop waiting on its load);
            // chain-less uops read the pinned-zero sentinel slot.
            // Loads additionally wait on a covering buffered store
            // (fwd_ready) or pay the memoized hierarchy latency.
            uint64_t lm =
                (u.flags & kUopLoad) ? ~uint64_t(0) : uint64_t(0);
            uint64_t chain_ready =
                std::max(uopEnd_[size_t(u.chain)], fwd_ready & lm);
            end = issueUop<OoO>(u, disp, chain_ready,
                                load_lat & lm);
            uopEnd_[size_t(i)] = end;
        }
        // Both store-carrying forms end on their store uop, so `end`
        // is the data-ready stamp the buffered store forwards at.
        if (bits & kOpWritesMem) {
            str.dataStore(in.dop);
            st.lsqOps++;
            str.sbPush(in.dop, sbHead);
            sbReady[sbHead] = end;
            sbHead = sbHead + 1 == kSbSize ? 0 : sbHead + 1;
        }

        // ---- Branch resolution ----
        if (bits & kOpBranch) {
            bool mispredict = false;
            if (bits & kOpCondBranch) {
                st.bpLookups++;
                mispredict = str.branchAccess(in.dop);
            }
            if (mispredict) {
                st.bpMispredicts++;
                redirect = end + 1;
            } else if (bits & kOpTaken) {
                // Taken control flow needs a target: the BTB
                // provides it for branches/jumps/calls, the RAS for
                // returns.
                if (str.btbAccess(in.dop)) {
                    st.btbMisses++;
                    fetchCycle += 2;
                }
            }
        }

        // ---- Commit ----
        uint64_t commit = std::max(end + 1, lastCommit);
        if (commit > lastCommit) {
            lastCommit = commit;
            commitBudget = cfg.uarch.width;
        }
        commitBudget -= std::max(1, window_slots);
        if (commitBudget < 0) {
            lastCommit++;
            commitBudget = cfg.uarch.width;
            commit = lastCommit;
        }
        for (int s = 0; s < window_slots; s++) {
            rob.push(commit);
            if (OoO)
                iq.push(end);
        }
        for (int s = 0; s < mem_slots; s++)
            lsq.push(commit);

        st.cycles = std::max(st.cycles, commit);
    }

  private:
    // +1: slot [kMaxUopsPerOp] is the pinned-zero chain sentinel.
    uint64_t uopEnd_[kMaxUopsPerOp + 1] = {};
};

/**
 * Drive @p eng over @p src (a step source: LiveSource or
 * PackedSource) until the uop budget is spent, handling the
 * warmup-crossing snapshot exactly as the seed engine did.
 */
template <class Structural, class Source>
PerfResult
runCore(const CoreConfig &cfg, Structural &str, Source &src,
        uint64_t timed_uops, uint64_t warmup_uops)
{
    Engine<Structural> eng(cfg, str);

    PerfStats warm_snapshot;
    uint64_t warm_cycles = 0;
    bool warm_taken = warmup_uops == 0;
    if (warm_taken)
        warm_snapshot = eng.st;

    uint64_t done_uops = 0;
    size_t idx = 0;
    const size_t n = src.size();
    while (done_uops < warmup_uops + timed_uops) {
        StepIn in = src.get(idx);
        idx = idx + 1 == n ? 0 : idx + 1;
        eng.step(in);
        done_uops += in.uops;
        if (!warm_taken && done_uops >= warmup_uops) {
            warm_taken = true;
            warm_snapshot = eng.st;
            warm_cycles = eng.st.cycles;
            // Fold hierarchy stats into the snapshot baseline.
            str.snapshotMem(warm_snapshot, false);
        }
    }

    PerfStats final = eng.st;
    str.snapshotMem(final, true);

    PerfResult res;
    res.stats = PerfStats::diff(final, warm_snapshot);
    res.stats.cycles = final.cycles - warm_cycles;
    res.cycles = res.stats.cycles;
    res.ipc = res.stats.ipc();
    res.upc = res.stats.upc();
    return res;
}

/** Step source that decodes DynOps on the fly (the live path). */
struct LiveSource
{
    const Trace &tr;
    PackedUop buf[kMaxUopsPerOp];
    bool prevFusable = false;

    explicit LiveSource(const Trace &t) : tr(t) {}

    size_t size() const { return tr.ops.size(); }

    StepIn
    get(size_t idx)
    {
        const DynOp &op = tr.ops[idx];
        StepIn in;
        in.bits = packOpBits(op, prevFusable);
        prevFusable = isFusableCmp(op);
        in.len = op.len;
        in.uops = op.uops;
        in.nxu = expandUops(op, buf);
        in.xu = buf;
        in.lineId = op.pc >> 6;
        in.dop = &op;
        return in;
    }
};

} // namespace engine_detail
} // namespace cisa

#endif // CISA_UARCH_ENGINE_HH
