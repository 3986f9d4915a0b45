#include "uarch/batch.hh"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/env.hh"
#include "common/logging.hh"
#include "uarch/engine.hh"

// The vector kernel is x86-only by construction (AVX-512). Where it
// is not compiled in, or cannot take a walk, each cell replays alone
// through simulateCoreReplay, i.e. through Engine::step.
#if defined(__x86_64__) && defined(__GNUC__)
#define CISA_BATCH_SIMD_KERNEL 1
#include <immintrin.h>
#else
#define CISA_BATCH_SIMD_KERNEL 0
#endif

namespace cisa
{

#if CISA_BATCH_SIMD_KERNEL

namespace
{

using namespace engine_detail;

/**
 * One step's inputs, decoded once per walk instead of once per cell:
 * the packed-trace fields plus the structural-stream events with
 * their cursor side-arrays already consumed.
 */
struct SharedStep
{
    uint16_t bits = 0;
    uint8_t len = 0;
    uint8_t uops = 1;
    const PackedUop *xu = nullptr;
    int nxu = 0;
    int memSlots = 0;
    int flat = -1;        ///< I-side access latency; -1 if streaming
    bool evUcHit = false; ///< raw uop-cache hit event
    uint16_t fwdMask = 0; ///< covering store-buffer slots (0: none)
    uint64_t loadLat = 0; ///< hierarchy load latency beyond 1 cycle
    bool mispredict = false;
    bool btbMiss = false;
};

/**
 * Per-step stats accounting for one (OoO, uop-cache, fusion) combo.
 * Every PerfStats counter except `cycles` (and the mem-hierarchy
 * fields, which snapshotMem overwrites from the stream) depends only
 * on the shared step and these three booleans — so one update per
 * combo replaces one per cell. Mirrors the increments of
 * Engine::step exactly.
 */
void
statsStep(PerfStats &st, bool ooo, bool uc, bool fus,
          const SharedStep &s)
{
    if (s.flat >= 0) {
        st.l1iAccesses++;
        if (s.flat > 1)
            st.l1iMisses++;
    }
    bool uc_hit = false;
    if (uc) {
        st.uopCacheLookups++;
        uc_hit = s.evUcHit;
        if (uc_hit)
            st.uopCacheHits++;
    }
    bool fused_branch = fus && (s.bits & kOpFusableBranch);
    if (fused_branch)
        st.fusedMacroOps++;
    int uops = s.uops;
    int slot_uops = fused_branch ? 0 : uops;
    int window_slots = slot_uops;
    if (fus && (s.bits & kOpMicroFusable)) {
        window_slots = 1;
        st.fusedMicroOps++;
    }
    st.macroOps++;
    st.uops += uint64_t(uops);
    st.fetchBytes += s.len;
    if (!uc_hit) {
        st.ildInstrs++;
        st.decodedUops += uint64_t(uops);
        if (uops > 1)
            st.msromUops += uint64_t(uops);
    }
    if (s.bits & kOpPredicated) {
        if (s.bits & kOpPredFalse)
            st.predFalseUops += uint64_t(uops);
    }
    if (ooo) {
        st.renamedUops += uint64_t(slot_uops);
        st.iqWrites += uint64_t(window_slots);
    }
    st.robWrites += uint64_t(window_slots);
    if (s.bits & kOpReadsMem) {
        if (s.fwdMask)
            st.sbForwards++;
        st.lsqOps++;
    }
    if (s.bits & kOpWritesMem)
        st.lsqOps++;
    if (s.bits & kOpBranch) {
        if (s.bits & kOpCondBranch) {
            st.bpLookups++;
            if (s.mispredict)
                st.bpMispredicts++;
        }
        if (!s.mispredict && (s.bits & kOpTaken) && s.btbMiss)
            st.btbMisses++;
    }
}

/** The per-uop counters, identical for every cell of the walk. */
struct UopTally
{
    uint64_t issuedUops = 0;
    uint64_t regReads = 0;
    uint64_t regWrites = 0;
    uint64_t fpRegOps = 0;
    uint64_t aluOps[size_t(MicroClass::NumClasses)] = {};
};

void
addTally(PerfStats &st, const UopTally &t)
{
    st.issuedUops += t.issuedUops;
    st.regReads += t.regReads;
    st.regWrites += t.regWrites;
    st.fpRegOps += t.fpRegOps;
    for (size_t c = 0; c < size_t(MicroClass::NumClasses); c++)
        st.aluOps[c] += t.aluOps[c];
}

/**
 * The walk-level (cell-independent) accounting: one stats lane per
 * present (OoO, uop-cache, fusion) combo plus the per-uop tally,
 * snapshotted at the warm-up crossing.
 */
struct WalkStats
{
    PerfStats comboSt[8];
    PerfStats comboWarm[8];
    uint8_t comboKeys[8];
    int nCombos = 0;
    UopTally tally, tallyWarm;
};

/** Compose one cell's PerfResult exactly as runCore does, from the
 * walk-level stats plus the cell's final and warm cycle counts. */
PerfResult
composeCell(uint8_t key, uint64_t cyc, uint64_t warm_cyc,
            const WalkStats &ws, const StructuralStream &stream,
            uint64_t warmup_uops)
{
    PerfStats fin = ws.comboSt[key];
    addTally(fin, ws.tally);
    fin.cycles = cyc;
    setMem(fin, stream.fin);

    PerfStats warm;
    uint64_t wc = 0;
    if (warmup_uops > 0) {
        warm = ws.comboWarm[key];
        addTally(warm, ws.tallyWarm);
        warm.cycles = warm_cyc;
        setMem(warm, stream.warm);
        wc = warm_cyc;
    }

    PerfResult res;
    res.stats = PerfStats::diff(fin, warm);
    res.stats.cycles = fin.cycles - wc;
    res.cycles = res.stats.cycles;
    res.ipc = res.stats.ipc();
    res.upc = res.stats.upc();
    return res;
}

/** Compiled-in AVX-512 kernel is only entered on CPUs with the
 * subsets it uses (F for the 32-bit lanes and gathers, BW/DQ/VL for
 * the mask plumbing GCC emits around them). */
bool
cpuHasBatchSimd()
{
    static const bool ok = __builtin_cpu_supports("avx512f") &&
                           __builtin_cpu_supports("avx512bw") &&
                           __builtin_cpu_supports("avx512dq") &&
                           __builtin_cpu_supports("avx512vl");
    return ok;
}

/**
 * One 16-lane tile of cells for the vector kernel: Engine's cycle
 * state (src/uarch/engine.hh) transposed so that each scalar becomes
 * a row of 16 32-bit lanes (one cell per lane) and every scoreboard
 * becomes rows-of-16 indexed by entity. Stamps are 32-bit here —
 * the caller proves they cannot overflow before choosing this path
 * (see the bound in simulateCoreBatch). All lanes of a chunk share
 * the OoO class; lanes >= nReal clone lane 0 (identical config and
 * therefore identical evolution) and their results are discarded,
 * so partial chunks need no masking in the kernel.
 */
struct alignas(64) BatchChunk
{
    size_t beginSlot = 0; ///< first slot (partition order)
    size_t nReal = 0;     ///< live lanes; the rest clone lane 0
    bool ooo = false;
    __mmask16 ucMask = 0;  ///< lanes with a uop cache
    __mmask16 fusMask = 0; ///< lanes with uop fusion
    int fuMaxN[kNumUopPools] = {}; ///< max units over lanes, per pool

    // Per-lane constants.
    alignas(64) int32_t W[16] = {};
    alignas(64) int32_t Wm1[16] = {};
    alignas(64) int32_t dbw[16] = {};
    alignas(64) uint32_t robN[16] = {};
    alignas(64) uint32_t iqN[16] = {};
    alignas(64) uint32_t lsqN[16] = {};
    alignas(64) uint32_t robB[16] = {};
    alignas(64) uint32_t iqB[16] = {};
    alignas(64) uint32_t lsqB[16] = {};

    // Cycle state (kernel keeps these in registers across a tile).
    alignas(64) uint32_t fc[16] = {};
    alignas(64) uint32_t red[16] = {};
    alignas(64) uint32_t dispc[16] = {};
    alignas(64) uint32_t lastIssue[16] = {};
    alignas(64) uint32_t lastCommit[16] = {};
    alignas(64) uint32_t cycles[16] = {};
    alignas(64) uint32_t warmCycles[16] = {};
    alignas(64) int32_t fmb[16] = {};
    alignas(64) int32_t fbb[16] = {};
    alignas(64) int32_t fub[16] = {};
    alignas(64) int32_t dbud[16] = {};
    alignas(64) int32_t cbud[16] = {};
    alignas(64) uint32_t rh[16] = {};
    alignas(64) uint32_t ih[16] = {};
    alignas(64) uint32_t lh[16] = {};

    // Scoreboards, transposed. Units a lane doesn't have hold
    // UINT32_MAX so the strict-less earliest scan (real stamps stay
    // under 2^31) can never pick or update them.
    alignas(64) uint32_t rr[kEngineRegSlots][16] = {};
    alignas(64) uint32_t ue[kMaxUopsPerOp + 1][16] = {};
    alignas(64) uint32_t sbR[kSbSize][16] = {};
    alignas(64) uint32_t fuT[kNumUopPools][FuPools::kMaxUnits][16] =
        {};

    // ROB/IQ/LSQ rings, one flat u32 slab with per-lane regions
    // (disjoint, so gather/scatter indices never collide), accessed
    // as base[lane] + head[lane].
    std::vector<uint32_t> ring;
};

void
initChunk(BatchChunk &c, const CoreConfig *cells,
          const std::vector<size_t> &order, size_t begin,
          size_t n_real, bool ooo)
{
    c.beginSlot = begin;
    c.nReal = n_real;
    c.ooo = ooo;
    uint32_t ring_cur = 0;
    for (size_t l = 0; l < 16; l++) {
        const CoreConfig &cc =
            cells[order[begin + (l < n_real ? l : 0)]];
        const MicroArchConfig &ua = cc.uarch;
        c.W[l] = ua.width;
        c.Wm1[l] = ua.width - 1;
        c.dbw[l] = decodeBandwidthFor(cc);
        if (ua.uopCache)
            c.ucMask = __mmask16(c.ucMask | (1u << l));
        if (ua.uopFusion)
            c.fusMask = __mmask16(c.fusMask | (1u << l));
        FuPools fp(ua);
        for (int p = 0; p < kNumUopPools; p++) {
            int n = fp.pools[p].n;
            c.fuMaxN[p] = std::max(c.fuMaxN[p], n);
            for (int u = 0; u < FuPools::kMaxUnits; u++)
                c.fuT[p][u][l] = u < n ? 0 : UINT32_MAX;
        }
        c.robB[l] = ring_cur;
        c.robN[l] = uint32_t(ua.robSize);
        ring_cur += uint32_t(ua.robSize);
        c.iqB[l] = ring_cur;
        c.iqN[l] = uint32_t(ua.iqSize);
        ring_cur += uint32_t(ua.iqSize);
        c.lsqB[l] = ring_cur;
        c.lsqN[l] = uint32_t(ua.lsqSize);
        ring_cur += uint32_t(ua.lsqSize);
        c.fc[l] = 1;
        c.dispc[l] = 1;
        c.fmb[l] = ua.width;
        c.fbb[l] = kIldBytesPerCycle;
        c.fub[l] = ua.width;
        c.dbud[l] = ua.width;
        c.cbud[l] = ua.width;
    }
    c.ring.assign(ring_cur, 0);
}

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512dq,avx512vl")
// GCC 12 flags the undefined pass-through operands inside the
// maskz/mask intrinsic wrappers themselves (a known false positive);
// every source operand in this kernel is initialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/**
 * The vector kernel: Engine::step<OoO> (src/uarch/engine.hh) with
 * the structural queries replaced by the pre-decoded SharedStep, the
 * stats accounting hoisted into walkTrace, and the cell turned into
 * 32-bit SIMD lanes, 16 cells at a time. Each stage below maps 1:1
 * onto the stage of Engine::step, in the same order, so the cycle
 * arithmetic is the same arithmetic. Divergent control flow
 * (uop-cache hits, fusion, budget overflows, dispatch stalls)
 * becomes mask registers and blends; step-shared properties (uop
 * list, mem slots, stream events) stay scalar branches. The
 * scoreboards are row-transposed aligned loads/stores; only the ring
 * windows need gather/scatter, with per-lane disjoint regions. A
 * chunk's state stays in registers across the whole tile of @p L
 * steps; @p warm_t is the tile-local index of the warm-up-crossing
 * step (-1: not in this tile), after which each lane snapshots its
 * cycle count, as runCore does.
 */
template <bool OoO>
void
stepTileSimd(BatchChunk &c, const SharedStep *tile, size_t L,
             const uint8_t *sb_slot, int warm_t)
{
    const __m512i vzero = _mm512_setzero_si512();
    const __m512i v1 = _mm512_set1_epi32(1);
    const __m512i v6 = _mm512_set1_epi32(6);
    const __m512i vIld = _mm512_set1_epi32(kIldBytesPerCycle);
    const __m512i vDispLat = _mm512_set1_epi32(frontendDepth(OoO));
    const __m512i vW = _mm512_load_si512(c.W);
    const __m512i vWm1 = _mm512_load_si512(c.Wm1);
    const __m512i vDbw = _mm512_load_si512(c.dbw);
    const __m512i vRobN = _mm512_load_si512(c.robN);
    const __m512i vIqN = _mm512_load_si512(c.iqN);
    const __m512i vLsqN = _mm512_load_si512(c.lsqN);
    const __m512i vRobB = _mm512_load_si512(c.robB);
    const __m512i vIqB = _mm512_load_si512(c.iqB);
    const __m512i vLsqB = _mm512_load_si512(c.lsqB);
    uint32_t *ring = c.ring.data();

    __m512i fc = _mm512_load_si512(c.fc);
    __m512i red = _mm512_load_si512(c.red);
    __m512i dispc = _mm512_load_si512(c.dispc);
    __m512i lastIssue = _mm512_load_si512(c.lastIssue);
    __m512i lastCommit = _mm512_load_si512(c.lastCommit);
    __m512i cycles = _mm512_load_si512(c.cycles);
    __m512i fmb = _mm512_load_si512(c.fmb);
    __m512i fbb = _mm512_load_si512(c.fbb);
    __m512i fub = _mm512_load_si512(c.fub);
    __m512i dbud = _mm512_load_si512(c.dbud);
    __m512i cbud = _mm512_load_si512(c.cbud);
    __m512i rh = _mm512_load_si512(c.rh);
    __m512i ih = _mm512_load_si512(c.ih);
    __m512i lh = _mm512_load_si512(c.lh);

    for (size_t t = 0; t < L; t++) {
        const SharedStep &s = tile[t];

        // ---- Fetch ----
        __mmask16 mRed = _mm512_cmplt_epu32_mask(fc, red);
        fc = _mm512_mask_mov_epi32(fc, mRed, red);
        fmb = _mm512_mask_mov_epi32(fmb, mRed, vW);
        fbb = _mm512_mask_mov_epi32(fbb, mRed, vIld);
        if (s.flat > 1)
            fc = _mm512_add_epi32(fc, _mm512_set1_epi32(s.flat - 1));

        __mmask16 mUcHit = s.evUcHit ? c.ucMask : __mmask16(0);
        __m512i uopBw = _mm512_mask_mov_epi32(vDbw, mUcHit, v6);
        __mmask16 mFB = (s.bits & kOpFusableBranch) ? c.fusMask
                                                    : __mmask16(0);
        __mmask16 mMF = (s.bits & kOpMicroFusable) ? c.fusMask
                                                   : __mmask16(0);
        __m512i vUops = _mm512_set1_epi32(s.uops);
        __m512i slotUops =
            _mm512_maskz_mov_epi32(__mmask16(~mFB), vUops);
        __m512i winSlots = _mm512_mask_mov_epi32(slotUops, mMF, v1);

        fmb = _mm512_sub_epi32(fmb, v1);
        fbb = _mm512_sub_epi32(fbb, _mm512_set1_epi32(s.len));
        fub = _mm512_sub_epi32(fub, slotUops);
        __mmask16 mOver =
            __mmask16(_mm512_cmplt_epi32_mask(fmb, vzero) |
                      _mm512_cmplt_epi32_mask(fbb, vzero) |
                      _mm512_cmplt_epi32_mask(fub, vzero));
        fc = _mm512_mask_add_epi32(fc, mOver, fc, v1);
        fmb = _mm512_mask_mov_epi32(fmb, mOver, vWm1);
        fbb = _mm512_mask_mov_epi32(
            fbb, mOver,
            _mm512_set1_epi32(kIldBytesPerCycle - int(s.len)));
        fub = _mm512_mask_mov_epi32(
            fub, mOver, _mm512_sub_epi32(uopBw, slotUops));

        // ---- Dispatch (rename + window allocation) ----
        __m512i disp = _mm512_max_epu32(
            dispc, _mm512_add_epi32(fc, vDispLat));
        __mmask16 mWS = _mm512_cmpgt_epi32_mask(winSlots, vzero);
        disp = _mm512_max_epu32(
            disp, _mm512_mask_i32gather_epi32(
                      vzero, mWS, _mm512_add_epi32(vRobB, rh), ring,
                      4));
        if constexpr (OoO) {
            disp = _mm512_max_epu32(
                disp, _mm512_mask_i32gather_epi32(
                          vzero, mWS, _mm512_add_epi32(vIqB, ih),
                          ring, 4));
        }
        if (s.memSlots > 0) {
            disp = _mm512_max_epu32(
                disp, _mm512_i32gather_epi32(
                          _mm512_add_epi32(vLsqB, lh), ring, 4));
        }

        __mmask16 mAdv = _mm512_cmpgt_epu32_mask(disp, dispc);
        dispc = _mm512_mask_mov_epi32(dispc, mAdv, disp);
        dbud = _mm512_mask_mov_epi32(dbud, mAdv, vW);
        __m512i dcons = _mm512_max_epi32(
            winSlots, _mm512_maskz_mov_epi32(__mmask16(~mFB), v1));
        dbud = _mm512_sub_epi32(dbud, dcons);
        __mmask16 mDO = _mm512_cmplt_epi32_mask(dbud, vzero);
        dispc = _mm512_mask_add_epi32(dispc, mDO, dispc, v1);
        dbud = _mm512_mask_mov_epi32(
            dbud, mDO, _mm512_sub_epi32(vW, winSlots));
        disp = _mm512_mask_mov_epi32(disp, mDO, dispc);

        // ---- Execute ----
        __m512i loadLat = vzero;
        __m512i fwdReady = vzero;
        bool have_load_lat = false;
        if (s.bits & kOpReadsMem) {
            if (s.fwdMask) {
                for (uint32_t m = s.fwdMask; m; m &= m - 1) {
                    fwdReady = _mm512_max_epu32(
                        fwdReady,
                        _mm512_load_si512(c.sbR[__builtin_ctz(m)]));
                }
            } else if (s.loadLat) {
                loadLat = _mm512_set1_epi32(int(s.loadLat));
                have_load_lat = true;
            }
        }

        __m512i dispP1 = _mm512_add_epi32(disp, v1);
        __m512i end = dispP1;
        for (int k = 0; k < s.nxu; k++) {
            const PackedUop &u = s.xu[k];
            __m512i chain = _mm512_load_si512(c.ue[size_t(u.chain)]);
            if (u.flags & kUopLoad)
                chain = _mm512_max_epu32(chain, fwdReady);
            __m512i r01 = _mm512_max_epu32(
                _mm512_load_si512(c.rr[u.srcs[0]]),
                _mm512_load_si512(c.rr[u.srcs[1]]));
            __m512i r23 = _mm512_max_epu32(
                _mm512_load_si512(c.rr[u.srcs[2]]),
                _mm512_load_si512(c.rr[u.srcs[3]]));
            __m512i ready = _mm512_max_epu32(
                _mm512_max_epu32(dispP1, chain),
                _mm512_max_epu32(r01, r23));
            if constexpr (!OoO)
                ready = _mm512_max_epu32(ready, lastIssue);

            // earliest(): vertical strict-less scan, lowest index
            // wins ties — the tie-break of FuPools::earliest.
            const int pn = c.fuMaxN[u.pool];
            uint32_t(*pt)[16] = c.fuT[u.pool];
            __m512i bestT = _mm512_load_si512(pt[0]);
            __m512i bestI = vzero;
            for (int i = 1; i < pn; i++) {
                __m512i ti = _mm512_load_si512(pt[i]);
                __mmask16 lt = _mm512_cmplt_epu32_mask(ti, bestT);
                bestT = _mm512_mask_mov_epi32(bestT, lt, ti);
                bestI = _mm512_mask_mov_epi32(bestI, lt,
                                              _mm512_set1_epi32(i));
            }
            __m512i issue = _mm512_max_epu32(ready, bestT);
            __m512i complete =
                _mm512_add_epi32(issue, _mm512_set1_epi32(u.lat));
            if ((u.flags & kUopLoad) && have_load_lat)
                complete = _mm512_add_epi32(complete, loadLat);
            __m512i newT = (u.flags & kUopUnpipelined)
                               ? complete
                               : _mm512_add_epi32(issue, v1);
            for (int i = 0; i < pn; i++) {
                __mmask16 sel = _mm512_cmpeq_epi32_mask(
                    bestI, _mm512_set1_epi32(i));
                _mm512_mask_store_epi32(pt[i], sel, newT);
            }
            _mm512_store_si512(c.rr[u.dst], complete);
            _mm512_store_si512(
                c.rr[(u.flags & kUopWritesFlags) ? kFlagsReg
                                                 : kDummyWriteReg],
                complete);
            lastIssue = _mm512_max_epu32(lastIssue, issue);
            end = complete;
            _mm512_store_si512(c.ue[size_t(k)], end);
        }

        if (s.bits & kOpWritesMem)
            _mm512_store_si512(c.sbR[sb_slot[t]], end);

        // ---- Branch resolution ----
        if (s.bits & kOpBranch) {
            if (s.mispredict)
                red = _mm512_add_epi32(end, v1);
            else if ((s.bits & kOpTaken) && s.btbMiss)
                fc = _mm512_add_epi32(fc, _mm512_set1_epi32(2));
        }

        // ---- Commit ----
        __m512i commit = _mm512_max_epu32(_mm512_add_epi32(end, v1),
                                          lastCommit);
        __mmask16 mC = _mm512_cmpgt_epu32_mask(commit, lastCommit);
        lastCommit = _mm512_mask_mov_epi32(lastCommit, mC, commit);
        cbud = _mm512_mask_mov_epi32(cbud, mC, vW);
        cbud =
            _mm512_sub_epi32(cbud, _mm512_max_epi32(v1, winSlots));
        __mmask16 mCO = _mm512_cmplt_epi32_mask(cbud, vzero);
        lastCommit =
            _mm512_mask_add_epi32(lastCommit, mCO, lastCommit, v1);
        cbud = _mm512_mask_mov_epi32(cbud, mCO, vW);
        commit = _mm512_mask_mov_epi32(commit, mCO, lastCommit);

        for (int sl = 0;; sl++) {
            __mmask16 mP = _mm512_cmpgt_epi32_mask(
                winSlots, _mm512_set1_epi32(sl));
            if (!mP)
                break;
            _mm512_mask_i32scatter_epi32(
                ring, mP, _mm512_add_epi32(vRobB, rh), commit, 4);
            __m512i inc = _mm512_add_epi32(rh, v1);
            inc = _mm512_maskz_mov_epi32(
                _mm512_cmpneq_epi32_mask(inc, vRobN), inc);
            rh = _mm512_mask_mov_epi32(rh, mP, inc);
            if constexpr (OoO) {
                _mm512_mask_i32scatter_epi32(
                    ring, mP, _mm512_add_epi32(vIqB, ih), end, 4);
                __m512i inc2 = _mm512_add_epi32(ih, v1);
                inc2 = _mm512_maskz_mov_epi32(
                    _mm512_cmpneq_epi32_mask(inc2, vIqN), inc2);
                ih = _mm512_mask_mov_epi32(ih, mP, inc2);
            }
        }
        for (int sl = 0; sl < s.memSlots; sl++) {
            _mm512_i32scatter_epi32(
                ring, _mm512_add_epi32(vLsqB, lh), commit, 4);
            __m512i inc = _mm512_add_epi32(lh, v1);
            lh = _mm512_maskz_mov_epi32(
                _mm512_cmpneq_epi32_mask(inc, vLsqN), inc);
        }

        cycles = _mm512_max_epu32(cycles, commit);
        if (int(t) == warm_t)
            _mm512_store_si512(c.warmCycles, cycles);
    }

    _mm512_store_si512(c.fc, fc);
    _mm512_store_si512(c.red, red);
    _mm512_store_si512(c.dispc, dispc);
    _mm512_store_si512(c.lastIssue, lastIssue);
    _mm512_store_si512(c.lastCommit, lastCommit);
    _mm512_store_si512(c.cycles, cycles);
    _mm512_store_si512(c.fmb, fmb);
    _mm512_store_si512(c.fbb, fbb);
    _mm512_store_si512(c.fub, fub);
    _mm512_store_si512(c.dbud, dbud);
    _mm512_store_si512(c.cbud, cbud);
    _mm512_store_si512(c.rh, rh);
    _mm512_store_si512(c.ih, ih);
    _mm512_store_si512(c.lh, lh);
}

// Instantiate inside the target region: an implicit instantiation at
// a call site outside it would lose the AVX-512 codegen options.
template void stepTileSimd<true>(BatchChunk &, const SharedStep *,
                                 size_t, const uint8_t *, int);
template void stepTileSimd<false>(BatchChunk &, const SharedStep *,
                                  size_t, const uint8_t *, int);

#pragma GCC diagnostic pop
#pragma GCC pop_options

/**
 * One pass over the packed trace and the structural stream, in tiles
 * of up to kTileSteps decoded steps. Decoding — the packed-trace
 * reads, the stream cursor consumption, the combo stats and uop
 * tally — happens exactly once per step here regardless of how many
 * cells ride the walk; the vector kernel then advances every chunk
 * of @p chunks through each tile.
 */
void
walkTrace(const ReplayTrace &packed, const StructuralStream &stream,
          uint64_t timed_uops, uint64_t warmup_uops, WalkStats &ws,
          std::vector<BatchChunk> &chunks)
{
    constexpr size_t kTileSteps = 128;
    std::vector<SharedStep> tile(kTileSteps);
    std::array<uint8_t, kTileSteps> sb_slot{};

    const size_t nsteps = packed.size();
    const uint64_t total_uops = warmup_uops + timed_uops;
    size_t idx = 0;
    size_t step = 0, ifetch_cur = 0, dload_cur = 0, fwd_cur = 0;
    size_t sb_head = 0;
    uint64_t done_uops = 0;
    bool warm_taken = warmup_uops == 0;
    bool first = true;

    while (done_uops < total_uops) {
        size_t len = 0;
        int warm_t = -1;
        while (len < kTileSteps && done_uops < total_uops) {
            SharedStep &s = tile[len];
            s = SharedStep{};
            s.bits = packed.bits[idx];
            if (first) {
                // The live engine has no previous op on step one.
                s.bits &= uint16_t(~kOpFusableBranch);
                first = false;
            }
            s.len = packed.len[idx];
            s.uops = packed.uops[idx];
            uint32_t ub = packed.uopBegin[idx];
            s.xu = packed.xuops.data() + ub;
            s.nxu = int(packed.uopBegin[idx + 1] - ub);
            s.memSlots =
                ((s.bits & kOpReadsMem) ? 1 : 0) +
                ((s.bits & kOpWritesMem) ? 1 : 0) +
                (((s.bits & kOpPredFalse) && (s.bits & kOpHasMem))
                     ? 1
                     : 0);
            uint8_t ev = stream.ev[step++];
            if (ev & kEvIFetch) {
                s.flat =
                    (ev & kEvIFetchMiss)
                        ? 1 + int(stream.ifetchExtra[ifetch_cur++])
                        : 1;
            }
            s.evUcHit = (ev & kEvUcHit) != 0;
            if (ev & kEvFwd)
                s.fwdMask = stream.fwdMask[fwd_cur++];
            if (ev & kEvDLoad)
                s.loadLat = stream.dloadExtra[dload_cur++];
            s.mispredict = (ev & kEvMispredict) != 0;
            s.btbMiss = (ev & kEvBtbMiss) != 0;

            for (int c = 0; c < ws.nCombos; c++) {
                uint8_t key = ws.comboKeys[c];
                statsStep(ws.comboSt[key], (key & 4) != 0,
                          (key & 2) != 0, (key & 1) != 0, s);
            }
            for (int k = 0; k < s.nxu; k++) {
                const PackedUop &u = s.xu[k];
                ws.tally.issuedUops++;
                ws.tally.aluOps[size_t(u.cls)]++;
                ws.tally.regReads +=
                    uint64_t((u.flags >> kUopNsrcShift) & 0x7);
                ws.tally.regWrites +=
                    (u.flags & kUopWritesReg) != 0;
                ws.tally.fpRegOps += (u.flags & kUopFpSimd) != 0;
            }

            sb_slot[len] = uint8_t(sb_head);
            if (s.bits & kOpWritesMem)
                sb_head = sb_head + 1 == kSbSize ? 0 : sb_head + 1;

            done_uops += s.uops;
            idx = idx + 1 == nsteps ? 0 : idx + 1;
            if (!warm_taken && done_uops >= warmup_uops) {
                warm_taken = true;
                std::copy(ws.comboSt, ws.comboSt + 8, ws.comboWarm);
                ws.tallyWarm = ws.tally;
                warm_t = int(len);
            }
            len++;
        }

        for (BatchChunk &c : chunks) {
            if (c.ooo)
                stepTileSimd<true>(c, tile.data(), len, sb_slot.data(),
                                   warm_t);
            else
                stepTileSimd<false>(c, tile.data(), len,
                                    sb_slot.data(), warm_t);
        }
    }

    // The stream must have been generated with the same budgets: the
    // walk must consume it exactly (same invariant the per-cell
    // replay asserts).
    panic_if(step != stream.ev.size() ||
                 ifetch_cur != stream.ifetchExtra.size() ||
                 dload_cur != stream.dloadExtra.size() ||
                 fwd_cur != stream.fwdMask.size(),
             "structural stream not fully consumed: budget mismatch");
}

} // namespace

#endif // CISA_BATCH_SIMD_KERNEL

bool
batchSimdAvailable()
{
#if CISA_BATCH_SIMD_KERNEL
    return cpuHasBatchSimd() && batchSimdEnabled();
#else
    return false;
#endif
}

std::vector<PerfResult>
simulateCoreBatch(const CoreConfig *cells, size_t ncells,
                  const ReplayTrace &packed,
                  const StructuralStream &stream,
                  uint64_t timed_uops, uint64_t warmup_uops,
                  const RunEnv &env, size_t *walks)
{
    panic_if(ncells == 0, "empty batch");
    panic_if(packed.size() == 0, "empty packed trace");
    panic_if(!packed.complete &&
                 warmup_uops + timed_uops > packed.maxSteps,
             "packed trace built for %llu steps, need up to %llu",
             (unsigned long long)packed.maxSteps,
             (unsigned long long)(warmup_uops + timed_uops));
    for (size_t i = 0; i < ncells; i++) {
        panic_if(stream.key !=
                     structuralFingerprint(cells[i].uarch, env),
                 "batched cell %zu lies outside the stream's "
                 "structural slice", i);
    }

#if CISA_BATCH_SIMD_KERNEL
    // The vector kernel runs on 32-bit stamps, so it is only legal
    // when no stamp can reach 2^31. Every stamp a step produces is
    // bounded by (max stamp before the step) + A, where the
    // per-step advance A covers the worst case of every stage:
    // redirect refill + I-fetch stall + fetch overflow (+2 btb)
    // reach at most maxIfetchExtra + 6 past the old max; dispatch
    // adds a fixed latency (8) + 2 overflow bumps; the uop chain
    // grows by sum(lat) + loads * dload at most (issue never
    // exceeds the running max, each complete adds its latency);
    // commit adds 2. So A <= maxStepLatSum + maxStepLoads *
    // maxDloadExtra + maxIfetchExtra + 32 (generous slack), and
    // with every step consuming at least one uop (ReplayTrace::build
    // panics otherwise), steps <= total uops. Stamps start at 1.
    const uint64_t total = warmup_uops + timed_uops;
    const uint64_t advance =
        uint64_t(packed.maxStepLatSum) +
        uint64_t(packed.maxStepLoads) * stream.maxDloadExtra +
        stream.maxIfetchExtra + 32;
    if (batchSimdAvailable() && total <= (uint64_t(1) << 31) &&
        advance <= (uint64_t(1) << 20) &&
        1 + total * advance <= (uint64_t(1) << 31)) {
        // Out-of-order cells first, so every 16-lane chunk holds one
        // execution class.
        std::vector<size_t> order(ncells);
        std::iota(order.begin(), order.end(), 0);
        auto mid = std::stable_partition(
            order.begin(), order.end(),
            [&](size_t i) { return cells[i].uarch.outOfOrder; });
        const size_t n_ooo = size_t(mid - order.begin());

        std::vector<uint8_t> combo_key(ncells);
        WalkStats ws;
        bool seen[8] = {};
        for (size_t slot = 0; slot < ncells; slot++) {
            const MicroArchConfig &ua = cells[order[slot]].uarch;
            uint8_t key = uint8_t((ua.outOfOrder ? 4 : 0) |
                                  (ua.uopCache ? 2 : 0) |
                                  (ua.uopFusion ? 1 : 0));
            combo_key[slot] = key;
            if (!seen[key]) {
                seen[key] = true;
                ws.comboKeys[ws.nCombos++] = key;
            }
        }

        std::vector<BatchChunk> chunks;
        chunks.resize((n_ooo + 15) / 16 +
                      (ncells - n_ooo + 15) / 16);
        size_t ci = 0;
        for (size_t b = 0; b < n_ooo; b += 16) {
            initChunk(chunks[ci++], cells, order, b,
                      std::min<size_t>(16, n_ooo - b), true);
        }
        for (size_t b = n_ooo; b < ncells; b += 16) {
            initChunk(chunks[ci++], cells, order, b,
                      std::min<size_t>(16, ncells - b), false);
        }

        walkTrace(packed, stream, timed_uops, warmup_uops, ws, chunks);

        std::vector<PerfResult> out(ncells);
        for (const BatchChunk &c : chunks) {
            for (size_t l = 0; l < c.nReal; l++) {
                size_t slot = c.beginSlot + l;
                out[order[slot]] = composeCell(
                    combo_key[slot], c.cycles[l], c.warmCycles[l],
                    ws, stream, warmup_uops);
            }
        }
        if (walks)
            *walks = 1;
        return out;
    }
#endif // CISA_BATCH_SIMD_KERNEL

    // Every other walk replays each cell alone (Engine::step).
    std::vector<PerfResult> out;
    out.reserve(ncells);
    for (size_t i = 0; i < ncells; i++) {
        out.push_back(simulateCoreReplay(cells[i], packed, stream,
                                         timed_uops, warmup_uops,
                                         env));
    }
    if (walks)
        *walks = ncells;
    return out;
}

} // namespace cisa
