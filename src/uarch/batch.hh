/**
 * @file
 * Batched lockstep replay: one walk of a phase's packed trace and
 * memoized structural stream advances many timing configurations at
 * once.
 *
 * The per-cell replay engine (simulateCoreReplay) already reduced a
 * cell to pure cycle arithmetic over shared read-only inputs, but a
 * slab column still re-reads the ReplayTrace and StructuralStream —
 * and re-runs the per-step decode, cursor bookkeeping, and stats
 * accounting — once per cell. Every cell that shares a structural
 * slice consumes the *identical* step sequence, so that shared work
 * can be hoisted out of the per-cell loop entirely: one cursor set,
 * one decoded step, one stats update per (OoO, uop-cache, fusion)
 * combination, and a time-tiled inner loop that touches only
 * per-cell cycle state, 16 cells per AVX-512 vector of 32-bit cycle
 * stamps. A walk takes that vector kernel whenever the host has
 * AVX-512 and its stamps provably fit 32 bits; every other walk (and
 * every walk under CISA_BATCH_SIMD=0) replays each cell alone
 * through simulateCoreReplay. See DESIGN.md §9 for the layout and
 * the bit-identity argument.
 */

#ifndef CISA_UARCH_BATCH_HH
#define CISA_UARCH_BATCH_HH

#include <vector>

#include "uarch/replay.hh"

namespace cisa
{

/**
 * Simulate @p ncells timing configurations over one packed trace and
 * one memoized structural stream in lockstep. Every cell must lie in
 * the stream's structural slice (same structuralFingerprint for
 * @p env) — cells may differ arbitrarily in timing-side parameters
 * (width, windows, FU counts, uop cache/fusion, in-order vs
 * out-of-order). Returns one PerfResult per cell, in input order,
 * byte-identical to what simulateCoreReplay (and the live engine)
 * would produce for each cell alone; panics on a slice or budget
 * mismatch, exactly like simulateCoreReplay. @p walks (optional)
 * receives the number of trace walks this took: 1 on the vector
 * kernel, @p ncells when each cell replayed alone.
 */
std::vector<PerfResult> simulateCoreBatch(const CoreConfig *cells,
                                          size_t ncells,
                                          const ReplayTrace &packed,
                                          const StructuralStream &stream,
                                          uint64_t timed_uops,
                                          uint64_t warmup_uops,
                                          const RunEnv &env = {},
                                          size_t *walks = nullptr);

/**
 * Whether simulateCoreBatch may take its vector kernel here: the
 * kernel is compiled in (x86-64, GNU C++), the CPU has AVX-512
 * F/BW/DQ/VL, and CISA_BATCH_SIMD is on. A walk then takes it iff
 * its cycle stamps provably fit 32 bits.
 */
bool batchSimdAvailable();

} // namespace cisa

#endif // CISA_UARCH_BATCH_HH
