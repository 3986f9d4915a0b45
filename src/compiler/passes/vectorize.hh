/**
 * @file
 * Loop vectorization for SIMD-capable feature sets.
 *
 * Transforms canonical single-block innermost F64 loops (flagged
 * vectorizable by the workload generator) into packed two-lane
 * SSE2-style form: unit-stride loads/stores become VLoad/VStore,
 * arithmetic becomes VAdd/VSub/VMul, loop-invariant scalars are splat
 * in the preheader, and additive reductions are accumulated per lane
 * and horizontally summed on exit. A cloned scalar remainder loop
 * preserves exact trip semantics for odd counts.
 */

#ifndef CISA_COMPILER_PASSES_VECTORIZE_HH
#define CISA_COMPILER_PASSES_VECTORIZE_HH

#include "compiler/ir.hh"

namespace cisa
{

/** Statistics of one vectorizer run. */
struct VectorizeStats
{
    int loopsVectorized = 0;
    int loopsRejected = 0;
};

/**
 * Vectorize eligible loops of @p f. Only called for targets with
 * packed-SIMD support. Mutates the function in place.
 */
VectorizeStats runVectorize(IrFunction &f);

} // namespace cisa

#endif // CISA_COMPILER_PASSES_VECTORIZE_HH
