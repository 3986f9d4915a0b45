/**
 * @file
 * Standard compiler analyses over the IR CFG: predecessors, reverse
 * postorder, and iterative live-variable analysis. These feed the
 * pressure-sensitive redundancy elimination, if-conversion
 * profitability, vectorization legality, and linear-scan allocation.
 */

#ifndef CISA_COMPILER_ANALYSIS_HH
#define CISA_COMPILER_ANALYSIS_HH

#include <cstdint>
#include <vector>

#include "compiler/ir.hh"

namespace cisa
{

/** Sources (used vregs) of an IR instruction. */
void irUses(const IrInstr &i, std::vector<int> &out);

/** Defined vreg of an IR instruction, -1 if none. */
int irDef(const IrInstr &i);

/** CFG structure of one function. */
struct Cfg
{
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;
    std::vector<int> rpo;     ///< reverse postorder over reachable blocks
    std::vector<int> rpoIndex;///< block -> position in rpo, -1 unreachable

    /** Build from a function. */
    static Cfg build(const IrFunction &f);
};

/** Live-variable analysis results. */
struct Liveness
{
    std::vector<std::vector<uint64_t>> liveIn;  ///< bitsets per block
    std::vector<std::vector<uint64_t>> liveOut;
    int numVregs = 0;

    bool isLiveIn(int block, int vreg) const;

    /**
     * Maximum number of simultaneously-live vregs inside a block
     * (the register-pressure estimate used by LVN and if-conversion).
     */
    int maxPressure(const IrFunction &f, int block) const;

    static Liveness build(const IrFunction &f, const Cfg &cfg);
};

} // namespace cisa

#endif // CISA_COMPILER_ANALYSIS_HH
