/**
 * @file
 * Machine-level code: the output of instruction selection, register
 * allocation, and encoding for one composite feature set.
 *
 * Machine instructions follow x86 two-address semantics: `dst` is
 * also the first source of arithmetic ops. Memory operands carry a
 * full base + index*scale + disp addressing expression; whether an
 * arithmetic op may fold such an operand (MemForm::LoadOp /
 * LoadOpStore) is exactly the microx86 vs full-x86 distinction.
 * Integer operands live in the GPR space (0-63), FP/vector operands
 * in the XMM space (0-15); `fp` selects the space.
 */

#ifndef CISA_COMPILER_MACHINE_HH
#define CISA_COMPILER_MACHINE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "compiler/ir.hh"
#include "isa/encoding.hh"
#include "isa/features.hh"
#include "isa/opcodes.hh"

namespace cisa
{

/** The stack pointer's architectural GPR index (rsp). */
constexpr int kSpReg = 4;

/** A memory operand: [base + index*scale + disp]. base -1 = absolute. */
struct MemOperand
{
    int base = -1;
    int index = -1;
    int scale = 1;
    int64_t disp = 0;

    bool used() const { return base >= 0 || index >= 0 || disp != 0; }
};

/** One machine instruction (macro-op). */
struct MachineInstr
{
    Op op = Op::Nop;
    MemForm form = MemForm::None;
    uint8_t opBits = 64;   ///< operand width: 32 or 64
    bool fp = false;       ///< dst/src registers are XMM
    bool vec = false;      ///< packed 2 x f64 lanes
    bool wideData = false; ///< 64-bit *data* op (not pointer width)

    int dst = -1;          ///< destination (and first source) register
    int src1 = -1;         ///< source register
    int src2 = -1;         ///< extra source (Store data, Cmp rhs)
    int64_t imm = 0;
    bool hasImm = false;
    MemOperand mem;

    Cond cond = Cond::Eq;  ///< Branch / Cmov / Set condition

    // Full predication.
    int predReg = -1;
    bool predSense = true;

    // Control flow.
    int succ0 = -1;        ///< taken target block
    int succ1 = -1;        ///< fall-through block
    double prob = 0.5;
    bool predictable = true;
    int callee = -1;

    // Filled by the encoding pass.
    uint8_t len = 0;       ///< encoded bytes
    uint8_t uops = 0;      ///< micro-op expansion
    uint64_t addr = 0;     ///< code address

    /** Primary micro-op class. */
    MicroClass cls() const { return opClass(op); }

    /** True for control transfers. */
    bool isBranch() const { return isBranchOp(op); }

    /** True if the instruction reads memory. */
    bool readsMem() const
    {
        return form == MemForm::Load || form == MemForm::LoadOp ||
               form == MemForm::LoadOpStore;
    }

    /** True if the instruction writes memory. */
    bool writesMem() const
    {
        return form == MemForm::Store || form == MemForm::LoadOpStore;
    }

    /** Memory access size in bytes (0 if no memory operand). */
    int memBytes() const;

    /** Encoding facts for the length model. */
    EncInfo encInfo() const;

    /** Disassembly-style rendering. */
    std::string str() const;
};

/** A machine basic block. */
struct MachineBlock
{
    std::vector<MachineInstr> instrs;
};

/** Per-function static code statistics. */
struct CodeStats
{
    uint64_t instrs = 0;
    uint64_t uops = 0;
    uint64_t codeBytes = 0;
    uint64_t loads = 0;      ///< instructions that read memory
    uint64_t stores = 0;     ///< instructions that write memory
    uint64_t branches = 0;
    uint64_t intOps = 0;
    uint64_t fpOps = 0;
    uint64_t simdOps = 0;
    uint64_t predicated = 0;
    uint64_t spillStores = 0;  ///< inserted by register allocation
    uint64_t spillLoads = 0;
    uint64_t remats = 0;       ///< rematerialized instead of reloaded

    void add(const CodeStats &o);
};

/** One compiled function. */
struct MachineFunction
{
    std::string name;
    std::vector<MachineBlock> blocks;

    // Virtual-register state between isel and regalloc. After
    // allocation, register fields hold architectural indices and
    // numVregs is 0.
    int numVregs = 0;
    std::vector<bool> vregFp; ///< per-vreg class (GPR vs XMM)

    int64_t frameBytes = 0;   ///< spill/save area, SP-relative
    CodeStats stats;

    /** Fresh vreg of the given class. */
    int newVreg(bool fp);
};

/** A fully compiled module for one feature set. */
struct MachineProgram
{
    std::string name;
    FeatureSet target;
    std::vector<MachineFunction> funcs; ///< funcs[0] = entry
    CodeStats stats;                    ///< totals over functions

    /** Total encoded code size in bytes. */
    uint64_t codeBytes() const { return stats.codeBytes; }

    /** Human-readable listing. */
    std::string print() const;

    /** Recompute per-function and program stats from the code. */
    void recomputeStats();
};

/**
 * Digest of everything executing @p prog reads: every MachineInstr
 * field, each function's block structure and frameBytes. The name,
 * the target and the derived stats are left out, so programs of two
 * feature sets that compile to the same code digest equal. Campaign
 * stage 1 keys its shared simulations by it (src/explore/campaign.hh).
 */
uint64_t codeDigest(const MachineProgram &prog);

} // namespace cisa

#endif // CISA_COMPILER_MACHINE_HH
