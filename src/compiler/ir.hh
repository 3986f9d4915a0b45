/**
 * @file
 * Target-independent intermediate representation.
 *
 * A deliberately small, non-SSA three-address IR: virtual registers
 * are mutable, so structured control flow needs no phi nodes (the
 * workload generator writes the same vreg on both sides of a
 * diamond). Liveness, local value numbering, if-conversion,
 * vectorization, instruction selection and linear-scan allocation
 * all operate directly on this form. One IrModule is
 * compiled unchanged to every composite feature set, which is what
 * makes cross-ISA comparisons fair.
 *
 * Memory is modelled as named regions (arrays) with typed elements
 * and an initialization rule; `PtrInt` is the target-pointer-width
 * integer type, so pointer-heavy data structures genuinely shrink on
 * 32-bit feature sets (the cache-efficiency effect in Section VII.D).
 */

#ifndef CISA_COMPILER_IR_HH
#define CISA_COMPILER_IR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cisa
{

/** IR value types. */
enum class Type : uint8_t {
    I32,   ///< 32-bit integer
    I64,   ///< 64-bit integer
    F64,   ///< double-precision float
    V128,  ///< packed 2 x 64-bit lanes (introduced by the vectorizer)
    PtrInt ///< integer of the target's pointer width
};

/** Printable type name. */
const char *typeName(Type t);

/** Size in bytes given the target register width in bits. */
int typeBytes(Type t, int ptr_bits);

/** Comparison condition; Ult/Uge compare unsigned. */
enum class Cond : uint8_t { Eq, Ne, Lt, Le, Gt, Ge, Ult, Uge };

/** Printable condition mnemonic. */
const char *condName(Cond c);

/** Negation of a condition. */
Cond negateCond(Cond c);

/** Evaluate a condition on a signed comparison of a vs b. */
bool evalCond(Cond c, int64_t a, int64_t b);

/** IR operations. */
enum class IrOp : uint8_t {
    ConstInt, ///< dst = imm
    ConstF,   ///< dst = fimm
    BaseAddr, ///< dst = address of region[imm]
    Add, Sub, Mul, Div, And, Or, Xor, Shl, Shr, ///< dst = a OP (b|imm)
    FAdd, FSub, FMul, FDiv, FSqrt,              ///< FP arithmetic
    I2F, F2I,
    Gep,      ///< dst = a + b * imm2(scale) + imm(disp); b may be -1
    Load,     ///< dst = mem[a], type gives access size
    Store,    ///< mem[a] = b
    ICmp,     ///< dst = evalCond(cond, a, b|imm) ? 1 : 0
    Select,   ///< dst = a(cond vreg) != 0 ? b : c
    Br,       ///< conditional: a != 0 -> succ0 else succ1
    Jmp,      ///< unconditional -> succ0
    Call,     ///< call function imm (no args, side effects only)
    Ret,      ///< return a (or nothing when a == -1)
    VLoad, VStore, VAdd, VSub, VMul, ///< packed forms (vectorizer)
    VSplat,   ///< dst = {a, a}
    VPack,    ///< dst = {a, b}
    VReduce,  ///< dst = lane0 + lane1 of a (horizontal sum)
    NumIrOps
};

/** Printable op mnemonic. */
const char *irOpName(IrOp op);

/** True for control-transfer IR ops. */
bool irIsTerminator(IrOp op);

/** One three-address instruction. */
struct IrInstr
{
    IrOp op = IrOp::ConstInt;
    Type type = Type::I32;
    int dst = -1; ///< defined vreg, -1 if none
    int a = -1;   ///< first source vreg
    int b = -1;   ///< second source vreg (-1 selects the immediate)
    int c = -1;   ///< third source vreg (Select only)
    int64_t imm = 0;
    int64_t imm2 = 0;   ///< Gep scale
    double fimm = 0.0;
    Cond cond = Cond::Eq;

    // Branch fields.
    int succ0 = -1;
    int succ1 = -1;
    double prob = 0.5;       ///< static probability of taking succ0
    bool predictable = true; ///< profile hint: regular outcome stream

    // Full predication (set by if-conversion): execute the effect
    // only when (predVreg != 0) == predSense.
    int predVreg = -1;
    bool predSense = true;

    /** True if this instruction defines a vreg. */
    bool hasDst() const { return dst >= 0; }
};

/** A basic block: straight-line instrs ending in one terminator. */
struct IrBlock
{
    std::vector<IrInstr> instrs;

    // Loop metadata stamped by the generator (and the vectorizer's
    // remainder loops).
    bool isLoopHeader = false;
    bool vectorizable = false;  ///< innermost, no loop-carried deps
    uint64_t tripCountHint = 0; ///< expected iterations per entry

    /** The terminator (last instruction); block must be sealed. */
    const IrInstr &terminator() const { return instrs.back(); }
};

/** Element kind of a memory region. */
enum class ElemKind : uint8_t { I32, I64, F64, Ptr };

/** How a region's contents are initialized before execution. */
enum class RegionInit : uint8_t {
    Zero,
    RandomInt,   ///< uniform random integers (seeded)
    Ramp,        ///< a[i] = i
    PermutePtr   ///< a[i] = &a[perm[i]]: a random pointer-chase cycle
};

/** A named memory region (global array). */
struct MemRegion
{
    std::string name;
    ElemKind elem = ElemKind::I32;
    uint64_t count = 0; ///< number of elements
    RegionInit init = RegionInit::Zero;
    uint64_t seed = 1;

    /** Element size in bytes for a given pointer width. */
    int elemBytes(int ptr_bits) const;

    /** Region size in bytes for a given pointer width. */
    uint64_t sizeBytes(int ptr_bits) const;
};

/** One function: a CFG of basic blocks; block 0 is the entry. */
struct IrFunction
{
    std::string name;
    std::vector<IrBlock> blocks;
    int numVregs = 0;

    /** Fresh virtual register. */
    int newVreg() { return numVregs++; }
};

/** A compilation unit: functions plus the memory image. */
struct IrModule
{
    std::string name;
    std::vector<IrFunction> funcs; ///< funcs[0] is the entry point
    std::vector<MemRegion> regions;

    /**
     * Check structural invariants. Returns an empty string when the
     * module is well-formed, otherwise a description of the first
     * violation. Non-fatal so the pass pipeline's verify mode can
     * attach the offending pass's name before dying.
     */
    std::string check() const;

    /** check(), but panics with the message on error. */
    void validate() const;

    /** Human-readable listing (debugging aid). */
    std::string print() const;
};

/**
 * Convenience builder used by the workload generator and tests.
 * Tracks a current function/block insertion point.
 */
class IrBuilder
{
  public:
    explicit IrBuilder(IrModule &m) : mod_(m) {}

    /** Start a new function; returns its index. */
    int startFunc(const std::string &name);

    /** Create a new block in the current function; returns its id. */
    int newBlock();

    /** Move the insertion point. */
    void setBlock(int b) { cur_ = b; }

    /** Current block id. */
    int block() const { return cur_; }

    /** Current function. */
    IrFunction &func();

    /** Append an instruction to the current block. */
    IrInstr &emit(const IrInstr &i);

    // Typed helpers; all return the destination vreg.
    int constInt(int64_t v, Type t = Type::I64);
    int constF(double v);
    int baseAddr(int region);
    int arith(IrOp op, int a, int b, Type t);
    int arithImm(IrOp op, int a, int64_t imm, Type t);
    int farith(IrOp op, int a, int b);
    int fsqrt(int a);
    int i2f(int a);
    int f2i(int a, Type t = Type::I32);
    int gep(int base, int index, int scale, int64_t disp);
    int load(int addr, Type t);
    void store(int addr, int val, Type t);
    int icmp(Cond c, int a, int b);
    int icmpImm(Cond c, int a, int64_t imm);
    int select(int cond, int a, int b, Type t);
    void br(int cond, int bt, int bf, double prob, bool predictable);
    void jmp(int b);
    void call(int func);
    void ret(int v = -1);

    // Redefinitions of an existing vreg (non-SSA updates).
    void arithInto(int dst, IrOp op, int a, int b, Type t);
    void arithImmInto(int dst, IrOp op, int a, int64_t imm, Type t);
    void farithInto(int dst, IrOp op, int a, int b);
    void loadInto(int dst, int addr, Type t);
    void movInto(int dst, int src, Type t);
    void constIntInto(int dst, int64_t v, Type t);

  private:
    IrModule &mod_;
    int curFunc_ = -1;
    int cur_ = -1;
};

} // namespace cisa

#endif // CISA_COMPILER_IR_HH
