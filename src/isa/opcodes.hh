/**
 * @file
 * Operation vocabulary shared by the compiler backend, the machine
 * interpreter, and the timing models: macro-operation kinds, memory
 * addressing forms, micro-op classes, execution latencies, and the
 * macro-op to micro-op expansion rules that define the microx86 /
 * full-x86 split (Section III, "Instruction Complexity").
 */

#ifndef CISA_ISA_OPCODES_HH
#define CISA_ISA_OPCODES_HH

#include <cstdint>

namespace cisa
{

/** Semantic operation of a machine instruction. */
enum class Op : uint8_t {
    Mov,    ///< register-to-register copy
    MovImm, ///< load immediate
    Add, Sub, Mul, Div,
    And, Or, Xor, Shl, Shr,
    Adc,    ///< add with carry (64-bit emulation on 32-bit sets)
    Sbb,    ///< subtract with borrow
    MulHi,  ///< high half of a widening multiply
    Cmp,    ///< compare, writes the flags register
    Lea,    ///< address arithmetic (base + index*scale + disp)
    Branch, ///< conditional branch on flags
    Jump,   ///< unconditional branch
    Call, Ret,
    Cmov,   ///< partial predication: conditional move on flags
    Set,    ///< materialize a flags condition as 0/1
    FAdd, FSub, FMul, FDiv, FSqrt,
    FMovI,  ///< movq xmm <- gpr (FP constant materialization)
    I2F, F2I,
    VAdd, VSub, VMul, ///< packed SIMD (128-bit), 2 x f64 lanes
    VSplat,           ///< broadcast low lane (unpcklpd-style)
    VPack,            ///< combine two scalars into lanes
    VReduce,          ///< horizontal add of the two lanes
    Load,   ///< explicit load (mov reg, [mem])
    Store,  ///< explicit store (mov [mem], reg)
    Nop,
    NumOps
};

/** Printable mnemonic. */
const char *opName(Op op);

/** Memory-operand form of a macro-op. */
enum class MemForm : uint8_t {
    None,       ///< register/immediate operands only
    Load,       ///< pure load (also microx86-legal)
    Store,      ///< pure store (also microx86-legal)
    LoadOp,     ///< op with memory source, e.g. add rax, [mem]
    LoadOpStore ///< read-modify-write, e.g. add [mem], rax
};

/** Functional-unit class of a micro-op. */
enum class MicroClass : uint8_t {
    IntAlu, IntMul, IntDiv,
    FpAlu, FpMul, FpDiv,
    SimdAlu, SimdMul,
    Load, Store, Branch,
    NumClasses
};

/** Execution latency (cycles) of a micro-op class, excluding memory
 * hierarchy time for loads. Constexpr: evaluated once per issued uop
 * on the simulation hot path, so it must inline to a table lookup
 * rather than cost a call. */
constexpr int
microLatency(MicroClass c)
{
    switch (c) {
      case MicroClass::IntAlu:  return 1;
      case MicroClass::IntMul:  return 3;
      case MicroClass::IntDiv:  return 12;
      case MicroClass::FpAlu:   return 3;
      case MicroClass::FpMul:   return 4;
      case MicroClass::FpDiv:   return 12;
      case MicroClass::SimdAlu: return 2;
      case MicroClass::SimdMul: return 4;
      case MicroClass::Load:    return 1; // plus memory hierarchy
      case MicroClass::Store:   return 1;
      default:                  return 1; // Branch
    }
}

/** True if @p c issues to an integer ALU-type port. */
constexpr bool
isIntClass(MicroClass c)
{
    switch (c) {
      case MicroClass::IntAlu:
      case MicroClass::IntMul:
      case MicroClass::IntDiv:
      case MicroClass::Branch:
        return true;
      default:
        return false;
    }
}

/** True if @p c issues to the FP/SIMD port group. */
constexpr bool
isFpSimdClass(MicroClass c)
{
    switch (c) {
      case MicroClass::FpAlu:
      case MicroClass::FpMul:
      case MicroClass::FpDiv:
      case MicroClass::SimdAlu:
      case MicroClass::SimdMul:
        return true;
      default:
        return false;
    }
}

/** Compute micro-op class of @p op (ignoring memory form). */
MicroClass opClass(Op op);

/** True if the op is a packed SIMD operation. */
bool isSimdOp(Op op);

/** True if the op is a scalar floating-point operation. */
bool isFpOp(Op op);

/** True if the op is a control-transfer operation. */
bool isBranchOp(Op op);

/**
 * Number of micro-ops a macro-op decodes into on a full-x86 decoder.
 *
 * microx86 feature sets only admit forms where this is 1 (pure
 * register ops, pure loads, pure stores); the compiler's instruction
 * selector enforces that. On full x86: a load-op form adds a load
 * micro-op, a read-modify-write adds load + store + address
 * generation (1:4 via the complex decoder), and more than half of the
 * packed-SIMD forms crack into two micro-ops (the paper's rationale
 * for excluding SSE from microx86).
 */
int uopExpansion(Op op, MemForm form);

/** True if (op, form) is encodable in the microx86 subset. */
bool microx86Legal(Op op, MemForm form);

} // namespace cisa

#endif // CISA_ISA_OPCODES_HH
