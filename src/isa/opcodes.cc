#include "isa/opcodes.hh"

#include "common/logging.hh"

namespace cisa
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::Mov:    return "mov";
      case Op::MovImm: return "movi";
      case Op::Add:    return "add";
      case Op::Sub:    return "sub";
      case Op::Mul:    return "imul";
      case Op::Div:    return "idiv";
      case Op::And:    return "and";
      case Op::Or:     return "or";
      case Op::Xor:    return "xor";
      case Op::Shl:    return "shl";
      case Op::Shr:    return "shr";
      case Op::Adc:    return "adc";
      case Op::Sbb:    return "sbb";
      case Op::MulHi:  return "mulh";
      case Op::Cmp:    return "cmp";
      case Op::Lea:    return "lea";
      case Op::Branch: return "jcc";
      case Op::Jump:   return "jmp";
      case Op::Call:   return "call";
      case Op::Ret:    return "ret";
      case Op::Cmov:   return "cmov";
      case Op::Set:    return "setcc";
      case Op::FAdd:   return "addsd";
      case Op::FSub:   return "subsd";
      case Op::FMul:   return "mulsd";
      case Op::FDiv:   return "divsd";
      case Op::FSqrt:  return "sqrtsd";
      case Op::FMovI:  return "movq";
      case Op::I2F:    return "cvtsi2sd";
      case Op::F2I:    return "cvttsd2si";
      case Op::VAdd:   return "addpd";
      case Op::VSub:   return "subpd";
      case Op::VMul:   return "mulpd";
      case Op::VSplat: return "unpcklpd";
      case Op::VPack:  return "shufpd";
      case Op::VReduce:return "haddpd";
      case Op::Load:   return "ld";
      case Op::Store:  return "st";
      case Op::Nop:    return "nop";
      default: panic("bad op %d", int(op));
    }
}

MicroClass
opClass(Op op)
{
    switch (op) {
      case Op::Mov:
      case Op::MovImm:
      case Op::Add:
      case Op::Sub:
      case Op::Adc:
      case Op::Sbb:
      case Op::And:
      case Op::Or:
      case Op::Xor:
      case Op::Shl:
      case Op::Shr:
      case Op::Cmp:
      case Op::Lea:
      case Op::Cmov:
      case Op::Set:
      case Op::Nop:
        return MicroClass::IntAlu;
      case Op::Mul:
      case Op::MulHi:
        return MicroClass::IntMul;
      case Op::Div:
        return MicroClass::IntDiv;
      case Op::FAdd:
      case Op::FSub:
      case Op::FMovI:
      case Op::I2F:
      case Op::F2I:
        return MicroClass::FpAlu;
      case Op::FMul:
        return MicroClass::FpMul;
      case Op::FDiv:
      case Op::FSqrt:
        return MicroClass::FpDiv;
      case Op::VAdd:
      case Op::VSub:
      case Op::VSplat:
      case Op::VPack:
      case Op::VReduce:
        return MicroClass::SimdAlu;
      case Op::VMul:
        return MicroClass::SimdMul;
      case Op::Branch:
      case Op::Jump:
      case Op::Call:
      case Op::Ret:
        return MicroClass::Branch;
      case Op::Load:
        return MicroClass::Load;
      case Op::Store:
        return MicroClass::Store;
      default:
        panic("bad op %d", int(op));
    }
}

bool
isSimdOp(Op op)
{
    switch (op) {
      case Op::VAdd:
      case Op::VSub:
      case Op::VMul:
      case Op::VSplat:
      case Op::VPack:
      case Op::VReduce:
        return true;
      default:
        return false;
    }
}

bool
isFpOp(Op op)
{
    switch (op) {
      case Op::FAdd:
      case Op::FSub:
      case Op::FMul:
      case Op::FDiv:
      case Op::FSqrt:
      case Op::FMovI:
      case Op::I2F:
      case Op::F2I:
        return true;
      default:
        return false;
    }
}

bool
isBranchOp(Op op)
{
    return op == Op::Branch || op == Op::Jump || op == Op::Call ||
           op == Op::Ret;
}

int
uopExpansion(Op op, MemForm form)
{
    // Control transfers with memory forms do not occur in our
    // generated code; push/pop style stack ops are modelled as
    // explicit Load/Store.
    switch (form) {
      case MemForm::None:
        // Packed SIMD: many SSE compute ops rely on 1:n cracking
        // (Section III); we model the multiply and horizontal
        // families as 2 micro-ops. Aligned 128-bit moves are single
        // micro-ops.
        if (op == Op::VMul || op == Op::VReduce)
            return 2;
        return 1;
      case MemForm::Load:
      case MemForm::Store:
        return 1;
      case MemForm::LoadOp:
        return 1 + uopExpansion(op, MemForm::None);
      case MemForm::LoadOpStore:
        // load + op + store-address + store-data (served by the 1:4
        // complex decoder / microsequencer).
        return 4;
      default:
        panic("bad mem form %d", int(form));
    }
}

bool
microx86Legal(Op op, MemForm form)
{
    if (isSimdOp(op))
        return false; // microx86 never implements SSE
    switch (form) {
      case MemForm::None:
        return true;
      case MemForm::Load:
        return op == Op::Load;
      case MemForm::Store:
        return op == Op::Store;
      default:
        return false;
    }
}

} // namespace cisa
