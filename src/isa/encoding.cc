#include "isa/encoding.hh"

#include "common/logging.hh"
#include "isa/registers.hh"

namespace cisa
{

int
opcodeBytes(Op op)
{
    if (isSimdOp(op))
        return 3; // mandatory prefix + 0x0f escape + opcode
    if (isFpOp(op))
        return 3; // scalar SSE: f2/66 prefix + 0x0f + opcode
    switch (op) {
      case Op::Cmov:
        return 2; // 0x0f 0x4x
      case Op::Branch:
        return 1; // jcc rel8; rel32 handled via immBytes==4 below
      default:
        return 1;
    }
}

namespace
{

bool
needsModrm(const EncInfo &e)
{
    switch (e.op) {
      case Op::Jump:
      case Op::Call:
      case Op::Ret:
      case Op::Branch:
      case Op::Nop:
        return false;
      case Op::MovImm:
        // mov r, imm uses opcode+rd for legacy regs; ModRM form is
        // equivalent in length for our purposes.
        return false;
      default:
        return true;
    }
}

} // namespace

int
x86EncodedLength(const EncInfo &e)
{
    int len = opcodeBytes(e.op);

    // Branch-family instructions encode target as an immediate.
    if (e.op == Op::Branch && e.immBytes == 4)
        len += 1; // two-byte 0x0f 0x8x form for rel32

    bool needs_rex = e.w64 ||
        (e.maxGpr >= 8 && e.maxGpr < 16);
    bool needs_rexbc = e.maxGpr >= 16;
    if (needs_rexbc) {
        len += 2; // 0xd6 escape + extension byte
        // REXBC supplies only the top bits; REX still carries W and
        // the fourth bit, and is emitted alongside.
        needs_rex = needs_rex || true;
    }
    if (needs_rex)
        len += 1;
    if (e.predicated)
        len += 2; // 0xf1 escape + predicate byte

    if (needsModrm(e))
        len += 1;
    if (e.form != MemForm::None && e.indexReg)
        len += 1; // SIB
    if (e.form != MemForm::None)
        len += e.dispBytes;
    len += e.immBytes;

    panic_if(len > kSupersetMaxLen,
             "encoded length %d exceeds superset limit", len);
    return len;
}

int
dispBytesFor(long long disp)
{
    if (disp == 0)
        return 0;
    if (disp >= -128 && disp <= 127)
        return 1;
    return 4;
}

int
immBytesFor(long long imm, bool w64)
{
    if (imm == 0)
        return 0;
    if (imm >= -128 && imm <= 127)
        return 1;
    if (imm >= -2147483648LL && imm <= 2147483647LL)
        return 4;
    panic_if(!w64, "imm64 on a 32-bit feature set");
    return 8;
}

} // namespace cisa
