/**
 * @file
 * Instruction-length model of the superset ISA's variable-length
 * encoding (Section V.A, Figure 3).
 *
 * Layout per instruction: optional legacy prefixes, the new optional
 * two-byte REXBC prefix (escape 0xd6 + 2 extension bits for each of
 * the three register operands), the new optional two-byte predicate
 * prefix (escape 0xf1 + true/not-true bit + 7-bit predicate register),
 * optional REX, 1-3 opcode bytes, ModRM, optional SIB, 0/1/4-byte
 * displacement, 0/1/4/8-byte immediate. The code-size consequences of
 * every feature axis (REXBC registers, predication, folded addressing
 * modes) flow through this model into the instruction cache, the
 * instruction-length decoder, and fetch energy.
 */

#ifndef CISA_ISA_ENCODING_HH
#define CISA_ISA_ENCODING_HH

#include "isa/opcodes.hh"

namespace cisa
{

/** Maximum legal instruction length of classic x86. */
constexpr int kX86MaxLen = 15;

/**
 * Maximum legal length in the superset ISA: the REXBC and predicate
 * prefixes add up to 4 bytes; the paper widens the macro-op queue
 * accordingly.
 */
constexpr int kSupersetMaxLen = kX86MaxLen + 4;

/** Encoding-relevant facts about one macro-op. */
struct EncInfo
{
    Op op = Op::Nop;
    MemForm form = MemForm::None;
    bool w64 = false;       ///< 64-bit operand size (REX.W)
    int maxGpr = -1;        ///< highest GPR index referenced, -1 none
    bool predicated = false;///< carries the predicate prefix
    int dispBytes = 0;      ///< memory displacement: 0, 1 or 4
    int immBytes = 0;       ///< immediate: 0, 1, 4 or 8
    bool indexReg = false;  ///< scaled-index addressing (needs SIB)
};

/** Opcode field size in bytes (includes mandatory SSE prefixes). */
int opcodeBytes(Op op);

/** Encoded length in bytes under the superset/x86 encoding. */
int x86EncodedLength(const EncInfo &e);

/** Displacement field size for a byte offset. */
int dispBytesFor(long long disp);

/** Immediate field size for a value (w64 allows imm64 for MovImm). */
int immBytesFor(long long imm, bool w64);

} // namespace cisa

#endif // CISA_ISA_ENCODING_HH
