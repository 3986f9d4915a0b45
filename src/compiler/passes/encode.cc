#include "compiler/passes/encode.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace cisa
{

namespace
{

/** Micro-op expansion for one instruction on this feature set. */
int
expansionOf(const MachineInstr &i, const FeatureSet &target)
{
    int u = uopExpansion(i.op, i.form);
    if (target.complexity == Complexity::MicroX86) {
        panic_if(u != 1,
                 "microx86 selected a %d-uop macro-op (%s, form %d)",
                 u, opName(i.op), int(i.form));
    }
    return u;
}

} // namespace

void
runEncode(MachineProgram &prog)
{
    // Iterate layout until branch displacement sizes stabilize.
    // Everything starts optimistic (rel8) and only grows, so this
    // converges; we cap the loop defensively.

    // Per-function, per-instruction branch-displacement widths.
    std::vector<std::vector<uint8_t>> brw(prog.funcs.size());
    std::vector<std::vector<uint64_t>> blockAddr(prog.funcs.size());

    for (size_t fi = 0; fi < prog.funcs.size(); fi++) {
        size_t n = 0;
        for (const auto &b : prog.funcs[fi].blocks)
            n += b.instrs.size();
        brw[fi].assign(n, 1);
        blockAddr[fi].assign(prog.funcs[fi].blocks.size(), 0);
    }

    for (int round = 0; round < 16; round++) {
        bool grew = false;
        uint64_t pc = kCodeBase;

        // Pass A: lengths and addresses with the current widths.
        for (size_t fi = 0; fi < prog.funcs.size(); fi++) {
            MachineFunction &f = prog.funcs[fi];
            size_t idx = 0;
            for (size_t bi = 0; bi < f.blocks.size(); bi++) {
                blockAddr[fi][bi] = pc;
                for (auto &i : f.blocks[bi].instrs) {
                    EncInfo e = i.encInfo();
                    if (i.op == Op::Branch || i.op == Op::Jump ||
                        i.op == Op::Call) {
                        e.immBytes = brw[fi][idx] == 1 ? 1 : 4;
                    }
                    i.addr = pc;
                    i.len = uint8_t(x86EncodedLength(e));
                    i.uops = uint8_t(expansionOf(i, prog.target));
                    pc += i.len;
                    idx++;
                }
            }
        }

        // Pass B: check that rel8 targets still fit.
        for (size_t fi = 0; fi < prog.funcs.size(); fi++) {
            MachineFunction &f = prog.funcs[fi];
            size_t idx = 0;
            for (auto &b : f.blocks) {
                for (auto &i : b.instrs) {
                    bool is_br = i.op == Op::Branch ||
                                 i.op == Op::Jump;
                    if (is_br && brw[fi][idx] == 1) {
                        uint64_t tgt =
                            blockAddr[fi][size_t(i.succ0)];
                        int64_t rel = int64_t(tgt) -
                                      int64_t(i.addr + i.len);
                        if (rel < -128 || rel > 127) {
                            brw[fi][idx] = 4;
                            grew = true;
                        }
                    } else if (i.op == Op::Call &&
                               brw[fi][idx] == 1) {
                        // Calls always take rel32 (matches x86).
                        brw[fi][idx] = 4;
                        grew = true;
                    }
                    idx++;
                }
            }
        }
        if (!grew)
            break;
    }

    prog.recomputeStats();
}

} // namespace cisa
