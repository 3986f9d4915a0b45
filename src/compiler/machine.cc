#include "compiler/machine.hh"

#include <bit>
#include <sstream>

#include "common/hash.hh"
#include "common/logging.hh"
#include "isa/registers.hh"

namespace cisa
{

int
MachineInstr::memBytes() const
{
    if (form == MemForm::None)
        return 0;
    if (vec)
        return 16;
    if (fp)
        return 8;
    return opBits / 8;
}

EncInfo
MachineInstr::encInfo() const
{
    EncInfo e;
    e.op = op;
    e.form = form;
    e.w64 = !fp && opBits == 64;
    int maxg = -1;
    auto upd = [&](int r) {
        if (r > maxg)
            maxg = r;
    };
    if (!fp) {
        upd(dst);
        upd(src1);
        upd(src2);
    }
    upd(mem.base);
    upd(mem.index);
    if (predReg >= 0)
        upd(predReg);
    e.maxGpr = maxg;
    e.predicated = predReg >= 0;
    e.dispBytes = form != MemForm::None ? dispBytesFor(mem.disp) : 0;
    e.immBytes = hasImm ? immBytesFor(imm, e.w64) : 0;
    if (isBranch() && op != Op::Ret) {
        // Branch displacement; the layout pass narrows short ones.
        if (e.immBytes == 0)
            e.immBytes = 4;
    }
    e.indexReg = mem.index >= 0;
    return e;
}

namespace
{

std::string
fmtReg(int r, bool fp, int bits)
{
    if (r < 0)
        return "?";
    if (fp)
        return r < kXmmRegs ? xmmName(r) : strfmt("vf%d", r);
    return r < kMaxRegDepth ? regName(r, bits) : strfmt("v%d", r);
}

std::string
fmtMem(const MemOperand &m)
{
    std::string s = "[";
    if (m.base >= 0)
        s += fmtReg(m.base, false, 64);
    if (m.index >= 0)
        s += strfmt("+%s*%d", fmtReg(m.index, false, 64).c_str(),
                    m.scale);
    if (m.disp != 0)
        s += strfmt("%+lld", static_cast<long long>(m.disp));
    return s + "]";
}

} // namespace

std::string
MachineInstr::str() const
{
    std::ostringstream os;
    if (predReg >= 0) {
        os << "(" << (predSense ? "" : "!")
           << fmtReg(predReg, false, 64) << ") ";
    }
    os << opName(op);
    if (op == Op::Branch || op == Op::Cmov || op == Op::Set)
        os << condName(cond);
    os << " ";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ", ";
        first = false;
    };
    if (dst >= 0) {
        sep();
        os << fmtReg(dst, fp, opBits);
    }
    if (form == MemForm::LoadOp || form == MemForm::Load) {
        sep();
        os << fmtMem(mem);
    } else if (form == MemForm::Store || form == MemForm::LoadOpStore) {
        // destination is memory
        std::ostringstream pre;
        os.str("");
        if (predReg >= 0)
            os << "(" << (predSense ? "" : "!")
               << fmtReg(predReg, false, 64) << ") ";
        os << opName(op) << " " << fmtMem(mem);
        first = false;
    }
    if (src1 >= 0) {
        sep();
        os << fmtReg(src1, fp, opBits);
    }
    if (src2 >= 0) {
        sep();
        os << fmtReg(src2, fp, opBits);
    }
    if (hasImm) {
        sep();
        os << "#" << imm;
    }
    if (op == Op::Branch)
        os << " -> b" << succ0 << "/b" << succ1;
    if (op == Op::Jump)
        os << " -> b" << succ0;
    if (op == Op::Call)
        os << " f" << callee;
    return os.str();
}

void
CodeStats::add(const CodeStats &o)
{
    instrs += o.instrs;
    uops += o.uops;
    codeBytes += o.codeBytes;
    loads += o.loads;
    stores += o.stores;
    branches += o.branches;
    intOps += o.intOps;
    fpOps += o.fpOps;
    simdOps += o.simdOps;
    predicated += o.predicated;
    spillStores += o.spillStores;
    spillLoads += o.spillLoads;
    remats += o.remats;
}

int
MachineFunction::newVreg(bool fp)
{
    vregFp.push_back(fp);
    return numVregs++;
}

std::string
MachineProgram::print() const
{
    std::ostringstream os;
    os << "program " << name << " for " << target.name() << "\n";
    for (const auto &f : funcs) {
        os << "func " << f.name << " frame=" << f.frameBytes << "\n";
        for (size_t b = 0; b < f.blocks.size(); b++) {
            os << " b" << b << ":\n";
            for (const auto &i : f.blocks[b].instrs)
                os << "   " << i.str() << "\n";
        }
    }
    return os.str();
}

void
MachineProgram::recomputeStats()
{
    CodeStats total;
    for (auto &f : funcs) {
        CodeStats s;
        // Preserve allocator-reported fields.
        s.spillStores = f.stats.spillStores;
        s.spillLoads = f.stats.spillLoads;
        s.remats = f.stats.remats;
        for (const auto &b : f.blocks) {
            for (const auto &i : b.instrs) {
                s.instrs++;
                s.uops += i.uops;
                s.codeBytes += i.len;
                if (i.readsMem())
                    s.loads++;
                if (i.writesMem())
                    s.stores++;
                if (i.isBranch())
                    s.branches++;
                if (isSimdOp(i.op))
                    s.simdOps++;
                else if (isFpOp(i.op))
                    s.fpOps++;
                else if (!i.isBranch())
                    s.intOps++;
                if (i.predReg >= 0)
                    s.predicated++;
            }
        }
        f.stats = s;
        total.add(s);
    }
    stats = total;
}

// codeDigest hashes MachineInstr field by field (its padding bytes
// are indeterminate). A new field changes the size and stops the
// build here until the digest covers it.
static_assert(sizeof(MachineInstr) == 120 && sizeof(MemOperand) == 24,
              "codeDigest must hash every MachineInstr field");

uint64_t
codeDigest(const MachineProgram &prog)
{
    uint64_t h = fnv1a("cisa-code");
    auto mix = [&h](uint64_t v) { h = hashCombine(h, v); };
    mix(prog.funcs.size());
    for (const MachineFunction &f : prog.funcs) {
        mix(uint64_t(f.frameBytes));
        mix(f.blocks.size());
        for (const MachineBlock &b : f.blocks) {
            mix(b.instrs.size());
            for (const MachineInstr &i : b.instrs) {
                mix(uint64_t(i.op));
                mix(uint64_t(i.form));
                mix(i.opBits);
                mix(i.fp);
                mix(i.vec);
                mix(i.wideData);
                mix(uint64_t(i.dst));
                mix(uint64_t(i.src1));
                mix(uint64_t(i.src2));
                mix(uint64_t(i.imm));
                mix(i.hasImm);
                mix(uint64_t(i.mem.base));
                mix(uint64_t(i.mem.index));
                mix(uint64_t(i.mem.scale));
                mix(uint64_t(i.mem.disp));
                mix(uint64_t(i.cond));
                mix(uint64_t(i.predReg));
                mix(i.predSense);
                mix(uint64_t(i.succ0));
                mix(uint64_t(i.succ1));
                mix(std::bit_cast<uint64_t>(i.prob));
                mix(i.predictable);
                mix(uint64_t(i.callee));
                mix(i.len);
                mix(i.uops);
                mix(i.addr);
            }
        }
    }
    return h;
}

} // namespace cisa
