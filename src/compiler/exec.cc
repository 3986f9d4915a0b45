#include "compiler/exec.hh"

#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "isa/registers.hh"

namespace cisa
{

void
DynStats::add(const DynStats &o)
{
    macroOps += o.macroOps;
    uops += o.uops;
    for (size_t c = 0; c < size_t(MicroClass::NumClasses); c++)
        uopsByClass[c] += o.uopsByClass[c];
    loads += o.loads;
    stores += o.stores;
    branches += o.branches;
    taken += o.taken;
    predicated += o.predicated;
    predFalse += o.predFalse;
    memBytes += o.memBytes;
    fetchBytes += o.fetchBytes;
}

namespace
{

struct Xmm
{
    uint64_t lo = 0;
    uint64_t hi = 0;
};

struct Flags
{
    int64_t a = 0;
    int64_t b = 0;
    bool carry = false;
};

int64_t
norm(int64_t v, int bits)
{
    return bits == 32 ? int64_t(int32_t(uint32_t(uint64_t(v)))) : v;
}

double
asF(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, 8);
    return d;
}

uint64_t
asBits(double d)
{
    uint64_t v;
    std::memcpy(&v, &d, 8);
    return v;
}

struct Machine
{
    const MachineProgram &prog;
    MemImage &img;
    int ptrBits;
    int64_t gpr[kMaxRegDepth] = {};
    Xmm xmm[kXmmRegs] = {};
    Flags fl;
    ExecResult res;
    uint64_t fuel;
    Trace *trace;
    uint64_t traceCap;
    uint64_t recordCap;
    bool stop = false;

    Machine(const MachineProgram &p, MemImage &image, uint64_t f,
            Trace *t, uint64_t cap, uint64_t rec_cap)
        : prog(p), img(image), ptrBits(p.target.widthBits()), fuel(f),
          trace(t), traceCap(cap), recordCap(rec_cap)
    {
        gpr[kSpReg] = int64_t(img.stackBase + img.stackSize - 64);
    }

    uint64_t
    ea(const MemOperand &m) const
    {
        uint64_t a = uint64_t(m.disp);
        if (m.base >= 0)
            a += uint64_t(gpr[m.base]);
        if (m.index >= 0)
            a += uint64_t(gpr[m.index]) * uint64_t(m.scale);
        return a;
    }

    void
    noteStore(uint64_t addr, uint64_t val, int bytes, bool fp_scalar)
    {
        if (addr >= img.stackBase)
            return;
        if (fp_scalar) {
            res.fpSum += asF(val);
        } else {
            uint64_t mask = bytes >= 8
                                ? ~uint64_t(0)
                                : ((uint64_t(1) << (bytes * 8)) - 1);
            res.intChecksum = checksumStep(res.intChecksum,
                                           val & mask);
        }
    }

    /** Integer binary op at a given width, updating carry. */
    int64_t
    intOp(Op op, int64_t a, int64_t b, int bits)
    {
        uint64_t ua = bits == 32 ? uint64_t(uint32_t(uint64_t(a)))
                                 : uint64_t(a);
        uint64_t ub = bits == 32 ? uint64_t(uint32_t(uint64_t(b)))
                                 : uint64_t(b);
        uint64_t r = 0;
        switch (op) {
          case Op::Add:
            r = ua + ub;
            fl.carry = bits == 32 ? (r >> 32) != 0 : r < ua;
            break;
          case Op::Adc: {
            uint64_t c = fl.carry ? 1 : 0;
            r = ua + ub + c;
            fl.carry = bits == 32
                           ? (r >> 32) != 0
                           : (r < ua || (c && r == ua));
            break;
          }
          case Op::Sub:
            fl.carry = ua < ub;
            r = ua - ub;
            break;
          case Op::Sbb: {
            uint64_t c = fl.carry ? 1 : 0;
            fl.carry = ua < ub + c ||
                       (bits == 64 && ub + c < ub);
            r = ua - ub - c;
            break;
          }
          case Op::And: r = ua & ub; break;
          case Op::Or:  r = ua | ub; break;
          case Op::Xor: r = ua ^ ub; break;
          case Op::Shl: r = ua << (ub & uint64_t(bits - 1)); break;
          case Op::Shr: r = ua >> (ub & uint64_t(bits - 1)); break;
          case Op::Mul:
            r = ua * ub;
            break;
          case Op::MulHi:
            if (bits == 32) {
                r = (uint64_t(uint32_t(ua)) * uint32_t(ub)) >> 32;
            } else {
                using U128 = unsigned __int128;
                r = uint64_t((U128(ua) * ub) >> 64);
            }
            break;
          case Op::Div: {
            int64_t sa = norm(a, bits);
            int64_t sb = norm(b, bits);
            r = sb == 0 ? 0 : uint64_t(sa / sb);
            break;
          }
          default:
            panic("intOp: bad op %s", opName(op));
        }
        int64_t out = norm(int64_t(r), bits);
        // x86 leaves flags mostly reflecting the result; mul/div are
        // excluded (undefined in x86, never consumed here).
        if (op != Op::Mul && op != Op::MulHi && op != Op::Div) {
            fl.a = out;
            fl.b = 0;
        }
        return out;
    }

    double
    fpOp(Op op, double a, double b)
    {
        switch (op) {
          case Op::FAdd: return a + b;
          case Op::FSub: return a - b;
          case Op::FMul: return a * b;
          case Op::FDiv: return b == 0.0 ? 0.0 : a / b;
          default: panic("fpOp: bad op %s", opName(op));
        }
    }

    void recordDyn(const MachineInstr &i, bool pred_false, bool taken,
                   uint64_t addr, int msize);
    bool run(int func_idx, int depth);
};

void
Machine::recordDyn(const MachineInstr &i, bool pred_false, bool taken,
                   uint64_t addr, int msize)
{
    DynStats *d = trace ? &trace->dyn : nullptr;
    if (!d)
        return;

    d->macroOps++;
    d->uops += i.uops;
    d->fetchBytes += i.len;
    if (i.predReg >= 0) {
        d->predicated++;
        if (pred_false)
            d->predFalse++;
    }

    MicroClass primary = i.cls();
    auto bump = [&](MicroClass c, int n = 1) {
        d->uopsByClass[size_t(c)] += uint64_t(n);
    };
    switch (i.form) {
      case MemForm::None:
        bump(primary, i.uops);
        break;
      case MemForm::Load:
        bump(MicroClass::Load, i.uops);
        if (!pred_false) {
            d->loads += i.uops;
            d->memBytes += uint64_t(msize);
        }
        break;
      case MemForm::Store:
        bump(MicroClass::Store, i.uops);
        if (!pred_false) {
            d->stores += i.uops;
            d->memBytes += uint64_t(msize);
        }
        break;
      case MemForm::LoadOp:
        bump(MicroClass::Load, 1);
        bump(primary, i.uops - 1);
        if (!pred_false) {
            d->loads++;
            d->memBytes += uint64_t(msize);
        }
        break;
      case MemForm::LoadOpStore:
        bump(MicroClass::Load, 1);
        bump(primary, 1);
        bump(MicroClass::IntAlu, 1); // store-address generation
        bump(MicroClass::Store, 1);
        if (!pred_false) {
            d->loads++;
            d->stores++;
            d->memBytes += uint64_t(2 * msize);
        }
        break;
    }
    if (i.isBranch()) {
        d->branches++;
        if (taken)
            d->taken++;
    }

    // The runaway guard counts executed macro-ops: the stored count
    // stops growing at recordCap, so it could never trip a capped run.
    if (d->macroOps > traceCap) {
        trace->truncated = true;
        stop = true;
        return;
    }
    // Past the record cap the run keeps executing (the DynStats
    // aggregates above still accumulate) but stops materializing
    // DynOps; see executeMachine's record_cap parameter.
    if (trace->ops.size() >= recordCap)
        return;

    DynOp op;
    op.pc = i.addr;
    op.maddr = pred_false ? 0 : addr;
    op.len = i.len;
    op.uops = i.uops;
    op.msize = uint8_t(pred_false ? 0 : msize);
    op.cls = primary;
    op.form = i.form;
    op.opBits = i.opBits;
    op.flags = uint16_t(
        (i.isBranch() ? DynIsBranch : 0) | (taken ? DynTaken : 0) |
        (i.predReg >= 0 ? DynPredicated : 0) |
        (pred_false ? DynPredFalse : 0) | (i.fp ? DynFp : 0) |
        (i.vec ? DynVec : 0) | (i.wideData ? DynWideData : 0) |
        (i.op == Op::Call ? DynCall : 0) |
        (i.op == Op::Ret ? DynRet : 0));

    auto rid = [&](int r, bool fp) -> int16_t {
        if (r < 0)
            return -1;
        return int16_t(fp ? kXmmBase + r : r);
    };
    // Cross-file ops: I2F reads a GPR, F2I writes one, FMovI reads.
    bool src_fp = i.fp && i.op != Op::FMovI && i.op != Op::I2F;
    bool dst_fp = i.fp && i.op != Op::F2I;
    op.dst = rid(i.dst, dst_fp);
    op.src1 = rid(i.src1, src_fp);
    op.src2 = rid(i.src2, src_fp);
    op.base = rid(i.mem.base, false);
    op.index = rid(i.mem.index, false);
    op.pred = rid(i.predReg, false);
    switch (i.op) {
      case Op::Mov: case Op::MovImm: case Op::Load: case Op::Set:
      case Op::Lea: case Op::FMovI: case Op::I2F: case Op::F2I:
      case Op::FSqrt: case Op::VSplat: case Op::VReduce:
        break;
      default:
        op.readsDst = i.dst >= 0;
        break;
    }
    if (i.predReg >= 0)
        op.readsDst = op.readsDst || i.dst >= 0;
    switch (i.op) {
      case Op::Cmp:
        op.writesFlags = true;
        break;
      case Op::Branch:
      case Op::Cmov:
      case Op::Set:
        op.readsFlags = true;
        break;
      case Op::Adc:
      case Op::Sbb:
        op.readsFlags = true;
        op.writesFlags = true;
        break;
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Shl: case Op::Shr:
        op.writesFlags = true;
        break;
      default:
        break;
    }
    trace->ops.push_back(op);
}

bool
Machine::run(int func_idx, int depth)
{
    panic_if(depth > 64, "machine call depth overflow");
    const MachineFunction &f = prog.funcs[size_t(func_idx)];
    int bi = 0;
    size_t k = 0;

    while (!stop) {
        if (res.dynInstrs >= fuel) {
            res.ranOut = true;
            return false;
        }
        const MachineInstr &i = f.blocks[size_t(bi)].instrs[k];
        res.dynInstrs++;
        k++;

        bool pred_false = false;
        if (i.predReg >= 0) {
            bool p = gpr[i.predReg] != 0;
            pred_false = p != i.predSense;
        }

        int msize = i.memBytes();
        uint64_t addr = i.form != MemForm::None ? ea(i.mem) : 0;
        bool taken = false;

        if (pred_false) {
            recordDyn(i, true, false, addr, msize);
            continue;
        }

        int bits = i.opBits;
        switch (i.op) {
          case Op::Mov:
            if (i.fp) {
                xmm[i.dst] = xmm[i.src1]; // movapd: full register
            } else {
                gpr[i.dst] = norm(gpr[i.src1], bits);
            }
            break;
          case Op::MovImm:
            gpr[i.dst] = norm(i.imm, bits);
            break;
          case Op::Add: case Op::Sub: case Op::Adc: case Op::Sbb:
          case Op::And: case Op::Or: case Op::Xor: case Op::Shl:
          case Op::Shr: case Op::Mul: case Op::MulHi: case Op::Div: {
            if (i.fp) {
                panic("fp value in integer op");
            }
            int64_t b;
            if (i.form == MemForm::LoadOp) {
                uint64_t mv = img.load(addr, msize);
                b = msize == 4 ? norm(int64_t(mv), 32) : int64_t(mv);
                res.loads++;
            } else if (i.form == MemForm::LoadOpStore) {
                uint64_t mv = img.load(addr, msize);
                int64_t m = msize == 4 ? norm(int64_t(mv), 32)
                                       : int64_t(mv);
                int64_t s = i.src1 >= 0 ? gpr[i.src1] : i.imm;
                int64_t r = intOp(i.op, m, s, bits);
                img.store(addr, uint64_t(r), msize);
                noteStore(addr, uint64_t(r), msize, false);
                res.loads++;
                res.stores++;
                break;
            } else if (i.src1 >= 0) {
                b = gpr[i.src1];
            } else {
                b = i.imm;
            }
            gpr[i.dst] = intOp(i.op, gpr[i.dst], b, bits);
            break;
          }
          case Op::Cmp: {
            int64_t a = gpr[i.src1];
            int64_t b;
            if (i.form == MemForm::LoadOp) {
                uint64_t mv = img.load(addr, msize);
                b = msize == 4 ? norm(int64_t(mv), 32) : int64_t(mv);
                res.loads++;
            } else if (i.src2 >= 0) {
                b = gpr[i.src2];
            } else {
                b = i.imm;
            }
            fl.a = norm(a, bits);
            fl.b = norm(b, bits);
            uint64_t ua = bits == 32 ? uint32_t(uint64_t(a))
                                     : uint64_t(a);
            uint64_t ub = bits == 32 ? uint32_t(uint64_t(b))
                                     : uint64_t(b);
            fl.carry = ua < ub;
            break;
          }
          case Op::Lea:
            gpr[i.dst] = norm(int64_t(ea(i.mem)), bits);
            break;
          case Op::Set:
            gpr[i.dst] = evalCond(i.cond, fl.a, fl.b) ? 1 : 0;
            break;
          case Op::Cmov:
            if (evalCond(i.cond, fl.a, fl.b))
                gpr[i.dst] = norm(gpr[i.src1], bits);
            break;
          case Op::FMovI:
            xmm[i.dst].lo = uint64_t(gpr[i.src1]);
            break;
          case Op::I2F:
            xmm[i.dst].lo = asBits(double(gpr[i.src1]));
            break;
          case Op::F2I: {
            double d = asF(xmm[i.src1].lo);
            int64_t v = (d >= -9.0e18 && d <= 9.0e18) ? int64_t(d)
                                                      : 0;
            gpr[i.dst] = norm(v, bits);
            break;
          }
          case Op::FAdd: case Op::FSub: case Op::FMul:
          case Op::FDiv: {
            uint64_t blo, bhi = 0;
            if (i.form == MemForm::LoadOp) {
                if (i.vec) {
                    blo = img.load(addr, 8);
                    bhi = img.load(addr + 8, 8);
                } else {
                    blo = img.load(addr, 8);
                }
                res.loads++;
            } else {
                blo = xmm[i.src1].lo;
                bhi = xmm[i.src1].hi;
            }
            xmm[i.dst].lo =
                asBits(fpOp(i.op, asF(xmm[i.dst].lo), asF(blo)));
            if (i.vec) {
                xmm[i.dst].hi =
                    asBits(fpOp(i.op, asF(xmm[i.dst].hi), asF(bhi)));
            }
            break;
          }
          case Op::VAdd: case Op::VSub: case Op::VMul: {
            Op sc = i.op == Op::VAdd   ? Op::FAdd
                    : i.op == Op::VSub ? Op::FSub
                                       : Op::FMul;
            uint64_t blo, bhi;
            if (i.form == MemForm::LoadOp) {
                blo = img.load(addr, 8);
                bhi = img.load(addr + 8, 8);
                res.loads++;
            } else {
                blo = xmm[i.src1].lo;
                bhi = xmm[i.src1].hi;
            }
            xmm[i.dst].lo =
                asBits(fpOp(sc, asF(xmm[i.dst].lo), asF(blo)));
            xmm[i.dst].hi =
                asBits(fpOp(sc, asF(xmm[i.dst].hi), asF(bhi)));
            break;
          }
          case Op::FSqrt:
            xmm[i.dst].lo = asBits(
                std::sqrt(std::fabs(asF(xmm[i.src1].lo))));
            break;
          case Op::VSplat:
            xmm[i.dst].lo = xmm[i.src1].lo;
            xmm[i.dst].hi = xmm[i.src1].lo;
            break;
          case Op::VPack:
            xmm[i.dst].hi = xmm[i.src1].lo;
            break;
          case Op::VReduce:
            xmm[i.dst].lo = asBits(asF(xmm[i.src1].lo) +
                                   asF(xmm[i.src1].hi));
            xmm[i.dst].hi = 0;
            break;
          case Op::Load: {
            if (i.fp) {
                if (i.vec) {
                    xmm[i.dst].lo = img.load(addr, 8);
                    xmm[i.dst].hi = img.load(addr + 8, 8);
                } else {
                    xmm[i.dst].lo = img.load(addr, 8);
                }
            } else {
                uint64_t v = img.load(addr, msize);
                gpr[i.dst] = msize == 4 ? norm(int64_t(v), 32)
                                        : int64_t(v);
            }
            res.loads++;
            break;
          }
          case Op::Store: {
            if (i.fp) {
                if (i.vec) {
                    img.store(addr, xmm[i.src1].lo, 8);
                    img.store(addr + 8, xmm[i.src1].hi, 8);
                    noteStore(addr, xmm[i.src1].lo, 8, false);
                    noteStore(addr + 8, xmm[i.src1].hi, 8, false);
                } else {
                    img.store(addr, xmm[i.src1].lo, 8);
                    noteStore(addr, xmm[i.src1].lo, 8, true);
                }
            } else {
                img.store(addr, uint64_t(gpr[i.src1]), msize);
                noteStore(addr, uint64_t(gpr[i.src1]), msize, false);
            }
            res.stores++;
            break;
          }
          case Op::Branch:
            taken = evalCond(i.cond, fl.a, fl.b);
            res.branches++;
            break;
          case Op::Jump:
            taken = true;
            res.branches++;
            break;
          case Op::Call: {
            taken = true;
            res.branches++;
            int psz = ptrBits / 8;
            gpr[kSpReg] -= psz;
            img.store(uint64_t(gpr[kSpReg]), i.addr + i.len, psz);
            recordDyn(i, false, true, uint64_t(gpr[kSpReg]), psz);
            if (!run(i.callee, depth + 1))
                return false;
            gpr[kSpReg] += psz;
            continue;
          }
          case Op::Ret: {
            taken = true;
            res.branches++;
            int psz = ptrBits / 8;
            uint64_t ra = uint64_t(gpr[kSpReg]);
            (void)img.load(ra, psz);
            recordDyn(i, false, true, ra, psz);
            if (i.src1 >= 0)
                res.retVal = gpr[i.src1];
            return true;
          }
          case Op::Nop:
            break;
          default:
            panic("machine exec: unhandled op %s", opName(i.op));
        }

        recordDyn(i, false, taken, addr, msize);

        if (i.op == Op::Branch) {
            bi = taken ? i.succ0 : i.succ1;
            k = 0;
        } else if (i.op == Op::Jump) {
            bi = i.succ0;
            k = 0;
        }
    }
    return false;
}

} // namespace

ExecResult
executeMachine(const MachineProgram &prog, MemImage &img,
               uint64_t max_macro_ops, Trace *trace,
               uint64_t trace_cap, uint64_t record_cap)
{
    Machine m(prog, img, max_macro_ops, trace, trace_cap,
              record_cap);
    m.run(0, 0);

    if (trace) {
        // Backpatch each op's dynamic successor address.
        auto &ops = trace->ops;
        for (size_t i = 0; i + 1 < ops.size(); i++)
            ops[i].target = ops[i + 1].pc;
        if (!ops.empty())
            ops.back().target = ops.back().pc + ops.back().len;
    }
    return m.res;
}

} // namespace cisa
