#include "compiler/ir.hh"

#include <sstream>

#include "common/logging.hh"

namespace cisa
{

int
typeBytes(Type t, int ptr_bits)
{
    switch (t) {
      case Type::I32:    return 4;
      case Type::I64:    return 8;
      case Type::F64:    return 8;
      case Type::V128:   return 16;
      case Type::PtrInt: return ptr_bits / 8;
    }
    return 0;
}

const char *
condName(Cond c)
{
    switch (c) {
      case Cond::Eq: return "eq";
      case Cond::Ne: return "ne";
      case Cond::Lt: return "lt";
      case Cond::Le: return "le";
      case Cond::Gt: return "gt";
      case Cond::Ge: return "ge";
      case Cond::Ult: return "ult";
      case Cond::Uge: return "uge";
    }
    return "?";
}

Cond
negateCond(Cond c)
{
    switch (c) {
      case Cond::Eq: return Cond::Ne;
      case Cond::Ne: return Cond::Eq;
      case Cond::Lt: return Cond::Ge;
      case Cond::Le: return Cond::Gt;
      case Cond::Gt: return Cond::Le;
      case Cond::Ge: return Cond::Lt;
      case Cond::Ult: return Cond::Uge;
      case Cond::Uge: return Cond::Ult;
    }
    return Cond::Eq;
}

bool
evalCond(Cond c, int64_t a, int64_t b)
{
    switch (c) {
      case Cond::Eq: return a == b;
      case Cond::Ne: return a != b;
      case Cond::Lt: return a < b;
      case Cond::Le: return a <= b;
      case Cond::Gt: return a > b;
      case Cond::Ge: return a >= b;
      case Cond::Ult: return uint64_t(a) < uint64_t(b);
      case Cond::Uge: return uint64_t(a) >= uint64_t(b);
    }
    return false;
}

const char *
irOpName(IrOp op)
{
    switch (op) {
      case IrOp::ConstInt: return "const";
      case IrOp::ConstF:   return "constf";
      case IrOp::BaseAddr: return "base";
      case IrOp::Add:      return "add";
      case IrOp::Sub:      return "sub";
      case IrOp::Mul:      return "mul";
      case IrOp::Div:      return "div";
      case IrOp::And:      return "and";
      case IrOp::Or:       return "or";
      case IrOp::Xor:      return "xor";
      case IrOp::Shl:      return "shl";
      case IrOp::Shr:      return "shr";
      case IrOp::FAdd:     return "fadd";
      case IrOp::FSub:     return "fsub";
      case IrOp::FMul:     return "fmul";
      case IrOp::FDiv:     return "fdiv";
      case IrOp::FSqrt:    return "fsqrt";
      case IrOp::I2F:      return "i2f";
      case IrOp::F2I:      return "f2i";
      case IrOp::Gep:      return "gep";
      case IrOp::Load:     return "load";
      case IrOp::Store:    return "store";
      case IrOp::ICmp:     return "icmp";
      case IrOp::Select:   return "select";
      case IrOp::Br:       return "br";
      case IrOp::Jmp:      return "jmp";
      case IrOp::Call:     return "call";
      case IrOp::Ret:      return "ret";
      case IrOp::VLoad:    return "vload";
      case IrOp::VStore:   return "vstore";
      case IrOp::VAdd:     return "vadd";
      case IrOp::VSub:     return "vsub";
      case IrOp::VMul:     return "vmul";
      case IrOp::VSplat:   return "vsplat";
      case IrOp::VPack:    return "vpack";
      case IrOp::VReduce:  return "vreduce";
      default:             return "?";
    }
}

bool
irIsTerminator(IrOp op)
{
    return op == IrOp::Br || op == IrOp::Jmp || op == IrOp::Ret;
}

int
MemRegion::elemBytes(int ptr_bits) const
{
    switch (elem) {
      case ElemKind::I32: return 4;
      case ElemKind::I64: return 8;
      case ElemKind::F64: return 8;
      case ElemKind::Ptr: return ptr_bits / 8;
    }
    return 4;
}

uint64_t
MemRegion::sizeBytes(int ptr_bits) const
{
    return count * uint64_t(elemBytes(ptr_bits));
}

std::string
IrModule::check() const
{
    std::ostringstream err;
    if (funcs.empty()) {
        err << "module '" << name << "' has no functions";
        return err.str();
    }
    for (const auto &f : funcs) {
        if (f.blocks.empty()) {
            err << "function '" << f.name << "' has no blocks";
            return err.str();
        }
        for (size_t bi = 0; bi < f.blocks.size(); bi++) {
            const IrBlock &b = f.blocks[bi];
            if (b.instrs.empty()) {
                err << f.name << ": empty block " << bi;
                return err.str();
            }
            if (!irIsTerminator(b.terminator().op)) {
                err << f.name << ": block " << bi
                    << " lacks a terminator";
                return err.str();
            }
            for (size_t ii = 0; ii < b.instrs.size(); ii++) {
                const IrInstr &i = b.instrs[ii];
                if (irIsTerminator(i.op) &&
                    ii + 1 != b.instrs.size()) {
                    err << f.name << ": terminator mid-block " << bi;
                    return err.str();
                }
                auto bad_vreg = [&](int v) {
                    return v >= f.numVregs;
                };
                for (int v : {i.dst, i.a, i.b, i.c, i.predVreg}) {
                    if (bad_vreg(v)) {
                        err << f.name << ": vreg " << v
                            << " out of range in block " << bi;
                        return err.str();
                    }
                }
                auto bad_succ = [&](int s) {
                    return s < 0 || size_t(s) >= f.blocks.size();
                };
                if ((i.op == IrOp::Br &&
                     (bad_succ(i.succ0) || bad_succ(i.succ1))) ||
                    (i.op == IrOp::Jmp && bad_succ(i.succ0))) {
                    err << f.name << ": bad successor in block "
                        << bi;
                    return err.str();
                }
                if (i.op == IrOp::Call &&
                    (i.imm < 0 || size_t(i.imm) >= funcs.size())) {
                    err << f.name << ": bad callee " << i.imm;
                    return err.str();
                }
                if (i.op == IrOp::BaseAddr &&
                    (i.imm < 0 || size_t(i.imm) >= regions.size())) {
                    err << f.name << ": bad region " << i.imm;
                    return err.str();
                }
            }
        }
    }
    return std::string();
}

void
IrModule::validate() const
{
    std::string err = check();
    panic_if(!err.empty(), "%s", err.c_str());
}

std::string
IrModule::print() const
{
    std::ostringstream os;
    os << "module " << name << "\n";
    for (const auto &r : regions) {
        os << "  region " << r.name << " x" << r.count << "\n";
    }
    for (const auto &f : funcs) {
        os << "func " << f.name << " (" << f.numVregs << " vregs)\n";
        for (size_t bi = 0; bi < f.blocks.size(); bi++) {
            os << " b" << bi;
            if (f.blocks[bi].isLoopHeader)
                os << " [loop"
                   << (f.blocks[bi].vectorizable ? ",vec" : "") << "]";
            os << ":\n";
            for (const auto &i : f.blocks[bi].instrs) {
                os << "   " << irOpName(i.op);
                if (i.op == IrOp::ICmp || i.op == IrOp::Select)
                    os << "." << condName(i.cond);
                if (i.hasDst())
                    os << " v" << i.dst << " <-";
                if (i.a >= 0)
                    os << " v" << i.a;
                if (i.b >= 0)
                    os << " v" << i.b;
                else if (i.op != IrOp::Br && i.op != IrOp::Jmp &&
                         i.op != IrOp::Ret)
                    os << " #" << i.imm;
                if (i.c >= 0)
                    os << " v" << i.c;
                if (i.op == IrOp::Br)
                    os << " -> b" << i.succ0 << ", b" << i.succ1;
                if (i.op == IrOp::Jmp)
                    os << " -> b" << i.succ0;
                os << "\n";
            }
        }
    }
    return os.str();
}

int
IrBuilder::startFunc(const std::string &name)
{
    IrFunction f;
    f.name = name;
    mod_.funcs.push_back(std::move(f));
    curFunc_ = int(mod_.funcs.size()) - 1;
    cur_ = newBlock();
    return curFunc_;
}

IrFunction &
IrBuilder::func()
{
    panic_if(curFunc_ < 0, "no current function");
    return mod_.funcs[size_t(curFunc_)];
}

int
IrBuilder::newBlock()
{
    func().blocks.emplace_back();
    return int(func().blocks.size()) - 1;
}

IrInstr &
IrBuilder::emit(const IrInstr &i)
{
    panic_if(cur_ < 0, "no current block");
    auto &blk = func().blocks[size_t(cur_)];
    blk.instrs.push_back(i);
    return blk.instrs.back();
}

int
IrBuilder::constInt(int64_t v, Type t)
{
    IrInstr i;
    i.op = IrOp::ConstInt;
    i.type = t;
    i.dst = func().newVreg();
    i.imm = v;
    emit(i);
    return i.dst;
}

int
IrBuilder::constF(double v)
{
    IrInstr i;
    i.op = IrOp::ConstF;
    i.type = Type::F64;
    i.dst = func().newVreg();
    i.fimm = v;
    emit(i);
    return i.dst;
}

int
IrBuilder::baseAddr(int region)
{
    IrInstr i;
    i.op = IrOp::BaseAddr;
    i.type = Type::PtrInt;
    i.dst = func().newVreg();
    i.imm = region;
    emit(i);
    return i.dst;
}

int
IrBuilder::arith(IrOp op, int a, int b, Type t)
{
    IrInstr i;
    i.op = op;
    i.type = t;
    i.dst = func().newVreg();
    i.a = a;
    i.b = b;
    emit(i);
    return i.dst;
}

int
IrBuilder::arithImm(IrOp op, int a, int64_t imm, Type t)
{
    IrInstr i;
    i.op = op;
    i.type = t;
    i.dst = func().newVreg();
    i.a = a;
    i.imm = imm;
    emit(i);
    return i.dst;
}

int
IrBuilder::farith(IrOp op, int a, int b)
{
    return arith(op, a, b, Type::F64);
}

int
IrBuilder::fsqrt(int a)
{
    IrInstr i;
    i.op = IrOp::FSqrt;
    i.type = Type::F64;
    i.dst = func().newVreg();
    i.a = a;
    emit(i);
    return i.dst;
}

int
IrBuilder::i2f(int a)
{
    IrInstr i;
    i.op = IrOp::I2F;
    i.type = Type::F64;
    i.dst = func().newVreg();
    i.a = a;
    emit(i);
    return i.dst;
}

int
IrBuilder::f2i(int a, Type t)
{
    IrInstr i;
    i.op = IrOp::F2I;
    i.type = t;
    i.dst = func().newVreg();
    i.a = a;
    emit(i);
    return i.dst;
}

int
IrBuilder::gep(int base, int index, int scale, int64_t disp)
{
    IrInstr i;
    i.op = IrOp::Gep;
    i.type = Type::PtrInt;
    i.dst = func().newVreg();
    i.a = base;
    i.b = index;
    i.imm = disp;
    i.imm2 = scale;
    emit(i);
    return i.dst;
}

int
IrBuilder::load(int addr, Type t)
{
    IrInstr i;
    i.op = IrOp::Load;
    i.type = t;
    i.dst = func().newVreg();
    i.a = addr;
    emit(i);
    return i.dst;
}

void
IrBuilder::store(int addr, int val, Type t)
{
    IrInstr i;
    i.op = IrOp::Store;
    i.type = t;
    i.a = addr;
    i.b = val;
    emit(i);
}

int
IrBuilder::icmp(Cond c, int a, int b)
{
    IrInstr i;
    i.op = IrOp::ICmp;
    i.type = Type::I32;
    i.dst = func().newVreg();
    i.a = a;
    i.b = b;
    i.cond = c;
    emit(i);
    return i.dst;
}

int
IrBuilder::icmpImm(Cond c, int a, int64_t imm)
{
    IrInstr i;
    i.op = IrOp::ICmp;
    i.type = Type::I32;
    i.dst = func().newVreg();
    i.a = a;
    i.imm = imm;
    i.cond = c;
    emit(i);
    return i.dst;
}

int
IrBuilder::select(int cond, int a, int b, Type t)
{
    IrInstr i;
    i.op = IrOp::Select;
    i.type = t;
    i.dst = func().newVreg();
    i.a = cond;
    i.b = a;
    i.c = b;
    emit(i);
    return i.dst;
}

void
IrBuilder::br(int cond, int bt, int bf, double prob, bool predictable)
{
    IrInstr i;
    i.op = IrOp::Br;
    i.a = cond;
    i.succ0 = bt;
    i.succ1 = bf;
    i.prob = prob;
    i.predictable = predictable;
    emit(i);
}

void
IrBuilder::jmp(int b)
{
    IrInstr i;
    i.op = IrOp::Jmp;
    i.succ0 = b;
    emit(i);
}

void
IrBuilder::call(int f)
{
    IrInstr i;
    i.op = IrOp::Call;
    i.imm = f;
    emit(i);
}

void
IrBuilder::ret(int v)
{
    IrInstr i;
    i.op = IrOp::Ret;
    i.a = v;
    emit(i);
}

void
IrBuilder::arithInto(int dst, IrOp op, int a, int b, Type t)
{
    IrInstr i;
    i.op = op;
    i.type = t;
    i.dst = dst;
    i.a = a;
    i.b = b;
    emit(i);
}

void
IrBuilder::arithImmInto(int dst, IrOp op, int a, int64_t imm, Type t)
{
    IrInstr i;
    i.op = op;
    i.type = t;
    i.dst = dst;
    i.a = a;
    i.imm = imm;
    emit(i);
}

void
IrBuilder::farithInto(int dst, IrOp op, int a, int b)
{
    arithInto(dst, op, a, b, Type::F64);
}

void
IrBuilder::loadInto(int dst, int addr, Type t)
{
    IrInstr i;
    i.op = IrOp::Load;
    i.type = t;
    i.dst = dst;
    i.a = addr;
    emit(i);
}

void
IrBuilder::movInto(int dst, int src, Type t)
{
    // Lowered as dst = src | src; kept as an explicit op pattern the
    // selector recognizes as a move.
    IrInstr i;
    i.op = IrOp::Or;
    i.type = t;
    i.dst = dst;
    i.a = src;
    i.b = src;
    emit(i);
}

void
IrBuilder::constIntInto(int dst, int64_t v, Type t)
{
    IrInstr i;
    i.op = IrOp::ConstInt;
    i.type = t;
    i.dst = dst;
    i.imm = v;
    emit(i);
}

} // namespace cisa
