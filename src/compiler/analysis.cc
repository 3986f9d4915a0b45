#include "compiler/analysis.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace cisa
{

void
irUses(const IrInstr &i, std::vector<int> &out)
{
    out.clear();
    if (i.a >= 0 && i.op != IrOp::ConstInt && i.op != IrOp::ConstF &&
        i.op != IrOp::BaseAddr) {
        out.push_back(i.a);
    }
    if (i.b >= 0)
        out.push_back(i.b);
    if (i.c >= 0)
        out.push_back(i.c);
    if (i.predVreg >= 0)
        out.push_back(i.predVreg);
}

int
irDef(const IrInstr &i)
{
    return i.dst;
}

Cfg
Cfg::build(const IrFunction &f)
{
    Cfg cfg;
    size_t n = f.blocks.size();
    cfg.succs.assign(n, {});
    cfg.preds.assign(n, {});
    for (size_t b = 0; b < n; b++) {
        const IrInstr &t = f.blocks[b].terminator();
        if (t.op == IrOp::Br) {
            cfg.succs[b] = {t.succ0, t.succ1};
        } else if (t.op == IrOp::Jmp) {
            cfg.succs[b] = {t.succ0};
        }
        for (int s : cfg.succs[b])
            cfg.preds[size_t(s)].push_back(int(b));
    }

    // Postorder DFS from the entry block.
    std::vector<int> post;
    std::vector<char> seen(n, 0);
    std::function<void(int)> dfs = [&](int b) {
        seen[size_t(b)] = 1;
        for (int s : cfg.succs[size_t(b)]) {
            if (!seen[size_t(s)])
                dfs(s);
        }
        post.push_back(b);
    };
    dfs(0);
    cfg.rpo.assign(post.rbegin(), post.rend());
    cfg.rpoIndex.assign(n, -1);
    for (size_t i = 0; i < cfg.rpo.size(); i++)
        cfg.rpoIndex[size_t(cfg.rpo[i])] = int(i);
    return cfg;
}

namespace
{

size_t
wordsFor(int nvregs)
{
    return size_t((nvregs + 63) / 64);
}

void
setBit(std::vector<uint64_t> &bs, int i)
{
    bs[size_t(i) / 64] |= (uint64_t(1) << (i % 64));
}

bool
getBit(const std::vector<uint64_t> &bs, int i)
{
    return (bs[size_t(i) / 64] >> (i % 64)) & 1;
}

void
clearBit(std::vector<uint64_t> &bs, int i)
{
    bs[size_t(i) / 64] &= ~(uint64_t(1) << (i % 64));
}

bool
orInto(std::vector<uint64_t> &dst, const std::vector<uint64_t> &src)
{
    bool changed = false;
    for (size_t i = 0; i < dst.size(); i++) {
        uint64_t nv = dst[i] | src[i];
        if (nv != dst[i]) {
            dst[i] = nv;
            changed = true;
        }
    }
    return changed;
}

} // namespace

bool
Liveness::isLiveIn(int block, int vreg) const
{
    return getBit(liveIn[size_t(block)], vreg);
}

Liveness
Liveness::build(const IrFunction &f, const Cfg &cfg)
{
    Liveness lv;
    lv.numVregs = f.numVregs;
    size_t n = f.blocks.size();
    size_t w = wordsFor(f.numVregs);
    lv.liveIn.assign(n, std::vector<uint64_t>(w, 0));
    lv.liveOut.assign(n, std::vector<uint64_t>(w, 0));

    // Per-block use (upward-exposed) and def sets.
    std::vector<std::vector<uint64_t>> use(n,
                                           std::vector<uint64_t>(w, 0));
    std::vector<std::vector<uint64_t>> def(n,
                                           std::vector<uint64_t>(w, 0));
    std::vector<int> uses;
    for (size_t b = 0; b < n; b++) {
        for (const auto &i : f.blocks[b].instrs) {
            irUses(i, uses);
            for (int u : uses) {
                if (!getBit(def[b], u))
                    setBit(use[b], u);
            }
            int d = irDef(i);
            if (d >= 0)
                setBit(def[b], d);
        }
    }

    // Backward iterative dataflow to a fixed point.
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto it = cfg.rpo.rbegin(); it != cfg.rpo.rend(); ++it) {
            size_t b = size_t(*it);
            for (int s : cfg.succs[b])
                changed |= orInto(lv.liveOut[b],
                                  lv.liveIn[size_t(s)]);
            // in = use | (out - def)
            std::vector<uint64_t> in = lv.liveOut[b];
            for (size_t k = 0; k < w; k++)
                in[k] = use[b][k] | (in[k] & ~def[b][k]);
            changed |= orInto(lv.liveIn[b], in);
        }
    }
    return lv;
}

int
Liveness::maxPressure(const IrFunction &f, int block) const
{
    // Walk backwards keeping a live set.
    std::vector<uint64_t> live = liveOut[size_t(block)];
    auto popcount = [&](const std::vector<uint64_t> &bs) {
        int c = 0;
        for (uint64_t wd : bs)
            c += __builtin_popcountll(wd);
        return c;
    };
    int maxp = popcount(live);
    const auto &instrs = f.blocks[size_t(block)].instrs;
    std::vector<int> uses;
    for (auto it = instrs.rbegin(); it != instrs.rend(); ++it) {
        int d = irDef(*it);
        if (d >= 0)
            clearBit(live, d);
        irUses(*it, uses);
        for (int u : uses)
            setBit(live, u);
        maxp = std::max(maxp, popcount(live));
    }
    return maxp;
}

} // namespace cisa
