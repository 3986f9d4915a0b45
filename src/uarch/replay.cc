#include "uarch/replay.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "common/hash.hh"
#include "uarch/engine.hh"

namespace cisa
{

uint16_t
packOpBits(const DynOp &op, bool prev_fusable_cmp)
{
    uint16_t b = 0;
    if (op.predFalse())
        b |= kOpPredFalse;
    if (op.flags & DynPredicated)
        b |= kOpPredicated;
    if (op.readsMem())
        b |= kOpReadsMem;
    if (op.writesMem())
        b |= kOpWritesMem;
    if (op.form != MemForm::None)
        b |= kOpHasMem;
    if (op.isBranch())
        b |= kOpBranch;
    if (op.isBranch() && op.readsFlags)
        b |= kOpCondBranch;
    if (op.taken())
        b |= kOpTaken;
    if (op.flags & DynRet)
        b |= kOpRet;
    if (op.flags & DynCall)
        b |= kOpCall;
    if (prev_fusable_cmp && op.isBranch() && op.readsFlags)
        b |= kOpFusableBranch;
    if (op.form == MemForm::LoadOp && op.uops == 2)
        b |= kOpMicroFusable;
    return b;
}

bool
isFusableCmp(const DynOp &op)
{
    return op.writesFlags && !op.isBranch() && op.uops == 1 &&
           op.form == MemForm::None;
}

int
expandUops(const DynOp &op, PackedUop *out)
{
    // Mirrors the execute stage of the (former) live engine uop by
    // uop: same classes, operand lists, and chain structure. Every
    // uop is born sealed: class-derived fields come from one table
    // hit, operand slots default to the engine's sentinel ids, and
    // the source count lands in the flags byte as sources are
    // filled.
    auto mkSrcs = [&](PackedUop &u, bool addr, bool data) {
        int k = 0;
        if (addr) {
            if (op.base >= 0)
                u.srcs[k++] = op.base;
            if (op.index >= 0)
                u.srcs[k++] = op.index;
        }
        if (data) {
            if (op.src1 >= 0)
                u.srcs[k++] = op.src1;
            if (op.src2 >= 0 && k < 4)
                u.srcs[k++] = op.src2;
            if (op.readsDst && op.dst >= 0 && k < 4)
                u.srcs[k++] = op.dst;
        }
        if (op.pred >= 0 && k < 4)
            u.srcs[k++] = op.pred;
        return k;
    };

    if (op.predFalse()) {
        // Predicated-false: consumes a slot, reads the predicate,
        // writes nothing.
        PackedUop u;
        setUopClass(u, MicroClass::IntAlu);
        if (op.pred >= 0) {
            u.srcs[0] = op.pred;
            setUopNsrc(u, 1);
        }
        out[0] = u;
        return 1;
    }

    int n = 0;
    int uops = op.uops;
    switch (op.form) {
      case MemForm::None: {
        PackedUop u;
        setUopClass(u, op.cls);
        setUopDst(u, op.dst);
        if (op.writesFlags)
            u.flags |= kUopWritesFlags;
        int k = mkSrcs(u, false, true);
        if (op.readsFlags && op.pred < 0 && k < 4)
            u.srcs[k++] = kFlagsReg;
        setUopNsrc(u, k);
        out[n++] = u;
        // Extra uops of a cracked macro (e.g. mulpd) chain on.
        for (int extra = 1; extra < uops; extra++) {
            PackedUop e;
            setUopClass(e, op.cls);
            setUopDst(e, op.dst);
            if (op.dst >= 0) {
                e.srcs[0] = op.dst;
                setUopNsrc(e, 1);
            }
            e.chain = int16_t(n - 1);
            out[n++] = e;
        }
        break;
      }
      case MemForm::Load: {
        PackedUop u;
        setUopClass(u, MicroClass::Load);
        setUopDst(u, op.dst);
        setUopNsrc(u, mkSrcs(u, true, false));
        out[n++] = u;
        break;
      }
      case MemForm::Store: {
        PackedUop u;
        setUopClass(u, MicroClass::Store);
        setUopNsrc(u, mkSrcs(u, true, true));
        out[n++] = u;
        break;
      }
      case MemForm::LoadOp: {
        PackedUop ld;
        setUopClass(ld, MicroClass::Load);
        setUopNsrc(ld, mkSrcs(ld, true, false));
        out[n++] = ld;
        PackedUop alu;
        setUopClass(alu, op.cls);
        setUopDst(alu, op.dst);
        if (op.writesFlags)
            alu.flags |= kUopWritesFlags;
        setUopNsrc(alu, mkSrcs(alu, false, true));
        alu.chain = 0;
        out[n++] = alu;
        for (int extra = 2; extra < uops; extra++) {
            PackedUop e;
            setUopClass(e, op.cls);
            setUopDst(e, op.dst);
            if (op.dst >= 0) {
                e.srcs[0] = op.dst;
                setUopNsrc(e, 1);
            }
            e.chain = int16_t(n - 1);
            out[n++] = e;
        }
        break;
      }
      case MemForm::LoadOpStore: {
        PackedUop ld;
        setUopClass(ld, MicroClass::Load);
        setUopNsrc(ld, mkSrcs(ld, true, false));
        out[n++] = ld;
        PackedUop alu;
        setUopClass(alu, op.cls);
        if (op.writesFlags)
            alu.flags |= kUopWritesFlags;
        setUopNsrc(alu, mkSrcs(alu, false, true));
        alu.chain = 0;
        out[n++] = alu;
        PackedUop agen;
        setUopClass(agen, MicroClass::IntAlu);
        setUopNsrc(agen, mkSrcs(agen, true, false));
        out[n++] = agen;
        PackedUop stu;
        setUopClass(stu, MicroClass::Store);
        stu.chain = 1; // waits on the alu result, not the agen
        out[n++] = stu;
        break;
      }
    }
    panic_if(n == 0 || n > kMaxUopsPerOp,
             "bad uop expansion: %d uops", n);
    return n;
}

ReplayTrace
ReplayTrace::build(const Trace &trace, uint64_t max_steps)
{
    panic_if(trace.ops.empty(), "empty trace");
    const size_t n = trace.ops.size();
    // One step consumes at least one uop, so a budget of max_steps
    // uops can never replay more than max_steps ops; packing beyond
    // that prefix would be wasted work at campaign scale.
    const size_t used =
        size_t(std::min<uint64_t>(uint64_t(n), max_steps));

    ReplayTrace rt;
    rt.complete = used == n;
    rt.maxSteps = max_steps;
    rt.len.resize(used);
    rt.uops.resize(used);
    rt.bits.resize(used);
    rt.lineId.resize(used);
    rt.uopBegin.resize(used + 1);
    rt.xuops.reserve(used * 2);

    PackedUop buf[kMaxUopsPerOp];
    for (size_t i = 0; i < used; i++) {
        const DynOp &op = trace.ops[i];
        panic_if(op.uops == 0, "zero-uop DynOp at %zu", i);
        // The cyclic previous op decides macro-fusability; index 0
        // pairs with the last op of the (wrapped) trace, and the
        // replay driver masks the bit off on the very first step.
        const DynOp &prev = trace.ops[i == 0 ? n - 1 : i - 1];
        rt.len[i] = op.len;
        rt.uops[i] = op.uops;
        rt.bits[i] = packOpBits(op, isFusableCmp(prev));
        rt.lineId[i] = op.pc >> 6;
        rt.uopBegin[i] = uint32_t(rt.xuops.size());
        int k = expandUops(op, buf);
        rt.xuops.insert(rt.xuops.end(), buf, buf + k);
        uint32_t lat_sum = uint32_t(k);
        uint32_t loads = 0;
        for (int j = 0; j < k; j++) {
            lat_sum += buf[j].lat;
            loads += (buf[j].flags & kUopLoad) != 0;
        }
        rt.maxStepLatSum = std::max(rt.maxStepLatSum, lat_sum);
        rt.maxStepLoads = std::max(rt.maxStepLoads, loads);
    }
    rt.uopBegin[used] = uint32_t(rt.xuops.size());
    return rt;
}

uint64_t
cacheSliceFingerprint(const MicroArchConfig &c, const RunEnv &env)
{
    uint64_t h = 0xCAC4E;
    auto mix = [&](uint64_t v) { h = hashCombine(h, v); };
    mix(uint64_t(c.l1iKB));
    mix(uint64_t(c.l1iAssoc));
    mix(uint64_t(c.l1dKB));
    mix(uint64_t(c.l1dAssoc));
    mix(uint64_t(c.l2KB));
    mix(uint64_t(c.l2Assoc));
    mix(std::bit_cast<uint64_t>(env.l2Share));
    mix(std::bit_cast<uint64_t>(env.memContention));
    return h;
}

uint64_t
bpredSliceFingerprint(const MicroArchConfig &c)
{
    return hashCombine(0xB4A9C4, uint64_t(c.bpred));
}

uint64_t
uopCacheSliceFingerprint(const MicroArchConfig &)
{
    // The uop cache has fixed geometry and its hit stream is a pure
    // function of the pc stream; MicroArchConfig::uopCache only
    // gates whether the timing side consumes it.
    return splitmix64(0x50C4E);
}

uint64_t
structuralFingerprint(const MicroArchConfig &c, const RunEnv &env)
{
    uint64_t h = cacheSliceFingerprint(c, env);
    h = hashCombine(h, bpredSliceFingerprint(c));
    h = hashCombine(h, uopCacheSliceFingerprint(c));
    return h;
}

StructuralStream
buildStructuralStream(const CoreConfig &cfg, const RunEnv &env,
                      const Trace &trace, const ReplayTrace &packed,
                      uint64_t timed_uops, uint64_t warmup_uops)
{
    panic_if(trace.ops.empty(), "empty trace");
    const size_t n = trace.ops.size();
    panic_if(packed.size() !=
                 std::min<uint64_t>(uint64_t(n),
                                    packed.maxSteps),
             "packed trace does not match the source trace");
    panic_if(!packed.complete &&
                 warmup_uops + timed_uops > packed.maxSteps,
             "packed trace built for %llu steps, need up to %llu",
             (unsigned long long)packed.maxSteps,
             (unsigned long long)(warmup_uops + timed_uops));

    using namespace engine_detail;
    LiveStructural str(cfg, env);
    StructuralStream out;
    out.key = structuralFingerprint(cfg.uarch, env);
    out.ev.reserve(size_t(
        std::min<uint64_t>(warmup_uops + timed_uops, 1u << 22)));

    // Drive the structural models through the exact query sequence
    // the timing engine issues. Two engine-side behaviours matter:
    //
    //  - Redirect refetch: the engine's `fetchCycle < redirect` test
    //    fires exactly at the first step after a mispredicted
    //    conditional branch (the redirect target end+1 always lies
    //    ahead of the fetch cycle, and fetch catches up immediately),
    //    so a one-step mispredict flag reproduces it.
    //
    //  - The store-buffer ring head advances on every store in both
    //    passes, so slot indices in the recorded match masks line up
    //    with the timing engine's data-ready stamps.
    size_t head = 0;
    bool prev_mispredict = false;
    bool warm_taken = warmup_uops == 0;
    uint64_t done_uops = 0;
    size_t idx = 0;
    while (done_uops < warmup_uops + timed_uops) {
        const DynOp &op = trace.ops[idx];
        const uint16_t bits = packed.bits[idx];
        uint8_t ev = 0;

        if (prev_mispredict) {
            str.redirectFetch();
            prev_mispredict = false;
        }
        int lat = str.fetchAccess(&op, packed.lineId[idx]);
        if (lat >= 0) {
            ev |= kEvIFetch;
            if (lat > 1) {
                ev |= kEvIFetchMiss;
                out.ifetchExtra.push_back(uint32_t(lat - 1));
                out.maxIfetchExtra = std::max(
                    out.maxIfetchExtra, uint32_t(lat - 1));
            }
        }
        if (str.ucAccess(&op))
            ev |= kEvUcHit;
        if (bits & kOpReadsMem) {
            uint16_t match = str.sbMatch(&op);
            if (match) {
                ev |= kEvFwd;
                out.fwdMask.push_back(match);
            } else {
                ev |= kEvDLoad;
                uint32_t dl = uint32_t(str.dataLoad(&op));
                out.dloadExtra.push_back(dl);
                out.maxDloadExtra =
                    std::max(out.maxDloadExtra, dl);
            }
        }
        if (bits & kOpWritesMem) {
            str.dataStore(&op);
            str.sbPush(&op, head);
            head = head + 1 == kSbSize ? 0 : head + 1;
        }
        if (bits & kOpBranch) {
            bool mispredict = false;
            if (bits & kOpCondBranch)
                mispredict = str.branchAccess(&op);
            if (mispredict) {
                ev |= kEvMispredict;
                prev_mispredict = true;
            } else if (bits & kOpTaken) {
                if (str.btbAccess(&op))
                    ev |= kEvBtbMiss;
            }
        }

        out.ev.push_back(ev);
        done_uops += op.uops;
        idx = idx + 1 == n ? 0 : idx + 1;
        if (!warm_taken && done_uops >= warmup_uops) {
            warm_taken = true;
            str.snapshotCounters(out.warm);
        }
    }
    str.snapshotCounters(out.fin);
    return out;
}

namespace
{

using engine_detail::StepIn;

/** Structural backend answering from a memoized stream. */
struct ReplayStructural
{
    const StructuralStream &ss;
    size_t step = 0;
    uint8_t ev = 0;
    size_t ifetchCur = 0;
    size_t dloadCur = 0;
    size_t fwdCur = 0;

    explicit ReplayStructural(const StructuralStream &s) : ss(s) {}

    void beginStep() { ev = ss.ev[step++]; }
    void redirectFetch() {}

    int
    fetchAccess(const DynOp *, uint64_t)
    {
        if (!(ev & kEvIFetch))
            return -1;
        if (ev & kEvIFetchMiss)
            return 1 + int(ss.ifetchExtra[ifetchCur++]);
        return 1;
    }

    bool ucAccess(const DynOp *) { return ev & kEvUcHit; }

    uint16_t
    sbMatch(const DynOp *)
    {
        return (ev & kEvFwd) ? ss.fwdMask[fwdCur++] : 0;
    }

    uint64_t dataLoad(const DynOp *)
    {
        return ss.dloadExtra[dloadCur++];
    }

    void dataStore(const DynOp *) {}
    void sbPush(const DynOp *, size_t) {}
    bool branchAccess(const DynOp *) { return ev & kEvMispredict; }
    bool btbAccess(const DynOp *) { return ev & kEvBtbMiss; }

    void
    snapshotMem(PerfStats &s, bool final) const
    {
        engine_detail::setMem(s, final ? ss.fin : ss.warm);
    }
};

/** Step source reading the packed trace. */
struct PackedSource
{
    const ReplayTrace &rt;
    bool first = true;

    explicit PackedSource(const ReplayTrace &r) : rt(r) {}

    size_t size() const { return rt.size(); }

    StepIn
    get(size_t idx)
    {
        StepIn in;
        in.bits = rt.bits[idx];
        if (first) {
            // The live engine has no previous op on step one.
            in.bits &= uint16_t(~kOpFusableBranch);
            first = false;
        }
        in.len = rt.len[idx];
        in.uops = rt.uops[idx];
        uint32_t b = rt.uopBegin[idx];
        in.xu = rt.xuops.data() + b;
        in.nxu = int(rt.uopBegin[idx + 1] - b);
        in.lineId = rt.lineId[idx];
        in.dop = nullptr;
        return in;
    }
};

} // namespace

PerfResult
simulateCoreReplay(const CoreConfig &cfg, const ReplayTrace &packed,
                   const StructuralStream &stream,
                   uint64_t timed_uops, uint64_t warmup_uops,
                   const RunEnv &env)
{
    panic_if(packed.size() == 0, "empty packed trace");
    panic_if(stream.key != structuralFingerprint(cfg.uarch, env),
             "structural stream was built for a different "
             "(config slice, environment)");
    panic_if(!packed.complete &&
                 warmup_uops + timed_uops > packed.maxSteps,
             "packed trace built for %llu steps, need up to %llu",
             (unsigned long long)packed.maxSteps,
             (unsigned long long)(warmup_uops + timed_uops));

    ReplayStructural str(stream);
    PackedSource src(packed);
    PerfResult res = engine_detail::runCore(cfg, str, src,
                                            timed_uops, warmup_uops);

    // The stream must have been generated with the same budgets: the
    // replay must consume it exactly.
    panic_if(str.step != stream.ev.size() ||
                 str.ifetchCur != stream.ifetchExtra.size() ||
                 str.dloadCur != stream.dloadExtra.size() ||
                 str.fwdCur != stream.fwdMask.size(),
             "structural stream not fully consumed: budget mismatch");
    return res;
}

} // namespace cisa
