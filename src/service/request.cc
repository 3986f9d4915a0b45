#include "service/request.hh"

#include <cmath>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "explore/campaign.hh"

namespace cisa
{

const char *
reqTypeName(ReqType t)
{
    switch (t) {
      case ReqType::Ping:   return "ping";
      case ReqType::Eval:   return "eval";
      case ReqType::Slab:   return "slab";
      case ReqType::Search: return "search";
      case ReqType::Table:  return "table";
      case ReqType::Stats:  return "stats";
      case ReqType::kCount: break;
    }
    return "?";
}

const char *
statusName(Status s)
{
    switch (s) {
      case Status::Ok:              return "OK";
      case Status::Busy:            return "BUSY";
      case Status::Deadline:        return "DEADLINE";
      case Status::CancelledByPeer: return "CANCELLED";
      case Status::BadRequest:      return "BADREQ";
      case Status::Error:           return "ERROR";
    }
    return "?";
}

void
Request::encode(ByteWriter &w) const
{
    w.u8(uint8_t(type));
    switch (type) {
      case ReqType::Ping:
      case ReqType::Stats:
        break;
      case ReqType::Eval:
        w.u8(eval.vendor);
        w.u32(uint32_t(eval.isaId));
        w.u32(uint32_t(eval.uarchId));
        w.u32(uint32_t(eval.phase));
        break;
      case ReqType::Slab:
      case ReqType::Table:
        w.u32(uint32_t(slab.slab));
        break;
      case ReqType::Search:
        w.u8(search.family);
        w.u8(search.objective);
        w.u8(search.dynamicMulticore);
        w.f64(search.powerW);
        w.f64(search.areaMm2);
        w.u64(search.seed);
        break;
      case ReqType::kCount:
        panic("encoding invalid request type");
    }
}

namespace
{

bool
reject(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

} // namespace

bool
Request::decode(ByteReader &r, Request *out, std::string *err)
{
    Request req;
    uint8_t ty = r.u8();
    if (!r.ok() || ty >= uint8_t(ReqType::kCount))
        return reject(err, strfmt("unknown request type %u", ty));
    req.type = ReqType(ty);
    switch (req.type) {
      case ReqType::Ping:
      case ReqType::Stats:
        break;
      case ReqType::Eval: {
        EvalReq &e = req.eval;
        e.vendor = r.u8();
        e.isaId = int32_t(r.u32());
        e.uarchId = int32_t(r.u32());
        e.phase = int32_t(r.u32());
        if (!r.ok())
            return reject(err, "truncated eval request");
        if (e.vendor > uint8_t(VendorIsa::Composite))
            return reject(err, strfmt("bad vendor %u", e.vendor));
        // A vendor point's isa id is its vendor's feature set: any
        // other value would name the same point under another key.
        bool isaOk =
            e.vendor == uint8_t(VendorIsa::Composite)
                ? e.isaId >= 0 && e.isaId < FeatureSet::count()
                : e.isaId == VendorModel::vendor(VendorIsa(e.vendor))
                                 .features.id();
        if (!isaOk)
            return reject(err, strfmt("bad isa id %d", e.isaId));
        if (e.uarchId < 0 || e.uarchId >= DesignPoint::kUarchCount)
            return reject(err, strfmt("bad uarch id %d", e.uarchId));
        if (e.phase < 0 || e.phase >= phaseCount())
            return reject(err, strfmt("bad phase %d", e.phase));
        break;
      }
      case ReqType::Slab:
      case ReqType::Table: {
        req.slab.slab = int32_t(r.u32());
        if (!r.ok())
            return reject(err, "truncated slab request");
        if (req.slab.slab < 0 || req.slab.slab >= Campaign::kSlabs)
            return reject(err,
                          strfmt("bad slab %d", req.slab.slab));
        break;
      }
      case ReqType::Search: {
        SearchReq &s = req.search;
        s.family = r.u8();
        s.objective = r.u8();
        s.dynamicMulticore = r.u8();
        s.powerW = r.f64();
        s.areaMm2 = r.f64();
        s.seed = r.u64();
        if (!r.ok())
            return reject(err, "truncated search request");
        if (s.family > uint8_t(Family::CompositeFull))
            return reject(err, strfmt("bad family %u", s.family));
        if (s.objective > uint8_t(Objective::StEdp))
            return reject(err,
                          strfmt("bad objective %u", s.objective));
        if (s.dynamicMulticore > 1)
            return reject(err, "bad dynamicMulticore flag");
        if (std::isnan(s.powerW) || !(s.powerW > 0) ||
            std::isnan(s.areaMm2) || !(s.areaMm2 > 0)) {
            return reject(err, "budget must be positive");
        }
        break;
      }
      case ReqType::kCount:
        break;
    }
    if (!r.atEnd())
        return reject(err, "trailing bytes after request");
    *out = req;
    return true;
}

uint64_t
Request::fingerprint() const
{
    ByteWriter w;
    encode(w);
    return fnv1a(w.bytes().data(), w.bytes().size());
}

uint64_t
Request::routingKey() const
{
    uint64_t budget =
        Campaign::budgetKeyFor(simUopBudget(), simWarmupUops());
    switch (type) {
      case ReqType::Slab:
      case ReqType::Table:
        return hashCombine(budget, uint64_t(slab.slab));
      case ReqType::Eval:
        return hashCombine(budget,
                           uint64_t(Campaign::slabOf(designPoint())));
      default:
        return hashCombine(budget, fingerprint());
    }
}

int
Request::priorityClass() const
{
    switch (type) {
      case ReqType::Slab:
        return 1;
      case ReqType::Search:
        return 2;
      default:
        return 0;
    }
}

bool
Request::cacheable() const
{
    // Everything the service computes is a deterministic function of
    // the request; only the trivial/meta endpoints are excluded.
    return type == ReqType::Eval || type == ReqType::Slab ||
           type == ReqType::Search || type == ReqType::Table;
}

DesignPoint
Request::designPoint() const
{
    panic_if(type != ReqType::Eval, "designPoint of %s request",
             reqTypeName(type));
    if (eval.vendor == uint8_t(VendorIsa::Composite))
        return DesignPoint::composite(eval.isaId, eval.uarchId);
    return DesignPoint::vendorPoint(VendorIsa(eval.vendor),
                                    eval.uarchId);
}

Request
Request::ping()
{
    return Request{};
}

Request
Request::evalPoint(const DesignPoint &dp, int phase)
{
    Request r;
    r.type = ReqType::Eval;
    r.eval.vendor = uint8_t(dp.vendor);
    r.eval.isaId = dp.isaId;
    r.eval.uarchId = dp.uarchId;
    r.eval.phase = phase;
    return r;
}

Request
Request::slabPerf(int slab)
{
    Request r;
    r.type = ReqType::Slab;
    r.slab.slab = slab;
    return r;
}

Request
Request::searchDesign(Family f, Objective o, const Budget &b,
                      uint64_t seed)
{
    Request r;
    r.type = ReqType::Search;
    r.search.family = uint8_t(f);
    r.search.objective = uint8_t(o);
    r.search.dynamicMulticore = b.dynamicMulticore ? 1 : 0;
    r.search.powerW = b.powerW;
    r.search.areaMm2 = b.areaMm2;
    r.search.seed = seed;
    return r;
}

Request
Request::tableOf(int slab)
{
    Request r;
    r.type = ReqType::Table;
    r.slab.slab = slab;
    return r;
}

Request
Request::stats()
{
    Request r;
    r.type = ReqType::Stats;
    return r;
}

void
Response::encode(ByteWriter &w) const
{
    w.u8(uint8_t(status) | (stale ? 0x80 : 0));
    w.str(message);
    w.raw(body.data(), body.size());
}

bool
Response::decode(ByteReader &r, Response *out)
{
    // Decodes in place, reusing @p out's body capacity — a client
    // looping hot slab requests pays no per-response allocation
    // (a ~140 KiB body crosses glibc's mmap threshold, so a fresh
    // vector per response would mean an mmap/munmap pair and fresh
    // page faults every call). On failure *out is unspecified.
    uint8_t st = r.u8();
    if (!r.ok() || (st & 0x7f) > uint8_t(Status::Error))
        return false;
    out->status = Status(st & 0x7f);
    out->stale = (st & 0x80) != 0;
    out->message = r.str();
    if (!r.ok())
        return false;
    out->body.resize(r.remaining());
    r.raw(out->body.data(), out->body.size());
    return r.ok();
}

Response
Response::fail(Status s, std::string msg)
{
    Response r;
    r.status = s;
    r.message = std::move(msg);
    return r;
}

std::vector<uint8_t>
encodeRequestEnvelope(const Request &req, uint32_t deadline_ms)
{
    ByteWriter w;
    w.u32(deadline_ms);
    req.encode(w);
    return w.take();
}

bool
decodeRequestEnvelope(const std::vector<uint8_t> &payload,
                      Request *req, uint32_t *deadline_ms,
                      std::string *err)
{
    return decodeRequestEnvelope(payload.data(), payload.size(), req,
                                 deadline_ms, err);
}

bool
decodeRequestEnvelope(const uint8_t *data, size_t n, Request *req,
                      uint32_t *deadline_ms, std::string *err)
{
    ByteReader r(data, n);
    *deadline_ms = r.u32();
    if (!r.ok())
        return reject(err, "truncated request envelope");
    return Request::decode(r, req, err);
}

void
encodePhasePerf(ByteWriter &w, const PhasePerf &p)
{
    w.f32(p.timePerRun);
    w.f32(p.energyPerRun);
    w.f32(p.timePerRunMp);
    w.f32(p.energyPerRunMp);
}

bool
decodePhasePerf(ByteReader &r, PhasePerf *out)
{
    out->timePerRun = r.f32();
    out->energyPerRun = r.f32();
    out->timePerRunMp = r.f32();
    out->energyPerRunMp = r.f32();
    return r.ok();
}

void
encodeSlabPerf(ByteWriter &w, const std::vector<PhasePerf> &v)
{
    w.u32(uint32_t(v.size()));
    for (const PhasePerf &p : v)
        encodePhasePerf(w, p);
}

bool
decodeSlabPerf(ByteReader &r, std::vector<PhasePerf> *out)
{
    uint32_t n = r.u32();
    if (!r.ok() || size_t(n) * 4 * sizeof(float) > r.remaining())
        return false;
    out->resize(n);
    for (uint32_t i = 0; i < n; i++) {
        if (!decodePhasePerf(r, &(*out)[i]))
            return false;
    }
    return true;
}

void
encodeSearchResult(ByteWriter &w, const SearchResult &res)
{
    for (const DesignPoint &dp : res.design.cores) {
        w.u8(uint8_t(dp.vendor));
        w.u32(uint32_t(dp.isaId));
        w.u32(uint32_t(dp.uarchId));
    }
    w.f64(res.score);
    w.u8(res.feasible ? 1 : 0);
}

bool
decodeSearchResult(ByteReader &r, SearchResult *out)
{
    SearchResult res;
    for (DesignPoint &dp : res.design.cores) {
        uint8_t v = r.u8();
        int32_t isa = int32_t(r.u32());
        int32_t ua = int32_t(r.u32());
        if (!r.ok() || v > uint8_t(VendorIsa::Composite))
            return false;
        if (v == uint8_t(VendorIsa::Composite)) {
            if (isa < 0 || isa >= FeatureSet::count())
                return false;
        }
        if (ua < 0 || ua >= DesignPoint::kUarchCount)
            return false;
        dp = v == uint8_t(VendorIsa::Composite)
                 ? DesignPoint::composite(isa, ua)
                 : DesignPoint::vendorPoint(VendorIsa(v), ua);
    }
    res.score = r.f64();
    uint8_t feas = r.u8();
    if (!r.ok() || feas > 1)
        return false;
    res.feasible = feas != 0;
    *out = res;
    return true;
}

} // namespace cisa
