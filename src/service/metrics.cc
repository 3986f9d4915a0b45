#include "service/metrics.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"

namespace cisa
{

LatencyHisto::Buckets
LatencyHisto::buckets() const
{
    Buckets b;
    for (size_t i = 0; i < b.size(); i++)
        b[i] = counts_[i].load(std::memory_order_relaxed);
    return b;
}

uint64_t
percentileUs(const LatencyHisto::Buckets &b, double p)
{
    uint64_t tot = 0;
    for (uint64_t n : b)
        tot += n;
    if (!tot)
        return 0;
    p = std::clamp(p, 0.0, 1.0);
    uint64_t target = uint64_t(double(tot - 1) * p) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < b.size(); i++) {
        seen += b[i];
        if (seen >= target)
            return i == 0 ? 1 : uint64_t(1) << i;
    }
    return uint64_t(1) << (b.size() - 1);
}

void
EndpointSnap::summarize()
{
    latCount = 0;
    for (uint64_t n : lat)
        latCount += n;
    p50Us = percentileUs(lat, 0.50);
    p99Us = percentileUs(lat, 0.99);
}

uint64_t
StatsSnap::total(uint64_t EndpointSnap::*counter) const
{
    uint64_t n = 0;
    for (const EndpointSnap &e : ep)
        n += e.*counter;
    return n;
}

void
StatsSnap::merge(const StatsSnap &w)
{
    for (size_t i = 0; i < ep.size(); i++) {
        EndpointSnap &mine = ep[i];
        forEachCounter(
            [](const char *, uint64_t &a, uint64_t b) { a += b; }, mine,
            w.ep[i]);
        for (size_t b = 0; b < mine.lat.size(); b++)
            mine.lat[b] += w.ep[i].lat[b];
        mine.summarize();
    }
    forEachStat(
        [](const char *, const char *, Merge m, uint64_t &a,
           uint64_t b) { a = m == Merge::Max ? std::max(a, b) : a + b; },
        *this, w);
    for (const FaultCounterSnap &f : w.faults) {
        auto it = std::find_if(
            faults.begin(), faults.end(),
            [&](const FaultCounterSnap &m) { return m.site == f.site; });
        if (it == faults.end()) {
            faults.push_back(f);
        } else {
            it->checks += f.checks;
            it->fired += f.fired;
        }
    }
}

std::string
StatsSnap::render() const
{
    Table t("cisa-serve stats");
    std::vector<std::string> cols = {"endpoint"};
    forEachCounter([&](const char *label, uint64_t) {
        cols.push_back(label);
    }, ep[0]);
    cols.insert(cols.end(), {"p50us", "p99us"});
    t.header(cols);
    for (size_t i = 0; i < ep.size(); i++) {
        const EndpointSnap &e = ep[i];
        if (!e.requests)
            continue;
        std::vector<std::string> row = {reqTypeName(ReqType(i))};
        forEachCounter([&](const char *, uint64_t v) {
            row.push_back(Table::num(int64_t(v)));
        }, e);
        row.push_back(Table::num(int64_t(e.p50Us)));
        row.push_back(Table::num(int64_t(e.p99Us)));
        t.row(row);
    }
    std::string body = t.str();

    // One "group: value label, ..." line per group with a non-zero
    // value; the list keeps each group's scalars adjacent.
    std::string group, line;
    bool nonZero = false;
    auto flush = [&] {
        if (nonZero)
            body += group + ": " + line + "\n";
        line.clear();
        nonZero = false;
    };
    forEachStat([&](const char *g, const char *label, Merge,
                    uint64_t v) {
        if (group != g) {
            flush();
            group = g;
        }
        line += strfmt("%s%llu %s", line.empty() ? "" : ", ",
                       (unsigned long long)v, label);
        nonZero |= v != 0;
    }, *this);
    flush();

    for (const FaultCounterSnap &f : faults) {
        body += strfmt("fault %s: %llu checks, %llu fired\n",
                       f.site.c_str(), (unsigned long long)f.checks,
                       (unsigned long long)f.fired);
    }
    return body;
}

void
StatsSnap::encode(ByteWriter &w) const
{
    w.u32(uint32_t(ep.size()));
    for (const EndpointSnap &e : ep) {
        forEachCounter([&](const char *, uint64_t v) { w.u64(v); }, e);
        for (uint64_t n : e.lat)
            w.u64(n);
    }
    forEachStat([&](const char *, const char *, Merge,
                    uint64_t v) { w.u64(v); }, *this);
    w.u32(uint32_t(faults.size()));
    for (const FaultCounterSnap &f : faults) {
        w.str(f.site);
        w.u64(f.checks);
        w.u64(f.fired);
    }
}

bool
StatsSnap::decode(ByteReader &r, StatsSnap *out)
{
    StatsSnap s;
    uint32_t n = r.u32();
    if (!r.ok() || n != s.ep.size())
        return false;
    for (EndpointSnap &e : s.ep) {
        forEachCounter([&](const char *, uint64_t &v) { v = r.u64(); },
                       e);
        for (uint64_t &b : e.lat)
            b = r.u64();
        e.summarize();
    }
    forEachStat([&](const char *, const char *, Merge,
                    uint64_t &v) { v = r.u64(); }, s);
    uint32_t nf = r.u32();
    if (!r.ok() || nf > uint32_t(kFaultSiteCount))
        return false;
    s.faults.resize(nf);
    for (FaultCounterSnap &f : s.faults) {
        f.site = r.str();
        f.checks = r.u64();
        f.fired = r.u64();
    }
    if (!r.ok())
        return false;
    *out = s;
    return true;
}

StatsSnap
ServiceMetrics::snapshot(uint64_t queue_depth, uint64_t in_flight,
                         bool draining) const
{
    StatsSnap s;
    for (size_t i = 0; i < ep_.size(); i++) {
        forEachCounter(
            [](const char *, uint64_t &v,
               const std::atomic<uint64_t> &live) {
                v = live.load(std::memory_order_relaxed);
            },
            s.ep[i], ep_[i]);
        s.ep[i].lat = ep_[i].latency.buckets();
        s.ep[i].summarize();
    }
    s.queueDepth = queue_depth;
    s.queuePeak = queuePeak_.load(std::memory_order_relaxed);
    s.inFlight = in_flight;
    s.draining = draining ? 1 : 0;
    s.liveConns = liveConns_.load(std::memory_order_relaxed);
    s.connsAccepted = connsAccepted_.load(std::memory_order_relaxed);
    s.connsRejected = connsRejected_.load(std::memory_order_relaxed);
    // Fault-injection counters ride in every snapshot so the fleet
    // roll-up can prove a chaos run's faults actually landed; empty
    // (and free) when the plane was never armed.
    s.faults = faultSnapshot();
    return s;
}

} // namespace cisa
