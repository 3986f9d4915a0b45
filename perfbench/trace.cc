#include "trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

struct ThreadBuf
{
    uint32_t tid = 0;
    std::vector<SpanRec> spans;
};

/** Buffers outlive their threads: pool workers may exit before the
 * harness collects. */
std::mutex g_bufsMu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::atomic<uint64_t> g_nextId{1};

thread_local ThreadBuf *t_buf = nullptr;
thread_local uint64_t t_current = 0;

ThreadBuf &
threadBuf()
{
    if (!t_buf) {
        std::lock_guard<std::mutex> lk(g_bufsMu);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        t_buf = g_bufs.back().get();
        t_buf->tid = uint32_t(g_bufs.size());
        t_buf->spans.reserve(4096);
    }
    return *t_buf;
}

} // namespace

std::atomic<bool> Tracer::on_{false};

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

void
Tracer::enable()
{
    on_.store(true, std::memory_order_relaxed);
}

uint64_t
Tracer::begin()
{
    return enabled() ? g_nextId.fetch_add(1, std::memory_order_relaxed)
                     : 0;
}

void
Tracer::end(const char *name, uint64_t id, uint64_t parent,
            uint64_t req, uint64_t startNs)
{
    ThreadBuf &b = threadBuf();
    b.spans.push_back(
        SpanRec{name, id, parent, req, startNs, nowNs(), b.tid});
}

uint64_t
Tracer::current()
{
    return t_current;
}

void
Tracer::setCurrent(uint64_t id)
{
    t_current = id;
}

std::vector<SpanRec>
Tracer::collect()
{
    std::lock_guard<std::mutex> lk(g_bufsMu);
    std::vector<SpanRec> all;
    for (const auto &b : g_bufs)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRec &a, const SpanRec &b) {
                  return a.startNs < b.startNs;
              });
    return all;
}

Span::Span(const char *name, uint64_t req)
    : Span(name, req, Tracer::current())
{
}

Span::Span(const char *name, uint64_t req, uint64_t parent)
    : name_(name)
{
    if (!Tracer::enabled())
        return;
    id_ = Tracer::begin();
    parent_ = parent;
    req_ = req;
    saved_ = Tracer::current();
    Tracer::setCurrent(id_);
    start_ = nowNs();
}

Span::~Span()
{
    if (!id_)
        return;
    Tracer::end(name_, id_, parent_, req_, start_);
    Tracer::setCurrent(saved_);
}

std::map<std::string, LayerTime>
aggregate(const std::vector<SpanRec> &spans)
{
    // Children grouped by parent, then each span's self time is its
    // duration minus the union of its children's intervals, clipped
    // to the span (a child run on a pool thread may end after it).
    std::unordered_map<uint64_t, std::vector<const SpanRec *>> kids;
    for (const SpanRec &s : spans)
        if (s.parent)
            kids[s.parent].push_back(&s);

    std::map<std::string, LayerTime> out;
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (const SpanRec &s : spans) {
        uint64_t dur = s.endNs - s.startNs;
        uint64_t covered = 0;
        auto it = kids.find(s.id);
        if (it != kids.end()) {
            iv.clear();
            for (const SpanRec *c : it->second) {
                uint64_t a = std::max(c->startNs, s.startNs);
                uint64_t b = std::min(c->endNs, s.endNs);
                if (a < b)
                    iv.push_back({a, b});
            }
            std::sort(iv.begin(), iv.end());
            uint64_t curA = 0, curB = 0;
            for (const auto &[a, b] : iv) {
                if (a > curB) {
                    covered += curB - curA;
                    curA = a;
                    curB = b;
                } else {
                    curB = std::max(curB, b);
                }
            }
            covered += curB - curA;
        }
        LayerTime &lt = out[s.name];
        lt.totalS += double(dur) * 1e-9;
        lt.selfS += double(dur - std::min(dur, covered)) * 1e-9;
        lt.count++;
    }
    return out;
}

bool
writeChromeTrace(const std::vector<SpanRec> &spans,
                 const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    uint64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans.size(); i++) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,"
                     "\"req\":%llu}}%s\n",
                     s.name, s.tid, double(s.startNs - t0) * 1e-3,
                     double(s.endNs - s.startNs) * 1e-3,
                     (unsigned long long)s.id,
                     (unsigned long long)s.parent,
                     (unsigned long long)s.req,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
