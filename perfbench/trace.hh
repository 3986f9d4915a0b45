/**
 * @file
 * In-memory span recorder of the benchmark harness.
 *
 * Every span wraps one call into a public function of a library
 * layer (src/<layer>/...); nothing inside src/ is instrumented. A
 * span records its name, start, end, parent span and request id;
 * spans are buffered per thread, merged once when the run ends, and
 * written out as Chrome trace-event JSON. Per-layer self time is a
 * span's duration minus the part of its interval its child spans
 * cover.
 *
 * Recording is off unless Tracer::enable() was called, so the
 * untraced runs pay one relaxed load per span site.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
uint64_t nowNs();

struct SpanRec
{
    const char *name = ""; ///< static string, "layer.stage"
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    uint64_t req = 0;    ///< request / work-item id
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    uint32_t tid = 0;
};

class Tracer
{
  public:
    static void enable();
    static bool enabled()
    {
        return on_.load(std::memory_order_relaxed);
    }

    /** Allocate a span id (0 when tracing is off). */
    static uint64_t begin();
    static void end(const char *name, uint64_t id, uint64_t parent,
                    uint64_t req, uint64_t startNs);

    /** Span id open on this thread (0 if none). */
    static uint64_t current();
    static void setCurrent(uint64_t id);

    /** Every span recorded so far, merged across threads. */
    static std::vector<SpanRec> collect();

  private:
    static std::atomic<bool> on_;
};

/**
 * RAII span. The parent defaults to the span open on this thread;
 * pass an explicit parent when the work runs on a pool thread on
 * behalf of a span opened elsewhere.
 */
class Span
{
  public:
    explicit Span(const char *name, uint64_t req = 0);
    Span(const char *name, uint64_t req, uint64_t parent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return id_; }

  private:
    const char *name_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    uint64_t saved_ = 0;
    uint64_t req_ = 0;
    uint64_t start_ = 0;
};

/** Per-name aggregate of a span set. */
struct LayerTime
{
    double selfS = 0;  ///< sum of self times
    double totalS = 0; ///< sum of durations
    uint64_t count = 0;
};

/** Self and total time per span name. */
std::map<std::string, LayerTime>
aggregate(const std::vector<SpanRec> &spans);

/** Write @p spans as Chrome trace-event JSON; false on I/O error. */
bool writeChromeTrace(const std::vector<SpanRec> &spans,
                      const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
