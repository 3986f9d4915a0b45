/**
 * @file
 * Environment-variable quality knobs shared by tests, benches, and
 * examples. Defaults are chosen so the full benchmark suite completes
 * on a single laptop core; raising CISA_SIM_UOPS tightens results.
 *
 * Parsing is strict: a malformed value (`CISA_THREADS=abc`, trailing
 * junk) or one outside the documented range logs one warning and
 * falls back to the default instead of silently yielding 0 or
 * garbage. The consolidated knob table lives in README.md, and the
 * knob_docs ctest checks it against the literals here.
 *
 * A value that nothing in the repository ever sets is a constant
 * beside the code that uses it, not a knob: the listen backlog
 * (listener.cc), the router's pooled connections per worker
 * (router.cc), the client's first retry backoff (RetryPolicy), the
 * datacenter tile's idle power (power/calib.hh) and the placement
 * batch at which cisa-dcsim scores on the pool (dcsim.cc). The
 * compiler reads no knob: its callers set its options, and it checks
 * the IR after every pass.
 */

#ifndef CISA_COMMON_ENV_HH
#define CISA_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace cisa
{

/**
 * Integer env var with a default. The whole value must parse as a
 * base-10 integer (leading/trailing whitespace allowed); otherwise
 * warns and returns @p dflt.
 */
int64_t envInt(const char *name, int64_t dflt);

/**
 * envInt() restricted to [lo, hi]; an out-of-range value warns and
 * returns @p dflt (not a clamp — the documented default is what the
 * warning promises).
 */
int64_t envIntRange(const char *name, int64_t dflt, int64_t lo,
                    int64_t hi);

/** String env var with a default. */
std::string envStr(const char *name, const std::string &dflt);

/** Timed micro-ops per (phase, design-point) simulation. */
uint64_t simUopBudget();

/** Warm-up micro-ops before timing starts. */
uint64_t simWarmupUops();

/**
 * Path of the design-space-exploration result cache
 * (CISA_DSE_CACHE). Unset, the store lives in the per-user cache
 * home — ${XDG_CACHE_HOME:-$HOME/.cache}/cisa/dse_cache.bin — so
 * tools share one warm cache regardless of the directory they were
 * launched from (the directory is created best-effort; with no HOME
 * either, the old CWD-relative dse_cache.bin is the last resort).
 */
std::string dseCachePath();

/** Whether the DSE slab store is opened read-only
 * (CISA_DSE_READONLY, default off): slabs load and shared locks are
 * still taken, but the process never appends, compacts, or
 * quarantines the store file. */
bool dseCacheReadonly();

/** Upper bound on cells advanced by one lockstep trace walk
 * (CISA_BATCH_WIDTH, default 64): larger groups amortize the walk
 * further, smaller ones expose more (phase, group) tasks to the
 * pool. */
int batchWidth();

/** CISA_BATCH_SIMD: allow the vectorized lockstep kernel (default
 * on); 0 makes every lockstep walk replay its cells one by one.
 * Results are bit-identical either way, so 0 exists for debugging,
 * A/B timing and testing that fallback on AVX-512 hosts. */
bool batchSimdEnabled();

/** Hill-climbing restarts in the multicore search. */
int searchRestarts();

/** UNIX-domain socket path of the cisa-serve daemon. */
std::string serveSocketPath();

/** Bound on queued (not yet running) service requests; a full queue
 * answers BUSY instead of buffering without limit. */
int serveQueueBound();

/** Dispatcher threads draining the service queue (each request then
 * fans its own work out over the CISA_THREADS pool). */
int serveWorkers();

/** Encoded response frames the daemon's response cache keeps (0
 * turns the cache off; coalescing of in-flight duplicates is always
 * on). */
int serveCacheEntries();

/** Bound on simultaneously-served connections; an accept beyond it
 * is answered with one BUSY frame and closed instead of spawning an
 * unbounded connection thread (CISA_SERVE_MAX_CONNS). */
int serveMaxConns();

/** Bounded client retries on BUSY responses and connect/transport
 * failure (CISA_CLIENT_RETRIES, default 0 = fail fast). */
int clientRetries();

/** Replication factor of the router's consistent-hash ring: how
 * many workers own (and may serve) each slab key
 * (CISA_ROUTER_REPLICAS). */
int routerReplicas();

/** Router health-check period in milliseconds
 * (CISA_ROUTER_HEALTH_MS). */
int routerHealthMs();

/** Supervisor: base restart backoff in milliseconds after a worker
 * death (CISA_SUPERVISE_BACKOFF_MS); doubles per consecutive
 * short-lived run. */
int superviseBackoffMs();

/** Supervisor: cap on the exponential restart backoff
 * (CISA_SUPERVISE_BACKOFF_MAX_MS). */
int superviseBackoffMaxMs();

/** Supervisor: a worker that lives at least this long resets the
 * backoff and the crash-loop streak (CISA_SUPERVISE_STABLE_MS). */
int superviseStableMs();

/** Supervisor: consecutive short-lived runs after which a worker is
 * declared crash-looping — it stays in the rotation but is pinned at
 * the maximum backoff and counted in stats
 * (CISA_SUPERVISE_CRASHLOOP). */
int superviseCrashLoop();

} // namespace cisa

#endif // CISA_COMMON_ENV_HH
