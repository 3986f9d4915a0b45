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
 *
 * The same holds for flags. The service sizes (queue bound,
 * dispatchers, cached frames, connection cap, replicas, health
 * period) are fields of the service Options, which hold their
 * defaults; tests set the fields directly. Only the counts a script
 * or bench passes are flags: cisa_router --replicas, cisa_fleetd
 * --workers and cisa_loadgen --conns. Those and every other integer
 * flag or operand of the tools (counts, slab/uarch/phase indices,
 * milliseconds, seeds, mix weights) are read by flagIntIn(). The
 * service address alone also has an environment default
 * (CISA_SERVE_SOCKET).
 */

#ifndef CISA_COMMON_ENV_HH
#define CISA_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace cisa
{

/**
 * Strict base-10 integer parse, shared by the knobs below and the
 * tools' integer flags: the whole of @p s must be one integer in
 * [lo, hi] (surrounding whitespace and a sign allowed). Rejects empty
 * digits, trailing junk and magnitudes beyond int64_t (ERANGE), then
 * anything outside the inclusive bounds. False leaves @p out
 * untouched.
 */
bool parseIntIn(const char *s, int64_t lo, int64_t hi, int64_t *out);

/**
 * A tool's integer flag or operand: the value @p v of @p flag, in
 * [lo, hi]. Anything parseIntIn() refuses prints "flag: 'v' is not
 * an integer in [lo, hi]" and exits 2, before the tool binds,
 * connects, forks, allocates or starts a thread. Floating-point
 * flags (rates, budgets, scales) are read with std::atof and are not
 * checked this way.
 */
int64_t flagIntIn(const char *flag, const char *v, int64_t lo,
                  int64_t hi);

/** The longest millisecond flag a tool accepts: one day. */
constexpr int64_t kFlagMaxMs = 86400000;

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

/** Default address of the cisa-serve daemon and router: a UNIX
 * socket path or TCP host:port (CISA_SERVE_SOCKET). */
std::string serveSocketPath();

/** Bounded client retries on BUSY responses and connect/transport
 * failure (CISA_CLIENT_RETRIES, default 0 = fail fast). */
int clientRetries();

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
