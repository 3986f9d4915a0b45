#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include <sys/stat.h>

#include "common/logging.hh"

namespace cisa
{

namespace
{

/**
 * Strict base-10 parse of an env value. Accepts surrounding
 * whitespace and a sign; rejects empty digits, trailing junk, and
 * out-of-int64 magnitudes (ERANGE). Returns false when @p out is
 * untouched.
 */
bool
parseInt(const char *v, int64_t *out)
{
    while (std::isspace(static_cast<unsigned char>(*v)))
        v++;
    if (!*v)
        return false;
    errno = 0;
    char *end = nullptr;
    long long n = std::strtoll(v, &end, 10);
    if (end == v || errno == ERANGE)
        return false;
    while (std::isspace(static_cast<unsigned char>(*end)))
        end++;
    if (*end)
        return false;
    *out = n;
    return true;
}

} // namespace

int64_t
envInt(const char *name, int64_t dflt)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    int64_t n;
    if (!parseInt(v, &n)) {
        warn("%s=\"%s\" is not an integer; using default %lld", name,
             v, (long long)dflt);
        return dflt;
    }
    return n;
}

int64_t
envIntRange(const char *name, int64_t dflt, int64_t lo, int64_t hi)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    int64_t n;
    if (!parseInt(v, &n)) {
        warn("%s=\"%s\" is not an integer; using default %lld", name,
             v, (long long)dflt);
        return dflt;
    }
    if (n < lo || n > hi) {
        warn("%s=%lld is outside [%lld, %lld]; using default %lld",
             name, (long long)n, (long long)lo, (long long)hi,
             (long long)dflt);
        return dflt;
    }
    return n;
}

std::string
envStr(const char *name, const std::string &dflt)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    return v;
}

uint64_t
simUopBudget()
{
    return uint64_t(
        envIntRange("CISA_SIM_UOPS", 6000, 1, int64_t(1) << 31));
}

uint64_t
simWarmupUops()
{
    return uint64_t(
        envIntRange("CISA_SIM_WARMUP", 1500, 0, int64_t(1) << 31));
}

std::string
dseCachePath()
{
    std::string v = envStr("CISA_DSE_CACHE", "");
    if (!v.empty())
        return v;
    // Documented home (README knob table):
    // ${XDG_CACHE_HOME:-$HOME/.cache}/cisa/dse_cache.bin. Created
    // best-effort; the slab store copes with an unopenable path.
    std::string base = envStr("XDG_CACHE_HOME", "");
    if (base.empty()) {
        std::string home = envStr("HOME", "");
        if (home.empty())
            return "dse_cache.bin"; // last resort: CWD, as before
        base = home + "/.cache";
    }
    ::mkdir(base.c_str(), 0755);
    std::string dir = base + "/cisa";
    ::mkdir(dir.c_str(), 0755);
    return dir + "/dse_cache.bin";
}

bool
dseCacheReadonly()
{
    return envInt("CISA_DSE_READONLY", 0) != 0;
}

int
batchWidth()
{
    return int(envIntRange("CISA_BATCH_WIDTH", 64, 2, 1 << 20));
}

bool
batchSimdEnabled()
{
    return envInt("CISA_BATCH_SIMD", 1) != 0;
}

bool
pipelineVerifyEnabled()
{
    return envInt("CISA_VERIFY_IR", 0) != 0;
}

int
searchRestarts()
{
    return int(envIntRange("CISA_SEARCH_RESTARTS", 2, 1, 1000));
}

std::string
serveSocketPath()
{
    return envStr("CISA_SERVE_SOCKET", "/tmp/cisa_serve.sock");
}

int
serveQueueBound()
{
    return int(envIntRange("CISA_SERVE_QUEUE", 64, 1, 1 << 20));
}

int
serveWorkers()
{
    return int(envIntRange("CISA_SERVE_WORKERS", 2, 1, 256));
}

int
serveCacheEntries()
{
    return int(envIntRange("CISA_SERVE_CACHE", 256, 0, 1 << 20));
}

int
serveBacklog()
{
    return int(envIntRange("CISA_SERVE_BACKLOG", 64, 1, 4096));
}

int
serveMaxConns()
{
    return int(envIntRange("CISA_SERVE_MAX_CONNS", 256, 1, 1 << 20));
}

int
clientRetries()
{
    return int(envIntRange("CISA_CLIENT_RETRIES", 0, 0, 100));
}

int
clientBackoffMs()
{
    return int(envIntRange("CISA_CLIENT_BACKOFF_MS", 5, 0, 60000));
}

int
routerReplicas()
{
    return int(envIntRange("CISA_ROUTER_REPLICAS", 2, 1, 64));
}

int
routerPoolConns()
{
    return int(envIntRange("CISA_ROUTER_POOL", 4, 1, 1024));
}

int
routerHealthMs()
{
    return int(envIntRange("CISA_ROUTER_HEALTH_MS", 250, 10, 60000));
}

int
breakerFails()
{
    return int(envIntRange("CISA_BREAKER_FAILS", 3, 1, 1000));
}

int
breakerCooldownMs()
{
    return int(
        envIntRange("CISA_BREAKER_COOLDOWN_MS", 200, 10, 600000));
}

bool
staleServeEnabled()
{
    return envInt("CISA_STALE_SERVE", 1) != 0;
}

int
superviseBackoffMs()
{
    return int(
        envIntRange("CISA_SUPERVISE_BACKOFF_MS", 100, 1, 60000));
}

int
superviseBackoffMaxMs()
{
    return int(envIntRange("CISA_SUPERVISE_BACKOFF_MAX_MS", 5000, 1,
                           600000));
}

int
superviseStableMs()
{
    return int(
        envIntRange("CISA_SUPERVISE_STABLE_MS", 1000, 0, 600000));
}

int
superviseCrashLoop()
{
    return int(envIntRange("CISA_SUPERVISE_CRASHLOOP", 5, 1, 1000));
}

int
dcsimParBatch()
{
    return int(
        envIntRange("CISA_DCSIM_PAR_BATCH", 64, 2, 1 << 20));
}

int
dcsimIdlePct()
{
    return int(envIntRange("CISA_DCSIM_IDLE_PCT", 10, 0, 100));
}

} // namespace cisa
