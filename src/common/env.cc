#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include <sys/stat.h>

#include "common/logging.hh"

namespace cisa
{

bool
parseIntIn(const char *s, int64_t lo, int64_t hi, int64_t *out)
{
    while (std::isspace(static_cast<unsigned char>(*s)))
        s++;
    if (!*s)
        return false;
    errno = 0;
    char *end = nullptr;
    long long n = std::strtoll(s, &end, 10);
    if (end == s || errno == ERANGE)
        return false;
    while (std::isspace(static_cast<unsigned char>(*end)))
        end++;
    if (*end || n < lo || n > hi)
        return false;
    *out = n;
    return true;
}

int64_t
flagIntIn(const char *flag, const char *v, int64_t lo, int64_t hi)
{
    int64_t n;
    if (!parseIntIn(v, lo, hi, &n)) {
        std::fprintf(stderr,
                     "%s: '%s' is not an integer in [%lld, %lld]\n",
                     flag, v, (long long)lo, (long long)hi);
        std::exit(2);
    }
    return n;
}

int64_t
envInt(const char *name, int64_t dflt)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return dflt;
    int64_t n;
    if (!parseIntIn(v, INT64_MIN, INT64_MAX, &n)) {
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
    if (!parseIntIn(v, lo, hi, &n)) {
        warn("%s=\"%s\" is not an integer in [%lld, %lld]; using "
             "default %lld",
             name, v, (long long)lo, (long long)hi, (long long)dflt);
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
clientRetries()
{
    return int(envIntRange("CISA_CLIENT_RETRIES", 0, 0, 100));
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

} // namespace cisa
