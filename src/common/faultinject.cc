#include "common/faultinject.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include <time.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace cisa
{

namespace
{

struct SiteConfig {
    bool enabled = false;
    double p = 0.0;       // per-check fire probability
    uint64_t nth = 0;     // fire every nth check (1-based)
    int err = 0;          // injected errno (0 = site default)
    uint32_t ms = 0;      // sleep when fired
    uint64_t count = 0;   // max fires (0 = unlimited)
    uint64_t shortBytes = uint64_t(-1); // disk.write torn length
};

struct SiteState {
    SiteConfig cfg;
    Pcg32 rng;
    uint64_t checks = 0;
    uint64_t fired = 0;
};

struct Plane {
    std::mutex mu;
    SiteState sites[kFaultSiteCount];
};

Plane &
plane()
{
    static Plane p;
    return p;
}

const char *const kSiteNames[kFaultSiteCount] = {
    "net.read",  "net.write", "net.connect", "net.accept",
    "disk.open", "disk.write", "disk.fsync", "disk.rename",
    "exec.delay",
};

const int kSiteErrnos[kFaultSiteCount] = {
    ECONNRESET, EPIPE, ECONNREFUSED, ECONNABORTED,
    EIO,        ENOSPC, EIO,         EIO,
    0,
};

struct NamedErrno {
    const char *name;
    int value;
};

const NamedErrno kErrnoNames[] = {
    { "EPIPE", EPIPE },           { "ECONNRESET", ECONNRESET },
    { "ECONNREFUSED", ECONNREFUSED }, { "ECONNABORTED", ECONNABORTED },
    { "EINTR", EINTR },           { "EIO", EIO },
    { "ENOSPC", ENOSPC },         { "EDQUOT", EDQUOT },
    { "EACCES", EACCES },         { "ENOENT", ENOENT },
    { "EMFILE", EMFILE },         { "ENFILE", ENFILE },
    { "EAGAIN", EAGAIN },         { "ETIMEDOUT", ETIMEDOUT },
    { "ENETUNREACH", ENETUNREACH }, { "EHOSTUNREACH", EHOSTUNREACH },
    { "EBADF", EBADF },           { "EFBIG", EFBIG },
    { "EROFS", EROFS },           { "ENOMEM", ENOMEM },
};

bool
parseErrno(const std::string &s, int *out)
{
    for (const NamedErrno &ne : kErrnoNames) {
        if (s == ne.name) {
            *out = ne.value;
            return true;
        }
    }
    if (s.empty() || !std::isdigit((unsigned char)s[0]))
        return false;
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (!end || *end != '\0' || v <= 0 || v > 4096)
        return false;
    *out = int(v);
    return true;
}

bool
parseSite(const std::string &s, int *out)
{
    for (int i = 0; i < kFaultSiteCount; i++) {
        if (s == kSiteNames[i]) {
            *out = i;
            return true;
        }
    }
    return false;
}

bool
parseNumber(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (!end || *end != '\0' || v < 0)
        return false;
    *out = v;
    return true;
}

/**
 * Parse one `site:k=v,k=v` clause into cfgs[site]. Returns false and
 * fills *err on any malformed token.
 */
bool
parseClause(const std::string &clause, SiteConfig *cfgs,
            std::string *err)
{
    size_t colon = clause.find(':');
    if (colon == std::string::npos) {
        *err = strfmt("fault clause '%s' lacks ':'", clause.c_str());
        return false;
    }
    int site = 0;
    if (!parseSite(clause.substr(0, colon), &site)) {
        *err = strfmt("unknown fault site '%s'",
                      clause.substr(0, colon).c_str());
        return false;
    }
    SiteConfig &cfg = cfgs[site];
    cfg.enabled = true;

    std::string rest = clause.substr(colon + 1);
    size_t pos = 0;
    while (pos < rest.size()) {
        size_t comma = rest.find(',', pos);
        std::string kv = rest.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? rest.size() : comma + 1;
        size_t eq = kv.find('=');
        if (eq == std::string::npos) {
            *err = strfmt("fault option '%s' lacks '='", kv.c_str());
            return false;
        }
        std::string key = kv.substr(0, eq);
        std::string val = kv.substr(eq + 1);
        double num = 0;
        if (key == "p") {
            if (!parseNumber(val, &num) || num > 1.0) {
                *err = strfmt("bad fault p '%s'", val.c_str());
                return false;
            }
            cfg.p = num;
        } else if (key == "nth") {
            if (!parseNumber(val, &num) || num < 1) {
                *err = strfmt("bad fault nth '%s'", val.c_str());
                return false;
            }
            cfg.nth = uint64_t(num);
        } else if (key == "errno") {
            if (!parseErrno(val, &cfg.err)) {
                *err = strfmt("bad fault errno '%s'", val.c_str());
                return false;
            }
        } else if (key == "ms") {
            if (!parseNumber(val, &num)) {
                *err = strfmt("bad fault ms '%s'", val.c_str());
                return false;
            }
            cfg.ms = uint32_t(num);
        } else if (key == "count") {
            if (!parseNumber(val, &num)) {
                *err = strfmt("bad fault count '%s'", val.c_str());
                return false;
            }
            cfg.count = uint64_t(num);
        } else if (key == "short") {
            if (!parseNumber(val, &num)) {
                *err = strfmt("bad fault short '%s'", val.c_str());
                return false;
            }
            cfg.shortBytes = uint64_t(num);
        } else {
            *err = strfmt("unknown fault option '%s'", key.c_str());
            return false;
        }
    }
    return true;
}

void
sleepMs(uint32_t ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = long(ms % 1000) * 1000000L;
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

/** Arm from CISA_FAULTS at load time, before main() runs. envInt()
 * may warn this early: the log level is constant-initialized. */
struct EnvArm {
    EnvArm()
    {
        const char *spec = std::getenv("CISA_FAULTS");
        if (!spec || !*spec)
            return;
        uint64_t seed = uint64_t(envInt("CISA_FAULTS_SEED", 1));
        std::string err;
        if (!faultConfigure(spec, seed, &err))
            warn("CISA_FAULTS ignored: %s", err.c_str());
    }
} envArm;

} // namespace

namespace detail
{
std::atomic<bool> faultArmedFlag{false};
} // namespace detail

const char *
faultSiteName(FaultSite s)
{
    return kSiteNames[int(s)];
}

int
faultSiteErrno(FaultSite s)
{
    return kSiteErrnos[int(s)];
}

bool
faultPoint(FaultSite s)
{
    Plane &p = plane();
    uint32_t ms = 0;
    int err = 0;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lk(p.mu);
        SiteState &st = p.sites[int(s)];
        st.checks++;
        const SiteConfig &cfg = st.cfg;
        if (!cfg.enabled)
            return false;
        if (cfg.count && st.fired >= cfg.count)
            return false;
        if (cfg.nth && st.checks % cfg.nth == 0)
            fire = true;
        if (!fire && cfg.p > 0 && st.rng.chance(cfg.p))
            fire = true;
        if (!fire)
            return false;
        st.fired++;
        ms = cfg.ms;
        err = cfg.err ? cfg.err : kSiteErrnos[int(s)];
    }
    // Sleep outside the lock so a delay site never serializes the
    // whole plane.
    if (ms)
        sleepMs(ms);
    if (err)
        errno = err;
    return true;
}

size_t
faultShortBytes(size_t n)
{
    Plane &p = plane();
    std::lock_guard<std::mutex> lk(p.mu);
    const SiteConfig &cfg = p.sites[int(FaultSite::DiskWrite)].cfg;
    if (cfg.shortBytes == uint64_t(-1))
        return n / 2;
    return cfg.shortBytes < n ? size_t(cfg.shortBytes) : n;
}

bool
faultConfigure(const std::string &spec, uint64_t seed,
               std::string *err)
{
    SiteConfig cfgs[kFaultSiteCount];
    std::string why;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t semi = spec.find(';', pos);
        std::string clause = spec.substr(
            pos, semi == std::string::npos ? std::string::npos
                                           : semi - pos);
        pos = semi == std::string::npos ? spec.size() : semi + 1;
        if (clause.empty())
            continue;
        if (!parseClause(clause, cfgs, &why)) {
            if (err)
                *err = why;
            return false;
        }
    }

    bool any = false;
    Plane &p = plane();
    {
        std::lock_guard<std::mutex> lk(p.mu);
        for (int i = 0; i < kFaultSiteCount; i++) {
            SiteState &st = p.sites[i];
            st.cfg = cfgs[i];
            st.checks = 0;
            st.fired = 0;
            st.rng = Pcg32(hashCombine(seed, uint64_t(i)),
                           uint64_t(i) * 2 + 1);
            any = any || cfgs[i].enabled;
        }
    }
    detail::faultArmedFlag.store(any, std::memory_order_relaxed);
    return true;
}

std::vector<FaultCounterSnap>
faultSnapshot()
{
    std::vector<FaultCounterSnap> out;
    Plane &p = plane();
    std::lock_guard<std::mutex> lk(p.mu);
    for (int i = 0; i < kFaultSiteCount; i++) {
        const SiteState &st = p.sites[i];
        if (!st.cfg.enabled && st.checks == 0)
            continue;
        FaultCounterSnap snap;
        snap.site = kSiteNames[i];
        snap.checks = st.checks;
        snap.fired = st.fired;
        out.push_back(std::move(snap));
    }
    return out;
}

} // namespace cisa
