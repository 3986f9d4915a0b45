/**
 * @file
 * Entry point of the benchmark harness (see README.md). Usage:
 *
 *   perfbench WORKLOAD --store PATH [--seed N] [--trace FILE]
 *             [--tools DIR] [--scratch DIR]
 *             [--setup-only]
 *
 * WORKLOAD is campaign_cold, paper_warm, fleet_open or dcsim_grid.
 * Prints one JSON report line on stdout; exits 0 only if the run
 * completed (result mismatches are reported, not fatal, so run.py
 * can count them against `failed`).
 */

#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <thread>

#include <sys/resource.h>

#include "common/env.hh"
#include "common/parallel.hh"
#include "compiler/compiler.hh"
#include "explore/campaign.hh"
#include "trace.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

std::string
digestHex(const void *data, size_t n)
{
    return Digest().bytes(data, n).hex();
}

Digest &
Digest::bytes(const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; i++) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h_);
    return buf;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = size_t(q * double(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

double
secondsSince(uint64_t startNs)
{
    return double(nowNs() - startNs) * 1e-9;
}

bool
loadWarmStore(const Args &a)
{
    Span s("explore.store_load");
    cisa::Campaign &camp = cisa::Campaign::get();
    for (int slab = 0; slab < cisa::Campaign::kSlabs; slab++) {
        if (!camp.slabReady(slab)) {
            std::fprintf(stderr, "perfbench: warm store %s lacks slab %d\n",
                         a.store.c_str(), slab);
            return false;
        }
    }
    return true;
}

} // namespace perfbench

using namespace perfbench;

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (uint8_t(c) < 0x20) {
            o += ' ';
        } else {
            o += c;
        }
    }
    return o;
}

bool
avx512Kernel()
{
#if defined(__x86_64__)
    return cisa::batchSimdEnabled() &&
           __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl");
#else
    return false;
#endif
}

void
hostFacts(Report &r)
{
    r.info["nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    r.info["threads"] =
        std::to_string(cisa::ThreadPool::get().threads());
    r.info["avx512_batch_kernel"] = avx512Kernel() ? "1" : "0";
    r.info["build_type"] = PERFBENCH_BUILD_TYPE;
    r.info["compiler"] = "gcc " __VERSION__;
    r.info["sim_uops"] = std::to_string(cisa::simUopBudget());
    r.info["sim_warmup"] = std::to_string(cisa::simWarmupUops());
    char key[32];
    std::snprintf(key, sizeof(key), "%016llx",
                  (unsigned long long)cisa::CompileOptions::fromEnv()
                      .pipelineKey());
    r.info["pipeline_key"] = key;
}

void
printReport(const Report &r)
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    double rssMb = double(ru.ru_maxrss) / 1024.0 + r.childRssMb;

    std::string o = "{";
    auto num = [&](const char *k, double v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "\"%s\": %.9g, ", k, v);
        o += buf;
    };
    num("setup_s", r.setupS);
    num("work_s", r.workS);
    num("ops_per_s", r.opsPerS);
    num("op_p50_us", r.opP50Us);
    num("op_p99_us", r.opP99Us);
    num("peak_rss_mb", rssMb);
    num("attempted", double(r.attempted));
    num("failed", double(r.failed));
    auto strMap = [&](const char *k,
                      const std::map<std::string, std::string> &m) {
        o += "\"" + std::string(k) + "\": {";
        bool first = true;
        for (const auto &[key, v] : m) {
            o += (first ? "\"" : ", \"") + jsonEscape(key) + "\": \"" +
                 jsonEscape(v) + "\"";
            first = false;
        }
        o += "}, ";
    };
    o += "\"op_us\": {";
    bool firstOp = true;
    for (const auto &[key, v] : r.opUs) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        o += (firstOp ? "\"" : ", \"") + jsonEscape(key) + "\": " + buf;
        firstOp = false;
    }
    o += "}, ";
    strMap("digests", r.digests);
    strMap("info", r.info);
    o += "\"layers\": {";
    bool first = true;
    for (const auto &[key, v] : r.layers) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        o += (first ? "\"" : ", \"") + key + "\": " + buf;
        first = false;
    }
    o += "}}";
    std::printf("%s\n", o.c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench campaign_cold|paper_warm|fleet_open|"
                 "dcsim_grid --store PATH [--seed N] [--trace FILE]"
                 " [--tools DIR] [--scratch DIR] "
                 "[--setup-only]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t startNs = nowNs();
    if (argc < 2)
        return usage();
    Args a;
    a.startNs = startNs;
    a.workload = argv[1];
    for (int i = 2; i < argc; i++) {
        std::string k = argv[i];
        bool hasVal = i + 1 < argc;
        if (k == "--store" && hasVal)
            a.store = argv[++i];
        else if (k == "--seed" && hasVal)
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (k == "--trace" && hasVal)
            a.traceFile = argv[++i];
        else if (k == "--tools" && hasVal)
            a.toolDir = argv[++i];
        else if (k == "--scratch" && hasVal)
            a.scratch = argv[++i];
        else if (k == "--setup-only")
            a.setupOnly = true;
        else
            return usage();
    }
    if (a.store.empty())
        return usage();
    // The library reads its store path from the environment.
    ::setenv("CISA_DSE_CACHE", a.store.c_str(), 1);
    if (a.traced())
        Tracer::enable();

    Report r;
    int rc = 0;
    try {
        if (a.workload == "campaign_cold")
            rc = runCampaign(a, r);
        else if (a.workload == "paper_warm")
            rc = runPaper(a, r);
        else if (a.workload == "fleet_open")
            rc = runFleet(a, r);
        else if (a.workload == "dcsim_grid")
            rc = runDcsim(a, r);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (rc != 0)
        return rc;
    if (a.traced()) {
        std::vector<SpanRec> spans = Tracer::collect();
        if (!writeChromeTrace(spans, a.traceFile)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceFile.c_str());
            return 1;
        }
        // The mirrors' top spans only bundle their stage spans, so
        // their self time is about 0; they report inclusive time.
        for (const auto &[name, lt] : aggregate(spans)) {
            bool bundle =
                name == "core.evaluate" || name == "migration.downgrade";
            r.layers[name + "_s"] = bundle ? lt.totalS : lt.selfS;
        }
    }
    hostFacts(r);
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    printReport(r);
    return 0;
}
