/**
 * @file
 * Shared pieces of the benchmark harness: the command line, the
 * per-process report, and digest helpers for the correctness gate.
 *
 * One harness process runs one repetition of one workload: it sets
 * up (timed as setup_s), runs one unit of work, checks the outputs,
 * and prints a single JSON report line that run.py aggregates.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Args
{
    std::string workload;
    std::string store;     ///< private CISA_DSE_CACHE of this process
    std::string traceFile; ///< non-empty: traced run, spans go here
    std::string toolDir;   ///< directory of cisa_serve / cisa_router
    std::string scratch;   ///< private directory for temp files
    uint64_t seed = 1;
    uint64_t startNs = 0;  ///< nowNs() at main() entry
    bool setupOnly = false;
    bool traced() const { return !traceFile.empty(); }
};

/** What one harness process measured. */
struct Report
{
    double setupS = 0;
    double workS = 0;    ///< wall time of the unit of work
    double opsPerS = 0;  ///< operations per second of host time
    double opP50Us = 0;  ///< per-operation latency
    double opP99Us = 0;
    double childRssMb = 0; ///< peak RSS summed over reaped children
    /** Time of each operation, by a name that denotes the same
     * operation in every repetition with the same seed; run.py takes
     * each operation's fastest repetition (workloads that fill it). */
    std::map<std::string, double> opUs;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Result digests checked against pins.json by run.py. */
    std::map<std::string, std::string> digests;
    /** Per-layer metrics (traced runs; counters in every run). */
    std::map<std::string, double> layers;
    /** Informational facts (not metrics). */
    std::map<std::string, std::string> info;
    /** Local check failures, one line each (printed to stderr). */
    std::vector<std::string> errors;

    void fail(const std::string &why)
    {
        failed++;
        errors.push_back(why);
    }
};

/** FNV-1a over raw bytes, as 16 hex digits. */
std::string digestHex(const void *data, size_t n);

/** Incremental FNV-1a for digests over several fields. */
class Digest
{
  public:
    Digest &bytes(const void *data, size_t n);
    template <typename T>
    Digest &pod(const T &v)
    {
        return bytes(&v, sizeof(v));
    }
    Digest &str(const std::string &s) { return bytes(s.data(), s.size()); }
    std::string hex() const;

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Nearest-rank quantile of @p v (sorted in place); 0 if empty. */
double quantile(std::vector<double> &v, double q);

double secondsSince(uint64_t startNs);

/** Load the private store (span explore.store_load); false, with a
 * message, unless it holds every slab. */
bool loadWarmStore(const Args &a);

int runCampaign(const Args &a, Report &r);
int runPaper(const Args &a, Report &r);
int runFleet(const Args &a, Report &r);
int runDcsim(const Args &a, Report &r);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
