/**
 * @file
 * Open-loop load generator for cisa-serve (single daemon or router
 * fleet): fires a mixed request stream at a fixed arrival rate over
 * N connections, measures per-request latency against the *intended*
 * arrival time (so a stalled server can't hide queueing delay —
 * no coordinated omission), and reports overall plus per-second
 * p50/p99 timelines. Optionally SIGKILLs a worker pid mid-run to
 * measure the fleet's churn story: lost requests and the p99
 * recovery arc both show up in the timeline.
 *
 * Usage:
 *   cisa_loadgen --address ADDR [--rate R] [--conns N]
 *                [--duration-ms D | --count N] [--mix SPEC]
 *                [--slab S] [--seed S] [--retries N]
 *                [--deadline-ms N] [--verify-bytes]
 *                [--kill-pid P --kill-at-ms T] [--json]
 *
 * SPEC weights endpoints, e.g. "slab=8,ping=1,eval=1,table=1"
 * (default "slab=1"). --rate 0 runs closed-loop (each connection
 * fires as fast as responses return). --conns (1-256, default 4)
 * is the number of sender threads. Every integer value is checked
 * against its range — --count >= 1, --slab 0-28, --seed >= 0,
 * --retries 0-100, --duration-ms, --deadline-ms and --kill-at-ms
 * 0-86400000 (a day), --kill-pid >= 1, each SPEC weight 1-1000000 —
 * and a malformed or out-of-range one exits 2 before any connection
 * or thread starts. Exit status is nonzero if any request was lost
 * (transport failure or ERROR status), which is how the fleet smoke
 * test asserts zero loss under worker churn.
 *
 * --seed makes the stream itself reproducible: request n's endpoint
 * and slab picks are drawn from splitmix64 keyed by (seed, n)
 * instead of n alone, and each open-loop arrival is jittered
 * uniformly within its rate slot by the same hash — a deterministic
 * Poisson-ish process (mean rate preserved) instead of a metronome,
 * so two runs with one seed offer the server byte-identical load and
 * different seeds decorrelate the bursts.
 *
 * --verify-bytes asserts the fleet's determinism story end to end:
 * the first Ok response to each distinct request fingerprint records
 * a body hash, and any later response disagreeing with it is a
 * mismatch (exit 3). Under the chaos soak this is what "byte-
 * identical responses despite faults, reroutes, and stale serves"
 * means. Stale-flagged responses are counted (the degraded-mode
 * signal) and verified like any other — stale marks the serving
 * mode, never different bytes.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/env.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "explore/campaign.hh"
#include "service/client.hh"
#include "workloads/profiles.hh"

using namespace cisa;

namespace
{

using Clock = std::chrono::steady_clock;

struct MixEntry
{
    ReqType type;
    int weight;
};

/** Largest --mix weight: any mix of the four endpoints sums in an
 * int. */
constexpr int kMaxWeight = 1000000;

std::vector<MixEntry>
parseMix(const std::string &spec)
{
    std::vector<MixEntry> mix;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        size_t eq = item.find('=');
        std::string name = item.substr(0, eq);
        int weight =
            eq == std::string::npos
                ? 1
                : int(flagIntIn("--mix", item.c_str() + eq + 1, 1,
                                kMaxWeight));
        ReqType t;
        if (name == "ping")
            t = ReqType::Ping;
        else if (name == "eval")
            t = ReqType::Eval;
        else if (name == "slab")
            t = ReqType::Slab;
        else if (name == "table")
            t = ReqType::Table;
        else {
            std::fprintf(stderr, "unknown mix endpoint: %s\n",
                         name.c_str());
            std::exit(1);
        }
        mix.push_back({t, weight});
    }
    if (mix.empty())
        mix.push_back({ReqType::Slab, 1});
    return mix;
}

/** Per-thread tallies, merged after the run. */
struct Tally
{
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t stale = 0;    ///< Ok but served degraded from cache
    uint64_t busy = 0;
    uint64_t deadline = 0; ///< DEADLINE responses (budget spent)
    uint64_t lost = 0; ///< transport failure or ERROR status
    uint64_t mismatched = 0; ///< --verify-bytes disagreements
    std::vector<std::vector<uint32_t>> latBySec; ///< us, Ok only
};

uint64_t
pctOf(std::vector<uint32_t> &v, double p)
{
    if (v.empty())
        return 0;
    size_t idx = size_t(double(v.size() - 1) * p);
    std::nth_element(v.begin(), v.begin() + long(idx), v.end());
    return v[idx];
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --address ADDR [--rate R] [--conns N]\n"
        "          [--duration-ms D | --count N] [--mix SPEC]\n"
        "          [--slab S] [--seed S] [--retries N]\n"
        "          [--deadline-ms N] [--verify-bytes]\n"
        "          [--kill-pid P --kill-at-ms T] [--json]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string address;
    double rate = 0;
    int conns = 4;
    int64_t durationMs = 0;
    uint64_t count = 0;
    std::vector<MixEntry> mix = parseMix("slab=1");
    int fixedSlab = -1;
    uint64_t seed = 0;
    bool seeded = false;
    int retries = -1;
    uint32_t deadlineMs = 0;
    bool verifyBytes = false;
    long killPid = 0;
    int64_t killAtMs = 0;
    bool json = false;

    for (int i = 1; i < argc; i++) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--address"))
            address = val();
        else if (!std::strcmp(argv[i], "--rate"))
            rate = std::atof(val());
        else if (!std::strcmp(argv[i], "--conns"))
            conns = int(flagIntIn("--conns", val(), 1, 256));
        else if (!std::strcmp(argv[i], "--duration-ms"))
            durationMs = flagIntIn("--duration-ms", val(), 0, kFlagMaxMs);
        else if (!std::strcmp(argv[i], "--count"))
            count = uint64_t(flagIntIn("--count", val(), 1, INT64_MAX));
        else if (!std::strcmp(argv[i], "--mix"))
            mix = parseMix(val());
        else if (!std::strcmp(argv[i], "--slab"))
            fixedSlab = int(
                flagIntIn("--slab", val(), 0, Campaign::kSlabs - 1));
        else if (!std::strcmp(argv[i], "--seed")) {
            seed = uint64_t(flagIntIn("--seed", val(), 0, INT64_MAX));
            seeded = true;
        }
        else if (!std::strcmp(argv[i], "--retries"))
            retries = int(flagIntIn("--retries", val(), 0, 100));
        else if (!std::strcmp(argv[i], "--deadline-ms"))
            deadlineMs =
                uint32_t(flagIntIn("--deadline-ms", val(), 0, kFlagMaxMs));
        else if (!std::strcmp(argv[i], "--verify-bytes"))
            verifyBytes = true;
        else if (!std::strcmp(argv[i], "--kill-pid"))
            killPid = long(flagIntIn("--kill-pid", val(), 1, INT32_MAX));
        else if (!std::strcmp(argv[i], "--kill-at-ms"))
            killAtMs = flagIntIn("--kill-at-ms", val(), 0, kFlagMaxMs);
        else if (!std::strcmp(argv[i], "--json"))
            json = true;
        else {
            usage(argv[0]);
            return std::strcmp(argv[i], "--help") ? 1 : 0;
        }
    }
    if (address.empty() || (durationMs <= 0 && count == 0)) {
        usage(argv[0]);
        return 1;
    }

    int totalWeight = 0;
    for (const MixEntry &m : mix)
        totalWeight += m.weight;

    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        durationMs > 0 ? start + std::chrono::milliseconds(durationMs)
                       : Clock::time_point::max();

    std::thread killer;
    if (killPid > 0) {
        killer = std::thread([&] {
            std::this_thread::sleep_until(
                start + std::chrono::milliseconds(killAtMs));
            ::kill(pid_t(killPid), SIGKILL);
            std::fprintf(stderr,
                         "loadgen: killed worker pid %ld at +%lld "
                         "ms\n",
                         killPid, (long long)killAtMs);
        });
    }

    std::atomic<uint64_t> seq{0};
    std::mutex mergeMu;
    Tally total;
    // --verify-bytes ledger: request fingerprint -> hash of the
    // first Ok body seen for it. Every later response must agree.
    std::mutex verifyMu;
    std::unordered_map<uint64_t, uint64_t> bodyHash;
    size_t secSlots = durationMs > 0 ? size_t(durationMs / 1000 + 2)
                                     : size_t(1) << 10;
    total.latBySec.resize(secSlots);

    auto worker = [&] {
        Client c;
        if (retries >= 0)
            c.setRetryPolicy({retries, RetryPolicy::fromEnv()
                                           .backoffMs});
        std::string err;
        Tally t;
        t.latBySec.resize(secSlots);
        if (!c.connect(address, &err)) {
            std::fprintf(stderr, "loadgen connect: %s\n",
                         err.c_str());
            t.sent = t.lost = 1;
            std::lock_guard<std::mutex> lk(mergeMu);
            total.sent += 1;
            total.lost += 1;
            return;
        }
        for (;;) {
            uint64_t n =
                seq.fetch_add(1, std::memory_order_relaxed);
            if (count && n >= count)
                break;
            // One hash drives everything request n does, so a seeded
            // run is reproducible end to end.
            uint64_t h = seeded ? splitmix64(hashCombine(seed, n))
                                : splitmix64(n);
            Clock::time_point sched = start;
            if (rate > 0) {
                double slot = double(n);
                if (seeded) {
                    // Deterministic jitter: uniform within the rate
                    // slot, so the mean rate holds but arrivals stop
                    // being a metronome.
                    slot += double(h >> 11) * 0x1p-53;
                }
                sched += std::chrono::nanoseconds(
                    uint64_t(slot * 1e9 / rate));
                std::this_thread::sleep_until(sched);
            } else {
                sched = Clock::now();
            }
            if (sched >= end)
                break;

            uint64_t pick = h % uint64_t(totalWeight);
            ReqType ty = mix.back().type;
            for (const MixEntry &m : mix) {
                if (pick < uint64_t(m.weight)) {
                    ty = m.type;
                    break;
                }
                pick -= uint64_t(m.weight);
            }
            int slab =
                fixedSlab >= 0
                    ? fixedSlab
                    : int((seeded ? splitmix64(h) : n) %
                          uint64_t(Campaign::kSlabs));

            t.sent++;
            // Raw Request/Response (not the typed wrappers): the
            // verification and stale accounting need the response
            // bytes and flags, not just the decoded payload.
            Request req;
            switch (ty) {
              case ReqType::Ping:
                req = Request::ping();
                break;
              case ReqType::Eval:
                req = Request::evalPoint(
                    DesignPoint::composite(
                        int(n % uint64_t(FeatureSet::count())),
                        int(n %
                            uint64_t(DesignPoint::kUarchCount))),
                    int(n % uint64_t(phaseCount())));
                break;
              case ReqType::Slab:
                req = Request::slabPerf(slab);
                break;
              case ReqType::Table:
                req = Request::tableOf(slab);
                break;
              default:
                break;
            }
            Response resp;
            Status st = c.call(req, &resp, deadlineMs)
                            ? resp.status
                            : Status::Error;
            Clock::time_point done = Clock::now();
            if (st == Status::Ok) {
                t.ok++;
                if (resp.stale)
                    t.stale++;
                if (verifyBytes && req.cacheable()) {
                    uint64_t h = fnv1a(resp.body.data(),
                                       resp.body.size());
                    std::lock_guard<std::mutex> lk(verifyMu);
                    auto [it, fresh] =
                        bodyHash.emplace(req.fingerprint(), h);
                    if (!fresh && it->second != h)
                        t.mismatched++;
                }
                // Open-loop latency: measured from the scheduled
                // arrival, so time spent waiting for a saturated
                // server counts.
                auto us =
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(done - sched)
                        .count();
                size_t sec =
                    size_t(std::chrono::duration_cast<
                               std::chrono::seconds>(sched - start)
                               .count());
                if (sec < secSlots)
                    t.latBySec[sec].push_back(uint32_t(
                        std::min<int64_t>(us, INT32_MAX)));
            } else if (st == Status::Busy) {
                t.busy++;
            } else if (st == Status::Deadline) {
                t.deadline++;
            } else {
                t.lost++;
            }
        }
        std::lock_guard<std::mutex> lk(mergeMu);
        total.sent += t.sent;
        total.ok += t.ok;
        total.stale += t.stale;
        total.busy += t.busy;
        total.deadline += t.deadline;
        total.lost += t.lost;
        total.mismatched += t.mismatched;
        for (size_t s = 0; s < secSlots; s++)
            total.latBySec[s].insert(total.latBySec[s].end(),
                                     t.latBySec[s].begin(),
                                     t.latBySec[s].end());
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < conns; i++)
        threads.emplace_back(worker);
    for (std::thread &th : threads)
        th.join();
    if (killer.joinable())
        killer.join();

    double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    std::vector<uint32_t> all;
    for (const auto &v : total.latBySec)
        all.insert(all.end(), v.begin(), v.end());
    uint64_t p50 = pctOf(all, 0.50);
    uint64_t p99 = pctOf(all, 0.99);
    double rps = elapsed > 0 ? double(total.ok) / elapsed : 0;

    if (json) {
        std::printf("{\n");
        std::printf("  \"sent\": %llu,\n",
                    (unsigned long long)total.sent);
        std::printf("  \"ok\": %llu,\n", (unsigned long long)total.ok);
        std::printf("  \"stale\": %llu,\n",
                    (unsigned long long)total.stale);
        std::printf("  \"busy\": %llu,\n",
                    (unsigned long long)total.busy);
        std::printf("  \"deadline\": %llu,\n",
                    (unsigned long long)total.deadline);
        std::printf("  \"lost\": %llu,\n",
                    (unsigned long long)total.lost);
        std::printf("  \"mismatched\": %llu,\n",
                    (unsigned long long)total.mismatched);
        std::printf("  \"rps\": %.1f,\n", rps);
        std::printf("  \"p50_us\": %llu,\n", (unsigned long long)p50);
        std::printf("  \"p99_us\": %llu,\n", (unsigned long long)p99);
        std::printf("  \"timeline\": [");
        bool first = true;
        for (size_t s = 0; s < secSlots; s++) {
            if (total.latBySec[s].empty())
                continue;
            std::printf("%s\n    {\"sec\": %zu, \"n\": %zu, "
                        "\"p50_us\": %llu, \"p99_us\": %llu}",
                        first ? "" : ",", s,
                        total.latBySec[s].size(),
                        (unsigned long long)pctOf(total.latBySec[s],
                                                  0.50),
                        (unsigned long long)pctOf(total.latBySec[s],
                                                  0.99));
            first = false;
        }
        std::printf("\n  ]\n}\n");
    } else {
        std::printf("loadgen: %llu sent, %llu ok (%llu stale), "
                    "%llu busy, %llu deadline, %llu lost, "
                    "%llu mismatched in %.2fs (%.0f ok/s), "
                    "p50 %llu us, p99 %llu us\n",
                    (unsigned long long)total.sent,
                    (unsigned long long)total.ok,
                    (unsigned long long)total.stale,
                    (unsigned long long)total.busy,
                    (unsigned long long)total.deadline,
                    (unsigned long long)total.lost,
                    (unsigned long long)total.mismatched, elapsed,
                    rps, (unsigned long long)p50,
                    (unsigned long long)p99);
        for (size_t s = 0; s < secSlots; s++) {
            if (total.latBySec[s].empty())
                continue;
            std::printf("  sec %2zu: %6zu ok, p50 %6llu us, "
                        "p99 %6llu us\n",
                        s, total.latBySec[s].size(),
                        (unsigned long long)pctOf(total.latBySec[s],
                                                  0.50),
                        (unsigned long long)pctOf(total.latBySec[s],
                                                  0.99));
        }
    }
    if (total.mismatched > 0)
        return 3; // determinism broken — worse than loss
    return total.lost == 0 ? 0 : 2;
}
