/**
 * @file
 * The cisa-serve fleet router: the daemon's front end
 * (src/service/listener.hh) relaying each request to one of N
 * workers chosen by consistent-hashing its routing key
 * (src/service/shard.hh), so every slab's compute-and-cache work
 * lands on a stable owner while the fleet scales out.
 *
 * Relay economics: the router never re-encodes. A request arrives as
 * wire bytes, is peeked (envelope decode — a few dozen bytes) for
 * its routing key, and the *same bytes* are forwarded; the worker's
 * response wire image is forwarded back verbatim. Response payload
 * checksums are not re-verified (the client verifies; corruption
 * between worker and client is caught there) — a ~140 KiB slab
 * response crosses the router without a single checksum pass or
 * allocation beyond the connection's relay buffer.
 *
 * Placement: cacheable requests (Eval/Slab/Table) rotate round-robin
 * across the key's replica set — ownersOf(key, R) — so a hot slab is
 * warm on R workers instead of melting one; keyless requests (Ping,
 * Search) go to their fingerprint's primary. Stats is answered by
 * the router itself with the fleet roll-up (every worker's snapshot
 * merged with the router's own connection, reroute and health
 * counters).
 *
 * Health: each worker has one state, its up flag. A send or read
 * failing on a pooled worker connection is retried once on a fresh
 * connection (the pooled fd may simply be stale); if the fresh
 * connect also fails the worker is marked down and the request moves
 * to the next replica — the response the client sees is
 * byte-identical to the single-daemon answer because any worker can
 * adopt any slab through the shared slab store instead of diverging.
 * Requests are deterministic and idempotent, so re-sending after a
 * mid-response death is safe. Routing asks up workers first and
 * retries down ones only when no up worker answered, so a stale flag
 * never loses a request. A successful exchange marks a worker up
 * again, and a health thread re-probes down workers with a ping, so
 * a restarted worker rejoins without a router restart. Down-marks
 * and rejoins are counted in the fleet roll-up.
 *
 * Deadlines: the client's deadline budget is propagated, not
 * repeated — each relay attempt re-encodes the request envelope with
 * the budget that remains after time already burned in the router,
 * and a request whose budget is spent is shed with DEADLINE before
 * touching another worker (the client has already given up; compute
 * would be wasted).
 */

#ifndef CISA_SERVICE_ROUTER_HH
#define CISA_SERVICE_ROUTER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/listener.hh"
#include "service/metrics.hh"
#include "service/shard.hh"

namespace cisa
{

class Router
{
  public:
    struct Options
    {
        /** Client-facing address (UNIX path or TCP host:port);
         * empty = CISA_SERVE_SOCKET. */
        std::string address;
        /** Worker daemon addresses (at least one). */
        std::vector<std::string> workers;
        int replicas = 2;   ///< replica set size per routing key
        int healthMs = 250; ///< down-worker re-probe period, ms
        int maxConns = 256; ///< live client connections
        /** Called on every fleetStats() roll-up so an embedding
         * process (cisa_fleetd) can graft its own counters —
         * supervisor restarts, crash loops — into the snapshot. */
        std::function<void(StatsSnap &)> statsAugment;
    };

    explicit Router(const Options &opts);
    ~Router(); ///< stop()s

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    bool start(std::string *err = nullptr);
    void stop();
    /** Async-signal-safe; the stop runs in waitUntilStopped(). */
    void requestStop() { listener_.requestStop(); }
    void waitUntilStopped();

    const std::string &boundAddress() const
    {
        return listener_.boundAddress();
    }

    const ShardRing &ring() const { return ring_; }

    /** Merged fleet snapshot (what a Stats request returns). */
    StatsSnap fleetStats();

  private:
    struct Worker
    {
        std::string addr;
        std::mutex mu;
        std::vector<int> pool; ///< idle connections
        std::atomic<bool> up{true};
    };

    /** The listener's answer: the fleet roll-up for Stats, a relay
     * through forward() for everything else. */
    bool answer(int fd, const Request &req, uint32_t deadline_ms,
                const std::vector<uint8_t> &reqWire);

    /** Borrow a pooled connection (second = true if pooled). */
    std::pair<int, bool> borrowConn(Worker &w, std::string *err);
    void returnConn(Worker &w, int fd);

    /**
     * One request/response exchange with worker @p wi: send
     * @p reqWire, read the response wire image into @p respWire.
     * Retries once on a fresh connection if a pooled one fails;
     * marks the worker down (and returns false) when even a fresh
     * connection can't complete the exchange, up when it completes.
     */
    bool exchange(size_t wi, const std::vector<uint8_t> &reqWire,
                  std::vector<uint8_t> *respWire);

    /** Route + relay one request; always fills @p respWire (a
     * synthesized error response when the whole fleet fails, a
     * DEADLINE response when @p deadline_ms (0 = none) is spent). */
    void forward(const Request &req, uint32_t deadline_ms,
                 const std::vector<uint8_t> &reqWire,
                 std::vector<uint8_t> *respWire);

    /** Set @p w's up flag, counting a rejoin if it was down. */
    void markUp(Worker &w);

    void healthLoop();

    Options opts_;
    ShardRing ring_;
    std::vector<std::unique_ptr<Worker>> workers_;

    std::mutex healthMu_;
    std::condition_variable healthCv_;
    bool healthStop_ = false; ///< under healthMu_

    /** The router's own counters: client connections (kept by the
     * listener) and fault-plane hits. */
    ServiceMetrics metrics_;
    std::atomic<uint64_t> rr_{0}; ///< replica rotation counter
    std::atomic<uint64_t> reroutes_{0};
    std::atomic<uint64_t> downMarks_{0};
    std::atomic<uint64_t> rejoins_{0};
    std::atomic<uint64_t> deadlineShed_{0};

    std::thread health_;
    /** Last: its connection threads call answer(). */
    Listener listener_;
};

} // namespace cisa

#endif // CISA_SERVICE_ROUTER_HH
