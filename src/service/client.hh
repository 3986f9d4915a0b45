/**
 * @file
 * Client library for cisa-serve: a blocking connection (UNIX socket
 * or TCP — src/service/address.hh) that sends one Request frame and
 * decodes the matching Response frame, plus typed wrappers for every
 * endpoint. Used by tools/cisa_client, the router, the load
 * generator, the service tests, and the service throughput bench.
 *
 * A Client is one connection and is not thread-safe; concurrent
 * callers each open their own (the daemon handles the fan-in, and
 * identical concurrent requests coalesce server-side).
 *
 * Retries: with a non-zero RetryPolicy (default from
 * CISA_CLIENT_RETRIES, with a 5 ms first backoff), connect() retries
 * refused connections and call() retries BUSY responses and
 * transport failures (reconnecting first), sleeping an exponentially
 * growing, jittered backoff between attempts. Re-sending after a
 * mid-call failure is safe because every request is deterministic
 * and idempotent — at worst the fleet computes a slab twice. The
 * default is zero retries: fail fast, let the caller decide.
 */

#ifndef CISA_SERVICE_CLIENT_HH
#define CISA_SERVICE_CLIENT_HH

#include <string>
#include <vector>

#include "service/frame.hh"
#include "service/metrics.hh"
#include "service/request.hh"

namespace cisa
{

/** Bounded-retry knobs; see the file comment. */
struct RetryPolicy
{
    int retries = 0;   ///< extra attempts after the first
    int backoffMs = 5; ///< first sleep; doubles per attempt

    /** CISA_CLIENT_RETRIES retries, default backoff. */
    static RetryPolicy fromEnv();
};

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to the daemon at @p address (UNIX path or TCP
     * host:port; empty = CISA_SERVE_SOCKET). Retries refused
     * connects per the policy. */
    bool connect(const std::string &address = {},
                 std::string *err = nullptr);

    void close();

    bool connected() const { return fd_ >= 0; }

    /**
     * Send @p req and block for its response. @p deadline_ms (0 =
     * none) rides in the request envelope; the server answers
     * DEADLINE once it passes. False only on transport failure
     * (send/recv/decode) — service-level failures come back as
     * non-Ok response statuses.
     */
    bool call(const Request &req, Response *resp,
              uint32_t deadline_ms = 0, std::string *err = nullptr);

    /**
     * Typed endpoint wrappers. Each returns the response status
     * (Status::Error with no decoded payload on transport failure)
     * and fills its out-parameter only on Status::Ok.
     */
    Status ping(uint32_t deadline_ms = 0);
    Status evalPoint(const DesignPoint &dp, int phase, PhasePerf *out,
                     uint32_t deadline_ms = 0);
    Status slabPerf(int slab, std::vector<PhasePerf> *out,
                    uint32_t deadline_ms = 0);
    Status search(Family family, Objective objective,
                  const Budget &budget, uint64_t seed,
                  SearchResult *out, uint32_t deadline_ms = 0);
    Status tableOf(int slab, std::string *out,
                   uint32_t deadline_ms = 0);
    Status stats(StatsSnap *out, uint32_t deadline_ms = 0);

    /** Last transport/decode diagnostic (after a false call()). */
    const std::string &lastError() const { return lastError_; }

    /** Override the env-derived retry policy (before or after
     * connect). */
    void setRetryPolicy(const RetryPolicy &p) { policy_ = p; }

    const std::string &address() const { return addr_; }

  private:
    bool callOnce(const Request &req, Response *resp,
                  uint32_t deadline_ms, std::string *err);
    bool connectOnce(std::string *err);
    void backoffSleep(int attempt);

    int fd_ = -1;
    std::string addr_;
    /** Response wire buffer, reused across calls: a loop of hot
     * slab requests reads every ~140 KiB response into the same
     * buffer instead of mmap'ing a fresh one. */
    std::vector<uint8_t> wire_;
    std::string lastError_;
    RetryPolicy policy_ = RetryPolicy::fromEnv();
    uint64_t jitterState_ = 0;
};

} // namespace cisa

#endif // CISA_SERVICE_CLIENT_HH
