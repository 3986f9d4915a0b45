/**
 * @file
 * The cisa-serve daemon: the shared front end of
 * src/service/listener.hh (socket, connection threads, frame loop,
 * two-step shutdown) answering every request through one Executor.
 *
 * Backpressure is end-to-end: when the executor's queue is at its
 * bound the response is an immediate BUSY frame — the server never
 * buffers requests beyond the bound, so a flood cannot grow memory
 * without limit. The listener's connection cap (Options::maxConns)
 * does the same one layer down.
 *
 * Response cache: the daemon's only one. Cacheable Ok responses are
 * kept as fully encoded frames (header + checksum + payload) in a
 * bounded LRU keyed by request fingerprint (Options::cacheEntries
 * entries; 0 turns it off). A repeat request is answered by writing
 * those bytes verbatim — no executor round-trip, no re-encode, and
 * above all no second checksum pass over a ~140 KiB slab payload,
 * which is where a cached-slab request spends most of its CPU.
 * Fingerprints are exact (canonical request bytes) and responses are
 * deterministic, so a hit is the fresh answer. A miss is submitted
 * to the executor under the cache's lock, and the executor's handler
 * caches a fresh Ok frame before the job leaves the in-flight index,
 * so a miss finds either its twin in flight or its frame cached;
 * none falls between a twin's completion and its caching and runs
 * again. While the executor drains, a hit is
 * served stale instead: the same body with the response's stale bit
 * set, re-framed (the one hit path that checksums again); a miss
 * gets BUSY.
 *
 * Shutdown: stop() (or requestStop() from a signal handler) stops
 * accepting, lets the executor drain queued and running work (new
 * requests meanwhile get BUSY, or a cached answer marked stale),
 * then closes client connections. In-flight responses are delivered
 * before their connections close.
 */

#ifndef CISA_SERVICE_SERVER_HH
#define CISA_SERVICE_SERVER_HH

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/executor.hh"
#include "service/listener.hh"

namespace cisa
{

class Server
{
  public:
    struct Options
    {
        /** UNIX path or TCP host:port (src/service/address.hh);
         * empty = CISA_SERVE_SOCKET. TCP "host:0" binds a
         * kernel-assigned port, reported by boundAddress(). */
        std::string address;
        int maxConns = 256;     ///< live connections, >= 1
        int cacheEntries = 256; ///< cached response frames, 0 = off
        Executor::Options exec;
    };

    Server() : Server(Options()) {}
    explicit Server(const Options &opts);
    ~Server(); ///< stop()s

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and start accepting. False (with @p err) if the
     * socket can't be set up (e.g. another daemon holds the path). */
    bool start(std::string *err = nullptr);

    /** Graceful shutdown; idempotent, safe to call unstarted. */
    void stop();

    /** Async-signal-safe shutdown trigger for SIGTERM/SIGINT
     * handlers; the drain happens in stop() or waitUntilStopped(). */
    void requestStop() { listener_.requestStop(); }

    /** Block until requestStop() fires, then run the graceful stop
     * sequence. The daemon main loop. */
    void waitUntilStopped();

    /** The actually-bound address (see Options::address). Valid
     * after start(). */
    const std::string &boundAddress() const
    {
        return listener_.boundAddress();
    }

    Executor &executor() { return *exec_; }

  private:
    bool answer(int fd, const Request &req, uint32_t deadline_ms,
                const std::vector<uint8_t> &reqWire);
    bool reply(int fd, EndpointMetrics &m, const Response &resp);

    /** @p eo with its handler wrapped to cache what it computes. */
    Executor::Options cachingOptions(Executor::Options eo);

    using WirePtr = std::shared_ptr<const std::vector<uint8_t>>;

    /** Response-cache lookup (caller holds wireMu_; null on miss)
     * and insert (takes wireMu_). See the file comment. */
    WirePtr cachedWire(uint64_t key);
    void cacheWire(uint64_t key, WirePtr wire);

    Options opts_;

    std::mutex wireMu_;
    size_t wireCap_;
    std::list<std::pair<uint64_t, WirePtr>> wire_; ///< LRU order
    std::unordered_map<
        uint64_t, std::list<std::pair<uint64_t, WirePtr>>::iterator>
        wireIdx_;

    /** After the cache: its dispatchers fill it until drained. */
    std::unique_ptr<Executor> exec_;

    /** Last: its connection threads call answer(). */
    Listener listener_;
};

} // namespace cisa

#endif // CISA_SERVICE_SERVER_HH
