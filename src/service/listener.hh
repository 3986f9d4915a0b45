/**
 * @file
 * The service front end shared by the cisa-serve daemon and the
 * cisa-router: a stream socket (UNIX-domain or TCP —
 * src/service/address.hh) speaking the frame protocol of
 * src/service/frame.hh, with one detached thread per client
 * connection. The owner supplies only the answer to one decoded
 * request; everything else a connection does lives here.
 *
 * Protocol per connection: the client sends Request frames (request
 * envelope payloads) and receives exactly one Response frame per
 * request, in order. A non-request frame or an undecodable envelope
 * gets a BADREQ response and the connection stays usable; a corrupt
 * frame (bad magic, checksum, oversized length) gets one BADREQ
 * response and the connection is closed, since framing can no longer
 * be trusted.
 *
 * Accept: every accepted connection passes the net.accept fault site
 * (src/common/faultinject.hh). Past maxConns live connections a new
 * one gets one BUSY frame and an immediate close instead of a
 * thread, so a flood of connections cannot grow threads without
 * limit. Accepted, rejected and live connections are counted in the
 * owner's ServiceMetrics.
 *
 * Shutdown has two steps so the owner can work in between (the
 * daemon drains its executor, the router joins its health thread):
 *  1. stopAccepting() — or the async-signal-safe requestStop() from
 *     a signal handler followed by waitForStop() — ends the accept
 *     loop;
 *  2. closeConnections() shuts the read side of every connection
 *     (responses still being computed are still written), waits for
 *     every connection thread, then closes and unlinks the socket.
 */

#ifndef CISA_SERVICE_LISTENER_HH
#define CISA_SERVICE_LISTENER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/metrics.hh"
#include "service/request.hh"

namespace cisa
{

class Listener
{
  public:
    /**
     * Answers one decoded request on @p fd with exactly one response
     * frame. @p reqWire is the request's whole wire image (header +
     * payload), valid until the next request on the connection.
     * False when the write failed: the connection is then closed.
     */
    using Answer = std::function<bool(int fd, const Request &req,
                                      uint32_t deadline_ms,
                                      const std::vector<uint8_t> &reqWire)>;

    /** @p name prefixes log lines ("cisa-serve", "cisa-router"). */
    Listener(const char *name, ServiceMetrics &metrics, Answer answer);
    ~Listener(); ///< both stop steps, if the owner skipped them

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind @p address (empty = CISA_SERVE_SOCKET), listen with a
     * backlog of 64, and start accepting up to @p maxConns live
     * connections (0 = CISA_SERVE_MAX_CONNS). False (with @p err) if
     * the socket can't be set up.
     */
    bool start(const std::string &address, int maxConns,
               std::string *err);

    /** The actually-bound address: TCP "host:0" carries the
     * kernel-assigned port. Valid after start(). */
    const std::string &boundAddress() const { return bound_; }

    /** Async-signal-safe: flags the acceptor and wakes it through
     * the self-pipe. */
    void requestStop();

    /** Block until the accept loop has ended (after requestStop()). */
    void waitForStop();

    /** Step 1: requestStop() + waitForStop(). False when never
     * started or already stopped, so the owner's stop() can use it
     * as its idempotence guard. */
    bool stopAccepting();

    /** Step 2 (after stopAccepting): see the file comment. */
    void closeConnections();

  private:
    void acceptLoop();
    void serve(int fd);

    const char *name_;
    ServiceMetrics &metrics_;
    Answer answer_;
    size_t maxConns_ = 0;
    std::string bound_;

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> stopped_{false};
    bool started_ = false;

    /** Live connections: each runs on a detached thread that closes
     * its own fd and drops out of the set when the client leaves,
     * so a long-lived daemon holds no dead fds or threads. */
    std::mutex connMu_;
    std::condition_variable connCv_;
    std::set<int> connFds_;

    std::mutex joinMu_; ///< waitForStop() may race stopAccepting()
    std::thread acceptor_;
};

} // namespace cisa

#endif // CISA_SERVICE_LISTENER_HH
