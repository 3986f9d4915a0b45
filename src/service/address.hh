/**
 * @file
 * Service address abstraction: one string names either a UNIX-domain
 * socket or a TCP endpoint, and every transport user (daemon,
 * router, client, load generator) parses it the same way.
 *
 *   "/tmp/cisa.sock"          UNIX socket (any string with a '/')
 *   "unix:/tmp/cisa.sock"     UNIX socket, explicit
 *   "127.0.0.1:4870"          TCP host:port
 *   "127.0.0.1:0"             TCP, kernel-assigned port — the bound
 *                             address reported back carries the real
 *                             port, which is how tests and the fleet
 *                             bench avoid port collisions
 *
 * TCP listeners get SO_REUSEADDR (a restarted worker must rebind its
 * port while old connections linger in TIME_WAIT) and every TCP
 * socket gets TCP_NODELAY (the protocol is strictly
 * request/response; Nagle would add a full RTT of latency to each
 * small request frame).
 */

#ifndef CISA_SERVICE_ADDRESS_HH
#define CISA_SERVICE_ADDRESS_HH

#include <string>

namespace cisa
{

/**
 * Create, bind, and listen a socket on @p addr. On success returns
 * the listening fd and stores the actually-bound address (with the
 * kernel-assigned port resolved for "host:0") in @p bound; on
 * failure returns -1 with a diagnostic in @p err.
 *
 * UNIX paths reuse the stale-socket protocol of the PR 4 daemon: a
 * leftover socket file is probed with a connect and only unlinked
 * when nobody answers.
 */
int listenOn(const std::string &addr, int backlog, std::string *bound,
             std::string *err);

/** Blocking connect to @p addr; -1 with @p err on failure. TCP
 * connections come back with TCP_NODELAY already set. */
int connectTo(const std::string &addr, std::string *err);

/** Set TCP_NODELAY if @p fd is a TCP socket (no-op otherwise). */
void setNoDelay(int fd);

/** Remove the socket file of a UNIX address (no-op for TCP). */
void unlinkIfUnix(const std::string &addr);

} // namespace cisa

#endif // CISA_SERVICE_ADDRESS_HH
