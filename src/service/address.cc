#include "service/address.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/faultinject.hh"
#include "common/logging.hh"

namespace cisa
{

namespace
{

/** Strip an explicit "unix:" scheme prefix. */
bool
unixPathOf(const std::string &addr, std::string *path)
{
    if (addr.rfind("unix:", 0) == 0) {
        *path = addr.substr(5);
        return true;
    }
    if (addr.find('/') != std::string::npos) {
        *path = addr;
        return true;
    }
    return false;
}

/** Split "host:port"; false if there is no usable colon. */
bool
splitHostPort(const std::string &addr, std::string *host,
              std::string *port)
{
    size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= addr.size())
        return false;
    *host = addr.substr(0, colon);
    *port = addr.substr(colon + 1);
    return true;
}

bool
fail(std::string *err, const std::string &why)
{
    if (err)
        *err = why;
    return false;
}

/** The bound "ip:port" of a TCP socket (resolves "host:0"). */
std::string
tcpBoundName(int fd)
{
    sockaddr_in sin{};
    socklen_t len = sizeof(sin);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&sin),
                      &len) != 0)
        return {};
    char ip[INET_ADDRSTRLEN] = {};
    ::inet_ntop(AF_INET, &sin.sin_addr, ip, sizeof(ip));
    return strfmt("%s:%u", ip, unsigned(ntohs(sin.sin_port)));
}

bool
resolveTcp(const std::string &addr, sockaddr_in *out,
           std::string *err)
{
    std::string host, port;
    if (!splitHostPort(addr, &host, &port))
        return fail(err, strfmt("not host:port: %s", addr.c_str()));
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_NUMERICSERV;
    addrinfo *res = nullptr;
    int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0)
        return fail(err, strfmt("resolve %s: %s", addr.c_str(),
                                gai_strerror(rc)));
    std::memcpy(out, res->ai_addr, sizeof(*out));
    ::freeaddrinfo(res);
    return true;
}

bool
bindUnixSocket(int fd, const std::string &path, std::string *err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return fail(err,
                    strfmt("socket path too long: %s", path.c_str()));
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a dead daemon would make bind fail;
    // probe it with a connect and only unlink if nobody answers.
    int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
        if (::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            ::close(probe);
            return fail(err, strfmt("daemon already listening on %s",
                                    path.c_str()));
        }
        ::close(probe);
        ::unlink(path.c_str());
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        return fail(err, strfmt("bind(%s): %s", path.c_str(),
                                std::strerror(errno)));
    }
    return true;
}

} // namespace

void
setNoDelay(int fd)
{
    int domain = 0;
    socklen_t len = sizeof(domain);
    if (::getsockopt(fd, SOL_SOCKET, SO_DOMAIN, &domain, &len) != 0 ||
        domain != AF_INET)
        return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void
unlinkIfUnix(const std::string &addr)
{
    std::string path;
    if (unixPathOf(addr, &path))
        ::unlink(path.c_str());
}

int
listenOn(const std::string &addr, int backlog, std::string *bound,
         std::string *err)
{
    std::string path;
    bool is_unix = unixPathOf(addr, &path);
    int fd = ::socket(is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail(err, strfmt("socket: %s", std::strerror(errno)));
        return -1;
    }
    if (is_unix) {
        if (!bindUnixSocket(fd, path, err)) {
            ::close(fd);
            return -1;
        }
        if (bound)
            *bound = path;
    } else {
        sockaddr_in sin{};
        if (!resolveTcp(addr, &sin, err)) {
            ::close(fd);
            return -1;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        if (::bind(fd, reinterpret_cast<sockaddr *>(&sin),
                   sizeof(sin)) != 0) {
            fail(err, strfmt("bind(%s): %s", addr.c_str(),
                             std::strerror(errno)));
            ::close(fd);
            return -1;
        }
        if (bound)
            *bound = tcpBoundName(fd);
    }
    if (::listen(fd, backlog) != 0) {
        fail(err, strfmt("listen: %s", std::strerror(errno)));
        ::close(fd);
        if (is_unix)
            ::unlink(path.c_str());
        return -1;
    }
    return fd;
}

int
connectTo(const std::string &addr, std::string *err)
{
    if (faultHit(FaultSite::NetConnect)) {
        fail(err, strfmt("connect(%s): %s", addr.c_str(),
                         std::strerror(errno)));
        return -1;
    }
    std::string path;
    if (unixPathOf(addr, &path)) {
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        if (path.size() >= sizeof(sun.sun_path)) {
            fail(err, strfmt("socket path too long: %s",
                             path.c_str()));
            return -1;
        }
        std::strncpy(sun.sun_path, path.c_str(),
                     sizeof(sun.sun_path) - 1);
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            fail(err, strfmt("socket: %s", std::strerror(errno)));
            return -1;
        }
        if (::connect(fd, reinterpret_cast<sockaddr *>(&sun),
                      sizeof(sun)) != 0) {
            fail(err, strfmt("connect(%s): %s", path.c_str(),
                             std::strerror(errno)));
            ::close(fd);
            return -1;
        }
        return fd;
    }

    sockaddr_in sin{};
    if (!resolveTcp(addr, &sin, err))
        return -1;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        fail(err, strfmt("socket: %s", std::strerror(errno)));
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sin),
                  sizeof(sin)) != 0) {
        fail(err, strfmt("connect(%s): %s", addr.c_str(),
                         std::strerror(errno)));
        ::close(fd);
        return -1;
    }
    setNoDelay(fd);
    return fd;
}

} // namespace cisa
