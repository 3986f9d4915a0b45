#include "service/listener.hh"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "service/address.hh"
#include "service/frame.hh"

namespace cisa
{

namespace
{

/** listen(2) backlog of the accept socket. */
constexpr int kBacklog = 64;

/** One failure response frame; false if the write failed. */
bool
replyFail(int fd, Status status, const std::string &msg)
{
    ByteWriter w;
    Response::fail(status, msg).encode(w);
    return writeFrame(fd, FrameKind::Response, w.take());
}

} // namespace

Listener::Listener(const char *name, ServiceMetrics &metrics,
                   Answer answer)
    : name_(name), metrics_(metrics), answer_(std::move(answer))
{}

Listener::~Listener()
{
    if (stopAccepting())
        closeConnections();
}

bool
Listener::start(const std::string &address, int maxConns,
                std::string *err)
{
    panic_if(started_, "%s started twice", name_);
    maxConns_ = size_t(maxConns > 0 ? maxConns : serveMaxConns());
    listenFd_ = listenOn(address.empty() ? serveSocketPath() : address,
                         kBacklog, &bound_, err);
    if (listenFd_ < 0)
        return false;
    if (::pipe(wakePipe_) != 0) {
        if (err)
            *err = strfmt("pipe: %s", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        unlinkIfUnix(bound_);
        return false;
    }
    started_ = true;
    acceptor_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Listener::requestStop()
{
    // Async-signal-safe: one atomic store and one write().
    stopRequested_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        char b = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
    }
}

void
Listener::waitForStop()
{
    std::lock_guard<std::mutex> lk(joinMu_);
    if (acceptor_.joinable())
        acceptor_.join();
}

bool
Listener::stopAccepting()
{
    if (!started_ || stopped_.exchange(true))
        return false;
    requestStop();
    waitForStop();
    return true;
}

void
Listener::closeConnections()
{
    // SHUT_RD only: a connection thread that is still computing its
    // last answer must be able to write it (each thread closes its
    // own fd on the way out).
    {
        std::unique_lock<std::mutex> lk(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RD);
        connCv_.wait(lk, [&] { return connFds_.empty(); });
    }
    ::close(listenFd_);
    listenFd_ = -1;
    unlinkIfUnix(bound_);
    ::close(wakePipe_[0]);
    ::close(wakePipe_[1]);
    wakePipe_[0] = wakePipe_[1] = -1;
}

void
Listener::acceptLoop()
{
    for (;;) {
        if (stopRequested_.load(std::memory_order_acquire))
            return;
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            warn("%s accept poll: %s", name_, std::strerror(errno));
            return;
        }
        if (fds[1].revents ||
            stopRequested_.load(std::memory_order_acquire))
            return;
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno != EINTR)
                warn("%s accept: %s", name_, std::strerror(errno));
            continue;
        }
        if (faultHit(FaultSite::NetAccept)) {
            // Injected ECONNABORTED: the connection dies before a
            // thread is spawned, as if the peer hung up in the
            // backlog. The client's retry policy must absorb it.
            ::close(fd);
            continue;
        }
        setNoDelay(fd);
        bool over = false;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            over = connFds_.size() >= maxConns_;
            if (!over)
                connFds_.insert(fd);
        }
        if (over) {
            // Shed load without spawning a thread: one BUSY frame
            // tells the client this is backpressure, not a crash.
            metrics_.connRejected();
            replyFail(fd, Status::Busy, "connection limit");
            ::close(fd);
            continue;
        }
        metrics_.connAccepted();
        std::thread([this, fd] { serve(fd); }).detach();
    }
}

void
Listener::serve(int fd)
{
    // Lives as long as the connection: readFrameWire resizes in
    // place, so a stream of requests allocates only for the first.
    std::vector<uint8_t> wire;
    for (;;) {
        FrameKind kind = FrameKind::Request;
        std::string err;
        FrameRead fr = readFrameWire(fd, &wire, &kind, &err);
        if (fr == FrameRead::Eof)
            break;
        if (fr == FrameRead::Bad) {
            // Framing is no longer trustworthy: answer once, close.
            replyFail(fd, Status::BadRequest, err);
            break;
        }
        Request req;
        uint32_t deadline_ms = 0;
        bool written = false;
        if (kind != FrameKind::Request) {
            written = replyFail(fd, Status::BadRequest,
                                "expected a request frame");
        } else if (!decodeRequestEnvelope(
                       wire.data() + kFrameHeaderBytes,
                       wire.size() - kFrameHeaderBytes, &req,
                       &deadline_ms, &err)) {
            written = replyFail(fd, Status::BadRequest, err);
        } else {
            written = answer_(fd, req, deadline_ms, wire);
        }
        if (!written)
            break;
    }
    // Closing here (not at stop) both signals EOF to the client
    // promptly and bounds a long-lived process's connection state by
    // the number of *live* clients.
    metrics_.connClosed();
    std::lock_guard<std::mutex> lk(connMu_);
    connFds_.erase(fd);
    ::close(fd);
    connCv_.notify_all();
}

} // namespace cisa
