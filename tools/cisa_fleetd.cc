/**
 * @file
 * The cisa-serve fleet supervisor: forks N cisa_serve workers on
 * stable UNIX socket addresses (DIR/w<i>.sock — stable so the
 * router's consistent-hash ring never churns across restarts), runs
 * the fleet router in-process, and babysits the workers: a crashed
 * worker is reaped and restarted with exponential backoff, and a
 * worker that keeps dying young is declared crash-looping and held
 * at the maximum backoff (the fleet keeps serving degraded from the
 * survivors; the flapping worker rejoins whenever it manages a
 * stable run).
 *
 * Usage:
 *   cisa_fleetd --dir DIR [--workers N] [--address ADDR]
 *               [--serve-bin PATH] [--print-address FILE]
 *
 * --workers (1-64, default 4) outside its range exits 2 before any
 * worker is forked. The router runs at its Router::Options defaults.
 *
 * Supervision knobs come from CISA_SUPERVISE_* (src/common/env.hh).
 * Workers inherit this process's environment, so CISA_FAULTS set on
 * cisa_fleetd arms fault injection in the whole fleet (router and
 * workers) while clients stay clean — the chaos-soak setup.
 *
 * The supervisor grafts its counters into the router's fleet stats
 * roll-up (workersSupervised / supervisorRestarts /
 * supervisorCrashLoops), so one stats request against the router
 * address sees the whole story.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include <cerrno>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "service/address.hh"
#include "service/router.hh"

using namespace cisa;

namespace
{

std::atomic<bool> g_stop{false};
Router *g_router = nullptr;

extern "C" void
onSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    if (g_router)
        g_router->requestStop();
}

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
sleepMs(int ms)
{
    struct timespec ts{ms / 1000, (ms % 1000) * 1000000L};
    ::nanosleep(&ts, nullptr);
}

/** One supervised worker slot. */
struct Slot
{
    std::string addr;     ///< stable DIR/w<i>.sock
    pid_t pid = -1;       ///< -1 while down
    int64_t startedMs = 0;
    int64_t restartAtMs = 0; ///< earliest next spawn (backoff)
    int backoffMs = 0;
    int shortRuns = 0;    ///< consecutive runs below stable-ms
    bool crashLooping = false;
};

/** Directory of this binary, for finding cisa_serve next to it. */
std::string
selfDir()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return ".";
    buf[n] = 0;
    std::string p(buf);
    size_t slash = p.rfind('/');
    return slash == std::string::npos ? "." : p.substr(0, slash);
}

pid_t
spawnWorker(const std::string &serveBin, const Slot &slot)
{
    pid_t pid = ::fork();
    if (pid < 0) {
        warn("cisa-fleetd: fork: %s", std::strerror(errno));
        return -1;
    }
    if (pid == 0) {
        // Child: only async-signal-safe work between fork and exec
        // (the parent runs router threads). Drop every inherited
        // descriptor beyond stdio: the fork duplicated the router's
        // sockets, and a leaked copy here would hold a peer's
        // connection open (blocking its reads forever) after the
        // router closes its own.
        for (int fd = 3; fd < 4096; fd++)
            ::close(fd);
        const char *argvc[] = {serveBin.c_str(), "--address",
                               slot.addr.c_str(), nullptr};
        ::execv(serveBin.c_str(),
                const_cast<char *const *>(argvc));
        ::_exit(127);
    }
    return pid;
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --dir DIR [options]\n"
        "  --dir DIR             worker socket directory (created "
        "if missing)\n"
        "  --workers N           supervised workers "
        "(1-64, default 4)\n"
        "  --address ADDR        client-facing router address "
        "(CISA_SERVE_SOCKET)\n"
        "  --serve-bin PATH      cisa_serve binary (default: next "
        "to this binary)\n"
        "  --print-address FILE  write the bound address to FILE\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string dir, serveBin;
    int nWorkers = 4;
    Router::Options ropts;
    const char *printAddress = nullptr;
    for (int i = 1; i < argc; i++) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--dir")) {
            dir = val();
        } else if (!std::strcmp(argv[i], "--workers")) {
            nWorkers = int(flagIntIn("--workers", val(), 1, 64));
        } else if (!std::strcmp(argv[i], "--address")) {
            ropts.address = val();
        } else if (!std::strcmp(argv[i], "--serve-bin")) {
            serveBin = val();
        } else if (!std::strcmp(argv[i], "--print-address")) {
            printAddress = val();
        } else {
            usage(argv[0]);
            return std::strcmp(argv[i], "--help") ? 1 : 0;
        }
    }
    if (dir.empty()) {
        usage(argv[0]);
        return 1;
    }
    ::mkdir(dir.c_str(), 0755);
    if (serveBin.empty())
        serveBin = selfDir() + "/cisa_serve";
    if (::access(serveBin.c_str(), X_OK) != 0) {
        std::fprintf(stderr, "cisa_fleetd: %s is not executable\n",
                     serveBin.c_str());
        return 1;
    }

    const int backoff0 = superviseBackoffMs();
    const int backoffMax = superviseBackoffMaxMs();
    const int stableMs = superviseStableMs();
    const int crashLoopAt = superviseCrashLoop();

    // A dying child raises SIGCHLD at an arbitrary moment; we reap
    // by polling, so just make sure the default handler can't kill
    // a write into a dead worker either.
    ::signal(SIGPIPE, SIG_IGN);

    std::vector<Slot> slots(static_cast<size_t>(nWorkers));
    std::vector<std::string> addrs;
    for (int i = 0; i < nWorkers; i++) {
        slots[size_t(i)].addr = strfmt("%s/w%d.sock", dir.c_str(), i);
        addrs.push_back(slots[size_t(i)].addr);
    }
    for (Slot &s : slots) {
        s.pid = spawnWorker(serveBin, s);
        s.startedMs = nowMs();
    }

    // Give the workers a moment to bind before the router opens for
    // business, so the first requests don't all burn a failover.
    for (Slot &s : slots) {
        for (int spin = 0; spin < 100; spin++) {
            std::string err;
            int fd = connectTo(s.addr, &err);
            if (fd >= 0) {
                ::close(fd);
                break;
            }
            sleepMs(20);
        }
    }

    std::atomic<uint64_t> restarts{0};
    std::atomic<uint64_t> crashLoopsNow{0};
    ropts.workers = addrs;
    ropts.statsAugment = [&](StatsSnap &s) {
        s.workersSupervised += uint64_t(nWorkers);
        s.supervisorRestarts +=
            restarts.load(std::memory_order_relaxed);
        s.supervisorCrashLoops +=
            crashLoopsNow.load(std::memory_order_relaxed);
    };
    Router router(ropts);
    std::string err;
    if (!router.start(&err)) {
        std::fprintf(stderr, "cisa_fleetd: %s\n", err.c_str());
        for (Slot &s : slots)
            if (s.pid > 0)
                ::kill(s.pid, SIGTERM);
        return 1;
    }
    if (printAddress) {
        FILE *f = std::fopen(printAddress, "w");
        if (!f) {
            std::fprintf(stderr, "cisa_fleetd: cannot write %s\n",
                         printAddress);
            return 1;
        }
        std::fprintf(f, "%s\n", router.boundAddress().c_str());
        std::fclose(f);
    }

    g_router = &router;
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    inform("cisa-fleetd: supervising %d workers under %s",
           nWorkers, dir.c_str());

    // Supervision loop: reap crashed workers and restart them with
    // exponential backoff. A run shorter than stable-ms counts
    // toward the crash-loop threshold; at the threshold the worker
    // is declared crash-looping and held at max backoff — never
    // abandoned, so a worker whose crash cause goes away (a burst of
    // injected faults, a bad deploy rolled back) rejoins on its own.
    while (!g_stop.load(std::memory_order_relaxed)) {
        int status = 0;
        pid_t dead = ::waitpid(-1, &status, WNOHANG);
        if (dead <= 0) {
            // Nobody died: spawn any slot whose backoff expired,
            // and clear the crash-loop verdict on any worker whose
            // current run has already proven stable (don't wait for
            // its next exit to admit it recovered).
            int64_t now = nowMs();
            for (Slot &s : slots) {
                if (s.pid > 0) {
                    if (s.crashLooping &&
                        now - s.startedMs >= stableMs) {
                        s.crashLooping = false;
                        s.shortRuns = 0;
                        s.backoffMs = 0;
                        crashLoopsNow.fetch_sub(
                            1, std::memory_order_relaxed);
                        inform("cisa-fleetd: %s recovered from "
                               "crash-loop",
                               s.addr.c_str());
                    }
                    continue;
                }
                if (now < s.restartAtMs)
                    continue;
                s.pid = spawnWorker(serveBin, s);
                if (s.pid > 0) {
                    s.startedMs = now;
                    restarts.fetch_add(1,
                                       std::memory_order_relaxed);
                }
            }
            sleepMs(20);
            continue;
        }
        for (Slot &s : slots) {
            if (s.pid != dead)
                continue;
            int64_t ran = nowMs() - s.startedMs;
            s.pid = -1;
            if (ran >= stableMs) {
                s.backoffMs = 0;
                s.shortRuns = 0;
                if (s.crashLooping) {
                    s.crashLooping = false;
                    crashLoopsNow.fetch_sub(
                        1, std::memory_order_relaxed);
                }
            } else {
                s.shortRuns++;
                if (s.shortRuns >= crashLoopAt && !s.crashLooping) {
                    s.crashLooping = true;
                    crashLoopsNow.fetch_add(
                        1, std::memory_order_relaxed);
                    warn("cisa-fleetd: %s is crash-looping "
                         "(%d short runs), holding at %d ms "
                         "backoff",
                         s.addr.c_str(), s.shortRuns, backoffMax);
                }
            }
            s.backoffMs = s.backoffMs == 0
                              ? backoff0
                              : std::min(s.backoffMs * 2,
                                         backoffMax);
            if (s.crashLooping)
                s.backoffMs = backoffMax;
            s.restartAtMs = nowMs() + s.backoffMs;
            warn("cisa-fleetd: worker %s exited (%s %d, ran "
                 "%lld ms), restart in %d ms",
                 s.addr.c_str(),
                 WIFSIGNALED(status) ? "signal" : "status",
                 WIFSIGNALED(status) ? WTERMSIG(status)
                                     : WEXITSTATUS(status),
                 static_cast<long long>(ran), s.backoffMs);
            break;
        }
    }

    // Shutdown: stop the router first (drains client connections),
    // then terminate the workers and reap them.
    router.stop();
    g_router = nullptr;
    for (Slot &s : slots)
        if (s.pid > 0)
            ::kill(s.pid, SIGTERM);
    int64_t gaveUpAt = nowMs() + 5000;
    for (Slot &s : slots) {
        while (s.pid > 0) {
            int status = 0;
            pid_t got = ::waitpid(s.pid, &status, WNOHANG);
            if (got == s.pid || (got < 0 && errno == ECHILD)) {
                s.pid = -1;
                break;
            }
            if (nowMs() > gaveUpAt) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, &status, 0);
                s.pid = -1;
                break;
            }
            sleepMs(20);
        }
    }

    std::printf("%s", router.fleetStats().render().c_str());
    return 0;
}
