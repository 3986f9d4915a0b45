/**
 * @file
 * The cisa-serve daemon: binds the service address (UNIX socket or
 * TCP host:port), serves requests until SIGTERM/SIGINT, then drains
 * gracefully and prints the final per-endpoint stats.
 *
 * Usage:
 *   cisa_serve [--address ADDR] [--queue N] [--workers N]
 *              [--cache N] [--print-address FILE]
 *
 * Every flag defaults to its CISA_SERVE_* environment knob (see
 * src/common/env.hh); flags win over the environment.
 *
 * --print-address writes the actually-bound address (one line) to
 * FILE once the daemon is listening. With a TCP "host:0" address
 * that is the only way a fleet launcher learns the kernel-assigned
 * port — scripts/fleet_smoke.sh and the fleet bench rely on it.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "service/server.hh"

using namespace cisa;

namespace
{

Server *g_server = nullptr;

extern "C" void
onSignal(int)
{
    if (g_server)
        g_server->requestStop();
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--address ADDR] [--queue N] [--workers N] "
        "[--cache N] [--print-address FILE]\n"
        "  --address ADDR        UNIX path or TCP host:port "
        "(CISA_SERVE_SOCKET)\n"
        "  --socket PATH         alias for --address\n"
        "  --queue N             queue bound, BUSY beyond it "
        "(CISA_SERVE_QUEUE)\n"
        "  --workers N           dispatcher threads "
        "(CISA_SERVE_WORKERS)\n"
        "  --cache N             cached response frames, 0 = off "
        "(CISA_SERVE_CACHE)\n"
        "  --print-address FILE  write the bound address to FILE "
        "(host:0 resolves the port)\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    Server::Options opts;
    const char *printAddress = nullptr;
    for (int i = 1; i < argc; i++) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--address") ||
            !std::strcmp(argv[i], "--socket")) {
            opts.address = val();
        } else if (!std::strcmp(argv[i], "--queue")) {
            opts.exec.queueBound = std::atoi(val());
        } else if (!std::strcmp(argv[i], "--workers")) {
            opts.exec.workers = std::atoi(val());
        } else if (!std::strcmp(argv[i], "--cache")) {
            opts.cacheEntries = std::atoi(val());
        } else if (!std::strcmp(argv[i], "--print-address")) {
            printAddress = val();
        } else {
            usage(argv[0]);
            return std::strcmp(argv[i], "--help") ? 1 : 0;
        }
    }

    Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "cisa_serve: %s\n", err.c_str());
        return 1;
    }
    if (printAddress) {
        FILE *f = std::fopen(printAddress, "w");
        if (!f) {
            std::fprintf(stderr, "cisa_serve: cannot write %s\n",
                         printAddress);
            return 1;
        }
        std::fprintf(f, "%s\n", server.boundAddress().c_str());
        std::fclose(f);
    }

    g_server = &server;
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    server.waitUntilStopped();
    g_server = nullptr;

    std::printf("%s", server.executor().snapshot().render().c_str());
    return 0;
}
