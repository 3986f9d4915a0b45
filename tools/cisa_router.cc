/**
 * @file
 * The cisa-serve fleet router daemon: front-ends N cisa_serve
 * workers behind one address, consistent-hashing each request's
 * routing key onto the worker that owns (and has warm) its slab,
 * with replica rotation for hot slabs and failover when workers
 * die (src/service/router.hh).
 *
 * Usage:
 *   cisa_router --worker ADDR [--worker ADDR ...]
 *               [--address ADDR] [--replicas N] [--health-ms N]
 *               [--print-address FILE]
 *
 * Flags default to the CISA_ROUTER_* / CISA_SERVE_* environment
 * knobs (src/common/env.hh); flags win over the environment. On
 * SIGTERM/SIGINT the router stops accepting, finishes in-flight
 * relays, and prints the final fleet stats roll-up.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "service/router.hh"

using namespace cisa;

namespace
{

Router *g_router = nullptr;

extern "C" void
onSignal(int)
{
    if (g_router)
        g_router->requestStop();
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --worker ADDR [--worker ADDR ...] [options]\n"
        "  --worker ADDR         a cisa_serve worker (repeatable)\n"
        "  --address ADDR        client-facing address "
        "(CISA_SERVE_SOCKET)\n"
        "  --replicas N          replica set size per key "
        "(CISA_ROUTER_REPLICAS)\n"
        "  --health-ms N         down-worker re-probe period "
        "(CISA_ROUTER_HEALTH_MS)\n"
        "  --print-address FILE  write the bound address to FILE\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    Router::Options opts;
    const char *printAddress = nullptr;
    for (int i = 1; i < argc; i++) {
        auto val = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(1);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--worker")) {
            opts.workers.push_back(val());
        } else if (!std::strcmp(argv[i], "--address")) {
            opts.address = val();
        } else if (!std::strcmp(argv[i], "--replicas")) {
            opts.replicas = std::atoi(val());
        } else if (!std::strcmp(argv[i], "--health-ms")) {
            opts.healthMs = std::atoi(val());
        } else if (!std::strcmp(argv[i], "--print-address")) {
            printAddress = val();
        } else {
            usage(argv[0]);
            return std::strcmp(argv[i], "--help") ? 1 : 0;
        }
    }
    if (opts.workers.empty()) {
        usage(argv[0]);
        return 1;
    }

    Router router(opts);
    std::string err;
    if (!router.start(&err)) {
        std::fprintf(stderr, "cisa_router: %s\n", err.c_str());
        return 1;
    }
    if (printAddress) {
        FILE *f = std::fopen(printAddress, "w");
        if (!f) {
            std::fprintf(stderr, "cisa_router: cannot write %s\n",
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

    router.waitUntilStopped();
    g_router = nullptr;

    std::printf("%s", router.fleetStats().render().c_str());
    return 0;
}
