/**
 * @file
 * Command-line client for cisa-serve.
 *
 * Usage:
 *   cisa_client [--address ADDR] [--deadline-ms N] CMD [args]
 *
 * ADDR is a host:port (TCP) or a UNIX socket path; --socket is kept
 * as an alias.
 *
 * Commands:
 *   ping
 *   eval  ISA UARCH PHASE     ISA = composite feature-set id 0..25,
 *                             or x86_64 / alpha / thumb
 *   slab  SLAB                0..25 composite, 26..28 vendor
 *   table SLAB
 *   search FAMILY OBJECTIVE [--power W] [--area MM2] [--dynamic]
 *          [--seed N]
 *     FAMILY    = homog | single | multivendor | xized | full
 *     OBJECTIVE = mp-thr | mp-edp | st-perf | st-edp
 *   stats
 *
 * Integer operands and flags are checked against their ranges — ISA
 * 0-25, UARCH 0-179, PHASE 0-48, SLAB 0-28, --deadline-ms
 * 0-86400000 (a day), --seed >= 0 — and a malformed or out-of-range
 * one exits 2 before the client connects. --power and --area are
 * read as floating point and not checked.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hh"
#include "explore/campaign.hh"
#include "service/client.hh"
#include "workloads/profiles.hh"

using namespace cisa;

namespace
{

int
usage(const char *argv0, int rc)
{
    std::fprintf(
        stderr,
        "usage: %s [--address ADDR] [--deadline-ms N] CMD [args]\n"
        "  ping | stats | slab SLAB | table SLAB\n"
        "  eval ISA UARCH PHASE\n"
        "  search FAMILY OBJECTIVE [--power W] [--area MM2]"
        " [--dynamic] [--seed N]\n",
        argv0);
    return rc;
}

bool
parseFamily(const std::string &s, Family *out)
{
    if (s == "homog")
        *out = Family::Homogeneous;
    else if (s == "single")
        *out = Family::SingleIsaHetero;
    else if (s == "multivendor")
        *out = Family::MultiVendor;
    else if (s == "xized")
        *out = Family::CompositeXized;
    else if (s == "full")
        *out = Family::CompositeFull;
    else
        return false;
    return true;
}

bool
parseObjective(const std::string &s, Objective *out)
{
    if (s == "mp-thr")
        *out = Objective::MpThroughput;
    else if (s == "mp-edp")
        *out = Objective::MpEdp;
    else if (s == "st-perf")
        *out = Objective::StPerf;
    else if (s == "st-edp")
        *out = Objective::StEdp;
    else
        return false;
    return true;
}

/** A vendor name, or a composite feature-set id (exits 2 if it is
 * neither). */
DesignPoint
parseIsa(const std::string &s, int uarch)
{
    if (s == "x86_64")
        return DesignPoint::vendorPoint(VendorIsa::X86_64, uarch);
    if (s == "alpha")
        return DesignPoint::vendorPoint(VendorIsa::AlphaLike, uarch);
    if (s == "thumb")
        return DesignPoint::vendorPoint(VendorIsa::ThumbLike, uarch);
    return DesignPoint::composite(
        int(flagIntIn("isa", s.c_str(), 0, FeatureSet::count() - 1)),
        uarch);
}

int
report(Status s, const Client &c)
{
    if (s == Status::Ok)
        return 0;
    if (s == Status::Error && !c.lastError().empty())
        std::fprintf(stderr, "cisa_client: %s\n",
                     c.lastError().c_str());
    else
        std::fprintf(stderr, "cisa_client: %s\n", statusName(s));
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket;
    uint32_t deadline_ms = 0;
    int i = 1;
    for (; i < argc && argv[i][0] == '-'; i++) {
        if ((!std::strcmp(argv[i], "--address") ||
             !std::strcmp(argv[i], "--socket")) &&
            i + 1 < argc)
            socket = argv[++i];
        else if (!std::strcmp(argv[i], "--deadline-ms") &&
                 i + 1 < argc)
            deadline_ms = uint32_t(
                flagIntIn("--deadline-ms", argv[++i], 0, kFlagMaxMs));
        else
            return usage(argv[0],
                         std::strcmp(argv[i], "--help") ? 1 : 0);
    }
    if (i >= argc)
        return usage(argv[0], 1);
    std::string cmd = argv[i++];

    // Every operand is checked before connecting, so a malformed or
    // out-of-range one exits 2 without a request.
    int slab = 0;
    DesignPoint dp;
    int phase = 0;
    Family family{};
    Objective objective{};
    Budget b;
    uint64_t seed = 1;
    if (cmd == "slab" || cmd == "table") {
        if (i >= argc)
            return usage(argv[0], 1);
        slab = int(flagIntIn("slab", argv[i], 0, Campaign::kSlabs - 1));
    } else if (cmd == "eval") {
        if (i + 2 >= argc)
            return usage(argv[0], 1);
        dp = parseIsa(argv[i],
                      int(flagIntIn("uarch", argv[i + 1], 0,
                                    DesignPoint::kUarchCount - 1)));
        phase = int(flagIntIn("phase", argv[i + 2], 0, phaseCount() - 1));
    } else if (cmd == "search") {
        if (i + 1 >= argc)
            return usage(argv[0], 1);
        if (!parseFamily(argv[i], &family) ||
            !parseObjective(argv[i + 1], &objective))
            return usage(argv[0], 1);
        for (i += 2; i < argc; i++) {
            if (!std::strcmp(argv[i], "--power") && i + 1 < argc)
                b.powerW = std::atof(argv[++i]);
            else if (!std::strcmp(argv[i], "--area") && i + 1 < argc)
                b.areaMm2 = std::atof(argv[++i]);
            else if (!std::strcmp(argv[i], "--dynamic"))
                b.dynamicMulticore = true;
            else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
                seed = uint64_t(
                    flagIntIn("--seed", argv[++i], 0, INT64_MAX));
            else
                return usage(argv[0], 1);
        }
    } else if (cmd != "ping" && cmd != "stats") {
        return usage(argv[0], 1);
    }

    Client client;
    std::string err;
    if (!client.connect(socket, &err)) {
        std::fprintf(stderr, "cisa_client: %s\n", err.c_str());
        return 1;
    }

    if (cmd == "ping") {
        Status s = client.ping(deadline_ms);
        if (s == Status::Ok)
            std::printf("pong\n");
        return report(s, client);
    }
    if (cmd == "stats") {
        StatsSnap snap;
        Status s = client.stats(&snap, deadline_ms);
        if (s == Status::Ok)
            std::printf("%s", snap.render().c_str());
        return report(s, client);
    }
    if (cmd == "table") {
        std::string table;
        Status s = client.tableOf(slab, &table, deadline_ms);
        if (s == Status::Ok)
            std::printf("%s", table.c_str());
        return report(s, client);
    }
    if (cmd == "slab") {
        std::vector<PhasePerf> perf;
        Status s = client.slabPerf(slab, &perf, deadline_ms);
        if (s == Status::Ok)
            std::printf("slab %d: %zu cells\n", slab, perf.size());
        return report(s, client);
    }
    if (cmd == "eval") {
        PhasePerf p;
        Status s = client.evalPoint(dp, phase, &p, deadline_ms);
        if (s == Status::Ok) {
            std::printf("%s phase %d: t_solo=%.6gs e_solo=%.6gJ "
                        "t_mp=%.6gs e_mp=%.6gJ\n",
                        dp.name().c_str(), phase,
                        double(p.timePerRun),
                        double(p.energyPerRun),
                        double(p.timePerRunMp),
                        double(p.energyPerRunMp));
        }
        return report(s, client);
    }
    SearchResult res;
    Status s = client.search(family, objective, b, seed, &res,
                             deadline_ms);
    if (s == Status::Ok) {
        std::printf("%s / score %.6g%s\n", familyName(family),
                    res.score, res.feasible ? "" : " (infeasible)");
        for (const DesignPoint &d : res.design.cores)
            std::printf("  %s\n", d.name().c_str());
    }
    return report(s, client);
}
