/**
 * @file
 * campaign_cold: compute and persist all 29 slabs into an empty
 * private store at the default budget on the process thread pool —
 * the cold full reproduction. Stage 1 (compile, functional
 * execution) and stage 2 (structural streams, lockstep walk) do the
 * work; search does none.
 *
 * The untraced run calls Campaign::ensureSlab for one slab after the
 * other; each call spreads its slab over the pool. The traced run
 * replaces computeSlabPerf with
 * a mirror built from its public parts (compile, executeMachine,
 * ReplayTrace::build, buildStructuralStream, simulateCoreBatch,
 * coreEnergy) in the same order, with one span per call, and
 * appends through its own SlabStore. Both runs are checked against
 * the pinned digest of every slab, so the mirror must reproduce the
 * bundled result byte for byte.
 */

#include <array>
#include <atomic>
#include <cstdio>
#include <stdexcept>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "compiler/compiler.hh"
#include "compiler/exec.hh"
#include "explore/campaign.hh"
#include "explore/slabstore.hh"
#include "harness.hh"
#include "migration/translate.hh"
#include "power/energy.hh"
#include "trace.hh"
#include "uarch/batch.hh"
#include "uarch/replay.hh"
#include "workloads/synth.hh"

using namespace cisa;

namespace perfbench
{

namespace
{

struct WalkCounters
{
    std::atomic<uint64_t> walks{0};
    std::atomic<uint64_t> cellsBatched{0};
    std::atomic<uint64_t> cellUops{0}; ///< cells x (warmup + timed)
};

/**
 * computeSlabPerf(slab, SlabEngine::Batch) rebuilt from public
 * calls, one span per call. Keep in step with src/explore/
 * campaign.cc: the pinned digests catch any divergence.
 */
std::vector<PhasePerf>
mirrorSlab(int slab, uint64_t parent, WalkCounters &ctr)
{
    Span slabSpan("explore.slab", uint64_t(slab), parent);
    const uint64_t sp = slabSpan.id();
    const uint64_t req = uint64_t(slab);

    bool is_vendor = slab >= 26;
    VendorModel vm;
    FeatureSet fs;
    if (is_vendor) {
        VendorIsa v = slab == 26   ? VendorIsa::X86_64
                      : slab == 27 ? VendorIsa::AlphaLike
                                   : VendorIsa::ThumbLike;
        vm = VendorModel::vendor(v);
        fs = vm.features;
    } else {
        fs = FeatureSet::byId(slab);
        vm = VendorModel::composite(fs);
    }

    uint64_t timed = simUopBudget();
    uint64_t warm = simWarmupUops();
    const RunEnv solo{};
    const RunEnv mp{0.25, 1.30};
    size_t phases = size_t(phaseCount());
    uint64_t max_steps = warm + timed;

    struct StreamSlice
    {
        MicroArchConfig uarch;
        RunEnv env;
        int envIdx;
        uint64_t key;
    };
    std::vector<StreamSlice> slices;
    std::vector<std::array<int, 2>> sliceOf(
        size_t(DesignPoint::kUarchCount));
    const RunEnv *envs[2] = {&solo, &mp};
    for (int u = 0; u < DesignPoint::kUarchCount; u++) {
        MicroArchConfig ua = MicroArchConfig::byId(u);
        for (int e = 0; e < 2; e++) {
            uint64_t key = structuralFingerprint(ua, *envs[e]);
            int si = -1;
            for (size_t k = 0; k < slices.size(); k++) {
                if (slices[k].key == key) {
                    si = int(k);
                    break;
                }
            }
            if (si < 0) {
                si = int(slices.size());
                slices.push_back({ua, *envs[e], e, key});
            }
            sliceOf[size_t(u)][size_t(e)] = si;
        }
    }

    // Stage 1, as in computeSlabPerf: traces, packing and stream
    // builds overlap across phases.
    uint64_t record_cap = is_vendor ? ~uint64_t(0) : warm + timed + 1;
    std::vector<Trace> traces(phases);
    std::vector<double> run_ops(phases, 0.0);
    std::vector<ReplayTrace> packed(phases);
    std::vector<std::vector<StructuralStream>> streams(
        phases, std::vector<StructuralStream>(slices.size()));
    TaskGroup streamTasks;
    parallelFor(phases, [&](uint64_t p) {
        int ph = int(p);
        const IrModule *mod;
        {
            Span s("workloads.synth", req, sp);
            mod = &phaseModule(ph);
        }
        CompileOptions opts = CompileOptions::fromEnv();
        opts.target = fs;
        IrModule ir;
        MachineProgram prog;
        {
            Span s("compiler.compile", req, sp);
            prog = compile(*mod, opts, nullptr, &ir);
        }
        Trace trace;
        {
            Span s("compiler.exec", req, sp);
            MemImage img = MemImage::build(ir, fs.widthBits());
            executeMachine(prog, img, 1ULL << 31, &trace, 1ULL << 21,
                           record_cap);
        }
        panic_if(trace.truncated, "phase %d trace truncated", ph);
        if (is_vendor && vm.codeSizeFactor != 1.0) {
            Span s("migration.translate", req, sp);
            trace = vendorAdjustTrace(trace, vm.codeSizeFactor);
        }
        run_ops[p] = is_vendor ? double(trace.ops.size())
                               : double(trace.dyn.macroOps);
        traces[p] = std::move(trace);
        {
            Span s("uarch.pack", req, sp);
            packed[p] = ReplayTrace::build(traces[p], max_steps);
        }
        for (size_t si = 0; si < slices.size(); si++) {
            streamTasks.run([&, p, si] {
                Span s("uarch.stream", req, sp);
                CoreConfig scc{fs, slices[si].uarch};
                streams[p][si] = buildStructuralStream(
                    scc, slices[si].env, traces[p], packed[p], timed,
                    warm);
            });
        }
    });
    streamTasks.wait();

    // Stage 2: lockstep walks per (phase, slice, chunk).
    std::vector<std::vector<int>> members(slices.size());
    for (int u = 0; u < DesignPoint::kUarchCount; u++)
        for (int e = 0; e < 2; e++)
            members[size_t(sliceOf[size_t(u)][size_t(e)])].push_back(u);
    struct BatchTask
    {
        int ph, si;
        size_t begin, end;
    };
    size_t bw = size_t(batchWidth());
    std::vector<BatchTask> tasks;
    for (int ph = 0; ph < int(phases); ph++)
        for (size_t si = 0; si < slices.size(); si++)
            for (size_t b = 0; b < members[si].size(); b += bw)
                tasks.push_back({ph, int(si), b,
                                 std::min(members[si].size(), b + bw)});

    std::vector<PerfResult> sims(size_t(DesignPoint::kUarchCount) *
                                 phases * 2);
    parallelFor(tasks.size(), [&](uint64_t t) {
        Span s("uarch.walk", req, sp);
        const BatchTask &bt = tasks[t];
        const StreamSlice &sl = slices[size_t(bt.si)];
        const std::vector<int> &mem = members[size_t(bt.si)];
        size_t g = bt.end - bt.begin;
        const ReplayTrace &pk = packed[size_t(bt.ph)];
        const StructuralStream &ss =
            streams[size_t(bt.ph)][size_t(bt.si)];
        std::vector<CoreConfig> ccs;
        ccs.reserve(g);
        for (size_t i = bt.begin; i < bt.end; i++) {
            int u = mem[i];
            DesignPoint dp = is_vendor
                                 ? DesignPoint::vendorPoint(vm.kind, u)
                                 : DesignPoint::composite(slab, u);
            ccs.push_back(dp.coreConfig());
        }
        auto slot = [&](size_t i) {
            return (size_t(mem[i]) * phases + size_t(bt.ph)) * 2 +
                   size_t(sl.envIdx);
        };
        ctr.walks.fetch_add(1, std::memory_order_relaxed);
        ctr.cellUops.fetch_add(g * (warm + timed),
                               std::memory_order_relaxed);
        if (g == 1) {
            sims[slot(bt.begin)] =
                simulateCoreReplay(ccs[0], pk, ss, timed, warm, sl.env);
            return;
        }
        std::vector<PerfResult> rs = simulateCoreBatch(
            ccs.data(), g, pk, ss, timed, warm, sl.env);
        for (size_t i = 0; i < g; i++)
            sims[slot(bt.begin + i)] = rs[i];
        ctr.cellsBatched.fetch_add(g, std::memory_order_relaxed);
    });

    // Fold, one span per microarchitecture row (49 cells).
    std::vector<PhasePerf> cells(size_t(DesignPoint::kUarchCount) *
                                 phases);
    parallelFor(size_t(DesignPoint::kUarchCount), [&](uint64_t u) {
        Span s("power.fold", req, sp);
        DesignPoint dp = is_vendor
                             ? DesignPoint::vendorPoint(vm.kind, int(u))
                             : DesignPoint::composite(slab, int(u));
        CoreConfig cc = dp.coreConfig();
        for (size_t ph = 0; ph < phases; ph++) {
            size_t k = size_t(u) * phases + ph;
            const PerfResult &rs = sims[k * 2 + 0];
            const PerfResult &rm = sims[k * 2 + 1];
            PhasePerf out;
            double scale = run_ops[ph] / double(rs.stats.macroOps);
            out.timePerRun = float(secondsOf(rs.cycles) * scale);
            out.energyPerRun = float(
                coreEnergy(cc, rs.stats, is_vendor ? &vm : nullptr)
                    .total() *
                scale);
            double scale_m = run_ops[ph] / double(rm.stats.macroOps);
            out.timePerRunMp = float(secondsOf(rm.cycles) * scale_m);
            out.energyPerRunMp = float(
                coreEnergy(cc, rm.stats, is_vendor ? &vm : nullptr)
                    .total() *
                scale_m);
            cells[k] = out;
        }
    });
    return cells;
}

uint32_t
valsPerSlab()
{
    return uint32_t(DesignPoint::kUarchCount) * uint32_t(phaseCount()) *
           4;
}

} // namespace

int
runCampaign(const Args &a, Report &r)
{
    {
        Span s("explore.store_load");
        Campaign::get(); // binds to the empty private store
    }
    ThreadPool::get();
    r.setupS = secondsSince(a.startNs);
    if (a.setupOnly)
        return 0;

    const int n = Campaign::kSlabs;
    const uint64_t budgetKey =
        Campaign::budgetKeyFor(simUopBudget(), simWarmupUops());
    // Slabs go one after the other, each spread over the pool, so a
    // slab's own time (from the previous slab's persist to its own)
    // names the same work in every repetition, and the time until
    // slab k is ready sums k of them. With slabs overlapping, both
    // would change from run to run with the pool's schedule.
    std::vector<double> doneUs(size_t(n), 0.0);
    WalkCounters ctr;
    uint64_t t0 = nowNs();
    if (!a.traced()) {
        for (int s = 0; s < n; s++) {
            Campaign::get().ensureSlab(s);
            doneUs[size_t(s)] = secondsSince(t0) * 1e6;
        }
    } else {
        Span root("explore.campaign");
        SlabStore store(a.store, budgetKey, uint32_t(phaseCount()),
                        valsPerSlab(), n, false);
        for (int s = 0; s < n; s++) {
            std::vector<PhasePerf> cells = mirrorSlab(s, root.id(), ctr);
            {
                Span ap("explore.store_append", uint64_t(s), root.id());
                if (!store.append(s,
                                  reinterpret_cast<const float *>(
                                      cells.data()),
                                  cells.size() * 4))
                    throw std::runtime_error("slab store append failed");
            }
            doneUs[size_t(s)] = secondsSince(t0) * 1e6;
        }
    }
    r.workS = secondsSince(t0);
    uint64_t t1 = nowNs();

    // Gate: every slab must be persisted, and its bytes are digested
    // for run.py to compare with the pinned ones. The untraced run
    // also checks the campaign's in-memory table against the store.
    SlabStore check(a.store, budgetKey, uint32_t(phaseCount()),
                    valsPerSlab(), n, true);
    std::vector<SlabRec> recs = check.poll();
    std::vector<bool> seen(size_t(n), false);
    for (const SlabRec &rec : recs) {
        std::string d =
            digestHex(rec.vals.data(), rec.vals.size() * sizeof(float));
        r.digests["slab." + std::to_string(rec.slab)] = d;
        seen[size_t(rec.slab)] = true;
        if (!a.traced()) {
            std::vector<PhasePerf> mem = Campaign::get().slabPerf(rec.slab);
            if (digestHex(mem.data(), mem.size() * sizeof(PhasePerf)) != d)
                r.fail("slab " + std::to_string(rec.slab) +
                       ": store bytes differ from the campaign table");
        }
    }
    r.attempted = uint64_t(n);
    for (int s = 0; s < n; s++)
        if (!seen[size_t(s)])
            r.fail("slab " + std::to_string(s) + " not persisted");

    for (int s = 0; s < n; s++) {
        char name[16];
        std::snprintf(name, sizeof(name), "slab%02d", s);
        r.opUs[name] = doneUs[size_t(s)] - (s ? doneUs[size_t(s - 1)] : 0);
    }
    r.opsPerS = double(n) / r.workS;
    r.opP50Us = quantile(doneUs, 0.50);
    r.opP99Us = quantile(doneUs, 0.99);

    if (a.traced()) {
        // Busy time of the leaf spans over wall x threads.
        std::vector<SpanRec> spans = Tracer::collect();
        double busy = 0;
        for (const SpanRec &s : spans) {
            std::string nm = s.name;
            if (nm == "explore.campaign" || nm == "explore.slab" ||
                nm == "explore.store_load")
                continue;
            if (s.startNs >= t0 && s.endNs <= t1)
                busy += double(s.endNs - s.startNs) * 1e-9;
        }
        r.layers["common.parallel_eff"] =
            busy / (r.workS * double(ThreadPool::get().threads()));
        r.layers["uarch.walks"] = double(ctr.walks.load());
        r.layers["uarch.cells_batched"] = double(ctr.cellsBatched.load());
        r.layers["uarch.walk_ns_per_uop"] =
            aggregate(spans)["uarch.walk"].selfS * 1e9 /
            double(std::max<uint64_t>(1, ctr.cellUops.load()));
    } else {
        EngineHealth eh = Campaign::get().engineHealth();
        r.layers["uarch.walks"] = double(eh.walksDone);
        r.layers["uarch.cells_batched"] = double(eh.cellsBatched);
    }
    return 0;
}

} // namespace perfbench
