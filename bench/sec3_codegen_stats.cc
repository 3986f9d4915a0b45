/**
 * @file
 * Section III code-generation statistics: the compile-level effects
 * of each feature axis, measured over the full suite.
 *
 * Paper numbers: shrinking register depth from 32 to 16 adds ~3.7%
 * stores, ~10.3% loads, ~3.5% integer ops, ~2.7% branches
 * (rematerialization); full predication adds ~0.6% dynamic
 * instructions while removing ~6.5% of branches.
 *
 * The second half sweeps the mid-end opt level (CISA_OPT) against
 * representative feature sets: O1 is the legacy fixed sequence, O2
 * adds SCCP, LICM and bounded unrolling, so every (opt level x
 * feature set) cell is a distinct static design point. Per-pass wall
 * clock comes straight from CompileReport::passRuns.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench/benchcommon.hh"

using namespace cisa;

namespace
{

DynStats
suiteMix(const FeatureSet &fs, bool if_convert = true,
         int opt_level = 1)
{
    DynStats total;
    for (int ph = 0; ph < phaseCount(); ph++) {
        CompileOptions opts;
        opts.target = fs;
        opts.enableIfConvert = if_convert;
        opts.optLevel = opt_level;
        total.add(phaseArtifact(ph, opts)->trace.dyn);
    }
    return total;
}

double
pct(double a, double b)
{
    return (a / b - 1.0) * 100.0;
}

/** Suite-aggregated static codegen of one (feature set, opt level)
 * sweep, with per-pass wall clock and mid-end counters at O2. */
struct OptSweep
{
    CodeStats code[3];            ///< per opt level
    int distinctO1vsO0 = 0;       ///< phases whose O1 binary differs
    int distinctO2vsO1 = 0;       ///< phases whose O2 binary differs
    std::map<std::string, double> o2PassUs;
    int sccpFolded = 0;
    int licmHoisted = 0;
    int loopsUnrolled = 0;
};

OptSweep
sweepOptLevels(const FeatureSet &fs)
{
    OptSweep out;
    for (int ph = 0; ph < phaseCount(); ph++) {
        std::string prev;
        for (int lvl = 0; lvl <= 2; lvl++) {
            CompileOptions opts;
            opts.target = fs;
            opts.optLevel = lvl;
            CompileReport rep;
            MachineProgram p =
                compile(phaseModule(ph), opts, &rep);
            out.code[lvl].add(p.stats);
            std::string s = p.print();
            if (lvl == 1 && s != prev)
                out.distinctO1vsO0++;
            if (lvl == 2 && s != prev)
                out.distinctO2vsO1++;
            prev = std::move(s);
            if (lvl == 2) {
                for (const auto &pr : rep.passRuns)
                    out.o2PassUs[pr.name] += pr.micros;
                out.sccpFolded += rep.sccp.constsFolded;
                out.licmHoisted += rep.licm.hoisted;
                out.loopsUnrolled += rep.unroll.loopsUnrolled;
            }
        }
    }
    return out;
}

} // namespace

int
main()
{
    std::printf("== Section III: code-generation deltas across the "
                "suite ==\n\n");

    // Register depth 32 -> 16 (64-bit x86).
    DynStats d32 = suiteMix(FeatureSet::parse("x86-32D-64W-P"));
    DynStats d16 = suiteMix(FeatureSet::parse("x86-16D-64W-P"));
    Table t1("register depth 32 -> 16 (spill/refill/remat growth)");
    t1.header({"metric", "measured", "paper"});
    t1.row({"stores", strfmt("%+.1f%%", pct(double(d16.stores),
                                            double(d32.stores))),
            "+3.7%"});
    t1.row({"loads", strfmt("%+.1f%%", pct(double(d16.loads),
                                           double(d32.loads))),
            "+10.3%"});
    double i32 = double(d32.uopsByClass[size_t(MicroClass::IntAlu)] +
                        d32.uopsByClass[size_t(MicroClass::IntMul)]);
    double i16 = double(d16.uopsByClass[size_t(MicroClass::IntAlu)] +
                        d16.uopsByClass[size_t(MicroClass::IntMul)]);
    t1.row({"integer ops", strfmt("%+.1f%%", pct(i16, i32)),
            "+3.5%"});
    t1.row({"branches",
            strfmt("%+.1f%%",
                   pct(double(d16.branches), double(d32.branches))),
            "+2.7%"});
    t1.print();

    // Full predication on vs off (same feature set otherwise).
    DynStats pf = suiteMix(FeatureSet::parse("x86-64D-64W-F"));
    DynStats pp = suiteMix(FeatureSet::parse("x86-64D-64W-F"),
                           false);
    Table t2("full predication (if-conversion on vs off)");
    t2.header({"metric", "measured", "paper"});
    t2.row({"dynamic uops",
            strfmt("%+.1f%%", pct(double(pf.uops), double(pp.uops))),
            "+0.6%"});
    t2.row({"branches",
            strfmt("%+.1f%%",
                   pct(double(pf.branches), double(pp.branches))),
            "-6.5%"});
    t2.row({"predicated (false) uops",
            strfmt("%llu (%llu)",
                   (unsigned long long)pf.predicated,
                   (unsigned long long)pf.predFalse),
            "-"});
    t2.print();

    // Opt-level x feature-set sweep (static code, whole suite).
    const char *sweep_sets[] = {"x86-32D-64W-P", "x86-16D-64W-P",
                                "x86-64D-64W-F",
                                "microx86-8D-32W-P"};
    std::map<std::string, OptSweep> sweeps;
    Table t3("opt level x feature set (static code, whole suite)");
    t3.header({"feature set", "opt", "instrs", "branches", "spills",
               "simd", "code KB", "new designs"});
    for (const char *name : sweep_sets) {
        OptSweep s = sweepOptLevels(FeatureSet::parse(name));
        for (int lvl = 0; lvl <= 2; lvl++) {
            const CodeStats &c = s.code[lvl];
            int fresh = lvl == 1   ? s.distinctO1vsO0
                        : lvl == 2 ? s.distinctO2vsO1
                                   : 0;
            t3.row({lvl == 0 ? name : "", strfmt("O%d", lvl),
                    strfmt("%llu", (unsigned long long)c.instrs),
                    strfmt("%llu", (unsigned long long)c.branches),
                    strfmt("%llu",
                           (unsigned long long)(c.spillLoads +
                                                c.spillStores)),
                    strfmt("%llu", (unsigned long long)c.simdOps),
                    strfmt("%.1f", double(c.codeBytes) / 1024.0),
                    lvl == 0 ? "-" : strfmt("%d", fresh)});
        }
        sweeps.emplace(name, std::move(s));
    }
    t3.print();

    // Dynamic effect of the O2 mid-end on the representative set:
    // full unrolling erases taken back edges and their compare
    // chains from the executed stream.
    FeatureSet rep_fs = FeatureSet::parse("x86-32D-64W-P");
    DynStats dyn_o1 = suiteMix(rep_fs, true, 1);
    DynStats dyn_o2 = suiteMix(rep_fs, true, 2);
    Table td("O1 -> O2 dynamic stream on x86-32D-64W-P");
    td.header({"metric", "O1", "O2", "delta"});
    td.row({"uops", strfmt("%llu", (unsigned long long)dyn_o1.uops),
            strfmt("%llu", (unsigned long long)dyn_o2.uops),
            strfmt("%+.1f%%", pct(double(dyn_o2.uops),
                                  double(dyn_o1.uops)))});
    td.row({"branches",
            strfmt("%llu", (unsigned long long)dyn_o1.branches),
            strfmt("%llu", (unsigned long long)dyn_o2.branches),
            strfmt("%+.1f%%", pct(double(dyn_o2.branches),
                                  double(dyn_o1.branches)))});
    td.row({"loads",
            strfmt("%llu", (unsigned long long)dyn_o1.loads),
            strfmt("%llu", (unsigned long long)dyn_o2.loads),
            strfmt("%+.1f%%", pct(double(dyn_o2.loads),
                                  double(dyn_o1.loads)))});
    td.print();

    // Per-pass wall clock of the O2 pipeline (suite totals).
    const OptSweep &rep_sweep = sweeps.at("x86-32D-64W-P");
    Table t4("O2 pipeline wall clock on x86-32D-64W-P (suite "
             "totals)");
    t4.header({"pass", "total ms"});
    for (const auto &kv : rep_sweep.o2PassUs)
        t4.row({kv.first, strfmt("%.2f", kv.second / 1000.0)});
    t4.print();
    std::printf("O2 mid-end work: %d consts folded, %d instrs "
                "hoisted, %d loops unrolled\n",
                rep_sweep.sccpFolded, rep_sweep.licmHoisted,
                rep_sweep.loopsUnrolled);

    // Machine-readable summary (captured as BENCH_PR10.json).
    std::printf("\n== json ==\n{\n  \"codegen_opt_sweep\": {\n"
                "    \"bench\": \"sec3_codegen_stats\",\n"
                "    \"phases\": %d,\n    \"scenarios\": [\n",
                phaseCount());
    size_t emitted = 0;
    for (const char *name : sweep_sets) {
        const OptSweep &s = sweeps.at(name);
        std::printf(
            "      {\"fs\": \"%s\", "
            "\"o1\": {\"instrs\": %llu, \"branches\": %llu, "
            "\"spills\": %llu, \"simd\": %llu}, "
            "\"o2\": {\"instrs\": %llu, \"branches\": %llu, "
            "\"spills\": %llu, \"simd\": %llu}, "
            "\"new_design_points_o2_vs_o1\": %d}%s\n",
            name, (unsigned long long)s.code[1].instrs,
            (unsigned long long)s.code[1].branches,
            (unsigned long long)(s.code[1].spillLoads +
                                 s.code[1].spillStores),
            (unsigned long long)s.code[1].simdOps,
            (unsigned long long)s.code[2].instrs,
            (unsigned long long)s.code[2].branches,
            (unsigned long long)(s.code[2].spillLoads +
                                 s.code[2].spillStores),
            (unsigned long long)s.code[2].simdOps,
            s.distinctO2vsO1,
            ++emitted == sizeof(sweep_sets) / sizeof(sweep_sets[0])
                ? ""
                : ",");
    }
    std::printf(
        "    ],\n    \"dynamic_o1_to_o2\": {\"fs\": "
        "\"x86-32D-64W-P\", \"uops_pct\": %.2f, "
        "\"branches_pct\": %.2f, \"loads_pct\": %.2f}\n  }\n}\n",
        pct(double(dyn_o2.uops), double(dyn_o1.uops)),
        pct(double(dyn_o2.branches), double(dyn_o1.branches)),
        pct(double(dyn_o2.loads), double(dyn_o1.loads)));

    std::printf("\n(see fig02_instr_mix for the microx86-8D-32W and "
                "superset mixes)\n");
    return 0;
}
