/**
 * @file
 * Section III code-generation statistics: the compile-level effects
 * of each feature axis, measured over the full suite.
 *
 * Paper numbers: shrinking register depth from 32 to 16 adds ~3.7%
 * stores, ~10.3% loads, ~3.5% integer ops, ~2.7% branches
 * (rematerialization); full predication adds ~0.6% dynamic
 * instructions while removing ~6.5% of branches.
 */

#include <cstdio>

#include "bench/benchcommon.hh"

using namespace cisa;

namespace
{

DynStats
suiteMix(const FeatureSet &fs, bool if_convert = true)
{
    DynStats total;
    for (int ph = 0; ph < phaseCount(); ph++) {
        CompileOptions opts;
        opts.target = fs;
        opts.enableIfConvert = if_convert;
        total.add(phaseArtifact(ph, opts)->trace.dyn);
    }
    return total;
}

double
pct(double a, double b)
{
    return (a / b - 1.0) * 100.0;
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

    std::printf("\n(see fig02_instr_mix for the microx86-8D-32W and "
                "superset mixes)\n");
    return 0;
}
