/**
 * @file
 * Figure 2 reproduction: dynamic micro-op mix of the suite on three
 * custom ISAs — microx86-8D-32W (the smallest feature set), x86-64,
 * and the superset ISA — normalized to x86-64.
 *
 * Paper's headline numbers: microx86-8D-32W incurs ~28% more memory
 * references and ~11% more micro-ops than x86-64; the superset sees
 * ~8.5% fewer loads, ~6.3% fewer integer instructions, and ~3.2%
 * fewer branches.
 */

#include <cstdio>

#include "bench/benchcommon.hh"

using namespace cisa;

namespace
{

struct Mix
{
    double loads = 0, stores = 0, branches = 0, intu = 0, fpu = 0,
           uops = 0;
};

Mix
mixFor(const FeatureSet &fs)
{
    CompileOptions opts;
    opts.target = fs;
    Mix m;
    for (int b = 0; b < int(specSuite().size()); b++) {
        int first = phaseStartIndex(b);
        const auto &phases = specSuite()[size_t(b)].phases;
        Mix bm;
        for (size_t p = 0; p < phases.size(); p++) {
            // Whole-run mix: the artifact's dyn covers every op.
            std::shared_ptr<const PhaseArtifact> art =
                phaseArtifact(first + int(p), opts);
            const DynStats &d = art->trace.dyn;
            double w = phases[p].weight;
            bm.loads += w * double(d.loads);
            bm.stores += w * double(d.stores);
            bm.branches +=
                w * double(d.uopsByClass[size_t(
                        MicroClass::Branch)]);
            bm.intu += w * double(
                               d.uopsByClass[size_t(
                                   MicroClass::IntAlu)] +
                               d.uopsByClass[size_t(
                                   MicroClass::IntMul)] +
                               d.uopsByClass[size_t(
                                   MicroClass::IntDiv)]);
            bm.fpu += w * double(
                              d.uopsByClass[size_t(
                                  MicroClass::FpAlu)] +
                              d.uopsByClass[size_t(
                                  MicroClass::FpMul)] +
                              d.uopsByClass[size_t(
                                  MicroClass::FpDiv)] +
                              d.uopsByClass[size_t(
                                  MicroClass::SimdAlu)] +
                              d.uopsByClass[size_t(
                                  MicroClass::SimdMul)]);
            bm.uops += w * double(d.uops);
        }
        m.loads += bm.loads;
        m.stores += bm.stores;
        m.branches += bm.branches;
        m.intu += bm.intu;
        m.fpu += bm.fpu;
        m.uops += bm.uops;
    }
    return m;
}

} // namespace

int
main()
{
    std::printf("== Figure 2: SPEC-like dynamic micro-op mix, "
                "normalized to x86-64 ==\n\n");

    Mix micro = mixFor(FeatureSet::minimal());
    Mix x64 = mixFor(FeatureSet::x86_64());
    Mix sup = mixFor(FeatureSet::superset());

    Table t("micro-op mix (normalized to x86-64)");
    t.header({"category", "microx86-8D-32W", "x86-64", "superset"});
    auto row = [&](const char *name, double a, double b, double c) {
        t.row({name, Table::num(a / b, 3), "1.000",
               Table::num(c / b, 3)});
    };
    row("loads", micro.loads, x64.loads, sup.loads);
    row("stores", micro.stores, x64.stores, sup.stores);
    row("branches", micro.branches, x64.branches, sup.branches);
    row("integer", micro.intu, x64.intu, sup.intu);
    row("float/simd", micro.fpu, x64.fpu, sup.fpu);
    row("total uops", micro.uops, x64.uops, sup.uops);
    t.print();

    double mem_micro = (micro.loads + micro.stores) /
                       (x64.loads + x64.stores);
    std::printf("\npaper vs measured:\n");
    std::printf("  microx86-8D-32W memory refs: paper +28%%, "
                "measured %+.1f%%\n",
                (mem_micro - 1.0) * 100.0);
    std::printf("  microx86-8D-32W total uops:  paper +11%%, "
                "measured %+.1f%%\n",
                (micro.uops / x64.uops - 1.0) * 100.0);
    std::printf("  superset loads:              paper -8.5%%, "
                "measured %+.1f%%\n",
                (sup.loads / x64.loads - 1.0) * 100.0);
    std::printf("  superset integer:            paper -6.3%%, "
                "measured %+.1f%%\n",
                (sup.intu / x64.intu - 1.0) * 100.0);
    std::printf("  superset branches:           paper -3.2%%, "
                "measured %+.1f%%\n",
                (sup.branches / x64.branches - 1.0) * 100.0);
    return 0;
}
