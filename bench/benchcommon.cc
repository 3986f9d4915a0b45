#include "bench/benchcommon.hh"

#include <cstdio>
#include <utility>

namespace cisa
{
namespace benchutil
{

const std::vector<double> &
mpPowerBudgets()
{
    static const std::vector<double> v = {20, 40, 60, 0};
    return v;
}

const std::vector<double> &
areaBudgets()
{
    static const std::vector<double> v = {48, 64, 80, 0};
    return v;
}

const std::vector<double> &
stPowerBudgets()
{
    // One core active at a time; our calibrated cores span
    // 4.9-22.3 W, so the "tight" budget is 8 W (the paper's 5 W
    // with its 4.8 W floor).
    static const std::vector<double> v = {8, 12, 16, 0};
    return v;
}

Budget
powerBudget(double watts, bool dynamic_multicore)
{
    Budget b;
    if (watts > 0)
        b.powerW = watts;
    b.dynamicMulticore = dynamic_multicore;
    return b;
}

Budget
areaBudget(double mm2)
{
    Budget b;
    if (mm2 > 0)
        b.areaMm2 = mm2;
    return b;
}

std::string
budgetLabel(double v, const char *unit)
{
    if (v <= 0)
        return "Unlimited";
    return strfmt("%.0f%s", v, unit);
}

const std::vector<Family> &
allFamilies()
{
    static const std::vector<Family> v = {
        Family::Homogeneous, Family::SingleIsaHetero,
        Family::MultiVendor, Family::CompositeXized,
        Family::CompositeFull};
    return v;
}

double
exactScore(const MulticoreDesign &d, Objective obj)
{
    return designScore(d, obj, 0);
}

std::vector<ConstrainedCase>
featureConstraints()
{
    std::vector<ConstrainedCase> v;
    for (int depth : {8, 16, 32, 64}) {
        v.push_back({"Register Depth", strfmt("<=%d", depth),
                     [depth](const FeatureSet &f) {
                         return f.regDepth <= depth;
                     }});
    }
    v.push_back({"Register Width", "32b only",
                 [](const FeatureSet &f) {
                     return f.width == RegWidth::W32;
                 }});
    v.push_back({"Register Width", "64b only",
                 [](const FeatureSet &f) {
                     return f.width == RegWidth::W64;
                 }});
    v.push_back({"Instruction Complexity", "microx86 only",
                 [](const FeatureSet &f) {
                     return f.complexity == Complexity::MicroX86;
                 }});
    v.push_back({"Instruction Complexity", "x86 only",
                 [](const FeatureSet &f) {
                     return f.complexity == Complexity::X86;
                 }});
    v.push_back({"Predication", "partial only",
                 [](const FeatureSet &f) {
                     return !f.fullPredication();
                 }});
    v.push_back({"Predication", "full only",
                 [](const FeatureSet &f) {
                     return f.fullPredication();
                 }});
    return v;
}

SearchResult
constrainedSearch(const ConstrainedCase &c)
{
    Budget b = areaBudget(48);
    return searchDesign(Family::CompositeFull,
                        Objective::MpThroughput, b, 2019, c.filter);
}

namespace
{

/** Summed single-thread time (returned) and EDP (@p edp) of design
 * @p d over the suite. */
double
stTime(const MulticoreDesign &d, Objective obj, double &edp)
{
    double t = 0;
    edp = 0;
    for (int b = 0; b < int(specSuite().size()); b++) {
        StOutcome o = runSingleThread(d, b, obj);
        t += o.time;
        edp += o.edp;
    }
    return t;
}

} // namespace

StSweep
singleThreadSweep(const std::vector<double> &budgets,
                  Budget (*make)(double), const char *unit)
{
    Table tp("single-thread speedup (normalized to homogeneous)");
    Table te("single-thread EDP (normalized; lower is better)");
    std::vector<std::string> hdr = {"design"};
    for (double b : budgets)
        hdr.push_back(budgetLabel(b, unit));
    tp.header(hdr);
    te.header(hdr);

    std::vector<std::vector<double>> times(allFamilies().size());
    std::vector<std::vector<double>> edps(allFamilies().size());
    for (size_t fi = 0; fi < allFamilies().size(); fi++) {
        for (double b : budgets) {
            Budget bud = make(b);
            SearchResult rp = searchDesign(allFamilies()[fi],
                                           Objective::StPerf, bud,
                                           2019);
            SearchResult re = searchDesign(allFamilies()[fi],
                                           Objective::StEdp, bud,
                                           2019);
            double edp_d = 0, dummy = 0;
            times[fi].push_back(
                rp.feasible ? stTime(rp.design, Objective::StPerf,
                                     dummy)
                            : 0);
            if (re.feasible)
                stTime(re.design, Objective::StEdp, edp_d);
            edps[fi].push_back(re.feasible ? edp_d : 0);
        }
    }

    for (size_t fi = 0; fi < allFamilies().size(); fi++) {
        std::vector<std::string> rp = {familyName(allFamilies()[fi])};
        std::vector<std::string> re = rp;
        for (size_t bi = 0; bi < budgets.size(); bi++) {
            rp.push_back(times[fi][bi] > 0 && times[0][bi] > 0
                             ? Table::num(times[0][bi] /
                                              times[fi][bi],
                                          3)
                             : std::string("infeas"));
            re.push_back(edps[fi][bi] > 0 && edps[0][bi] > 0
                             ? Table::num(edps[fi][bi] /
                                              edps[0][bi],
                                          3)
                             : std::string("infeas"));
        }
        tp.row(rp);
        te.row(re);
    }
    tp.print();
    std::printf("\n");
    te.print();
    return {std::move(times), std::move(edps)};
}

void
printNormalizedRow(Table &t, const std::string &label,
                   const std::vector<double> &values, double baseline)
{
    std::vector<std::string> row = {label};
    for (double v : values)
        row.push_back(Table::num(v / baseline, 3));
    t.row(row);
}

} // namespace benchutil
} // namespace cisa
