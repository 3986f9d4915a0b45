/**
 * @file
 * Figure 6 + Table IV reproduction: multiprogrammed energy-delay
 * product of the five design families under peak-power and area
 * budgets, normalized to homogeneous x86-64 (lower is better), plus
 * the EDP-optimal composite multicores (Table IV).
 *
 * Paper headlines: ~31% energy savings and ~34.6% EDP reduction for
 * composite-ISA designs over single-ISA heterogeneous designs.
 */

#include <cstdio>

#include "bench/benchcommon.hh"

using namespace cisa;
using namespace cisa::benchutil;

namespace
{

/** Mean EDP (and energy) of a design over the full workload set. */
void
edpOf(const MulticoreDesign &d, double &edp, double &energy)
{
    const auto &loads = allWorkloads();
    edp = 0;
    energy = 0;
    for (const auto &w : loads) {
        MpOutcome o = runMultiprog(d, w, Objective::MpEdp);
        edp += o.edp;
        energy += o.energy;
    }
    edp /= double(loads.size());
    energy /= double(loads.size());
}

void
sweep(const char *title, const std::vector<double> &budgets,
      bool is_power)
{
    Table t(title);
    std::vector<std::string> hdr = {"design"};
    for (double b : budgets)
        hdr.push_back(budgetLabel(b, is_power ? "W" : "mm2"));
    t.header(hdr);

    std::vector<std::pair<std::string, MulticoreDesign>> composites;
    std::vector<std::vector<double>> edps(allFamilies().size());
    std::vector<std::vector<double>> energies(allFamilies().size());
    std::vector<double> base_edp, base_energy;

    for (size_t fi = 0; fi < allFamilies().size(); fi++) {
        Family fam = allFamilies()[fi];
        for (double b : budgets) {
            Budget bud = is_power ? powerBudget(b) : areaBudget(b);
            SearchResult r =
                searchDesign(fam, Objective::MpEdp, bud, 2019);
            double edp = 0, energy = 0;
            if (r.feasible)
                edpOf(r.design, edp, energy);
            edps[fi].push_back(edp);
            energies[fi].push_back(energy);
            if (fam == Family::Homogeneous) {
                base_edp.push_back(edp);
                base_energy.push_back(energy);
            }
            if (fam == Family::CompositeFull && r.feasible) {
                composites.push_back(
                    {budgetLabel(b, is_power ? "W" : "mm2"),
                     r.design});
            }
        }
    }

    for (size_t fi = 0; fi < allFamilies().size(); fi++) {
        std::vector<std::string> row = {
            familyName(allFamilies()[fi])};
        for (size_t bi = 0; bi < budgets.size(); bi++) {
            double v = edps[fi][bi];
            row.push_back(v > 0 ? Table::num(v / base_edp[bi], 3)
                                : std::string("infeas"));
        }
        t.row(row);
    }
    t.print();

    double edp_gain = 0, e_gain = 0;
    int n = 0;
    for (size_t bi = 0; bi < budgets.size(); bi++) {
        if (edps[4][bi] > 0 && edps[1][bi] > 0) {
            edp_gain += 1.0 - edps[4][bi] / edps[1][bi];
            e_gain += 1.0 - energies[4][bi] / energies[1][bi];
            n++;
        }
    }
    std::printf("\ncomposite (full) vs single-ISA heterogeneous: "
                "EDP -%.1f%%, energy -%.1f%% (paper: EDP -34.6%%, "
                "energy -31%%)\n\n",
                100.0 * edp_gain / std::max(1, n),
                100.0 * e_gain / std::max(1, n));

    if (is_power) {
        Table tt("Table IV: composite-ISA multicores optimized for "
                 "multiprogrammed efficiency (EDP)");
        tt.header({"budget", "core", "feature set", "uarch"});
        for (const auto &[label, d] : composites) {
            for (int c = 0; c < 4; c++) {
                tt.row({c == 0 ? label : "",
                        Table::num(int64_t(c)),
                        d.cores[size_t(c)].isa().name(),
                        d.cores[size_t(c)].uarch().name()});
            }
        }
        tt.print();
    }
}

} // namespace

int
main()
{
    std::printf("== Figure 6: multiprogrammed EDP (normalized to "
                "homogeneous x86-64; lower is better) ==\n\n");
    sweep("EDP vs peak-power budget", mpPowerBudgets(), true);
    std::printf("\n");
    sweep("EDP vs area budget", areaBudgets(), false);
    return 0;
}
