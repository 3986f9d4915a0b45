/**
 * @file
 * Shared helpers for the figure/table reproduction benches: budget
 * lists, the five design families of Figures 5-8, normalized-bar
 * printing, the single-thread sweep of Figures 7-8, and the ten
 * constrained searches behind Figures 9-11.
 */

#ifndef CISA_BENCH_BENCHCOMMON_HH
#define CISA_BENCH_BENCHCOMMON_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "core/cisa.hh"

namespace cisa
{
namespace benchutil
{

/** Multiprogrammed peak-power budgets (W); 0 = unlimited. */
const std::vector<double> &mpPowerBudgets();

/** Area budgets (mm^2); 0 = unlimited. */
const std::vector<double> &areaBudgets();

/** Single-thread (dynamic multicore) power budgets; 0 = unlimited. */
const std::vector<double> &stPowerBudgets();

/** Budget spec helper: 0 means unlimited. */
Budget powerBudget(double watts, bool dynamic_multicore = false);
Budget areaBudget(double mm2);

/** Label "20W" / "48mm2" / "Unlimited". */
std::string budgetLabel(double v, const char *unit);

/** The five families of Figures 5-8, in paper order. */
const std::vector<Family> &allFamilies();

/** Exact (full-workload) score of a design for an objective. */
double exactScore(const MulticoreDesign &d, Objective obj);

/** One constrained search of Figure 9 (and 10/11). */
struct ConstrainedCase
{
    std::string group;  ///< "Register Depth", "Predication", ...
    std::string label;  ///< "<=16", "microx86", ...
    IsaFilter filter;
};

/** The ten feature-constraint cases of Figure 9. */
std::vector<ConstrainedCase> featureConstraints();

/** The Figure 9/10/11 search for @p c: CompositeFull for
 * multiprogrammed throughput under a 48 mm^2 budget, seed 2019. Each
 * bench runs its own searches; the same case always yields the same
 * design. */
SearchResult constrainedSearch(const ConstrainedCase &c);

/** Figures 7 and 8, per family and budget: the summed single-thread
 * time of the StPerf design and the summed EDP of the StEdp design,
 * 0 where the search is infeasible. */
struct StSweep
{
    std::vector<std::vector<double>> times; ///< [family][budget]
    std::vector<std::vector<double>> edps;  ///< [family][budget]
};

/** Search every family under every budget of @p budgets, each made
 * by @p make, and print the speedup and EDP tables normalized to the
 * homogeneous design, with budget columns labelled in @p unit. */
StSweep singleThreadSweep(const std::vector<double> &budgets,
                          Budget (*make)(double), const char *unit);

} // namespace benchutil
} // namespace cisa

#endif // CISA_BENCH_BENCHCOMMON_HH
