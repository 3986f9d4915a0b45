/**
 * @file
 * Summary math for report tables: the geometric mean.
 */

#ifndef CISA_COMMON_STATS_HH
#define CISA_COMMON_STATS_HH

#include <vector>

namespace cisa
{

/** Geometric mean; 0 for an empty set. Values must be positive. */
double geomean(const std::vector<double> &xs);

} // namespace cisa

#endif // CISA_COMMON_STATS_HH
