#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace cisa
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs) {
        panic_if(x <= 0.0, "geomean of non-positive value %f", x);
        s += std::log(x);
    }
    return std::exp(s / double(xs.size()));
}

} // namespace cisa
