/**
 * @file
 * Figure 8 reproduction: single-thread performance and EDP under
 * area budgets, normalized to homogeneous x86-64. Paper headlines:
 * ~20% average speedup and ~21% EDP reduction over single-ISA
 * heterogeneity; an extra ~13.2% EDP saved vs the vendor-ISA design
 * under tight constraints.
 */

#include <cstdio>

#include "bench/benchcommon.hh"

using namespace cisa;
using namespace cisa::benchutil;

int
main()
{
    std::printf("== Figure 8: single-thread performance and EDP vs "
                "area budget ==\n\n");

    auto [times, edps] =
        singleThreadSweep(areaBudgets(), areaBudget, "mm2");

    double sp = 0, ed = 0;
    int n = 0;
    for (size_t bi = 0; bi < times[0].size(); bi++) {
        if (times[4][bi] > 0 && times[1][bi] > 0) {
            sp += times[1][bi] / times[4][bi] - 1.0;
            ed += 1.0 - edps[4][bi] / edps[1][bi];
            n++;
        }
    }
    std::printf("\ncomposite (full) vs single-ISA heterogeneous: "
                "speedup %+.1f%% (paper +20%%), EDP -%.1f%% "
                "(paper -21%%)\n",
                100.0 * sp / std::max(1, n),
                100.0 * ed / std::max(1, n));
    if (edps[4][0] > 0 && edps[2][0] > 0) {
        std::printf("tightest budget, composite EDP vs vendor "
                    "heterogeneous-ISA: %+.1f%% (paper -13.2%%)\n",
                    100.0 * (edps[4][0] / edps[2][0] - 1.0));
    }
    return 0;
}
