/**
 * @file
 * Figure 7 reproduction: single-thread performance and EDP under
 * peak-power budgets with a dynamic multicore (one core powered at a
 * time), normalized to homogeneous x86-64. Paper headlines: ~19.5%
 * speedup and ~27.8% EDP reduction over single-ISA heterogeneous
 * designs; under the tightest budget the composite design even beats
 * the vendor-ISA CMP by ~14.6%.
 */

#include <cstdio>

#include "bench/benchcommon.hh"

using namespace cisa;
using namespace cisa::benchutil;

int
main()
{
    std::printf("== Figure 7: single-thread performance and EDP vs "
                "peak-power budget (one active core) ==\n\n");

    auto [times, edps] = singleThreadSweep(
        stPowerBudgets(),
        [](double w) { return powerBudget(w, true); }, "W");

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
                "speedup %+.1f%% (paper +19.5%%), EDP -%.1f%% "
                "(paper -27.8%%)\n",
                100.0 * sp / std::max(1, n),
                100.0 * ed / std::max(1, n));
    if (times[4][0] > 0 && times[2][0] > 0) {
        std::printf("tightest budget, composite vs vendor "
                    "heterogeneous-ISA: %+.1f%% (paper +14.6%%)\n",
                    100.0 * (times[2][0] / times[4][0] - 1.0));
    }
    return 0;
}
