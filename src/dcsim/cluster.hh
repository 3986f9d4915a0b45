/**
 * @file
 * The cluster model: a grid of thousands-to-millions of
 * heterogeneous core tiles, each an instance of one of a few tile
 * classes (DSE design points). A mix spec like
 * "big=1,x86=1,alpha=1,thumb=1" names preset design points (or raw
 * "c<isa>u<uarch>" composite coordinates) with integer weights;
 * tiles are distributed over the classes by largest remainder, in a
 * blocked layout (class 0 owns tile ids [0, n0), class 1 the next
 * block, ...), so tile -> class is two comparisons and the whole
 * 100k-core grid costs bytes per tile, not structs.
 *
 * bindPerf() pulls each class's slab through a PerfSource and keeps
 * the class's own microarchitecture row as dense per-global-phase
 * time/energy arrays — the only per-placement data the policies
 * touch. Solo (uncontended) numbers are used: datacenter tiles each
 * own their cache slice, unlike the 4-way shared-L2 contention the
 * Mp columns model. Power accounting: busy energy comes from the
 * slab's energyPerRun (the src/power model), idle tiles draw
 * power_calib::kIdlePowerPct (10) percent of their structural peak
 * power.
 */

#ifndef CISA_DCSIM_CLUSTER_HH
#define CISA_DCSIM_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dcsim/perfsource.hh"
#include "explore/designpoint.hh"

namespace cisa
{

/** One tile class: a design point plus its share of the grid. */
struct TileClass
{
    std::string label;  ///< preset name or raw spec
    DesignPoint point;
    uint64_t count = 0; ///< tiles of this class
    uint64_t firstTile = 0;

    // Bound by Cluster::bindPerf(), indexed by global phase.
    std::vector<float> timePerRun;   ///< seconds, solo
    std::vector<float> energyPerRun; ///< joules
    double meanTime = 0;       ///< mean over phases (homog ranking)
    double meanTimeEnergy = 0; ///< mean t*e    (homog EDP ranking)
    double idlePowerW = 0;     ///< unoccupied draw
    double areaMm2 = 0;        ///< one tile
};

class Cluster
{
  public:
    /** Build @p cores tiles from @p mix_spec (see file comment).
     * Every weighted class gets at least one tile; panics on a
     * malformed spec or cores < classes. */
    static Cluster fromMix(const std::string &mix_spec,
                           uint64_t cores);

    /**
     * The homogeneous comparison cluster for this one: every tile
     * the plain-x86-64 mid-range OoO preset ("x86"), sized to the
     * same total silicon area (at least 1 tile) — the paper's
     * iso-budget homogeneous baseline, scaled out.
     */
    Cluster homogeneousBaseline() const;

    /** Fetch each class's slab via @p src and bind the dense
     * per-phase tables. Idempotent. */
    void bindPerf(PerfSource &src);

    const std::vector<TileClass> &classes() const { return classes_; }
    uint64_t tiles() const { return tiles_; }
    double totalAreaMm2() const;

    /** Class owning tile @p tile (blocked layout). */
    uint32_t
    classOf(uint64_t tile) const
    {
        uint32_t c = 0;
        while (c + 1 < classes_.size() &&
               tile >= classes_[c + 1].firstTile)
            c++;
        return c;
    }

    /** "label=count,label=count,..." summary. */
    std::string describe() const;

  private:
    std::vector<TileClass> classes_;
    uint64_t tiles_ = 0;
    bool bound_ = false;
};

} // namespace cisa

#endif // CISA_DCSIM_CLUSTER_HH
