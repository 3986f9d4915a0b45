#include "dcsim/cluster.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"
#include "power/calib.hh"
#include "workloads/profiles.hh"

namespace cisa
{

namespace
{

/** First enumerate() entry satisfying @p pred; panics if none. */
template <typename Pred>
int
findUarch(const char *what, Pred pred)
{
    const auto &all = MicroArchConfig::enumerate();
    for (size_t u = 0; u < all.size(); u++) {
        if (pred(all[u]))
            return int(u);
    }
    panic("dcsim: no %s microarchitecture in the design space",
          what);
}

/** Mid-range OoO design — the reference core's microarchitecture. */
int
midUarch()
{
    static const int id = findUarch("mid-range OoO",
        [](const MicroArchConfig &c) {
            return c.outOfOrder && c.width == 2 &&
                   c.bpred == BpKind::Tournament && c.iqSize == 64 &&
                   c.l1iKB == 32 && c.uopCache && c.lsqSize == 16;
        });
    return id;
}

/** Beefiest OoO design: lexicographic max over the resources that
 * matter, taken over the stable enumerate() order. */
int
bigUarch()
{
    static const int id = [] {
        const auto &all = MicroArchConfig::enumerate();
        int best = -1;
        auto key = [](const MicroArchConfig &c) {
            return std::tuple(c.outOfOrder, c.width, c.iqSize,
                              c.robSize, c.l1dKB, c.uopCache);
        };
        for (size_t u = 0; u < all.size(); u++) {
            if (best < 0 || key(all[u]) > key(all[size_t(best)]))
                best = int(u);
        }
        return best;
    }();
    return id;
}

/** Littlest in-order design (falls back to the overall minimum if
 * the pruned space had no in-order entry). */
int
littleUarch()
{
    static const int id = [] {
        const auto &all = MicroArchConfig::enumerate();
        int best = -1;
        auto key = [](const MicroArchConfig &c) {
            return std::tuple(c.outOfOrder, c.width, c.iqSize,
                              c.robSize, c.l1dKB, c.uopCache);
        };
        for (size_t u = 0; u < all.size(); u++) {
            if (best < 0 || key(all[u]) < key(all[size_t(best)]))
                best = int(u);
        }
        return best;
    }();
    return id;
}

DesignPoint
x86Preset()
{
    return DesignPoint::composite(FeatureSet::x86_64().id(),
                                  midUarch());
}

/** Preset name -> design point; false if unknown. */
bool
presetPoint(const std::string &name, DesignPoint *out)
{
    if (name == "big") {
        *out = DesignPoint::composite(FeatureSet::superset().id(),
                                      bigUarch());
    } else if (name == "x86") {
        *out = x86Preset();
    } else if (name == "alpha") {
        *out = DesignPoint::composite(FeatureSet::alphaLike().id(),
                                      midUarch());
    } else if (name == "thumb") {
        *out = DesignPoint::composite(FeatureSet::thumbLike().id(),
                                      littleUarch());
    } else if (name.size() > 1 && name[0] == 'c') {
        // Raw composite coordinates: c<isa>u<uarch>.
        size_t upos = name.find('u', 1);
        if (upos == std::string::npos)
            return false;
        char *end = nullptr;
        long isa = std::strtol(name.c_str() + 1, &end, 10);
        if (end != name.c_str() + upos)
            return false;
        long ua = std::strtol(name.c_str() + upos + 1, &end, 10);
        if (*end != '\0')
            return false;
        if (isa < 0 || isa >= FeatureSet::count() || ua < 0 ||
            ua >= DesignPoint::kUarchCount)
            return false;
        *out = DesignPoint::composite(int(isa), int(ua));
    } else {
        return false;
    }
    return true;
}

} // namespace

Cluster
Cluster::fromMix(const std::string &mix_spec, uint64_t cores)
{
    Cluster cl;
    uint64_t total_weight = 0;

    size_t pos = 0;
    while (pos < mix_spec.size()) {
        size_t comma = mix_spec.find(',', pos);
        if (comma == std::string::npos)
            comma = mix_spec.size();
        std::string item = mix_spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        size_t eq = item.find('=');
        std::string name = item.substr(0, eq);
        uint64_t weight = 1;
        if (eq != std::string::npos) {
            char *end = nullptr;
            long w = std::strtol(item.c_str() + eq + 1, &end, 10);
            panic_if(*end != '\0' || w <= 0,
                     "dcsim: bad mix weight in '%s'", item.c_str());
            weight = uint64_t(w);
        }
        TileClass tc;
        tc.label = name;
        panic_if(!presetPoint(name, &tc.point),
                 "dcsim: unknown tile class '%s' (presets: big, "
                 "x86, alpha, thumb, or raw c<isa>u<uarch>)",
                 name.c_str());
        cl.classes_.push_back(std::move(tc));
        total_weight += weight;
        cl.classes_.back().count = weight; // weight, resized below
    }
    panic_if(cl.classes_.empty(), "dcsim: empty tile mix '%s'",
             mix_spec.c_str());
    panic_if(cores < cl.classes_.size(),
             "dcsim: %llu cores cannot host %zu tile classes",
             (unsigned long long)cores, cl.classes_.size());

    // Largest-remainder apportionment of cores over the weights,
    // with every class guaranteed one tile. Deterministic: remainder
    // ties resolve by class order.
    size_t n = cl.classes_.size();
    std::vector<uint64_t> share(n, 1);
    uint64_t assigned = n;
    std::vector<double> frac(n);
    for (size_t i = 0; i < n; i++) {
        double exact = double(cores) * double(cl.classes_[i].count) /
                       double(total_weight);
        uint64_t whole = uint64_t(exact);
        if (whole > share[i]) {
            assigned += whole - share[i];
            share[i] = whole;
        }
        frac[i] = exact - double(whole);
    }
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return frac[a] > frac[b];
                     });
    for (size_t k = 0; assigned < cores; k = (k + 1) % n) {
        share[order[k]]++;
        assigned++;
    }
    // Over-assignment can only come from the 1-tile floors; shave
    // whole shares largest-first until the count fits.
    for (size_t k = 0; assigned > cores; k = (k + 1) % n) {
        size_t i = order[n - 1 - k % n];
        if (share[i] > 1) {
            share[i]--;
            assigned--;
        }
    }

    uint64_t at = 0;
    for (size_t i = 0; i < n; i++) {
        cl.classes_[i].count = share[i];
        cl.classes_[i].firstTile = at;
        cl.classes_[i].areaMm2 = cl.classes_[i].point.areaMm2();
        cl.classes_[i].idlePowerW = cl.classes_[i].point.peakPowerW() *
                                    power_calib::kIdlePowerPct / 100.0;
        at += share[i];
    }
    cl.tiles_ = at;
    panic_if(cl.tiles_ != cores, "dcsim: apportioned %llu != %llu",
             (unsigned long long)cl.tiles_,
             (unsigned long long)cores);
    return cl;
}

Cluster
Cluster::homogeneousBaseline() const
{
    DesignPoint base = x86Preset();
    double tile_area = base.areaMm2();
    uint64_t cores = std::max<uint64_t>(
        1, uint64_t(totalAreaMm2() / tile_area));
    return fromMix("x86=1", cores);
}

void
Cluster::bindPerf(PerfSource &src)
{
    if (bound_)
        return;
    int phases = phaseCount();
    for (TileClass &tc : classes_) {
        const std::vector<PhasePerf> &block =
            src.slab(Campaign::slabOf(tc.point));
        tc.timePerRun.resize(size_t(phases));
        tc.energyPerRun.resize(size_t(phases));
        double t_sum = 0, te_sum = 0;
        for (int p = 0; p < phases; p++) {
            const PhasePerf &pp =
                block[size_t(tc.point.uarchId) * size_t(phases) +
                      size_t(p)];
            tc.timePerRun[size_t(p)] = pp.timePerRun;
            tc.energyPerRun[size_t(p)] = pp.energyPerRun;
            t_sum += double(pp.timePerRun);
            te_sum +=
                double(pp.timePerRun) * double(pp.energyPerRun);
        }
        tc.meanTime = t_sum / double(phases);
        tc.meanTimeEnergy = te_sum / double(phases);
        src.countLookups(uint64_t(phases));
    }
    bound_ = true;
}

double
Cluster::totalAreaMm2() const
{
    double s = 0;
    for (const TileClass &tc : classes_)
        s += tc.areaMm2 * double(tc.count);
    return s;
}

std::string
Cluster::describe() const
{
    std::string s;
    for (const TileClass &tc : classes_) {
        if (!s.empty())
            s += ",";
        s += tc.label + "=" + std::to_string(tc.count);
    }
    return s;
}

} // namespace cisa
