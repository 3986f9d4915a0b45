/**
 * @file
 * Classic set-associative cache model with LRU replacement and a
 * two-level hierarchy (private L1I/L1D, shared 4-banked L2, DRAM).
 * Multiprogrammed runs shrink each core's effective share of the
 * shared L2 and inflate memory latency, modelling destructive
 * interference without simulating all four cores in lock-step.
 */

#ifndef CISA_UARCH_CACHE_HH
#define CISA_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "uarch/uconfig.hh"

namespace cisa
{

/** Per-cache statistics. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;
};

/** One set-associative cache level. */
class Cache
{
  public:
    /**
     * @param size_kb capacity
     * @param assoc ways
     * @param share fraction of the sets this client may use (shared
     *        L2 under multiprogramming); rounded to a power of two
     */
    Cache(int size_kb, int assoc, double share = 1.0,
          int line_bytes = 64);

    /**
     * Look up @p addr; allocate on miss.
     * @return true on hit
     */
    bool access(uint64_t addr, bool write);

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        uint64_t tag = ~uint64_t(0);
        uint64_t lru = 0;
        bool dirty = false;
        bool valid = false;
    };

    int lineBytes_;
    size_t sets_;
    int assoc_;
    uint64_t tick_ = 0;
    std::vector<Line> lines_; ///< sets_ x assoc_
    CacheStats stats_;
};

/** A core's view of the memory hierarchy. */
class MemSystem
{
  public:
    /**
     * @param cfg cache geometry
     * @param l2_share this core's share of the shared L2 (1.0 when
     *        running alone, 0.25 in a fully loaded 4-core CMP)
     * @param mem_contention memory-latency inflation factor
     */
    MemSystem(const MicroArchConfig &cfg, double l2_share = 1.0,
              double mem_contention = 1.0);

    /** Instruction fetch of one line; returns latency in cycles. */
    int fetchAccess(uint64_t addr);

    /** Data access; returns latency in cycles. */
    int dataAccess(uint64_t addr, bool write);

    const CacheStats &l1i() const { return l1i_.stats(); }
    const CacheStats &l1d() const { return l1d_.stats(); }
    const CacheStats &l2() const { return l2_.stats(); }
    uint64_t memAccesses() const { return memAccesses_; }

    // Latency parameters (cycles).
    static constexpr int kL1HitLat = 2;
    static constexpr int kL2HitLat = 12;
    static constexpr int kMemLat = 120;

  private:
    int missPath(uint64_t addr, bool write);

    Cache l1i_;
    Cache l1d_;
    Cache l2_;
    int memLat_;
    uint64_t memAccesses_ = 0;
};

} // namespace cisa

#endif // CISA_UARCH_CACHE_HH
