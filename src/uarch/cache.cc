#include "uarch/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cisa
{

Cache::Cache(int size_kb, int assoc, double share, int line_bytes)
    : lineBytes_(line_bytes), assoc_(assoc)
{
    uint64_t bytes = uint64_t(size_kb) * 1024;
    size_t sets = size_t(bytes) / size_t(line_bytes * assoc);
    // Shrink to this client's share, rounded down to a power of two
    // so set indexing stays a mask.
    size_t target = std::max<size_t>(1, size_t(double(sets) * share));
    size_t p = 1;
    while (p * 2 <= target)
        p *= 2;
    sets_ = p;
    lines_.assign(sets_ * size_t(assoc_), {});
}

bool
Cache::access(uint64_t addr, bool write)
{
    stats_.accesses++;
    tick_++;
    uint64_t line = addr / uint64_t(lineBytes_);
    size_t set = size_t(line & (sets_ - 1));
    uint64_t tag = line >> 1; // keep full tag precision minus set bit
    Line *base = &lines_[set * size_t(assoc_)];

    for (int w = 0; w < assoc_; w++) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lru = tick_;
            l.dirty = l.dirty || write;
            return true;
        }
    }
    stats_.misses++;
    // Prefer an invalid way, otherwise evict the least recently used.
    Line *victim = nullptr;
    for (int w = 0; w < assoc_ && !victim; w++) {
        if (!base[w].valid)
            victim = &base[w];
    }
    if (!victim) {
        victim = base;
        for (int w = 1; w < assoc_; w++) {
            if (base[w].lru < victim->lru)
                victim = &base[w];
        }
    }
    if (victim->valid && victim->dirty)
        stats_.writebacks++;
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    victim->dirty = write;
    return false;
}

MemSystem::MemSystem(const MicroArchConfig &cfg, double l2_share,
                     double mem_contention)
    : l1i_(cfg.l1iKB, cfg.l1iAssoc),
      l1d_(cfg.l1dKB, cfg.l1dAssoc),
      l2_(cfg.l2KB, cfg.l2Assoc, l2_share),
      memLat_(int(double(kMemLat) * mem_contention))
{}

int
MemSystem::missPath(uint64_t addr, bool write)
{
    if (l2_.access(addr, write))
        return kL2HitLat;
    memAccesses_++;
    return kL2HitLat + memLat_;
}

int
MemSystem::fetchAccess(uint64_t addr)
{
    if (l1i_.access(addr, false))
        return 1;
    return 1 + missPath(addr, false);
}

int
MemSystem::dataAccess(uint64_t addr, bool write)
{
    if (l1d_.access(addr, write))
        return kL1HitLat;
    int lat = kL1HitLat + missPath(addr, write);
    // Miss-triggered next-line prefetch: streaming workloads (lbm)
    // hide most of their spatial misses behind it.
    uint64_t next = addr + 64;
    if (!l1d_.access(next, false))
        missPath(next, false);
    return lat;
}

} // namespace cisa
