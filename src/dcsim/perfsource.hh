/**
 * @file
 * Where the datacenter simulator's placement policies get their
 * numbers: per-(design point, phase) PhasePerf served from cached
 * slab tables. Two interchangeable backends answer a slab request —
 * the in-process Campaign (computes or loads from the durable slab
 * store) and the cisa-serve fleet over the wire (the scheduler as a
 * heavy client of the service). Both return byte-identical slabs, so
 * every downstream placement decision — and therefore the whole
 * simulation — is identical between them; the dcsim smoke test
 * asserts exactly that.
 *
 * Each slab is fetched at most once and cached for the lifetime of
 * the source; counters record cell lookups, slab fetches, and remote
 * wall time so the scale bench can report the slab cache-hit rate
 * and the fleet traffic the scheduler generated.
 */

#ifndef CISA_DCSIM_PERFSOURCE_HH
#define CISA_DCSIM_PERFSOURCE_HH

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "explore/campaign.hh"

namespace cisa
{

class Client;

class PerfSource
{
  public:
    /** Empty @p fleet_address = in-process Campaign; otherwise the
     * cisa-serve / cisa_router address slabs are fetched from. */
    explicit PerfSource(std::string fleet_address = {});
    ~PerfSource();

    PerfSource(const PerfSource &) = delete;
    PerfSource &operator=(const PerfSource &) = delete;

    /**
     * Full PhasePerf block of @p slab (uarch-major, the
     * computeSlabPerf layout), fetched on first touch and cached.
     * Thread-safe; concurrent requests for one slab fetch it once.
     * panic()s if the fleet cannot deliver the slab after the
     * client's retry budget.
     */
    const std::vector<PhasePerf> &slab(int slab);

    /** True when slabs come over the wire. */
    bool fleet() const { return !addr_.empty(); }

    /** Record @p n policy-level cell lookups answered from bound
     * tables (relaxed; called once per scoring batch). */
    void
    countLookups(uint64_t n)
    {
        cellLookups_.fetch_add(n, std::memory_order_relaxed);
    }

    struct Stats
    {
        uint64_t cellLookups = 0; ///< (class, phase) queries answered
        uint64_t slabFetches = 0; ///< slabs pulled into the cache
        uint64_t remoteCalls = 0; ///< fleet requests issued
        uint64_t fetchNs = 0;     ///< wall time inside fetches
    };

    Stats stats() const;

  private:
    std::vector<PhasePerf> fetch(int slab);

    std::string addr_;
    std::unique_ptr<Client> client_; ///< fleet mode only; under mu_
    std::mutex mu_;
    std::array<std::atomic<bool>, Campaign::kSlabs> ready_{};
    std::array<std::vector<PhasePerf>, Campaign::kSlabs> cache_;

    std::atomic<uint64_t> cellLookups_{0};
    std::atomic<uint64_t> slabFetches_{0};
    std::atomic<uint64_t> remoteCalls_{0};
    std::atomic<uint64_t> fetchNs_{0};
};

} // namespace cisa

#endif // CISA_DCSIM_PERFSOURCE_HH
