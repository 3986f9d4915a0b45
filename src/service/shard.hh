/**
 * @file
 * Consistent-hash ring placing request routing keys onto fleet
 * workers (the sharding layer under tools/cisa_router).
 *
 * Each worker address contributes kVnodes points on a 64-bit ring
 * (splitmix64 of the address hash combined with the vnode index);
 * a key is owned by the first point clockwise from it. Properties
 * the fleet depends on, and tests/test_service.cc proves:
 *
 *  - Deterministic: placement depends only on the worker address
 *    *set* — the input order doesn't matter (addresses are sorted
 *    and deduplicated), so every router replica and every test
 *    computes identical ownership.
 *  - Minimal remap: adding or removing one worker moves only the
 *    keys adjacent to its points — in expectation 1/N of them —
 *    instead of reshuffling everything the way `key % N` would.
 *    That is what makes worker churn cheap: a worker's death
 *    reassigns only its own slabs, and the adopting workers pull
 *    those slabs from the shared slab store instead of recomputing.
 *  - Replication: ownersOf(key, R) walks clockwise collecting the
 *    first R *distinct* workers, giving each key a deterministic
 *    replica set for hot-slab load spreading and failover.
 */

#ifndef CISA_SERVICE_SHARD_HH
#define CISA_SERVICE_SHARD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cisa
{

class ShardRing
{
  public:
    /** Points per worker. 64 keeps the expected worst-case load
     * imbalance of an 8-worker fleet within a few percent while the
     * whole ring still fits in a few cache lines per worker. */
    static constexpr int kVnodes = 64;

    ShardRing() = default;
    explicit ShardRing(const std::vector<std::string> &workers);

    /** Sorted, deduplicated worker addresses; ownersOf indices
     * point into this vector. */
    const std::vector<std::string> &workers() const
    {
        return workers_;
    }

    /** Index of @p key's primary owner. Ring must be non-empty. */
    size_t ownerOf(uint64_t key) const;

    /**
     * The replica set of @p key: its primary owner followed by the
     * next distinct workers clockwise, min(replicas, workers().size())
     * entries, deterministic for a given worker set.
     */
    std::vector<size_t> ownersOf(uint64_t key, int replicas) const;

  private:
    struct Point
    {
        uint64_t at;
        uint32_t worker;
    };

    std::vector<std::string> workers_;
    std::vector<Point> ring_; ///< sorted by `at`
};

} // namespace cisa

#endif // CISA_SERVICE_SHARD_HH
