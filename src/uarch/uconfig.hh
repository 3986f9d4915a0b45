/**
 * @file
 * Microarchitectural configuration space (Table I).
 *
 * Dimensions: execution semantics (in-order vs out-of-order),
 * fetch/issue width, decoder configuration, micro-op optimizations
 * (micro-op cache + fusion), instruction-queue size, ROB size,
 * physical register file configuration, branch predictor, INT and
 * FP/SIMD ALU counts, load/store queue size, and the cache
 * hierarchy. enumerate() applies the paper's style of pruning
 * (no 4-issue cores with one ALU, queue sizes tied to execution
 * semantics), yielding 180 configurations; crossed with the 26
 * feature sets that is the paper's 4680 design points (the paper
 * does not publish its pruning rules; these are this model's).
 */

#ifndef CISA_UARCH_UCONFIG_HH
#define CISA_UARCH_UCONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cisa
{

/** Branch predictor flavours (Table I). */
enum class BpKind : uint8_t {
    Local2Level, ///< per-branch history into a pattern table
    Gshare,      ///< global history xor pc
    Tournament   ///< local + gshare + chooser
};

/** Printable one-letter tag used in the paper's tables. */
const char *bpName(BpKind k);

/** One microarchitecture configuration. */
struct MicroArchConfig
{
    bool outOfOrder = true;
    int width = 2;           ///< fetch/decode/issue/commit width
    BpKind bpred = BpKind::Tournament;

    // Back end.
    int intAlus = 3;
    int intMuls = 1;
    int fpAlus = 1;          ///< FP/SIMD pipes
    int iqSize = 64;
    int robSize = 128;
    int intPrf = 192;
    int fpPrf = 160;
    int lsqSize = 16;

    // Front end.
    bool uopCache = true;
    bool uopFusion = true;
    int simpleDecoders = 3;  ///< 1:1 decoders alongside the 1:4

    // Memory hierarchy.
    int l1iKB = 32;
    int l1iAssoc = 4;
    int l1dKB = 32;
    int l1dAssoc = 4;
    int l2KB = 4096;         ///< shared, 4-banked
    int l2Assoc = 4;

    /** Compact id string, e.g. "ooo2-T-iq64-rob128-...". */
    std::string name() const;

    /** Stable hash for cache keys. */
    uint64_t fingerprint() const;

    /**
     * The pruned configuration space (180 entries, stable order).
     */
    static const std::vector<MicroArchConfig> &enumerate();

    /** Index in enumerate() order; panics if not a member. */
    int id() const;

    /** Config by dense id. */
    static MicroArchConfig byId(int id);
};

} // namespace cisa

#endif // CISA_UARCH_UCONFIG_HH
