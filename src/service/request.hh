/**
 * @file
 * The typed request/response model of the cisa-serve protocol.
 *
 * Every operation a client can ask of the daemon — evaluate one
 * design point, compute/fetch a slab, run a multicore search, render
 * a slab table, read server stats — is a Request with a canonical
 * binary encoding. The encoding doubles as the identity of the
 * request: fingerprint() hashes the canonical bytes (FNV-1a,
 * src/common/hash.hh), the executor coalesces concurrent requests
 * and the server caches completed responses by that 64-bit key, so
 * two requests are deduplicated exactly when they would compute the
 * same answer.
 *
 * Responses carry a Status plus a type-specific body; the typed
 * encode/decode helpers below are shared by the server, the client
 * library, and the codec tests so both directions always agree.
 */

#ifndef CISA_SERVICE_REQUEST_HH
#define CISA_SERVICE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "explore/search.hh"

namespace cisa
{

/** Request kinds (the service endpoints). */
enum class ReqType : uint8_t
{
    Ping = 0, ///< liveness probe through the queue
    Eval,     ///< PhasePerf of one (design point, phase)
    Slab,     ///< full PhasePerf block of one slab
    Search,   ///< budgeted 4-core multicore search
    Table,    ///< rendered ASCII summary table of one slab
    Stats,    ///< server metrics (served inline, never queued)
    kCount
};

/** Printable endpoint name. */
const char *reqTypeName(ReqType t);

/** Eval request body. */
struct EvalReq
{
    uint8_t vendor = uint8_t(VendorIsa::Composite);
    int32_t isaId = 0;
    int32_t uarchId = 0;
    int32_t phase = 0;
};

/** Slab / Table request body. */
struct SlabReq
{
    int32_t slab = 0;
};

/** Search request body. */
struct SearchReq
{
    uint8_t family = 0;    ///< cisa::Family
    uint8_t objective = 0; ///< cisa::Objective
    uint8_t dynamicMulticore = 0;
    double powerW = 1e18;
    double areaMm2 = 1e18;
    uint64_t seed = 1;
};

/**
 * One service request. Exactly the member selected by `type` is
 * meaningful; encode() writes only that member, so the canonical
 * bytes (and therefore the fingerprint) ignore the inactive ones.
 */
struct Request
{
    ReqType type = ReqType::Ping;
    EvalReq eval;
    SlabReq slab; ///< also the Table body
    SearchReq search;

    /** Canonical binary encoding (type byte + active body). */
    void encode(ByteWriter &w) const;

    /**
     * Decode and validate. Returns false (with a diagnostic in
     * @p err) on unknown types, out-of-range ids, or trailing junk
     * — a malformed request can never panic the server.
     */
    static bool decode(ByteReader &r, Request *out, std::string *err);

    /** Canonical 64-bit request key (FNV-1a of the encoding). */
    uint64_t fingerprint() const;

    /**
     * Fleet placement key (consistent-hash input, src/service/
     * shard.hh). Requests touching the same slab share a key —
     * Slab/Table of slab s, and Eval of any design point in s — so
     * one worker's warm campaign serves all of them; the slab key is
     * derived from the sim-budget key, so fleets with different
     * budgets shard independently. Keyless requests (Ping, Search,
     * Stats) spread by fingerprint.
     */
    uint64_t routingKey() const;

    /** Scheduling class: 0 = cheap (Ping/Eval/Table), 1 = slab
     * compute, 2 = full search. Lower runs first. */
    int priorityClass() const;

    /** Whether a completed Ok response may be served from cache. */
    bool cacheable() const;

    /** The DesignPoint an Eval request names. */
    DesignPoint designPoint() const;

    /** Convenience constructors. */
    static Request ping();
    static Request evalPoint(const DesignPoint &dp, int phase);
    static Request slabPerf(int slab);
    static Request searchDesign(Family f, Objective o,
                                const Budget &b, uint64_t seed = 1);
    static Request tableOf(int slab);
    static Request stats();
};

/** Response status codes. */
enum class Status : uint8_t
{
    Ok = 0,
    Busy,       ///< queue at bound or server draining
    Deadline,   ///< the request's deadline passed
    CancelledByPeer, ///< computation cancelled (no waiters left)
    BadRequest, ///< malformed or out-of-range request
    Error       ///< handler failed
};

/** Printable status name. */
const char *statusName(Status s);

/** One service response. */
struct Response
{
    Status status = Status::Ok;
    /**
     * Degraded-mode marker: the answer was served from the daemon's
     * response cache while its executor drained. The body is still
     * exact — responses are deterministic — so "stale" flags the
     * serving mode, not the content. Rides in bit 7 of the wire
     * status byte, leaving the body bytes identical to a fresh
     * answer.
     */
    bool stale = false;
    std::string message;       ///< diagnostic for non-Ok statuses
    std::vector<uint8_t> body; ///< type-specific payload (Ok only)

    void encode(ByteWriter &w) const;
    static bool decode(ByteReader &r, Response *out);

    static Response fail(Status s, std::string msg = {});
};

/**
 * Request frame envelope: the request prefixed with its per-request
 * deadline in milliseconds (0 = none). The deadline is transport
 * metadata — it is NOT part of the canonical bytes fingerprint()
 * hashes, so requests differing only in deadline still coalesce.
 */
std::vector<uint8_t> encodeRequestEnvelope(const Request &req,
                                           uint32_t deadline_ms);
bool decodeRequestEnvelope(const std::vector<uint8_t> &payload,
                           Request *req, uint32_t *deadline_ms,
                           std::string *err);
/** Pointer overload for decoding in place from a wire image (the
 * listener decodes each request without copying its payload). */
bool decodeRequestEnvelope(const uint8_t *data, size_t n,
                           Request *req, uint32_t *deadline_ms,
                           std::string *err);

/** Typed Ok-body codecs (shared by server, client, and tests). */
void encodePhasePerf(ByteWriter &w, const PhasePerf &p);
bool decodePhasePerf(ByteReader &r, PhasePerf *out);
void encodeSlabPerf(ByteWriter &w, const std::vector<PhasePerf> &v);
bool decodeSlabPerf(ByteReader &r, std::vector<PhasePerf> *out);
void encodeSearchResult(ByteWriter &w, const SearchResult &res);
bool decodeSearchResult(ByteReader &r, SearchResult *out);

} // namespace cisa

#endif // CISA_SERVICE_REQUEST_HH
