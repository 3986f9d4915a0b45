/**
 * @file
 * Length-prefixed binary framing for the cisa-serve stream
 * transport (UNIX-domain or TCP — the codec never cares which; see
 * src/service/address.hh for the address abstraction).
 *
 * Wire layout of one frame (little-endian, fixed 20-byte header):
 *
 *     u32 magic      kFrameMagic
 *     u16 kind       FrameKind (request / response)
 *     u16 flags      reserved, must be 0
 *     u32 length     payload byte count, <= kMaxFramePayload
 *     u64 checksum   frameChecksum() of the payload bytes
 *     u8  payload[length]
 *
 * Decoding mirrors the corruption handling of the slab disk cache:
 * anything inconsistent — bad magic, unknown kind, oversized length,
 * checksum mismatch — is rejected with a diagnostic, never trusted.
 * A truncated buffer reports NeedMore (not an error) so a stream
 * reader can wait for the rest; the fd helpers below turn that into
 * a blocking read with clean Eof/Bad outcomes. All fd reads and
 * writes loop over short transfers, so TCP segmentation (a frame
 * arriving in arbitrary byte slices) never surfaces above this
 * layer.
 *
 * Stream readers keep each frame as its whole wire image (header +
 * payload) in a caller-owned buffer: a reused buffer makes a stream
 * of frames allocation-free, and a relay can forward the image
 * verbatim — no re-encode, no second checksum pass — while the
 * endpoints still verify.
 */

#ifndef CISA_SERVICE_FRAME_HH
#define CISA_SERVICE_FRAME_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cisa
{

constexpr uint32_t kFrameMagic = 0xC15AF4A3;

/** Hard bound on one frame's payload (a full slab is ~140 KiB; this
 * leaves room for far larger responses without permitting a
 * length-field bit flip to allocate gigabytes). */
constexpr uint32_t kMaxFramePayload = 64u << 20;

constexpr size_t kFrameHeaderBytes = 4 + 2 + 2 + 4 + 8;

enum class FrameKind : uint16_t
{
    Request = 1,
    Response = 2,
};

/** One decoded frame. */
struct Frame
{
    FrameKind kind = FrameKind::Request;
    std::vector<uint8_t> payload;
};

/** Serialize one frame (header + checksum + payload). */
std::vector<uint8_t> encodeFrame(FrameKind kind,
                                 const std::vector<uint8_t> &payload);

enum class FrameDecode
{
    Ok,       ///< one frame decoded, *pos advanced past it
    NeedMore, ///< buffer ends mid-frame; read more and retry
    Bad       ///< corrupt (magic/kind/length/checksum); see err
};

/**
 * Try to decode one frame from data[*pos ..n). On Ok, fills @p out
 * and advances *pos. Never reads past @p n, never throws.
 */
FrameDecode decodeFrame(const uint8_t *data, size_t n, size_t *pos,
                        Frame *out, std::string *err);

/** Blocking, EINTR-safe full write of one frame to @p fd. */
bool writeFrame(int fd, FrameKind kind,
                const std::vector<uint8_t> &payload);

enum class FrameRead
{
    Ok,
    Eof, ///< clean close before any header byte, or a socket error
         ///< (the stream is dead either way: close, don't answer)
    Bad  ///< corrupt frame or mid-frame disconnect; see err
};

/**
 * Blocking, EINTR-safe read of exactly one frame from @p fd into
 * @p wire (header + payload; the payload starts at
 * kFrameHeaderBytes). With @p verify false the payload checksum pass
 * is skipped — the header is still validated and the payload length
 * exactly consumed, so a relay stays framed; the receiving endpoint
 * verifies.
 */
FrameRead readFrameWire(int fd, std::vector<uint8_t> *wire,
                        FrameKind *kind, std::string *err,
                        bool verify = true);

/** Blocking, EINTR-safe full write of pre-encoded wire bytes. */
bool writeWire(int fd, const std::vector<uint8_t> &wire);

} // namespace cisa

#endif // CISA_SERVICE_FRAME_HH
