#include "service/frame.hh"

#include <cerrno>
#include <cstring>

#include "common/hash.hh"
#include "common/io.hh"
#include "common/logging.hh"
#include "common/serialize.hh"

namespace cisa
{

std::vector<uint8_t>
encodeFrame(FrameKind kind, const std::vector<uint8_t> &payload)
{
    panic_if(payload.size() > kMaxFramePayload,
             "frame payload %zu exceeds bound", payload.size());
    ByteWriter w;
    w.u32(kFrameMagic);
    w.u16(uint16_t(kind));
    w.u16(0); // flags, reserved
    w.u32(uint32_t(payload.size()));
    w.u64(frameChecksum(payload.data(), payload.size()));
    w.raw(payload.data(), payload.size());
    return w.take();
}

FrameDecode
decodeFrame(const uint8_t *data, size_t n, size_t *pos, Frame *out,
            std::string *err)
{
    auto bad = [&](const std::string &why) {
        if (err)
            *err = why;
        return FrameDecode::Bad;
    };
    if (n - *pos < kFrameHeaderBytes)
        return FrameDecode::NeedMore;
    ByteReader r(data + *pos, n - *pos);
    uint32_t magic = r.u32();
    uint16_t kind = r.u16();
    uint16_t flags = r.u16();
    uint32_t len = r.u32();
    uint64_t sum = r.u64();
    if (magic != kFrameMagic)
        return bad(strfmt("bad frame magic 0x%08x", magic));
    if (kind != uint16_t(FrameKind::Request) &&
        kind != uint16_t(FrameKind::Response)) {
        return bad(strfmt("unknown frame kind %u", kind));
    }
    if (flags != 0)
        return bad(strfmt("unsupported frame flags 0x%04x", flags));
    if (len > kMaxFramePayload)
        return bad(strfmt("oversized frame: %u bytes", len));
    if (r.remaining() < len)
        return FrameDecode::NeedMore;
    const uint8_t *body = data + *pos + kFrameHeaderBytes;
    if (frameChecksum(body, len) != sum)
        return bad("frame checksum mismatch");
    out->kind = FrameKind(kind);
    out->payload.assign(body, body + len);
    *pos += kFrameHeaderBytes + len;
    return FrameDecode::Ok;
}

bool
writeFrame(int fd, FrameKind kind,
           const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> bytes = encodeFrame(kind, payload);
    return ioSendAll(fd, bytes.data(), bytes.size());
}

FrameRead
readFrameWire(int fd, std::vector<uint8_t> *wire, FrameKind *kind,
              std::string *err, bool verify)
{
    auto bad = [&](const std::string &why) {
        if (err)
            *err = why;
        return FrameRead::Bad;
    };
    uint8_t hdr[kFrameHeaderBytes];
    ssize_t got = ioRecvAll(fd, hdr, sizeof(hdr));
    if (got == 0)
        return FrameRead::Eof;
    // A read(2) error is a transport failure, not a protocol
    // violation: report Eof so servers close without answering
    // (a BadRequest reply would make clients treat a retryable
    // transport fault as a permanent loss).
    if (got < 0)
        return FrameRead::Eof;
    if (size_t(got) < sizeof(hdr))
        return bad("disconnect inside frame header");

    // Validate the header fields (bounding the allocation) before
    // trusting the length.
    size_t pos = 0;
    Frame f;
    std::string why;
    if (decodeFrame(hdr, sizeof(hdr), &pos, &f, &why) ==
        FrameDecode::Bad)
        return bad(why);

    ByteReader r(hdr, sizeof(hdr));
    r.u32(); // magic
    uint16_t k = r.u16();
    r.u16(); // flags
    uint32_t len = r.u32();
    uint64_t sum = r.u64();

    wire->resize(kFrameHeaderBytes + len);
    std::memcpy(wire->data(), hdr, sizeof(hdr));
    got = ioRecvAll(fd, wire->data() + kFrameHeaderBytes, len);
    if (got < 0)
        return FrameRead::Eof; // socket error: stream is dead
    if (size_t(got) < len)
        return bad("disconnect inside frame payload");
    if (verify &&
        frameChecksum(wire->data() + kFrameHeaderBytes, len) != sum)
        return bad("frame checksum mismatch");
    if (kind)
        *kind = FrameKind(k);
    return FrameRead::Ok;
}

bool
writeWire(int fd, const std::vector<uint8_t> &wire)
{
    return ioSendAll(fd, wire.data(), wire.size());
}

} // namespace cisa
