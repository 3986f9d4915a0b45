/**
 * @file
 * Tiny binary serialization over an in-memory buffer: little-endian
 * PODs and length-prefixed strings, used by the service's frame
 * payloads and request/response codecs. The reader never throws:
 * any overrun or oversized length trips ok() and yields zero values,
 * so corrupt input degrades to a clean rejection.
 */

#ifndef CISA_COMMON_SERIALIZE_HH
#define CISA_COMMON_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cisa
{

/** Binary writer into a growable in-memory buffer. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { raw(&v, sizeof(v)); }
    void u16(uint16_t v) { raw(&v, sizeof(v)); }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void f32(float v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    /** Length-prefixed string. */
    void str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        raw(s.data(), s.size());
    }

    /** Raw bytes, no length prefix. */
    void raw(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Binary reader over a caller-owned byte span. Overruns set the
 * error flag and return zeros; call ok() (and ideally atEnd()) after
 * decoding to distinguish a clean parse from a truncated one.
 */
class ByteReader
{
  public:
    ByteReader(const void *data, size_t n)
        : p_(static_cast<const uint8_t *>(data)), n_(n)
    {}
    explicit ByteReader(const std::vector<uint8_t> &v)
        : ByteReader(v.data(), v.size())
    {}

    bool ok() const { return !err_; }
    bool atEnd() const { return pos_ == n_; }
    size_t remaining() const { return n_ - pos_; }

    uint8_t u8() { return get<uint8_t>(); }
    uint16_t u16() { return get<uint16_t>(); }
    uint32_t u32() { return get<uint32_t>(); }
    uint64_t u64() { return get<uint64_t>(); }
    float f32() { return get<float>(); }
    double f64() { return get<double>(); }

    /** Length-prefixed string (rejects lengths past the buffer). */
    std::string str()
    {
        uint32_t n = u32();
        if (err_ || n > remaining()) {
            err_ = true;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** Raw bytes, no length prefix. */
    void raw(void *out, size_t n);

  private:
    template <class T>
    T
    get()
    {
        T v{};
        raw(&v, sizeof(v));
        return v;
    }

    const uint8_t *p_;
    size_t n_;
    size_t pos_ = 0;
    bool err_ = false;
};

} // namespace cisa

#endif // CISA_COMMON_SERIALIZE_HH
