#include "common/serialize.hh"

#include <cstring>

namespace cisa
{

void
ByteReader::raw(void *out, size_t n)
{
    if (n == 0) // zero-length reads may carry null pointers
        return;
    if (err_ || n > n_ - pos_) {
        err_ = true;
        std::memset(out, 0, n);
        return;
    }
    std::memcpy(out, p_ + pos_, n);
    pos_ += n;
}

} // namespace cisa
