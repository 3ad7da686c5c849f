#include "common/bitio.h"

#include <algorithm>

#include "common/check.h"

namespace osumac {

BitWriter::BitWriter(std::span<std::uint8_t> out) : out_(out) {
  std::fill(out_.begin(), out_.end(), std::uint8_t{0});
}

void BitWriter::Write(std::uint64_t value, int width) {
  OSUMAC_DCHECK(width > 0 && width <= 64);
  OSUMAC_DCHECK(width == 64 || (value >> width) == 0);
  OSUMAC_CHECK_LE(bit_size_ + width, static_cast<int>(out_.size()) * 8);
  std::uint8_t* byte = out_.data() + bit_size_ / 8;
  int room = 8 - bit_size_ % 8;  // free low bits of the current byte
  int remaining = width;
  while (remaining > 0) {
    const int take = std::min(remaining, room);
    remaining -= take;
    const unsigned chunk =
        static_cast<unsigned>(value >> remaining) & ((1u << take) - 1u);
    *byte++ |= static_cast<std::uint8_t>(chunk << (room - take));
    room = 8;
  }
  bit_size_ += width;
}

void BitWriter::WriteZeros(int count) {
  OSUMAC_DCHECK_GE(count, 0);
  OSUMAC_CHECK_LE(bit_size_ + count, static_cast<int>(out_.size()) * 8);
  bit_size_ += count;  // the buffer was zero-filled at construction
}

std::uint64_t BitReader::Read(int width) {
  OSUMAC_DCHECK(width > 0 && width <= 64);
  const int end = static_cast<int>(bytes_.size()) * 8;
  std::uint64_t value = 0;
  int pos = bit_pos_;
  int remaining = width;
  while (remaining > 0) {
    if (pos >= end) {
      // Past the end: the rest of the field reads as zero bits.
      if (remaining < 64) value <<= remaining;
      overflowed_ = true;
      break;
    }
    const int avail = 8 - pos % 8;  // unread low bits of the current byte
    const int take = std::min(remaining, avail);
    const unsigned byte = bytes_[static_cast<std::size_t>(pos / 8)];
    const unsigned chunk = (byte >> (avail - take)) & ((1u << take) - 1u);
    value = (value << take) | chunk;
    pos += take;
    remaining -= take;
  }
  bit_pos_ += width;
  return value;
}

void BitReader::Skip(int count) {
  OSUMAC_DCHECK_GE(count, 0);
  bit_pos_ += count;
  if (bit_pos_ > static_cast<int>(bytes_.size()) * 8) overflowed_ = true;
}

}  // namespace osumac
