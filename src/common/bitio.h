// MSB-first bit-level serialization used for the forward-channel control
// fields (Section 3.1 of the paper): fields such as 6-bit user IDs and 16-bit
// EINs are packed back-to-back into the 768 information bits of two
// RS(64,48) codewords.
//
// Both ends work over caller-owned byte spans (they never allocate) and
// move up to a byte per step.
#pragma once

#include <cstdint>
#include <span>

namespace osumac {

/// Packs fixed-width big-endian bit fields into a caller-provided buffer.
class BitWriter {
 public:
  /// Zero-fills `out` and starts writing at its first bit.  Bits never
  /// written (padding, reserved fields) therefore read back as zero.
  explicit BitWriter(std::span<std::uint8_t> out);

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// Requires 0 < width <= 64; bits of `value` above `width` must be zero.
  /// The field must fit in the buffer.
  void Write(std::uint64_t value, int width);

  /// Appends `count` zero bits (reserved / padding fields).
  void WriteZeros(int count);

  /// Number of bits written so far.
  int bit_size() const { return bit_size_; }

 private:
  std::span<std::uint8_t> out_;
  int bit_size_ = 0;
};

/// Reads fixed-width big-endian bit fields from a byte span.  The reader
/// does not own the bytes; they must outlive it.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Reads the next `width` bits (MSB first; 0 < width <= 64).  Bits past
  /// the end read as zero and set overflowed(); the position still
  /// advances by `width`.
  std::uint64_t Read(int width);

  /// Skips `count` bits.
  void Skip(int count);

  /// True if any Read/Skip went past the end of the buffer.
  bool overflowed() const { return overflowed_; }

  int bit_position() const { return bit_pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  int bit_pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace osumac
