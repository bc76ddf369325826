// Checksums used on the simulated media.
//
// CRC-32C (Castagnoli) guards every on-tape record, wire frame and on-disk
// superblock. On x86-64 hosts with SSE4.2 it runs on the `crc32`
// instruction, eight bytes per step; elsewhere it falls back to the portable
// byte-at-a-time table. Both compute the same function.
#ifndef BKUP_UTIL_CHECKSUM_H_
#define BKUP_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace bkup {

// CRC-32C, dispatched once at first use to the fastest implementation the
// CPU supports. `seed` allows incremental use:
// Crc32c(b, Crc32c(a)) == Crc32c(a || b).
uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed = 0);

// CRC-32C through the 256-entry byte table: the path on hosts without
// SSE4.2, and the reference the hardware path is tested against.
uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed = 0);

// Incremental CRC-32C helper for streaming writers.
class Crc32cAccumulator {
 public:
  void Update(std::span<const uint8_t> data);
  uint32_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint32_t value_ = 0;
};

}  // namespace bkup

#endif  // BKUP_UTIL_CHECKSUM_H_
