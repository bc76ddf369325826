// Fundamental block types shared by the device, RAID, and file system layers.
//
// The file system uses 4 KB blocks with no fragments (WAFL's layout); every
// device in the repository moves data in whole 4 KB blocks.
#ifndef BKUP_BLOCK_BLOCK_H_
#define BKUP_BLOCK_BLOCK_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

namespace bkup {

inline constexpr uint32_t kBlockSize = 4096;

// Volume block number: an index into a Volume's flat data-block space.
using Vbn = uint64_t;
// Disk block number: an index into one disk's block space.
using Dbn = uint64_t;

inline constexpr Vbn kInvalidVbn = ~0ull;

// Fixed-extent views of one block's bytes. The read paths fill a caller-owned
// BlockSpan (a Block, or a slot inside a dump stream) in place.
using BlockSpan = std::span<uint8_t, kBlockSize>;
using ConstBlockSpan = std::span<const uint8_t, kBlockSize>;

// dst ^= src, word at a time; this is the RAID-4 parity inner loop. The words
// go through memcpy because a block's bytes carry no 8-byte alignment
// guarantee; the compiler still vectorises the loop.
inline void XorBlockInto(BlockSpan dst, ConstBlockSpan src) {
  for (size_t i = 0; i < kBlockSize; i += sizeof(uint64_t)) {
    uint64_t d;
    uint64_t s;
    std::memcpy(&d, dst.data() + i, sizeof(d));
    std::memcpy(&s, src.data() + i, sizeof(s));
    d ^= s;
    std::memcpy(dst.data() + i, &d, sizeof(d));
  }
}

// A 4 KB block of real bytes.
struct Block {
  std::array<uint8_t, kBlockSize> data{};

  std::span<uint8_t> bytes() { return data; }
  std::span<const uint8_t> bytes() const { return data; }

  void Zero() { data.fill(0); }
  bool IsZero() const {
    for (uint8_t b : data) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  void CopyFrom(std::span<const uint8_t> src, size_t offset = 0) {
    std::memcpy(data.data() + offset, src.data(),
                std::min(src.size(), static_cast<size_t>(kBlockSize) - offset));
  }

  void XorWith(const Block& other) { XorBlockInto(data, other.data); }

  bool operator==(const Block& other) const { return data == other.data; }
};

}  // namespace bkup

#endif  // BKUP_BLOCK_BLOCK_H_
