#include "src/util/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BKUP_CRC32C_SSE42 1
#endif

namespace bkup {
namespace {

// Generate the CRC-32C (polynomial 0x1EDC6F41, reflected 0x82F63B78) table at
// static-init time; 256 entries, byte-at-a-time.
std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = MakeCrc32cTable();
  return table;
}

#ifdef BKUP_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected Castagnoli
// CRC, eight bytes per step. Compiled for SSE4.2 on this function only, so
// the rest of the build keeps the baseline ISA; Crc32c calls it only after
// the CPU reports the feature.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::span<const uint8_t> data, uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}

bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

uint32_t Crc32cPortable(std::span<const uint8_t> data, uint32_t seed) {
  const auto& table = Crc32cTable();
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
#ifdef BKUP_CRC32C_SSE42
  if (HasSse42()) {
    return Crc32cSse42(data, seed);
  }
#endif
  return Crc32cPortable(data, seed);
}

void Crc32cAccumulator::Update(std::span<const uint8_t> data) {
  value_ = Crc32c(data, value_);
}

}  // namespace bkup
