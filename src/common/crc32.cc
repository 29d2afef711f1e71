#include "common/crc32.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define BEAS_CRC32C_SSE42 1
#endif

namespace beas {

namespace {

/// CRC-32C polynomial (reflected): 0x82F63B78.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[i] = crc;
    }
  }
};

#ifdef BEAS_CRC32C_SSE42
// The instruction computes the same reflected CRC-32C step as the table
// loop; only the register state is passed in and out (no inversion), so
// the caller keeps the seed handling. Compiled for SSE4.2 here alone, so
// the rest of the binary still runs on any x86-64.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const unsigned char* p,
                                                       size_t len,
                                                       uint32_t crc) {
  uint64_t crc64 = crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return crc;
}

// The first call may come from another static constructor, before
// libgcc's has filled in the CPU model: __builtin_cpu_init() fills it in
// first. The answer is cached for every later call.
bool HasSse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed) {
  static const Crc32cTable table;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
#ifdef BEAS_CRC32C_SSE42
  if (HasSse42()) {
    return ~Crc32cSse42(static_cast<const unsigned char*>(data), len, ~seed);
  }
#endif
  return internal::Crc32cPortable(data, len, seed);
}

}  // namespace beas
