#ifndef BEAS_COMMON_CRC32_H_
#define BEAS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace beas {

/// \brief CRC-32C (Castagnoli) over a byte range. The durability layer
/// stamps every WAL record and segment payload with it so recovery can
/// tell a torn or bit-rotted tail from valid data. Same checksum on any
/// machine: the SSE4.2 `crc32` instruction when the CPU has it (checked
/// once at run time), the table loop otherwise. A data directory written
/// on one kind of CPU verifies on any other.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

namespace internal {
/// The portable table loop: the fallback and the differential reference
/// the hardware path is tested against.
uint32_t Crc32cPortable(const void* data, size_t len, uint32_t seed = 0);
}  // namespace internal

}  // namespace beas

#endif  // BEAS_COMMON_CRC32_H_
