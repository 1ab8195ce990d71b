// CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320), table-driven, eight
// bytes per step (slicing-by-8).
//
// Used by the ResultCache v2 per-entry header to detect torn or
// bit-rotted entry files before parsing them (parse success alone cannot
// distinguish "truncated JSON" from "record some other writer is still
// renaming"). The standard check value applies:
// Crc32("123456789") == 0xCBF43926.
#ifndef WAVE_COMMON_CRC32_H_
#define WAVE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace wave {

/// Incremental update: feed chunks with the previous return value.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// One-shot CRC of a buffer.
inline uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

}  // namespace wave

#endif  // WAVE_COMMON_CRC32_H_
