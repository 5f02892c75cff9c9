#ifndef MISTIQUE_DURABILITY_CRC32C_H_
#define MISTIQUE_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace mistique {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum used by iSCSI, ext4, and LevelDB/RocksDB block formats. On an
/// x86-64 CPU that reports SSE4.2 at run time, the `crc32` instruction
/// folds 8 input bytes per step; everywhere else a portable slice-by-8
/// table walk does. Both produce the same value for every input, so
/// frames, WAL records and envelope files stay readable across machines.
///
/// `Crc32c(data, len)` returns the standard (xor-out 0xFFFFFFFF) value;
/// `Crc32cExtend` chains over split buffers:
///   Crc32c(ab) == Crc32cExtend(Crc32c(a), b, len_b).
uint32_t Crc32c(const void* data, size_t len);
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// The two implementations Crc32cExtend chooses between, with its
/// signature. The portable one is the reference the tests hold the
/// hardware one to. Crc32cHardwareExtend() is nullptr when this CPU or
/// build has no SSE4.2 `crc32` instruction.
using Crc32cExtendFn = uint32_t (*)(uint32_t crc, const void* data,
                                    size_t len);
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len);
Crc32cExtendFn Crc32cHardwareExtend();

}  // namespace mistique

#endif  // MISTIQUE_DURABILITY_CRC32C_H_
