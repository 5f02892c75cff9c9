#ifndef MISTIQUE_DURABILITY_DURABLE_FILE_H_
#define MISTIQUE_DURABILITY_DURABLE_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mistique {

/// Checksummed file envelope wrapping every partition file and catalog
/// snapshot (see docs/DURABILITY.md):
///
///   [magic u32 = "MQEV"] [version u32] [payload_len u64] [crc32c u32]
///   [payload bytes]
///
/// The CRC covers only the payload; the header fields are validated
/// structurally (magic, version, length == file size). A mismatched CRC
/// returns kDataLoss — the caller decides whether the data is recreatable.
constexpr uint32_t kEnvelopeMagic = 0x5645514Du;  // "MQEV" little-endian.
constexpr uint32_t kEnvelopeVersion = 1;
constexpr size_t kEnvelopeHeaderSize = 4 + 4 + 8 + 4;

/// Suffix appended to the destination name while an atomic write is in
/// flight. DiskStore::Open sweeps leftovers after a crash.
extern const char kTempSuffix[];
/// Suffix a quarantined (checksum-failed) file is renamed to.
extern const char kQuarantineSuffix[];

/// Reads and verifies an envelope file.
///  - kIoError      file missing / unreadable
///  - kCorruption   header malformed or length disagrees with file size
///  - kDataLoss     payload CRC mismatch
Result<std::vector<uint8_t>> ReadEnvelopeFile(const std::string& path);

/// Reads `length` payload bytes starting `offset` bytes into the payload of
/// an envelope file, with one pread and no CRC check: the caller verifies
/// what it reads (a partition frame carries its own CRC). kCorruption if
/// the file ends before the range does.
Result<std::vector<uint8_t>> ReadEnvelopeRange(const std::string& path,
                                               uint64_t offset,
                                               uint64_t length);

/// Validates only the header of an envelope file against its size on disk
/// (no payload read, no CRC). Returns the payload length. Used by
/// DiskStore::Open to cheaply skip stray/truncated files.
Result<uint64_t> ProbeEnvelopeFile(const std::string& path);

/// Writes `payload` to `path` with the torn-write-proof protocol:
/// write `<path>.tmp` → fsync(tmp) → rename(tmp, path) → fsync(parent dir)
/// (fsyncs elided when `sync` is false). The temp file is removed on every
/// error path. `fault_prefix` names the MISTIQUE_FAULT points hit along
/// the way ("<prefix>.tmp_written", "<prefix>.tmp_synced",
/// "<prefix>.renamed").
Status WriteEnvelopeFileAtomic(const std::string& path,
                               const uint8_t* payload, size_t len, bool sync,
                               const char* fault_prefix);
Status WriteEnvelopeFileAtomic(const std::string& path,
                               const std::vector<uint8_t>& payload, bool sync,
                               const char* fault_prefix);

/// fsyncs a directory so a rename/unlink inside it is durable.
Status FsyncDir(const std::string& dir);

}  // namespace mistique

#endif  // MISTIQUE_DURABILITY_DURABLE_FILE_H_
