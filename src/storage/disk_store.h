#ifndef MISTIQUE_STORAGE_DISK_STORE_H_
#define MISTIQUE_STORAGE_DISK_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/partition.h"

namespace mistique {

/// Persistent partition storage: one file per sealed partition under a
/// directory, plus an in-memory index of compressed sizes. Read/write paths
/// report byte counts so the cost model can calibrate ρ_d (effective read
/// bandwidth including decompression). Whole-file reads serve Open, vacuum
/// and calibration; buffer-pool misses read their frames with ReadRange.
///
/// Durability (docs/DURABILITY.md): every partition file is a checksummed
/// envelope (CRC32C over the serialized partition), written with
/// write-temp + fsync + atomic-rename + directory-fsync so a crash never
/// leaves a torn file under a partition's name. Reads verify the checksum
/// and return kDataLoss on mismatch; the caller (DataStore) quarantines
/// the file and the engine heals it by re-running the model. A range read
/// skips the whole-file checksum; its caller verifies the frame it read.
class DiskStore {
 public:
  DiskStore() = default;
  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  /// Opens (creating if needed) the storage directory and indexes the
  /// partition files already present. Crash recovery and hardening:
  ///  - leftover `*.tmp` files from interrupted atomic writes are removed;
  ///  - zero-length, truncated, or otherwise malformed `part-*.mq` files
  ///    are skipped (not indexed, not deleted);
  /// both are reported in `warnings` (one human-readable line each) when
  /// it is non-null. `sync` gates all fsyncs on later writes.
  Status Open(const std::string& directory, bool sync = true,
              std::vector<std::string>* warnings = nullptr);

  /// Atomically replaces a partition's file with a checksummed envelope
  /// holding `bytes`. No temp file survives any error path.
  Status WritePartition(PartitionId id, const std::vector<uint8_t>& bytes);

  /// The two halves of WritePartition, for callers that must not hold
  /// their store-wide lock across file I/O (DataStore::SealPartition).
  /// WritePartitionFileOnly performs only the atomic file write — the new
  /// file stays invisible to readers (Contains/ReadPartition miss) until
  /// IndexWrittenPartition registers its payload size under the caller's
  /// lock. The caller must not write the same partition concurrently.
  Status WritePartitionFileOnly(PartitionId id,
                                const std::vector<uint8_t>& bytes);
  void IndexWrittenPartition(PartitionId id, uint64_t payload_bytes);

  /// Reads and verifies a partition's serialized bytes. NotFound if never
  /// written, kDataLoss if the stored checksum does not match.
  Result<std::vector<uint8_t>> ReadPartition(PartitionId id) const;

  /// Reads `length` bytes at `offset` of a partition's serialized bytes
  /// (one frame, or a run of consecutive frames) without the whole-file
  /// checksum: the caller checks each frame's own CRC. NotFound if never
  /// written, kCorruption if the range passes the end of the partition.
  Result<std::vector<uint8_t>> ReadRange(PartitionId id, uint64_t offset,
                                         uint64_t length) const;

  bool Contains(PartitionId id) const {
    return sizes_.find(id) != sizes_.end();
  }

  /// Compressed on-disk size of one partition; NotFound if absent.
  Result<uint64_t> PartitionSize(PartitionId id) const;

  /// Ids of all partitions on disk, ascending.
  std::vector<PartitionId> ListPartitions() const;

  /// Total compressed bytes across all partitions.
  uint64_t total_bytes() const { return total_bytes_; }
  size_t num_partitions() const { return sizes_.size(); }
  const std::string& directory() const { return directory_; }

  /// Warnings collected by the last Open (also available when the caller
  /// passed no warning sink).
  const std::vector<std::string>& open_warnings() const {
    return open_warnings_;
  }

  /// Deletes one partition's file; no-op (OK) if absent.
  Status DeletePartition(PartitionId id);

  /// Moves a corrupt partition file aside (part-<id>.mq.corrupt) and
  /// forgets it, preserving the bytes for post-mortem while guaranteeing
  /// the store never serves them again. No-op (OK) if absent.
  Status QuarantinePartition(PartitionId id);

  /// Deletes every partition file and resets the index.
  Status Clear();

 private:
  std::string PathFor(PartitionId id) const;

  std::string directory_;
  bool sync_ = true;
  std::unordered_map<PartitionId, uint64_t> sizes_;  // Payload bytes.
  uint64_t total_bytes_ = 0;
  std::vector<std::string> open_warnings_;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_DISK_STORE_H_
