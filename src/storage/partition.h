#ifndef MISTIQUE_STORAGE_PARTITION_H_
#define MISTIQUE_STORAGE_PARTITION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "compress/codec.h"
#include "storage/column_chunk.h"

namespace mistique {

/// Globally unique chunk identifier assigned by the DataStore.
using ChunkId = uint64_t;
/// Globally unique partition identifier assigned by the DataStore.
using PartitionId = uint32_t;

constexpr ChunkId kInvalidChunkId = 0;

/// A group of ColumnChunks that are serialized and compressed together.
///
/// The dedup layer steers similar chunks into the same partition so the
/// partition-wide LZ window can exploit their redundancy (Sec. 4.2 of the
/// paper). A partition lives uncompressed in memory while open; when sealed
/// it is compressed as one unit and written to the disk store.
class Partition {
 public:
  explicit Partition(PartitionId id) : id_(id) {}

  PartitionId id() const { return id_; }

  /// Appends a chunk. The caller guarantees `chunk_id` is unique within the
  /// store; duplicate ids within one partition are rejected.
  Status Add(ChunkId chunk_id, ColumnChunk chunk);

  /// Looks up a chunk by id; NotFound if absent.
  Result<const ColumnChunk*> Get(ChunkId chunk_id) const;

  bool Contains(ChunkId chunk_id) const {
    return index_.find(chunk_id) != index_.end();
  }

  size_t num_chunks() const { return chunks_.size(); }
  const std::vector<ChunkId>& chunk_ids() const { return ids_; }

  /// Sum of encoded chunk payload bytes (uncompressed footprint).
  size_t data_bytes() const { return data_bytes_; }

  /// Serializes metadata + concatenated chunk payloads, compressing the
  /// payload area with `codec`, or storing it raw (codec kNone) when the
  /// compressed stream would not be smaller. The output is self-contained.
  Result<std::vector<uint8_t>> Serialize(const Codec& codec) const;

  /// Reconstructs a partition from Serialize output. The codec is read from
  /// the stream header; the payload is decoded straight from `bytes`.
  static Result<Partition> Deserialize(const std::vector<uint8_t>& bytes);

  /// Parses only the (uncompressed) chunk directory of a serialized
  /// partition: the chunk ids it holds, without decompressing the payload.
  /// Used to rebuild the chunk index when reopening a store.
  static Result<std::vector<ChunkId>> ReadChunkIds(
      const std::vector<uint8_t>& bytes);

 private:
  PartitionId id_;
  std::vector<ChunkId> ids_;
  std::vector<ColumnChunk> chunks_;
  std::unordered_map<ChunkId, size_t> index_;
  size_t data_bytes_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_PARTITION_H_
