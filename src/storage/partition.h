#ifndef MISTIQUE_STORAGE_PARTITION_H_
#define MISTIQUE_STORAGE_PARTITION_H_

#include <cstdint>
#include <span>
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

/// Chunk payload a frame gathers before Serialize starts the next one. A
/// chunk is never split, so a frame holds at least one chunk and a chunk
/// larger than this is a frame of its own.
constexpr size_t kFrameTargetBytes = 16 * 1024;

/// One entry of a sealed partition's frame table: where a frame's stored
/// bytes sit in the serialized partition, their codec and their CRC32C.
struct FrameInfo {
  uint32_t offset = 0;
  uint32_t length = 0;
  CodecType codec = CodecType::kNone;
  uint32_t crc = 0;
};

/// What a serialized partition holds, read from its uncompressed frame
/// table and chunk directories without decoding any blob.
struct PartitionLayout {
  PartitionId id = 0;
  std::vector<FrameInfo> frames;
  /// Chunk ids in file order, and the frame that holds each.
  std::vector<ChunkId> chunk_ids;
  std::vector<uint32_t> chunk_frames;
};

/// A group of ColumnChunks placed, sealed and stored together.
///
/// The dedup layer steers similar chunks into the same partition so the
/// LZ window can exploit their redundancy (Sec. 4.2 of the paper). A
/// partition lives uncompressed in memory while open; when sealed it is
/// cut into frames of consecutive chunks (docs/FORMATS.md), each
/// compressed and checksummed on its own, so a read decodes only the frame
/// that holds its chunk. A Partition object also holds one decoded frame
/// in the buffer pool.
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

  /// Serializes the partition as frames of about kFrameTargetBytes of
  /// consecutive chunks. Each frame's payload is compressed with `codec`,
  /// or stored raw (codec kNone) when the compressed stream would not be
  /// smaller. A partition holding a chunk of kFrameTargetBytes or more is
  /// one frame instead when compressing it whole stores markedly fewer
  /// bytes (similar large chunks co-located). The output is self-contained.
  Result<std::vector<uint8_t>> Serialize(const Codec& codec) const;

  /// Moves the chunks into one partition per frame of `layout`, which
  /// Serialize wrote for this partition, and leaves this one empty.
  std::vector<Partition> SplitFrames(const PartitionLayout& layout) &&;

  /// Reconstructs a partition from Serialize output, or from the one-frame
  /// layout written before frames existed, decoding every frame. The
  /// frames' CRCs are not checked again: callers pass a whole envelope
  /// payload, whose CRC covers every frame.
  static Result<Partition> Deserialize(const std::vector<uint8_t>& bytes);

  /// Parses the frame table and chunk directories of a serialized
  /// partition (either layout). For a pre-frame partition the one frame's
  /// CRC is computed here, from bytes the caller has verified.
  static Result<PartitionLayout> ReadLayout(std::span<const uint8_t> bytes);

  /// Checks one frame's stored bytes against its table entry (kDataLoss on
  /// a CRC mismatch) and decodes them into a partition `id` that holds
  /// only that frame's chunks.
  static Result<Partition> DecodeFrame(PartitionId id, const FrameInfo& frame,
                                       std::span<const uint8_t> stored);

 private:
  /// Serializes the chunks as the frames that end at `ends` (chunk
  /// indices, increasing, the last one num_chunks()).
  Result<std::vector<uint8_t>> SerializeFrames(const std::vector<size_t>& ends,
                                               const Codec& codec) const;

  /// Decodes one frame body (chunk directory and blob) into this
  /// partition.
  Status AddFrame(CodecType codec, std::span<const uint8_t> body);

  PartitionId id_;
  std::vector<ChunkId> ids_;
  std::vector<ColumnChunk> chunks_;
  std::unordered_map<ChunkId, size_t> index_;
  size_t data_bytes_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_STORAGE_PARTITION_H_
