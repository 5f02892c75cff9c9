#include "storage/partition.h"

#include <cstring>
#include <limits>

#include "common/bytes.h"
#include "durability/crc32c.h"

namespace mistique {

namespace {
constexpr uint32_t kFramedMagic = 0x4d535446;  // "MSTF"
// The one-frame layout written before frames: magic, id, codec byte, then
// a body laid out exactly as a frame body.
constexpr uint32_t kLegacyMagic = 0x4d535451;  // "MSTQ"
constexpr size_t kLegacyBodyOffset = 9;
constexpr size_t kHeaderBytes = 12;      // Magic, id, frame count.
constexpr size_t kTableEntryBytes = 13;  // Offset, length, codec, crc.
constexpr size_t kDirEntryBytes = 26;
// A partition with a frame-sized chunk is sealed whole when that saves
// more than 1/kWholeSealGain of its framed bytes. Per-frame codec choice
// and table bytes move a partition's size by a few percent either way; a
// larger saving is redundancy between chunks that frames cut apart.
constexpr size_t kWholeSealGain = 16;

struct DirEntry {
  ChunkId id;
  uint8_t dtype_tag;
  uint8_t bit_width;
  uint64_t num_values;
  uint64_t length;
};

/// Parses a frame body: chunk count, chunk directory, then the stored blob,
/// which must end exactly where the body does.
Status ParseFrameBody(std::span<const uint8_t> body, std::vector<DirEntry>* dir,
                      std::span<const uint8_t>* blob) {
  ByteReader r(body.data(), body.size());
  uint32_t num_chunks = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&num_chunks));
  if (num_chunks > r.remaining() / kDirEntryBytes) {
    return Status::Corruption("frame directory longer than its frame");
  }
  dir->resize(num_chunks);
  for (DirEntry& e : *dir) {
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.id));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&e.dtype_tag));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&e.bit_width));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.num_values));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.length));
  }
  MISTIQUE_RETURN_NOT_OK(r.GetBlob(blob));
  if (r.remaining() != 0) {
    return Status::Corruption("frame has bytes past its blob");
  }
  return Status::OK();
}

void PutAt(std::vector<uint8_t>* out, size_t pos, const void* v, size_t n) {
  std::memcpy(out->data() + pos, v, n);
}

}  // namespace

Status Partition::Add(ChunkId chunk_id, ColumnChunk chunk) {
  if (chunk_id == kInvalidChunkId) {
    return Status::InvalidArgument("invalid chunk id 0");
  }
  if (index_.count(chunk_id) != 0) {
    return Status::AlreadyExists("chunk " + std::to_string(chunk_id) +
                                 " already in partition " +
                                 std::to_string(id_));
  }
  index_[chunk_id] = chunks_.size();
  data_bytes_ += chunk.byte_size();
  ids_.push_back(chunk_id);
  chunks_.push_back(std::move(chunk));
  return Status::OK();
}

Result<const ColumnChunk*> Partition::Get(ChunkId chunk_id) const {
  auto it = index_.find(chunk_id);
  if (it == index_.end()) {
    return Status::NotFound("chunk " + std::to_string(chunk_id) +
                            " not in partition " + std::to_string(id_));
  }
  return &chunks_[it->second];
}

Result<std::vector<uint8_t>> Partition::Serialize(const Codec& codec) const {
  // Cut frames: close one as soon as its payload reaches the target.
  std::vector<size_t> ends;
  size_t frame_bytes = 0;
  bool chunk_fills_frame = false;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    frame_bytes += chunks_[i].byte_size();
    chunk_fills_frame |= chunks_[i].byte_size() >= kFrameTargetBytes;
    if (frame_bytes >= kFrameTargetBytes || i + 1 == chunks_.size()) {
      ends.push_back(i + 1);
      frame_bytes = 0;
    }
  }
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> framed,
                            SerializeFrames(ends, codec));
  // A chunk of a frame's size or more is a frame of its own, and so
  // compresses against no other chunk: co-locating similar large chunks
  // (Fig. 14) would gain nothing. Such a partition is also sealed whole,
  // and kept whole when that saves more than 1/kWholeSealGain of the
  // framed bytes; a read of it then decodes the whole partition, as
  // before frames.
  if (chunk_fills_frame && ends.size() > 1 &&
      codec.type() != CodecType::kNone) {
    MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> whole,
                              SerializeFrames({chunks_.size()}, codec));
    if (whole.size() < framed.size() - framed.size() / kWholeSealGain) {
      return whole;
    }
  }
  return framed;
}

Result<std::vector<uint8_t>> Partition::SerializeFrames(
    const std::vector<size_t>& ends, const Codec& codec) const {
  // Header and a table patched in as each frame is written.
  ByteWriter w;
  w.PutU32(kFramedMagic);
  w.PutU32(id_);
  w.PutU32(static_cast<uint32_t>(ends.size()));
  const std::vector<uint8_t> table_space(ends.size() * kTableEntryBytes);
  w.PutRaw(table_space.data(), table_space.size());

  std::vector<uint8_t> payload;
  std::vector<uint8_t> compressed;
  std::vector<FrameInfo> table;
  size_t begin = 0;
  for (size_t end : ends) {
    const size_t start = w.size();
    w.PutU32(static_cast<uint32_t>(end - begin));
    // Chunk directory: id, dtype, bit width, value count, payload length.
    payload.clear();
    for (size_t i = begin; i < end; ++i) {
      const ColumnChunk& c = chunks_[i];
      w.PutU64(ids_[i]);
      w.PutU8(static_cast<uint8_t>(c.dtype()));
      w.PutU8(c.bit_width());
      w.PutU64(c.num_values());
      w.PutU64(c.byte_size());
      payload.insert(payload.end(), c.data().begin(), c.data().end());
    }
    // Store raw what the codec cannot shrink: readers dispatch on the
    // frame's codec, and a raw payload is copied where it sits.
    bool raw = true;
    if (codec.type() != CodecType::kNone) {
      MISTIQUE_RETURN_NOT_OK(codec.Compress(payload, &compressed));
      raw = compressed.size() >= payload.size();
    }
    w.PutBlob(raw ? payload : compressed);
    if (w.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("partition " + std::to_string(id_) +
                                     " exceeds 4 GiB serialized");
    }
    FrameInfo f;
    f.offset = static_cast<uint32_t>(start);
    f.length = static_cast<uint32_t>(w.size() - start);
    f.codec = raw ? CodecType::kNone : codec.type();
    f.crc = Crc32c(w.bytes().data() + start, f.length);
    table.push_back(f);
    begin = end;
  }

  std::vector<uint8_t> out = w.TakeBytes();
  size_t pos = kHeaderBytes;
  for (const FrameInfo& f : table) {
    const uint8_t codec_tag = static_cast<uint8_t>(f.codec);
    PutAt(&out, pos, &f.offset, 4);
    PutAt(&out, pos + 4, &f.length, 4);
    PutAt(&out, pos + 8, &codec_tag, 1);
    PutAt(&out, pos + 9, &f.crc, 4);
    pos += kTableEntryBytes;
  }
  return out;
}

std::vector<Partition> Partition::SplitFrames(
    const PartitionLayout& layout) && {
  std::vector<Partition> frames(layout.frames.size(), Partition(id_));
  for (size_t i = 0; i < chunks_.size(); ++i) {
    Partition& f = frames[layout.chunk_frames[i]];
    f.index_[ids_[i]] = f.chunks_.size();
    f.data_bytes_ += chunks_[i].byte_size();
    f.ids_.push_back(ids_[i]);
    f.chunks_.push_back(std::move(chunks_[i]));
  }
  *this = Partition(id_);
  return frames;
}

Result<PartitionLayout> Partition::ReadLayout(std::span<const uint8_t> bytes) {
  if (bytes.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::Corruption("partition larger than a frame table spans");
  }
  ByteReader r(bytes.data(), bytes.size());
  uint32_t magic = 0;
  PartitionLayout layout;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&layout.id));
  if (magic == kLegacyMagic) {
    uint8_t codec_tag = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&codec_tag));
    FrameInfo f;
    f.offset = kLegacyBodyOffset;
    f.length = static_cast<uint32_t>(bytes.size() - kLegacyBodyOffset);
    f.codec = static_cast<CodecType>(codec_tag);
    f.crc = Crc32c(bytes.data() + f.offset, f.length);
    layout.frames.push_back(f);
  } else if (magic == kFramedMagic) {
    uint32_t num_frames = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU32(&num_frames));
    if (num_frames > r.remaining() / kTableEntryBytes) {
      return Status::Corruption("frame table longer than its partition");
    }
    layout.frames.resize(num_frames);
    // Frames must tile the rest of the partition, in order.
    uint64_t expected = kHeaderBytes + uint64_t{num_frames} * kTableEntryBytes;
    for (FrameInfo& f : layout.frames) {
      uint8_t codec_tag = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&f.offset));
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&f.length));
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&codec_tag));
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&f.crc));
      f.codec = static_cast<CodecType>(codec_tag);
      if (f.offset != expected) {
        return Status::Corruption("frame table offsets do not tile");
      }
      expected += f.length;
    }
    if (expected != bytes.size()) {
      return Status::Corruption("frame table does not cover the partition");
    }
  } else {
    return Status::Corruption("bad partition magic");
  }

  std::vector<DirEntry> dir;
  std::span<const uint8_t> blob;
  for (uint32_t fi = 0; fi < layout.frames.size(); ++fi) {
    const FrameInfo& f = layout.frames[fi];
    MISTIQUE_RETURN_NOT_OK(
        ParseFrameBody(bytes.subspan(f.offset, f.length), &dir, &blob));
    for (const DirEntry& e : dir) {
      layout.chunk_ids.push_back(e.id);
      layout.chunk_frames.push_back(fi);
    }
  }
  return layout;
}

Status Partition::AddFrame(CodecType codec_type,
                           std::span<const uint8_t> body) {
  std::vector<DirEntry> dir;
  std::span<const uint8_t> payload;
  MISTIQUE_RETURN_NOT_OK(ParseFrameBody(body, &dir, &payload));
  Result<const Codec*> codec = GetCodec(codec_type);
  if (!codec.ok()) {
    return Status::Corruption("frame codec: " + codec.status().ToString());
  }
  // Decode the stored blob where it sits; a raw one is the payload itself.
  std::vector<uint8_t> decoded;
  if ((*codec)->type() != CodecType::kNone) {
    MISTIQUE_RETURN_NOT_OK((*codec)->Decompress(payload, &decoded));
    payload = decoded;
  }
  size_t offset = 0;
  for (const DirEntry& e : dir) {
    // Tag 6 was the bit-contiguous packed layout; it stays reserved.
    if (e.dtype_tag > static_cast<uint8_t>(DType::kPackedW) ||
        e.dtype_tag == 6) {
      return Status::Corruption("bad dtype tag in partition directory");
    }
    if (e.length > payload.size() - offset) {
      return Status::Corruption("frame payload shorter than its directory");
    }
    std::vector<uint8_t> data(payload.begin() + offset,
                              payload.begin() + offset + e.length);
    offset += e.length;
    MISTIQUE_RETURN_NOT_OK(Add(
        e.id,
        ColumnChunk(static_cast<DType>(e.dtype_tag), e.num_values,
                    std::move(data), e.bit_width)));
  }
  if (offset != payload.size()) {
    return Status::Corruption("frame payload longer than its directory");
  }
  return Status::OK();
}

Result<Partition> Partition::Deserialize(const std::vector<uint8_t>& bytes) {
  MISTIQUE_ASSIGN_OR_RETURN(PartitionLayout layout, ReadLayout(bytes));
  Partition p(layout.id);
  const std::span<const uint8_t> all(bytes);
  for (const FrameInfo& f : layout.frames) {
    MISTIQUE_RETURN_NOT_OK(
        p.AddFrame(f.codec, all.subspan(f.offset, f.length)));
  }
  return p;
}

Result<Partition> Partition::DecodeFrame(PartitionId id, const FrameInfo& frame,
                                         std::span<const uint8_t> stored) {
  if (stored.size() != frame.length) {
    return Status::Corruption("frame read short: " +
                              std::to_string(stored.size()) + " of " +
                              std::to_string(frame.length) + " bytes");
  }
  const uint32_t crc = Crc32c(stored.data(), stored.size());
  if (crc != frame.crc) {
    return Status::DataLoss("frame checksum mismatch in partition " +
                            std::to_string(id) + " at offset " +
                            std::to_string(frame.offset));
  }
  Partition p(id);
  MISTIQUE_RETURN_NOT_OK(p.AddFrame(frame.codec, stored));
  return p;
}

}  // namespace mistique
