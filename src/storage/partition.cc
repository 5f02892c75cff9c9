#include "storage/partition.h"

#include "common/bytes.h"

namespace mistique {

namespace {
constexpr uint32_t kPartitionMagic = 0x4d535451;  // "MSTQ"
// The codec byte follows the magic and the partition id.
constexpr size_t kCodecOffset = 8;
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
  ByteWriter w;
  w.PutU32(kPartitionMagic);
  w.PutU32(id_);
  w.PutU8(static_cast<uint8_t>(codec.type()));
  w.PutU32(static_cast<uint32_t>(chunks_.size()));

  // Chunk directory: id, dtype, value count, payload length.
  ByteWriter payload;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const ColumnChunk& c = chunks_[i];
    w.PutU64(ids_[i]);
    w.PutU8(static_cast<uint8_t>(c.dtype()));
    w.PutU8(c.bit_width());
    w.PutU64(c.num_values());
    w.PutU64(c.byte_size());
    payload.PutRaw(c.data().data(), c.byte_size());
  }

  std::vector<uint8_t> compressed;
  MISTIQUE_RETURN_NOT_OK(codec.Compress(payload.bytes(), &compressed));
  // Seal raw what the codec cannot shrink: readers dispatch on the codec
  // byte, and a raw payload is read where it sits.
  const bool raw = compressed.size() >= payload.size();
  w.PutBlob(raw ? payload.bytes() : compressed);
  std::vector<uint8_t> out = w.TakeBytes();
  if (raw) out[kCodecOffset] = static_cast<uint8_t>(CodecType::kNone);
  return out;
}

Result<std::vector<ChunkId>> Partition::ReadChunkIds(
    const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint32_t magic = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  if (magic != kPartitionMagic) {
    return Status::Corruption("bad partition magic");
  }
  uint32_t id = 0;
  uint8_t codec_tag = 0;
  uint32_t num_chunks = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&id));
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&codec_tag));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&num_chunks));
  std::vector<ChunkId> ids(num_chunks);
  for (ChunkId& chunk_id : ids) {
    uint8_t u8 = 0;
    uint64_t u64 = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&chunk_id));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&u8));   // dtype
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&u8));   // bit width
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&u64));  // num values
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&u64));  // payload length
  }
  return ids;
}

Result<Partition> Partition::Deserialize(const std::vector<uint8_t>& bytes) {
  ByteReader r(bytes);
  uint32_t magic = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  if (magic != kPartitionMagic) {
    return Status::Corruption("bad partition magic");
  }
  uint32_t id = 0;
  uint8_t codec_tag = 0;
  uint32_t num_chunks = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&id));
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&codec_tag));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&num_chunks));

  struct Entry {
    ChunkId id;
    DType dtype;
    uint8_t bit_width;
    uint64_t num_values;
    uint64_t length;
  };
  std::vector<Entry> dir(num_chunks);
  for (auto& e : dir) {
    uint8_t dtype_tag = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.id));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&dtype_tag));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&e.bit_width));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.num_values));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.length));
    if (dtype_tag > static_cast<uint8_t>(DType::kPackedW)) {
      return Status::Corruption("bad dtype tag in partition directory");
    }
    e.dtype = static_cast<DType>(dtype_tag);
  }

  // Decode the stored blob where it sits in `bytes`; a raw one is the
  // payload itself.
  std::span<const uint8_t> payload;
  MISTIQUE_RETURN_NOT_OK(r.GetBlob(&payload));
  MISTIQUE_ASSIGN_OR_RETURN(const Codec* codec,
                            GetCodec(static_cast<CodecType>(codec_tag)));
  std::vector<uint8_t> decoded;
  if (codec->type() != CodecType::kNone) {
    MISTIQUE_RETURN_NOT_OK(codec->Decompress(payload, &decoded));
    payload = decoded;
  }

  Partition p(id);
  size_t offset = 0;
  for (const Entry& e : dir) {
    if (e.length > payload.size() - offset) {
      return Status::Corruption("partition payload shorter than directory");
    }
    std::vector<uint8_t> data(payload.begin() + offset,
                              payload.begin() + offset + e.length);
    offset += e.length;
    MISTIQUE_RETURN_NOT_OK(p.Add(
        e.id,
        ColumnChunk(e.dtype, e.num_values, std::move(data), e.bit_width)));
  }
  if (offset != payload.size()) {
    return Status::Corruption("partition payload longer than directory");
  }
  return p;
}

}  // namespace mistique
