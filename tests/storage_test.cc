#include <cmath>

#include "common/random.h"
#include "gtest/gtest.h"
#include "storage/column_chunk.h"
#include "storage/data_store.h"
#include "storage/disk_store.h"
#include "storage/in_memory_store.h"
#include "storage/partition.h"
#include "test_util.h"

namespace mistique {
namespace {

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Gaussian();
  return out;
}

// ------------------------------------------------------------ ColumnChunk

TEST(ColumnChunkTest, Float64RoundTrip) {
  const std::vector<double> values = RandomDoubles(100, 1);
  ColumnChunk c = ColumnChunk::FromDoubles(values);
  EXPECT_EQ(c.dtype(), DType::kFloat64);
  EXPECT_EQ(c.num_values(), 100u);
  EXPECT_EQ(c.byte_size(), 800u);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  EXPECT_EQ(decoded, values);
}

TEST(ColumnChunkTest, Float32Halves) {
  const std::vector<double> values = {1.5, -2.25, 1e10};
  ColumnChunk c = ColumnChunk::FromDoubles(values, DType::kFloat32);
  EXPECT_EQ(c.byte_size(), 12u);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  EXPECT_EQ(decoded[0], 1.5);
  EXPECT_EQ(decoded[1], -2.25);
  EXPECT_NEAR(decoded[2], 1e10, 1e4);
}

TEST(ColumnChunkTest, Float16Quarters) {
  const std::vector<double> values = {1.0, 0.5, -2.0, 100.0};
  ColumnChunk c = ColumnChunk::FromDoubles(values, DType::kFloat16);
  EXPECT_EQ(c.byte_size(), 8u);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(decoded[i], values[i], std::abs(values[i]) / 1024.0 + 1e-9);
  }
}

TEST(ColumnChunkTest, IntRoundTrip) {
  const std::vector<int64_t> values = {-100, 0, 1, 1ll << 50};
  ColumnChunk c = ColumnChunk::FromInts(values);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  EXPECT_EQ(decoded[0], -100.0);
  EXPECT_EQ(decoded[3], static_cast<double>(1ll << 50));
}

TEST(ColumnChunkTest, BinsNeedReconTable) {
  ColumnChunk c = ColumnChunk::FromBins({0, 1, 2, 1});
  EXPECT_FALSE(c.DecodeAsDouble().ok());
  ReconstructionTable recon;
  recon.centers = {10.0, 20.0, 30.0};
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble(&recon));
  EXPECT_EQ(decoded, (std::vector<double>{10, 20, 30, 20}));
}

TEST(ColumnChunkTest, BinOutOfTableRangeRejected) {
  ColumnChunk c = ColumnChunk::FromBins({0, 5});
  ReconstructionTable recon;
  recon.centers = {1.0, 2.0};
  EXPECT_FALSE(c.DecodeAsDouble(&recon).ok());
}

TEST(ColumnChunkTest, BitsPackAndDecode) {
  std::vector<bool> bits;
  for (int i = 0; i < 19; ++i) bits.push_back(i % 3 == 0);
  ColumnChunk c = ColumnChunk::FromBits(bits);
  EXPECT_EQ(c.byte_size(), 3u);  // ceil(19/8)
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  for (int i = 0; i < 19; ++i) {
    EXPECT_EQ(decoded[static_cast<size_t>(i)], i % 3 == 0 ? 1.0 : 0.0);
  }
}

TEST(ColumnChunkTest, FingerprintMatchesIdenticalContent) {
  const std::vector<double> values = RandomDoubles(64, 5);
  ColumnChunk a = ColumnChunk::FromDoubles(values);
  ColumnChunk b = ColumnChunk::FromDoubles(values);
  EXPECT_TRUE(a.fingerprint() == b.fingerprint());
  std::vector<double> other = values;
  other[10] += 1e-9;
  EXPECT_FALSE(a.fingerprint() ==
               ColumnChunk::FromDoubles(other).fingerprint());
}

TEST(ColumnChunkTest, FingerprintDependsOnDtype) {
  const std::vector<double> zeros(16, 0.0);
  ColumnChunk f64 = ColumnChunk::FromDoubles(zeros, DType::kFloat64);
  // 32 zero floats have the same bytes as 16 zero doubles.
  ColumnChunk f32 = ColumnChunk::FromDoubles(std::vector<double>(32, 0.0),
                                             DType::kFloat32);
  EXPECT_EQ(f64.byte_size(), f32.byte_size());
  EXPECT_FALSE(f64.fingerprint() == f32.fingerprint());
}

TEST(ColumnChunkTest, MinMaxStats) {
  ColumnChunk c = ColumnChunk::FromDoubles({3.0, -1.0, 7.5, 0.0});
  EXPECT_EQ(c.min_value(), -1.0);
  EXPECT_EQ(c.max_value(), 7.5);
}

// ------------------------------------------------------------- Partition

TEST(PartitionTest, AddAndGet) {
  Partition p(1);
  ASSERT_OK(p.Add(10, ColumnChunk::FromDoubles({1, 2, 3})));
  ASSERT_OK(p.Add(11, ColumnChunk::FromDoubles({4, 5})));
  EXPECT_EQ(p.num_chunks(), 2u);
  EXPECT_EQ(p.data_bytes(), 40u);
  ASSERT_OK_AND_ASSIGN(const ColumnChunk* c, p.Get(11));
  EXPECT_EQ(c->num_values(), 2u);
  EXPECT_FALSE(p.Get(99).ok());
  EXPECT_EQ(p.Add(10, ColumnChunk()).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(p.Add(kInvalidChunkId, ColumnChunk()).code(),
            StatusCode::kInvalidArgument);
}

class PartitionSerdeTest : public ::testing::TestWithParam<CodecType> {};

TEST_P(PartitionSerdeTest, RoundTripsThroughEveryCodec) {
  Partition p(42);
  ASSERT_OK(p.Add(1, ColumnChunk::FromDoubles(RandomDoubles(1000, 1))));
  ASSERT_OK(p.Add(2, ColumnChunk::FromDoubles(RandomDoubles(1000, 1))));
  ASSERT_OK(p.Add(3, ColumnChunk::FromBins(std::vector<uint8_t>(500, 7))));
  ASSERT_OK(p.Add(4, ColumnChunk::FromPackedWords(
                         std::vector<uint8_t>(100, 3), 4)));
  ASSERT_OK_AND_ASSIGN(const Codec* codec, GetCodec(GetParam()));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*codec));
  ASSERT_OK_AND_ASSIGN(Partition q, Partition::Deserialize(bytes));

  EXPECT_EQ(q.id(), 42u);
  EXPECT_EQ(q.num_chunks(), 4u);
  ASSERT_OK_AND_ASSIGN(const ColumnChunk* c1, q.Get(1));
  ASSERT_OK_AND_ASSIGN(const ColumnChunk* c2, q.Get(2));
  EXPECT_EQ(c1->data(), c2->data());
  ASSERT_OK_AND_ASSIGN(const ColumnChunk* c4, q.Get(4));
  EXPECT_EQ(c4->dtype(), DType::kPackedW);
  EXPECT_EQ(c4->bit_width(), 4);
  EXPECT_EQ(c4->num_values(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, PartitionSerdeTest,
                         ::testing::Values(CodecType::kNone, CodecType::kLzss),
                         [](const auto& info) {
                           return CodecTypeName(info.param);
                         });

TEST(PartitionTest, DuplicateChunksCompressAway) {
  Partition p(1);
  const std::vector<double> values = RandomDoubles(4096, 3);
  for (ChunkId id = 1; id <= 20; ++id) {
    ASSERT_OK(p.Add(id, ColumnChunk::FromDoubles(values)));
  }
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
  // 20 identical chunks: compressed size ~ one chunk.
  EXPECT_LT(bytes.size(), values.size() * sizeof(double) * 2);
  // Each 32 KB chunk fills a frame, so the partition is sealed whole.
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  EXPECT_EQ(layout.frames.size(), 1u);
  ASSERT_OK_AND_ASSIGN(Partition q, Partition::Deserialize(bytes));
  EXPECT_EQ(q.chunk_ids(), p.chunk_ids());
}

TEST(PartitionTest, DuplicateSmallChunksCompressWithinAFrame) {
  // 20 identical 512-byte chunks share one 10 KB frame, whose LZSS window
  // turns all but the first into back-references.
  Partition p(1);
  const std::vector<double> values = RandomDoubles(64, 3);
  for (ChunkId id = 1; id <= 20; ++id) {
    ASSERT_OK(p.Add(id, ColumnChunk::FromDoubles(values)));
  }
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  ASSERT_EQ(layout.frames.size(), 1u);
  // 20 identical chunks: payload ~ one chunk, plus 20 directory entries.
  EXPECT_LT(bytes.size(), values.size() * sizeof(double) * 2 + 20 * 26);
}

TEST(PartitionTest, DissimilarLargeChunksStayFramed) {
  // Frame-sized chunks that share nothing gain nothing from a whole seal,
  // so each stays a frame a read can fetch alone.
  Partition p(2);
  for (ChunkId id = 1; id <= 4; ++id) {
    ASSERT_OK(p.Add(id, ColumnChunk::FromDoubles(RandomDoubles(4096, id))));
  }
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  EXPECT_EQ(layout.frames.size(), 4u);
  EXPECT_EQ(layout.chunk_frames, (std::vector<uint32_t>{0, 1, 2, 3}));
}

// The first frame's codec byte: after the magic, id, frame count and the
// frame's offset and length.
constexpr size_t kCodecByte = 20;

void ExpectSameChunks(const Partition& want, const Partition& got) {
  ASSERT_EQ(got.chunk_ids(), want.chunk_ids());
  for (ChunkId id : want.chunk_ids()) {
    ASSERT_OK_AND_ASSIGN(const ColumnChunk* a, want.Get(id));
    ASSERT_OK_AND_ASSIGN(const ColumnChunk* b, got.Get(id));
    EXPECT_EQ(b->dtype(), a->dtype());
    EXPECT_EQ(b->num_values(), a->num_values());
    EXPECT_EQ(b->data(), a->data()) << "chunk " << id;
  }
}

TEST(PartitionTest, IncompressiblePayloadSealsRaw) {
  // LZSS grows random doubles and bins, so the payload is stored as is.
  Partition p(5);
  Rng rng(8);
  std::vector<uint8_t> bins(300);
  for (uint8_t& b : bins) b = static_cast<uint8_t>(rng.NextBelow(256));
  ASSERT_OK(p.Add(1, ColumnChunk::FromDoubles(RandomDoubles(512, 9))));
  ASSERT_OK(p.Add(2, ColumnChunk::FromBins(bins)));
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
  EXPECT_EQ(bytes[kCodecByte], static_cast<uint8_t>(CodecType::kNone));
  // Header, one table entry, the chunk count, two directory entries, the
  // blob length and the raw payload.
  EXPECT_EQ(bytes.size(), 12 + 13 + 4 + 2 * 26 + 8 + p.data_bytes());
  ASSERT_OK_AND_ASSIGN(Partition q, Partition::Deserialize(bytes));
  ExpectSameChunks(p, q);
}

TEST(PartitionTest, CompressiblePayloadStaysLzss) {
  Partition p(6);
  const std::vector<double> values = RandomDoubles(256, 4);
  for (ChunkId id = 1; id <= 4; ++id) {
    ASSERT_OK(p.Add(id, ColumnChunk::FromDoubles(values)));
  }
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
  EXPECT_EQ(bytes[kCodecByte], static_cast<uint8_t>(CodecType::kLzss));
  EXPECT_LT(bytes.size(), p.data_bytes());
  ASSERT_OK_AND_ASSIGN(Partition q, Partition::Deserialize(bytes));
  ExpectSameChunks(p, q);
}

TEST(PartitionTest, ReadsLzssPartitionWrittenBeforeRawSeals) {
  // Serialized by the build that shipped the byte-at-a-time decoder and
  // always sealed with LZSS, before frames: chunk 1 holds 64 bins of 7,
  // chunk 2 the doubles {1.5, -2.25, 1.5, -2.25}. It reads as a one-frame
  // partition whose frame starts at byte 9 with codec byte 8.
  const std::vector<uint8_t> bytes = HexBytes(
      "5154534d07000000040200000001000000000000000308400000000000000040"
      "0000000000000002000000000000000040040000000000000020000000000000"
      "00280000000000000060000000000000000207010000003f0000000000000000"
      "f83f0000000000000402c0100000001000");
  constexpr size_t kLegacyCodecByte = 8;
  ASSERT_EQ(bytes[kLegacyCodecByte], static_cast<uint8_t>(CodecType::kLzss));
  Partition want(7);
  ASSERT_OK(want.Add(1, ColumnChunk::FromBins(std::vector<uint8_t>(64, 7))));
  ASSERT_OK(want.Add(2, ColumnChunk::FromDoubles({1.5, -2.25, 1.5, -2.25})));
  ASSERT_OK_AND_ASSIGN(Partition got, Partition::Deserialize(bytes));
  EXPECT_EQ(got.id(), 7u);
  ExpectSameChunks(want, got);

  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  ASSERT_EQ(layout.frames.size(), 1u);
  const FrameInfo& frame = layout.frames[0];
  EXPECT_EQ(frame.offset, 9u);
  EXPECT_EQ(frame.length, bytes.size() - 9);
  EXPECT_EQ(frame.codec, CodecType::kLzss);
  EXPECT_EQ(layout.chunk_ids, (std::vector<ChunkId>{1, 2}));
  ASSERT_OK_AND_ASSIGN(
      Partition decoded,
      Partition::DecodeFrame(7, frame,
                             std::span<const uint8_t>(bytes).subspan(9)));
  ExpectSameChunks(want, decoded);

  // Sealed today the same chunks make one frame whose body is the old
  // file's bytes after its codec byte, byte for byte.
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> again, want.Serialize(*lzss));
  ASSERT_OK_AND_ASSIGN(PartitionLayout framed, Partition::ReadLayout(again));
  ASSERT_EQ(framed.frames.size(), 1u);
  EXPECT_EQ(framed.frames[0].codec, CodecType::kLzss);
  EXPECT_EQ(framed.frames[0].crc, frame.crc);
  EXPECT_EQ(std::vector<uint8_t>(again.begin() + framed.frames[0].offset,
                                 again.end()),
            std::vector<uint8_t>(bytes.begin() + 9, bytes.end()));
}

TEST(PartitionTest, TwoFrameGoldenBytes) {
  // Chunks 1 and 2 (8 KB of bins of 7 each) fill the first frame, which
  // LZSS shrinks; chunk 3 (four doubles) is the second frame, stored raw.
  // No chunk fills a frame alone, so the partition stays framed.
  const std::vector<uint8_t> bytes = HexBytes(
      "4654534d030000000200000026000000500000000457c2664d76000000460000"
      "0000ea2bfcc00200000001000000000000000308002000000000000000200000"
      "0000000002000000000000000308002000000000000000200000000000001000"
      "0000000000000040000000000000020701000000ff3f01000000030000000000"
      "0000004004000000000000002000000000000000200000000000000000000000"
      "0000f83f00000000000002c0000000000000f83f00000000000002c0");
  Partition want(3);
  for (ChunkId id = 1; id <= 2; ++id) {
    ASSERT_OK(want.Add(id, ColumnChunk::FromBins(std::vector<uint8_t>(
                               kFrameTargetBytes / 2, 7))));
  }
  ASSERT_OK(want.Add(3, ColumnChunk::FromDoubles({1.5, -2.25, 1.5, -2.25})));
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> sealed, want.Serialize(*lzss));
  EXPECT_EQ(sealed, bytes);

  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  EXPECT_EQ(layout.id, 3u);
  ASSERT_EQ(layout.frames.size(), 2u);
  EXPECT_EQ(layout.frames[0].codec, CodecType::kLzss);
  EXPECT_EQ(layout.frames[1].codec, CodecType::kNone);
  EXPECT_EQ(layout.chunk_ids, (std::vector<ChunkId>{1, 2, 3}));
  EXPECT_EQ(layout.chunk_frames, (std::vector<uint32_t>{0, 0, 1}));
  ASSERT_OK_AND_ASSIGN(Partition got, Partition::Deserialize(bytes));
  ExpectSameChunks(want, got);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> again, got.Serialize(*lzss));
  EXPECT_EQ(again, bytes);
}

/// A partition of random chunks: sizes from a few bytes to past a frame,
/// random (raw) and repetitive (LZSS) payloads, every dtype still written.
Partition RandomPartition(PartitionId id, Rng& rng) {
  Partition p(id);
  const size_t n = 1 + rng.NextBelow(24);
  for (size_t i = 0; i < n; ++i) {
    const size_t values = 1 + rng.NextBelow(rng.NextBelow(4) == 0 ? 3000 : 300);
    ColumnChunk chunk;
    switch (rng.NextBelow(4)) {
      case 0: {
        std::vector<double> v(values);
        for (double& x : v) x = rng.Gaussian();
        chunk = ColumnChunk::FromDoubles(v, DType::kFloat32);
        break;
      }
      case 1:
        chunk = ColumnChunk::FromBins(std::vector<uint8_t>(
            values, static_cast<uint8_t>(rng.NextBelow(256))));
        break;
      case 2: {
        std::vector<uint8_t> bins(values);
        for (uint8_t& b : bins) b = static_cast<uint8_t>(rng.NextBelow(8));
        chunk = ColumnChunk::FromPackedWords(bins, 3);
        break;
      }
      default: {
        std::vector<bool> bits(values);
        for (size_t b = 0; b < values; ++b) bits[b] = rng.NextBelow(3) == 0;
        chunk = ColumnChunk::FromBits(bits);
        break;
      }
    }
    (void)p.Add(1000 * id + i + 1, std::move(chunk));
  }
  return p;
}

/// Every chunk `got` holds exists in `want` with the same bytes.
void ExpectOnlyOriginalChunks(const Partition& want, const Partition& got) {
  for (ChunkId id : got.chunk_ids()) {
    ASSERT_OK_AND_ASSIGN(const ColumnChunk* a, want.Get(id));
    ASSERT_OK_AND_ASSIGN(const ColumnChunk* b, got.Get(id));
    EXPECT_EQ(b->dtype(), a->dtype()) << "chunk " << id;
    EXPECT_EQ(b->num_values(), a->num_values()) << "chunk " << id;
    EXPECT_EQ(b->data(), a->data()) << "chunk " << id;
  }
}

TEST(PartitionTest, TruncatedOrFlippedFramesNeverServeWrongBytes) {
  TestSeed seed(2501);
  Rng rng(seed);
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  for (PartitionId id = 1; id <= 8; ++id) {
    const Partition p = RandomPartition(id, rng);
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*lzss));
    ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
    ASSERT_OK_AND_ASSIGN(Partition whole, Partition::Deserialize(bytes));
    ExpectSameChunks(p, whole);
    const size_t head = 12 + 13 * layout.frames.size();

    // Cut short anywhere in the header and frame table, just inside and
    // past each frame start, and one byte before the end: the layout no
    // longer tiles, so nothing decodes.
    std::vector<size_t> cuts;
    for (size_t len = 0; len <= head + 8 && len < bytes.size(); ++len) {
      cuts.push_back(len);
    }
    for (const FrameInfo& f : layout.frames) cuts.push_back(f.offset + 1);
    cuts.push_back(bytes.size() - 1);
    for (size_t len : cuts) {
      const std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + len);
      EXPECT_EQ(Partition::Deserialize(cut).status().code(),
                StatusCode::kCorruption)
          << "partition " << id << " cut to " << len;
      EXPECT_EQ(Partition::ReadLayout(cut).status().code(),
                StatusCode::kCorruption)
          << "partition " << id << " cut to " << len;
    }

    // A flipped byte inside a frame fails that frame's CRC; the other
    // frames still decode to their own chunks.
    for (size_t f = 0; f < layout.frames.size(); ++f) {
      const FrameInfo& frame = layout.frames[f];
      for (int flip = 0; flip < 4; ++flip) {
        std::vector<uint8_t> rotten = bytes;
        const size_t at = frame.offset + rng.NextBelow(frame.length);
        rotten[at] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
        const std::span<const uint8_t> all(rotten);
        for (size_t g = 0; g < layout.frames.size(); ++g) {
          const FrameInfo& other = layout.frames[g];
          Result<Partition> decoded = Partition::DecodeFrame(
              id, other, all.subspan(other.offset, other.length));
          if (g == f) {
            EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
                << "partition " << id << " frame " << f << " byte " << at;
          } else {
            ASSERT_OK(decoded.status());
            ExpectOnlyOriginalChunks(p, *decoded);
          }
        }
      }
    }

    // A flipped byte in the header or frame table: whatever still parses
    // and passes its frame's CRC holds only the original chunks' bytes.
    for (size_t at = 0; at < head; ++at) {
      std::vector<uint8_t> rotten = bytes;
      rotten[at] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      Result<PartitionLayout> parsed = Partition::ReadLayout(rotten);
      if (!parsed.ok()) {
        EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
        continue;
      }
      const std::span<const uint8_t> all(rotten);
      for (const FrameInfo& frame : parsed->frames) {
        Result<Partition> decoded = Partition::DecodeFrame(
            id, frame, all.subspan(frame.offset, frame.length));
        if (decoded.ok()) {
          ExpectOnlyOriginalChunks(p, *decoded);
        } else {
          EXPECT_TRUE(decoded.status().code() == StatusCode::kDataLoss ||
                      decoded.status().code() == StatusCode::kCorruption)
              << decoded.status().ToString();
        }
      }
    }
  }
}

TEST(PartitionTest, ReservedDTypeTagRejected) {
  // Tag 6 named the deleted bit-contiguous packed layout.
  Partition p(4);
  ASSERT_OK(p.Add(1, ColumnChunk::FromBins({1, 2, 3})));
  ASSERT_OK_AND_ASSIGN(const Codec* none, GetCodec(CodecType::kNone));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, p.Serialize(*none));
  // The dtype byte follows the frame's chunk count and the chunk id.
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(bytes));
  const size_t dtype_at = layout.frames[0].offset + 4 + 8;
  ASSERT_EQ(bytes[dtype_at], static_cast<uint8_t>(DType::kUInt8));
  bytes[dtype_at] = 6;
  EXPECT_EQ(Partition::Deserialize(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(PartitionTest, CorruptMagicRejected) {
  std::vector<uint8_t> junk(64, 0xab);
  EXPECT_EQ(Partition::Deserialize(junk).status().code(),
            StatusCode::kCorruption);
}

// --------------------------------------------------------- InMemoryStore

std::shared_ptr<const Partition> MakePartition(PartitionId id, size_t bytes) {
  auto p = std::make_shared<Partition>(id);
  const size_t n = bytes / sizeof(double);
  (void)p->Add(id * 1000 + 1, ColumnChunk::FromDoubles(RandomDoubles(n, id)));
  return p;
}

FrameKey Key(PartitionId id) { return FrameKey{id, 0, 1}; }

TEST(InMemoryStoreTest, EvictsLeastRecentlyUsed) {
  InMemoryStore store(3000);
  EXPECT_TRUE(store.Insert(Key(1), MakePartition(1, 1000)).empty());
  EXPECT_TRUE(store.Insert(Key(2), MakePartition(2, 1000)).empty());
  EXPECT_TRUE(store.Insert(Key(3), MakePartition(3, 1000)).empty());
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(store.Lookup(Key(1)), nullptr);
  auto evicted = store.Insert(Key(4), MakePartition(4, 1000));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0]->id(), 2u);
  EXPECT_EQ(store.Lookup(Key(2)), nullptr);
  EXPECT_NE(store.Lookup(Key(1)), nullptr);
}

TEST(InMemoryStoreTest, OversizedSinglePartitionAdmitted) {
  InMemoryStore store(100);
  EXPECT_TRUE(store.Insert(Key(1), MakePartition(1, 5000)).empty());
  EXPECT_NE(store.Lookup(Key(1)), nullptr);
}

TEST(InMemoryStoreTest, ReplaceUpdatesBytes) {
  InMemoryStore store(1u << 20);
  store.Insert(Key(1), MakePartition(1, 1000));
  const size_t before = store.size_bytes();
  store.Insert(Key(1), MakePartition(1, 2000));
  EXPECT_GT(store.size_bytes(), before);
  EXPECT_EQ(store.num_frames(), 1u);
}

TEST(InMemoryStoreTest, EraseRemovesWithoutEviction) {
  // Erase drops exactly the frame its key names.
  InMemoryStore store(1u << 20);
  store.Insert(Key(1), MakePartition(1, 1000));
  store.Insert(FrameKey{1, 3, 1}, MakePartition(1, 1000));
  store.Insert(Key(2), MakePartition(2, 1000));
  store.Erase(Key(1));
  store.Erase(FrameKey{1, 3, 2});  // Another generation: not cached.
  EXPECT_EQ(store.Lookup(Key(1)), nullptr);
  EXPECT_NE(store.Lookup(FrameKey{1, 3, 1}), nullptr);
  EXPECT_EQ(store.num_frames(), 2u);
  store.Erase(FrameKey{1, 3, 1});
  store.Erase(Key(2));
  EXPECT_EQ(store.num_frames(), 0u);
  EXPECT_EQ(store.size_bytes(), 0u);
}

TEST(InMemoryStoreTest, HitMissCounters) {
  InMemoryStore store(1u << 20);
  store.Insert(Key(1), MakePartition(1, 100));
  store.Lookup(Key(1));
  store.Lookup(Key(2));
  store.Lookup(FrameKey{1, 0, 2});  // Another generation: a miss.
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 2u);
}

// ------------------------------------------------------------- DiskStore

TEST(DiskStoreTest, WriteReadRoundTrip) {
  TempDir dir("disk");
  DiskStore store;
  ASSERT_OK(store.Open(dir.path()));
  const std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  ASSERT_OK(store.WritePartition(7, bytes));
  EXPECT_TRUE(store.Contains(7));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read, store.ReadPartition(7));
  EXPECT_EQ(read, bytes);
  EXPECT_EQ(store.total_bytes(), 5u);
}

TEST(DiskStoreTest, ReopenRecoversIndex) {
  TempDir dir("disk_reopen");
  {
    DiskStore store;
    ASSERT_OK(store.Open(dir.path()));
    ASSERT_OK(store.WritePartition(1, {1, 2, 3}));
    ASSERT_OK(store.WritePartition(2, {4, 5, 6, 7}));
  }
  DiskStore store;
  ASSERT_OK(store.Open(dir.path()));
  EXPECT_EQ(store.num_partitions(), 2u);
  EXPECT_EQ(store.total_bytes(), 7u);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read, store.ReadPartition(2));
  EXPECT_EQ(read.size(), 4u);
}

TEST(DiskStoreTest, MissingPartitionNotFound) {
  TempDir dir("disk_missing");
  DiskStore store;
  ASSERT_OK(store.Open(dir.path()));
  EXPECT_EQ(store.ReadPartition(5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.PartitionSize(5).status().code(), StatusCode::kNotFound);
}

TEST(DiskStoreTest, OverwriteUpdatesTotals) {
  TempDir dir("disk_overwrite");
  DiskStore store;
  ASSERT_OK(store.Open(dir.path()));
  ASSERT_OK(store.WritePartition(1, std::vector<uint8_t>(100, 1)));
  ASSERT_OK(store.WritePartition(1, std::vector<uint8_t>(40, 2)));
  EXPECT_EQ(store.total_bytes(), 40u);
  EXPECT_EQ(store.num_partitions(), 1u);
}

TEST(DiskStoreTest, ClearRemovesEverything) {
  TempDir dir("disk_clear");
  DiskStore store;
  ASSERT_OK(store.Open(dir.path()));
  ASSERT_OK(store.WritePartition(1, {1}));
  ASSERT_OK(store.Clear());
  EXPECT_EQ(store.total_bytes(), 0u);
  EXPECT_FALSE(store.Contains(1));
}

// ------------------------------------------------------------- DataStore

DataStoreOptions SmallStore(const std::string& dir) {
  DataStoreOptions opts;
  opts.directory = dir;
  opts.memory_budget_bytes = 1u << 20;
  opts.partition_target_bytes = 16 * 1024;
  return opts;
}

TEST(DataStoreTest, AddGetThroughAllTiers) {
  TempDir dir("ds");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));

  const PartitionId pid = store.CreatePartition();
  EXPECT_TRUE(store.IsOpen(pid));
  const std::vector<double> values = RandomDoubles(100, 1);
  ASSERT_OK_AND_ASSIGN(ChunkId id,
                       store.AddChunk(pid, ColumnChunk::FromDoubles(values)));

  // 1. Read while open.
  ASSERT_OK_AND_ASSIGN(ChunkRef ref1, store.GetChunk(id));
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded1,
                       ref1.chunk->DecodeAsDouble());
  EXPECT_EQ(decoded1, values);

  // 2. Seal -> buffer pool.
  ASSERT_OK(store.SealPartition(pid));
  EXPECT_FALSE(store.IsOpen(pid));
  ASSERT_OK_AND_ASSIGN(ChunkRef ref2, store.GetChunk(id));
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded2,
                       ref2.chunk->DecodeAsDouble());
  EXPECT_EQ(decoded2, values);
  EXPECT_GT(store.stored_bytes(), 0u);
}

TEST(DataStoreTest, AutoSealsAtTargetSize) {
  TempDir dir("ds_autoseal");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));
  const PartitionId pid = store.CreatePartition();
  // 16KB target; each chunk is 8KB of doubles.
  ASSERT_OK(store.AddChunk(pid, ColumnChunk::FromDoubles(RandomDoubles(1024, 1)))
                .status());
  EXPECT_TRUE(store.IsOpen(pid));
  ASSERT_OK(store.AddChunk(pid, ColumnChunk::FromDoubles(RandomDoubles(1024, 2)))
                .status());
  EXPECT_FALSE(store.IsOpen(pid));  // Sealed at 16KB.
  EXPECT_EQ(store.disk().num_partitions(), 1u);
}

TEST(DataStoreTest, AddToSealedPartitionRejected) {
  TempDir dir("ds_sealed");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));
  const PartitionId pid = store.CreatePartition();
  ASSERT_OK(store.SealPartition(pid));
  EXPECT_FALSE(store.AddChunk(pid, ColumnChunk::FromDoubles({1.0})).ok());
}

TEST(DataStoreTest, ReadsBackFromDiskAfterCacheEviction) {
  TempDir dir("ds_disk_read");
  DataStoreOptions opts = SmallStore(dir.path());
  opts.memory_budget_bytes = 20 * 1024;  // Tiny pool: forces disk reads.
  DataStore store;
  ASSERT_OK(store.Open(opts));

  std::vector<ChunkId> ids;
  for (int p = 0; p < 8; ++p) {
    const PartitionId pid = store.CreatePartition();
    ASSERT_OK_AND_ASSIGN(
        ChunkId id,
        store.AddChunk(pid, ColumnChunk::FromDoubles(
                                RandomDoubles(1024, 100 + p))));
    ids.push_back(id);
    ASSERT_OK(store.SealPartition(pid));
  }
  // Reading the first chunk again must hit disk (pool can hold ~2).
  const uint64_t before = store.disk_read_bytes();
  ASSERT_OK_AND_ASSIGN(ChunkRef ref, store.GetChunk(ids[0]));
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                       ref.chunk->DecodeAsDouble());
  EXPECT_EQ(decoded, RandomDoubles(1024, 100));
  EXPECT_GT(store.disk_read_bytes(), before);
}

TEST(DataStoreTest, ColdGetChunkReadsOneFrame) {
  TempDir dir("ds_one_frame");
  DataStoreOptions opts = SmallStore(dir.path());
  opts.memory_budget_bytes = 1;  // Every sealed read misses the pool.
  opts.partition_target_bytes = 1u << 20;
  DataStore store;
  ASSERT_OK(store.Open(opts));

  // Eight 8 KB chunks of random doubles: four raw frames of two chunks.
  const PartitionId pid = store.CreatePartition();
  std::vector<ChunkId> ids;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(
        ChunkId id, store.AddChunk(pid, ColumnChunk::FromDoubles(
                                            RandomDoubles(1024, 200 + i))));
    ids.push_back(id);
  }
  ASSERT_OK(store.SealPartition(pid));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> file,
                       store.disk().ReadPartition(pid));
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(file));
  ASSERT_EQ(layout.frames.size(), 4u);

  const uint64_t before = store.disk_read_bytes();
  ASSERT_OK_AND_ASSIGN(ChunkRef ref, store.GetChunk(ids[5]));
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                       ref.chunk->DecodeAsDouble());
  EXPECT_EQ(decoded, RandomDoubles(1024, 205));
  // Chunk 5 sits in frame 2: one frame's stored bytes, not the file's.
  EXPECT_EQ(store.disk_read_bytes() - before, layout.frames[2].length);
  EXPECT_LT(layout.frames[2].length, store.stored_bytes() / 3);
  EXPECT_EQ(layout.chunk_ids[5], ids[5]);
  EXPECT_EQ(layout.chunk_frames[5], 2u);
}

TEST(DataStoreTest, GetChunksLoadsEachFrameOnce) {
  TempDir dir("ds_batch");
  DataStoreOptions opts = SmallStore(dir.path());
  opts.memory_budget_bytes = 1;  // Only the batch's own refs pin frames.
  opts.partition_target_bytes = 1u << 20;
  DataStore store;
  ASSERT_OK(store.Open(opts));

  // Eight 8 KB chunks: four frames of two. One more chunk stays open.
  const PartitionId pid = store.CreatePartition();
  std::vector<ChunkId> ids;
  for (int i = 0; i < 8; ++i) {
    ASSERT_OK_AND_ASSIGN(
        ChunkId id, store.AddChunk(pid, ColumnChunk::FromDoubles(
                                            RandomDoubles(1024, 300 + i))));
    ids.push_back(id);
  }
  ASSERT_OK(store.SealPartition(pid));
  const PartitionId open_pid = store.CreatePartition();
  ASSERT_OK_AND_ASSIGN(ChunkId open_id,
                       store.AddChunk(open_pid, ColumnChunk::FromDoubles(
                                                    {1.5, -2.25})));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> file,
                       store.disk().ReadPartition(pid));
  ASSERT_OK_AND_ASSIGN(PartitionLayout layout, Partition::ReadLayout(file));
  ASSERT_EQ(layout.frames.size(), 4u);

  // Frames 2, 0 and 2 again, an open chunk and a repeated id.
  const std::vector<ChunkId> want = {ids[5], ids[0], ids[1], open_id,
                                     ids[4], ids[5]};
  const uint64_t before = store.disk_read_bytes();
  std::vector<ChunkRef> refs;
  ASSERT_OK(store.GetChunks(want, &refs));
  ASSERT_EQ(refs.size(), want.size());
  EXPECT_EQ(store.disk_read_bytes() - before,
            layout.frames[0].length + layout.frames[2].length);
  const std::vector<int> seeds = {305, 300, 301, -1, 304, 305};
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                         refs[i].chunk->DecodeAsDouble());
    if (seeds[i] < 0) {
      EXPECT_EQ(decoded, (std::vector<double>{1.5, -2.25}));
    } else {
      EXPECT_EQ(decoded, RandomDoubles(1024, seeds[i])) << "chunk " << i;
    }
  }
  // Chunks of one frame share its holder.
  EXPECT_EQ(refs[0].holder, refs[4].holder);
  EXPECT_EQ(refs[1].holder, refs[2].holder);

  const std::vector<ChunkId> unknown = {ids[0], 999};
  EXPECT_EQ(store.GetChunks(unknown, &refs).code(), StatusCode::kNotFound);
}

TEST(DataStoreTest, FlushSealsEverything) {
  TempDir dir("ds_flush");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));
  const PartitionId a = store.CreatePartition();
  const PartitionId b = store.CreatePartition();
  ASSERT_OK(store.AddChunk(a, ColumnChunk::FromDoubles({1})).status());
  ASSERT_OK(store.AddChunk(b, ColumnChunk::FromDoubles({2})).status());
  ASSERT_OK(store.Flush());
  EXPECT_FALSE(store.IsOpen(a));
  EXPECT_FALSE(store.IsOpen(b));
  EXPECT_EQ(store.open_bytes(), 0u);
  EXPECT_EQ(store.disk().num_partitions(), 2u);
}

TEST(DataStoreTest, DropPartitionErasesEverything) {
  TempDir dir("ds_drop");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));
  const PartitionId pid = store.CreatePartition();
  ASSERT_OK_AND_ASSIGN(
      ChunkId id,
      store.AddChunk(pid, ColumnChunk::FromDoubles(RandomDoubles(100, 1))));
  ASSERT_OK(store.SealPartition(pid));
  EXPECT_GT(store.stored_bytes(), 0u);

  ASSERT_OK(store.DropPartition(pid));
  EXPECT_EQ(store.stored_bytes(), 0u);
  EXPECT_EQ(store.num_chunks(), 0u);
  EXPECT_EQ(store.GetChunk(id).status().code(), StatusCode::kNotFound);
  // Dropping an open partition also works.
  const PartitionId open_pid = store.CreatePartition();
  ASSERT_OK(store.AddChunk(open_pid, ColumnChunk::FromDoubles({1.0}))
                .status());
  ASSERT_OK(store.DropPartition(open_pid));
  EXPECT_EQ(store.open_bytes(), 0u);
}

TEST(DataStoreTest, UnknownChunkNotFound) {
  TempDir dir("ds_unknown");
  DataStore store;
  ASSERT_OK(store.Open(SmallStore(dir.path())));
  EXPECT_EQ(store.GetChunk(999).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mistique
