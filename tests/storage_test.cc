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

TEST(ColumnChunkTest, PackedBinsRoundTrip) {
  std::vector<uint8_t> bins;
  for (int i = 0; i < 100; ++i) bins.push_back(static_cast<uint8_t>(i % 8));
  ColumnChunk c = ColumnChunk::FromPackedBins(bins, 3);
  EXPECT_EQ(c.dtype(), DType::kPacked);
  EXPECT_EQ(c.bit_width(), 3);
  EXPECT_EQ(c.byte_size(), (100u * 3 + 7) / 8);
  ReconstructionTable recon;
  for (int i = 0; i < 8; ++i) recon.centers.push_back(i * 1.5);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble(&recon));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(decoded[static_cast<size_t>(i)], (i % 8) * 1.5);
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
  ASSERT_OK(p.Add(4, ColumnChunk::FromPackedBins(
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
  EXPECT_EQ(c4->dtype(), DType::kPacked);
  EXPECT_EQ(c4->bit_width(), 4);
  EXPECT_EQ(c4->num_values(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Codecs, PartitionSerdeTest,
                         ::testing::Values(CodecType::kNone, CodecType::kRle,
                                           CodecType::kLzss),
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
}

// A serialized partition's codec byte follows its magic and id.
constexpr size_t kCodecByte = 8;

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
  // Header, two directory entries, the blob length and the raw payload.
  EXPECT_EQ(bytes.size(), 13 + 2 * 26 + 8 + p.data_bytes());
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
  // always sealed with LZSS: chunk 1 holds 64 bins of 7, chunk 2 the
  // doubles {1.5, -2.25, 1.5, -2.25}. LZSS shrinks it, so it is still
  // written byte for byte the same.
  const std::vector<uint8_t> bytes = HexBytes(
      "5154534d07000000040200000001000000000000000308400000000000000040"
      "0000000000000002000000000000000040040000000000000020000000000000"
      "00280000000000000060000000000000000207010000003f0000000000000000"
      "f83f0000000000000402c0100000001000");
  ASSERT_EQ(bytes[kCodecByte], static_cast<uint8_t>(CodecType::kLzss));
  Partition want(7);
  ASSERT_OK(want.Add(1, ColumnChunk::FromBins(std::vector<uint8_t>(64, 7))));
  ASSERT_OK(want.Add(2, ColumnChunk::FromDoubles({1.5, -2.25, 1.5, -2.25})));
  ASSERT_OK_AND_ASSIGN(Partition got, Partition::Deserialize(bytes));
  EXPECT_EQ(got.id(), 7u);
  ExpectSameChunks(want, got);
  ASSERT_OK_AND_ASSIGN(const Codec* lzss, GetCodec(CodecType::kLzss));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> again, want.Serialize(*lzss));
  EXPECT_EQ(again, bytes);
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

TEST(InMemoryStoreTest, EvictsLeastRecentlyUsed) {
  InMemoryStore store(3000);
  EXPECT_TRUE(store.Insert(MakePartition(1, 1000)).empty());
  EXPECT_TRUE(store.Insert(MakePartition(2, 1000)).empty());
  EXPECT_TRUE(store.Insert(MakePartition(3, 1000)).empty());
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(store.Lookup(1), nullptr);
  auto evicted = store.Insert(MakePartition(4, 1000));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0]->id(), 2u);
  EXPECT_EQ(store.Lookup(2), nullptr);
  EXPECT_NE(store.Lookup(1), nullptr);
}

TEST(InMemoryStoreTest, OversizedSinglePartitionAdmitted) {
  InMemoryStore store(100);
  EXPECT_TRUE(store.Insert(MakePartition(1, 5000)).empty());
  EXPECT_NE(store.Lookup(1), nullptr);
}

TEST(InMemoryStoreTest, ReplaceUpdatesBytes) {
  InMemoryStore store(1u << 20);
  store.Insert(MakePartition(1, 1000));
  const size_t before = store.size_bytes();
  store.Insert(MakePartition(1, 2000));
  EXPECT_GT(store.size_bytes(), before);
  EXPECT_EQ(store.num_partitions(), 1u);
}

TEST(InMemoryStoreTest, EraseRemovesWithoutEviction) {
  InMemoryStore store(1u << 20);
  store.Insert(MakePartition(1, 1000));
  store.Erase(1);
  EXPECT_EQ(store.Lookup(1), nullptr);
  EXPECT_EQ(store.size_bytes(), 0u);
}

TEST(InMemoryStoreTest, HitMissCounters) {
  InMemoryStore store(1u << 20);
  store.Insert(MakePartition(1, 100));
  store.Lookup(1);
  store.Lookup(2);
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
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
