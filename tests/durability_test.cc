#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/mistique.h"
#include "durability/crc32c.h"
#include "durability/durable_file.h"
#include "durability/fault_injection.h"
#include "durability/wal.h"
#include "gtest/gtest.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "storage/disk_store.h"
#include "storage/partition.h"
#include "test_util.h"

namespace mistique {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------------- CRC32C

TEST(Crc32cTest, KnownAnswerVectors) {
  // Standard CRC32C check values (RFC 3720 / LevelDB's test vectors).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  std::vector<uint8_t> incr(32);
  for (size_t i = 0; i < incr.size(); ++i) incr[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(Crc32c(incr.data(), incr.size()), 0x46DD794Eu);
}

/// Every implementation Crc32cExtend can pick on this machine, and the
/// dispatched entry point itself.
std::vector<std::pair<const char*, Crc32cExtendFn>> Crc32cPaths() {
  std::vector<std::pair<const char*, Crc32cExtendFn>> paths = {
      {"portable", Crc32cExtendPortable}, {"dispatched", Crc32cExtend}};
  if (Crc32cExtendFn hardware = Crc32cHardwareExtend()) {
    paths.emplace_back("sse4.2", hardware);
  }
  return paths;
}

TEST(Crc32cTest, ExtendComposesOverSplits) {
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  for (const auto& [name, extend] : Crc32cPaths()) {
    EXPECT_EQ(extend(0, data.data(), data.size()), whole) << name;
    for (size_t split :
         {size_t{0}, size_t{1}, size_t{8}, size_t{100}, data.size()}) {
      const uint32_t head = extend(0, data.data(), split);
      EXPECT_EQ(extend(head, data.data() + split, data.size() - split), whole)
          << name << " split at " << split;
    }
  }
}

TEST(Crc32cTest, HardwarePathMatchesPortableTable) {
  const Crc32cExtendFn hardware = Crc32cHardwareExtend();
  if (hardware == nullptr) GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  Rng rng(0xC5C32C);
  // Every start alignment and every length across the 8-byte word loop's
  // head, body and tail, from an incoming state that is not the default.
  std::vector<uint8_t> buf(16 + 4200);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t align = 0; align < 16; ++align) {
    const uint8_t* p = buf.data() + align;
    for (size_t len = 0; len <= 4200; ++len) {
      const uint32_t state = static_cast<uint32_t>(len * 0x9E3779B9u);
      ASSERT_EQ(hardware(state, p, len), Crc32cExtendPortable(state, p, len))
          << "align " << align << " len " << len;
    }
  }
  std::vector<uint8_t> big(1u << 20);
  for (int trial = 0; trial < 4; ++trial) {
    for (uint8_t& b : big) b = static_cast<uint8_t>(rng.NextU64());
    EXPECT_EQ(hardware(0, big.data(), big.size()),
              Crc32cExtendPortable(0, big.data(), big.size()))
        << "trial " << trial;
    EXPECT_EQ(Crc32c(big.data(), big.size()),
              Crc32cExtendPortable(0, big.data(), big.size()))
        << "trial " << trial;
  }
}

// ------------------------------------------------------ File envelope

std::vector<uint8_t> TestPayload(size_t n) {
  std::vector<uint8_t> payload(n);
  for (size_t i = 0; i < n; ++i) payload[i] = static_cast<uint8_t>(i * 13);
  return payload;
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

/// Flips one payload byte of an envelope file (header left intact).
void FlipPayloadByte(const std::string& path) {
  const auto size = fs::file_size(path);
  ASSERT_GT(size, kEnvelopeHeaderSize);
  FlipByteAt(path, kEnvelopeHeaderSize + (size - kEnvelopeHeaderSize) / 2);
}

TEST(EnvelopeTest, RoundTripLeavesNoTemp) {
  TempDir dir("envelope");
  const std::string path = dir.path() + "/blob.mq";
  const std::vector<uint8_t> payload = TestPayload(1000);
  ASSERT_OK(WriteEnvelopeFileAtomic(path, payload, /*sync=*/true, "partition"));
  EXPECT_FALSE(fs::exists(path + kTempSuffix));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read, ReadEnvelopeFile(path));
  EXPECT_EQ(read, payload);
  ASSERT_OK_AND_ASSIGN(uint64_t probed, ProbeEnvelopeFile(path));
  EXPECT_EQ(probed, payload.size());
}

TEST(EnvelopeTest, BitFlipIsDataLoss) {
  TempDir dir("envelope_flip");
  const std::string path = dir.path() + "/blob.mq";
  ASSERT_OK(WriteEnvelopeFileAtomic(path, TestPayload(1000), true, "partition"));
  FlipPayloadByte(path);
  // The header is intact, so the cheap probe still passes…
  EXPECT_OK(ProbeEnvelopeFile(path).status());
  // …but the full read catches the rot.
  EXPECT_EQ(ReadEnvelopeFile(path).status().code(), StatusCode::kDataLoss);
}

TEST(EnvelopeTest, TruncationAndStrayBytesAreCorruption) {
  TempDir dir("envelope_trunc");
  const std::string path = dir.path() + "/blob.mq";
  ASSERT_OK(WriteEnvelopeFileAtomic(path, TestPayload(1000), true, "partition"));
  const auto size = fs::file_size(path);

  // Torn write: file shorter than the declared payload.
  fs::resize_file(path, size / 2);
  EXPECT_EQ(ProbeEnvelopeFile(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadEnvelopeFile(path).status().code(), StatusCode::kCorruption);

  // Zero-length stub (crash between create and first write).
  fs::resize_file(path, 0);
  EXPECT_EQ(ProbeEnvelopeFile(path).status().code(), StatusCode::kCorruption);

  // Trailing garbage beyond the declared payload.
  ASSERT_OK(WriteEnvelopeFileAtomic(path, TestPayload(100), true, "partition"));
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "junk";
  }
  EXPECT_EQ(ProbeEnvelopeFile(path).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(ReadEnvelopeFile(path).status().code(), StatusCode::kCorruption);

  // Missing file is an I/O error, not corruption.
  EXPECT_EQ(ReadEnvelopeFile(dir.path() + "/ghost.mq").status().code(),
            StatusCode::kIoError);
}

// --------------------------------------------------- Fault injection

class FaultPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Instance().Disarm(); }
};

TEST_F(FaultPointTest, ErrorBeforeRenameLeavesNeitherTempNorDestination) {
  TempDir dir("fault_pre_rename");
  for (const char* label : {"partition.tmp_written", "partition.tmp_synced"}) {
    const std::string path = dir.path() + "/" + label;
    FaultInjector::Instance().Arm(label, FaultMode::kError);
    const Status st =
        WriteEnvelopeFileAtomic(path, TestPayload(64), true, "partition");
    EXPECT_EQ(st.code(), StatusCode::kIoError) << label;
    EXPECT_FALSE(fs::exists(path)) << label;
    EXPECT_FALSE(fs::exists(path + kTempSuffix)) << label;
    EXPECT_FALSE(FaultInjector::Instance().armed());  // One-shot.
  }
}

TEST_F(FaultPointTest, ErrorAfterRenameLeavesCompleteDestination) {
  TempDir dir("fault_post_rename");
  const std::string path = dir.path() + "/blob.mq";
  FaultInjector::Instance().Arm("partition.renamed", FaultMode::kError);
  const Status st =
      WriteEnvelopeFileAtomic(path, TestPayload(64), true, "partition");
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // Past the rename the destination is complete and valid.
  EXPECT_FALSE(fs::exists(path + kTempSuffix));
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> read, ReadEnvelopeFile(path));
  EXPECT_EQ(read, TestPayload(64));
}

TEST_F(FaultPointTest, CountdownFiresOnNthHit) {
  TempDir dir("fault_nth");
  FaultInjector::Instance().Arm("partition.tmp_written", FaultMode::kError,
                                /*countdown=*/2);
  const std::string a = dir.path() + "/a.mq";
  const std::string b = dir.path() + "/b.mq";
  EXPECT_OK(WriteEnvelopeFileAtomic(a, TestPayload(8), true, "partition"));
  EXPECT_EQ(
      WriteEnvelopeFileAtomic(b, TestPayload(8), true, "partition").code(),
      StatusCode::kIoError);
  EXPECT_TRUE(fs::exists(a));
  EXPECT_FALSE(fs::exists(b));
}

TEST_F(FaultPointTest, LabelsCoverEveryInstrumentedPoint) {
  // The crash harness iterates this list; keep it in sync with the
  // MISTIQUE_FAULT call sites.
  const std::vector<std::string>& labels = FaultPointLabels();
  for (const char* expected :
       {"partition.tmp_written", "partition.tmp_synced", "partition.renamed",
        "catalog.tmp_written", "catalog.tmp_synced", "catalog.renamed",
        "wal.appended", "wal.rotate"}) {
    EXPECT_NE(std::find(labels.begin(), labels.end(), expected), labels.end())
        << expected;
  }
}

// -------------------------------------------------- Write-ahead log

TEST(WalTest, AppendReplayRoundTrip) {
  TempDir dir("wal_roundtrip");
  const std::string path = dir.path() + "/catalog.wal";
  {
    WriteAheadLog wal;
    ASSERT_OK(wal.Open(path, /*epoch_if_new=*/7, /*truncate_to=*/0, true));
    EXPECT_EQ(wal.epoch(), 7u);
    ASSERT_OK(wal.Append(1, {0xAA, 0xBB}, /*durable=*/true));
    ASSERT_OK(wal.Append(2, {}, /*durable=*/false));
    ASSERT_OK(wal.Append(3, std::vector<uint8_t>(300, 0x5C), true));
  }
  ASSERT_OK_AND_ASSIGN(WriteAheadLog::ReplayResult replay,
                       WriteAheadLog::Read(path));
  EXPECT_EQ(replay.epoch, 7u);
  EXPECT_FALSE(replay.truncated_tail);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].type, 1);
  EXPECT_EQ(replay.records[0].payload, (std::vector<uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(replay.records[1].type, 2);
  EXPECT_TRUE(replay.records[1].payload.empty());
  EXPECT_EQ(replay.records[2].payload.size(), 300u);
}

TEST(WalTest, TornTailIsDiscardedAndTrimmedOnReopen) {
  TempDir dir("wal_torn");
  const std::string path = dir.path() + "/catalog.wal";
  {
    WriteAheadLog wal;
    ASSERT_OK(wal.Open(path, 4, 0, true));
    ASSERT_OK(wal.Append(1, {1, 2, 3}, true));
    ASSERT_OK(wal.Append(2, {4, 5}, true));
  }
  {
    // Simulate a crash mid-append: a record header promising more bytes
    // than the file holds.
    std::ofstream f(path, std::ios::app | std::ios::binary);
    const uint32_t bogus_len = 1000;
    f.write(reinterpret_cast<const char*>(&bogus_len), 4);
    f.write("\x12\x34\x56\x78\x9a", 5);
  }
  ASSERT_OK_AND_ASSIGN(WriteAheadLog::ReplayResult replay,
                       WriteAheadLog::Read(path));
  EXPECT_TRUE(replay.truncated_tail);
  ASSERT_EQ(replay.records.size(), 2u);

  // Reopening with the replay's valid_bytes trims the tail; appends land
  // after the last valid record.
  WriteAheadLog wal;
  ASSERT_OK(wal.Open(path, 4, replay.valid_bytes, true));
  EXPECT_EQ(wal.epoch(), 4u);
  ASSERT_OK(wal.Append(3, {9}, true));
  ASSERT_OK_AND_ASSIGN(WriteAheadLog::ReplayResult again,
                       WriteAheadLog::Read(path));
  EXPECT_FALSE(again.truncated_tail);
  ASSERT_EQ(again.records.size(), 3u);
  EXPECT_EQ(again.records[2].type, 3);
}

TEST(WalTest, CorruptRecordStopsReplay) {
  TempDir dir("wal_corrupt");
  const std::string path = dir.path() + "/catalog.wal";
  {
    WriteAheadLog wal;
    ASSERT_OK(wal.Open(path, 1, 0, true));
    ASSERT_OK(wal.Append(1, std::vector<uint8_t>(64, 0x11), true));
    ASSERT_OK(wal.Append(2, std::vector<uint8_t>(64, 0x22), true));
  }
  // Flip a byte inside the SECOND record's payload.
  const auto size = fs::file_size(path);
  FlipByteAt(path, size - 10);
  ASSERT_OK_AND_ASSIGN(WriteAheadLog::ReplayResult replay,
                       WriteAheadLog::Read(path));
  EXPECT_TRUE(replay.truncated_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].type, 1);
}

TEST(WalTest, ExistingLogKeepsItsEpochUntilRotated) {
  TempDir dir("wal_epoch");
  const std::string path = dir.path() + "/catalog.wal";
  {
    WriteAheadLog wal;
    ASSERT_OK(wal.Open(path, 3, 0, true));
    ASSERT_OK(wal.Append(1, {7}, true));
  }
  // A stale log (snapshot advanced to epoch 9, crash before rotation)
  // must keep reporting epoch 3 so the caller notices and rotates.
  WriteAheadLog wal;
  ASSERT_OK(wal.Open(path, /*epoch_if_new=*/9, 0, true));
  EXPECT_EQ(wal.epoch(), 3u);
  ASSERT_OK(wal.Rotate(9));
  EXPECT_EQ(wal.epoch(), 9u);
  ASSERT_OK_AND_ASSIGN(WriteAheadLog::ReplayResult replay,
                       WriteAheadLog::Read(path));
  EXPECT_EQ(replay.epoch, 9u);
  EXPECT_TRUE(replay.records.empty());
}

// ------------------------------------------------- DiskStore hardening

TEST(DiskStoreHardeningTest, OpenSweepsTempsAndSkipsBadFiles) {
  TempDir dir("disk_harden");
  const std::string store_dir = dir.path() + "/store";
  {
    DiskStore store;
    ASSERT_OK(store.Open(store_dir));
    ASSERT_OK(store.WritePartition(1, TestPayload(500)));
  }
  // Crash debris: an orphan temp, a zero-length partition, a truncated
  // partition, and files that are not partitions at all.
  { std::ofstream(store_dir + "/part-9.mq.tmp") << "half-written"; }
  { std::ofstream(store_dir + "/part-7.mq"); }  // Zero-length.
  {
    std::ofstream f(store_dir + "/part-8.mq", std::ios::binary);
    f << "not an envelope";
  }
  { std::ofstream(store_dir + "/part-x.mq") << "?"; }
  { std::ofstream(store_dir + "/notes.txt") << "unrelated"; }

  DiskStore store;
  std::vector<std::string> warnings;
  ASSERT_OK(store.Open(store_dir, true, &warnings));
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(7));
  EXPECT_FALSE(store.Contains(8));
  EXPECT_EQ(store.num_partitions(), 1u);
  // The temp was swept; the malformed files were skipped but preserved.
  EXPECT_FALSE(fs::exists(store_dir + "/part-9.mq.tmp"));
  EXPECT_TRUE(fs::exists(store_dir + "/part-7.mq"));
  EXPECT_TRUE(fs::exists(store_dir + "/part-8.mq"));
  ASSERT_GE(warnings.size(), 4u);
  const std::string all = [&] {
    std::string s;
    for (const auto& w : warnings) s += w + "\n";
    return s;
  }();
  EXPECT_NE(all.find("part-9.mq.tmp"), std::string::npos) << all;
  EXPECT_NE(all.find("part-7.mq"), std::string::npos) << all;
  EXPECT_NE(all.find("part-8.mq"), std::string::npos) << all;
  EXPECT_NE(all.find("part-x.mq"), std::string::npos) << all;
  EXPECT_EQ(all.find("notes.txt"), std::string::npos) << all;

  // The good partition still round-trips.
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, store.ReadPartition(1));
  EXPECT_EQ(bytes, TestPayload(500));
}

TEST(DiskStoreHardeningTest, QuarantineMovesFileAside) {
  TempDir dir("disk_quarantine");
  const std::string store_dir = dir.path() + "/store";
  DiskStore store;
  ASSERT_OK(store.Open(store_dir));
  ASSERT_OK(store.WritePartition(3, TestPayload(256)));
  FlipPayloadByte(store_dir + "/part-3.mq");
  EXPECT_EQ(store.ReadPartition(3).status().code(), StatusCode::kDataLoss);

  ASSERT_OK(store.QuarantinePartition(3));
  EXPECT_FALSE(store.Contains(3));
  EXPECT_FALSE(fs::exists(store_dir + "/part-3.mq"));
  EXPECT_TRUE(fs::exists(store_dir + "/part-3.mq" + kQuarantineSuffix));

  // Quarantined files are invisible (and un-warned) on the next Open.
  DiskStore reopened;
  std::vector<std::string> warnings;
  ASSERT_OK(reopened.Open(store_dir, true, &warnings));
  EXPECT_FALSE(reopened.Contains(3));
  EXPECT_TRUE(warnings.empty());
}

// ------------------------------------- Engine: corruption -> heal

class HealTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("heal");
    ZillowConfig config;
    config.num_properties = 400;
    config.num_train = 300;
    config.num_test = 100;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options() {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 128;
    return opts;
  }

  /// Logs the zillow pipeline, saves the catalog, and returns the
  /// pred_test predictions for later comparison.
  std::vector<double> LogAndSave() {
    std::vector<double> original;
    Mistique mq;
    EXPECT_OK(mq.Open(Options()));
    auto pipeline = BuildZillowPipeline(1, 0, dir_->path());
    EXPECT_OK(pipeline.status());
    EXPECT_OK(mq.LogPipeline(pipeline->get(), "zillow").status());
    Result<FetchResult> r =
        mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"});
    EXPECT_OK(r.status());
    original = r->columns[0];
    EXPECT_OK(mq.SaveCatalog());
    pipeline_ = std::move(*pipeline);
    return original;
  }

  void FlipEveryPartition() {
    for (const auto& entry :
         fs::directory_iterator(dir_->path() + "/store")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("part-", 0) == 0 && name.ends_with(".mq")) {
        FlipPayloadByte(entry.path().string());
      }
    }
  }

  std::string PartitionPath(PartitionId pid) const {
    return dir_->path() + "/store/part-" + std::to_string(pid) + ".mq";
  }

  /// The frame table of a partition file, read past its envelope header.
  static PartitionLayout LayoutOf(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    const std::vector<uint8_t> file((std::istreambuf_iterator<char>(f)),
                                    std::istreambuf_iterator<char>());
    Result<PartitionLayout> layout = Partition::ReadLayout(
        std::span<const uint8_t>(file).subspan(kEnvelopeHeaderSize));
    EXPECT_TRUE(layout.ok()) << path << ": " << layout.status().ToString();
    return layout.ok() ? *layout : PartitionLayout{};
  }

  /// Flips the middle byte of one frame's stored bytes.
  static void FlipFrame(const std::string& path, const FrameInfo& frame) {
    FlipByteAt(path, kEnvelopeHeaderSize + frame.offset + frame.length / 2);
  }

  /// Flips a byte inside every frame of every partition, so whichever
  /// frame a read loads fails its CRC.
  void FlipEveryFrame() {
    for (const auto& entry :
         fs::directory_iterator(dir_->path() + "/store")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("part-", 0) != 0 || !name.ends_with(".mq")) continue;
      const std::string path = entry.path().string();
      for (const FrameInfo& frame : LayoutOf(path).frames) {
        FlipFrame(path, frame);
      }
    }
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Pipeline> pipeline_;
};

TEST_F(HealTest, OpenTimeBitFlipQuarantinesThenHealsViaRerun) {
  const std::vector<double> original = LogAndSave();
  FlipEveryPartition();

  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  // RecoverIndex read every partition, caught the rot, quarantined.
  EXPECT_GE(mq.corruptions_detected(), 1u);
  EXPECT_EQ(mq.partitions_healed(), 0u);
  int corrupt_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_->path() + "/store")) {
    if (entry.path().string().ends_with(kQuarantineSuffix)) corrupt_files++;
  }
  EXPECT_GE(corrupt_files, 1);

  // Without an executor the demoted intermediate cannot be served.
  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  EXPECT_EQ(mq.Fetch(req).status().code(), StatusCode::kNotFound);

  // Attaching the executor enables transparent rerun + re-materialization.
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.AttachPipeline("zillow", "P1_v0", pipeline.get()));
  ASSERT_OK_AND_ASSIGN(FetchResult healed, mq.Fetch(req));
  EXPECT_FALSE(healed.used_read);
  EXPECT_EQ(healed.columns[0], original);

  // Healing the remaining demoted intermediates credits the partitions.
  ASSERT_OK_AND_ASSIGN(const ModelInfo* model,
                       mq.metadata().GetModel(
                           mq.metadata().FindModel("zillow", "P1_v0")
                               .ValueOrDie()));
  for (const IntermediateInfo& interm : model->intermediates) {
    FetchRequest heal_req = req;
    heal_req.intermediate = interm.name;
    ASSERT_OK(mq.Fetch(heal_req).status());
  }
  EXPECT_GE(mq.partitions_healed(), 1u);

  // Re-materialized data serves the read path with the same values.
  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read_back, mq.Fetch(req));
  EXPECT_TRUE(read_back.used_read);
  EXPECT_EQ(read_back.columns[0], original);
}

TEST_F(HealTest, RuntimeBitFlipFallsBackToRerunTransparently) {
  const std::vector<double> original = LogAndSave();

  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  EXPECT_EQ(mq.corruptions_detected(), 0u);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.AttachPipeline("zillow", "P1_v0", pipeline.get()));

  // Rot every frame AFTER Open: the first frame read off disk trips its
  // checksum.
  FlipEveryFrame();

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(req));
  EXPECT_EQ(result.columns[0], original);
  EXPECT_GE(mq.corruptions_detected(), 1u);

  // The heal re-materialized the queried intermediate: the read path works
  // again and returns the right bytes.
  req.force_read = true;
  ASSERT_OK_AND_ASSIGN(FetchResult read_back, mq.Fetch(req));
  EXPECT_TRUE(read_back.used_read);
  EXPECT_EQ(read_back.columns[0], original);
}

// A flip in a frame that a fetch does not read leaves the fetch's frames
// readable from disk; the first read of the flipped frame catches it.
TEST_F(HealTest, FlipInAnUnreadFrameIsCaughtWhenThatFrameIsRead) {
  // Enough rows that some partitions hold more than one frame.
  ZillowConfig config;
  config.num_properties = 3000;
  config.num_train = 2000;
  config.num_test = 1000;
  ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  LogAndSave();
  MistiqueOptions opts = Options();
  opts.store.memory_budget_bytes = 1;  // Every read goes to disk.
  Mistique mq;
  ASSERT_OK(mq.Open(opts));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.AttachPipeline("zillow", "P1_v0", pipeline.get()));

  // The frames each column's chunks sit in, from the files' layouts.
  struct Column {
    std::string intermediate;
    std::string name;
    std::set<std::pair<PartitionId, uint32_t>> frames;
  };
  std::map<ChunkId, std::pair<PartitionId, uint32_t>> frame_of;
  for (PartitionId pid : mq.store().disk().ListPartitions()) {
    const PartitionLayout layout = LayoutOf(PartitionPath(pid));
    for (size_t i = 0; i < layout.chunk_ids.size(); ++i) {
      frame_of[layout.chunk_ids[i]] = {pid, layout.chunk_frames[i]};
    }
  }
  std::vector<Column> columns;
  ASSERT_OK_AND_ASSIGN(ModelId model_id,
                       mq.metadata().FindModel("zillow", "P1_v0"));
  ASSERT_OK_AND_ASSIGN(const ModelInfo* model,
                       mq.metadata().GetModel(model_id));
  for (const IntermediateInfo& interm : model->intermediates) {
    for (const ColumnInfo& col : interm.columns) {
      Column c{interm.name, col.name, {}};
      for (ChunkId chunk : col.chunks) {
        ASSERT_EQ(frame_of.count(chunk), 1u) << "chunk " << chunk;
        c.frames.insert(frame_of[chunk]);
      }
      columns.push_back(std::move(c));
    }
  }
  // A column `kept` that reads frames of a multi-frame partition but not
  // the frame `target`, which column `hit` reads.
  const Column* kept = nullptr;
  const Column* hit = nullptr;
  std::pair<PartitionId, uint32_t> target;
  for (const Column& c : columns) {
    for (const auto& [pid, frame] : c.frames) {
      const size_t frames = LayoutOf(PartitionPath(pid)).frames.size();
      for (uint32_t t = 0; t < frames && hit == nullptr; ++t) {
        if (c.frames.count({pid, t}) != 0) continue;
        for (const Column& other : columns) {
          if (other.frames.count({pid, t}) != 0) {
            kept = &c;
            hit = &other;
            target = {pid, t};
            break;
          }
        }
      }
      if (hit != nullptr) break;
    }
    if (hit != nullptr) break;
  }
  ASSERT_NE(hit, nullptr) << "no multi-frame partition in the store";

  const auto fetch = [&](const Column& c, bool force_read) {
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = c.intermediate;
    req.columns = {c.name};
    if (force_read) req.force_read = true;
    return mq.Fetch(req);
  };
  // Bit-for-bit, so NaN cells compare equal.
  const auto same_bits = [](const FetchResult& a, const FetchResult& b) {
    if (a.columns.size() != b.columns.size()) return false;
    for (size_t c = 0; c < a.columns.size(); ++c) {
      if (a.columns[c].size() != b.columns[c].size() ||
          std::memcmp(a.columns[c].data(), b.columns[c].data(),
                      a.columns[c].size() * sizeof(double)) != 0) {
        return false;
      }
    }
    return true;
  };
  ASSERT_OK_AND_ASSIGN(FetchResult kept_before, fetch(*kept, true));
  ASSERT_OK_AND_ASSIGN(FetchResult hit_before, fetch(*hit, true));

  const std::string path = PartitionPath(target.first);
  FlipFrame(path, LayoutOf(path).frames[target.second]);

  const uint64_t read_before = mq.store().disk_read_bytes();
  ASSERT_OK_AND_ASSIGN(FetchResult kept_after, fetch(*kept, true));
  EXPECT_TRUE(kept_after.used_read);
  EXPECT_GT(mq.store().disk_read_bytes(), read_before);
  EXPECT_TRUE(same_bits(kept_after, kept_before));
  EXPECT_EQ(mq.corruptions_detected(), 0u);

  ASSERT_OK_AND_ASSIGN(FetchResult hit_after, fetch(*hit, false));
  EXPECT_TRUE(same_bits(hit_after, hit_before));
  EXPECT_EQ(mq.corruptions_detected(), 1u);
}

TEST_F(HealTest, ConcurrentFetchesDuringHealAllSucceed) {
  const std::vector<double> original = LogAndSave();
  FlipEveryPartition();

  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.AttachPipeline("zillow", "P1_v0", pipeline.get()));

  constexpr int kThreads = 4;
  constexpr int kIters = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        FetchRequest req;
        req.project = "zillow";
        req.model = "P1_v0";
        req.intermediate = "pred_test";
        Result<FetchResult> r = mq.Fetch(req);
        if (!r.ok() || r->columns[0] != original) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(mq.corruptions_detected(), 1u);
}

}  // namespace
}  // namespace mistique
