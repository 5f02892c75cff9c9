#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/mistique.h"
#include "durability/fault_injection.h"
#include "gtest/gtest.h"
#include "mvcc/snapshot_manager.h"
#include "test_util.h"

namespace mistique {
namespace {

// ---------------------------------------------------------------------------
// SnapshotManager unit tests: the epoch/pin/reclaim protocol in isolation.
// ---------------------------------------------------------------------------

mvcc::SnapshotState TaggedState(int tag, std::atomic<int>* destroyed) {
  return std::shared_ptr<const int>(new int(tag), [destroyed](const int* p) {
    destroyed->fetch_add(1, std::memory_order_relaxed);
    delete p;
  });
}

int TagOf(const mvcc::SnapshotState& state) {
  return *static_cast<const int*>(state.get());
}

TEST(SnapshotManagerTest, PinAcrossPublishKeepsPrePublishState) {
  mvcc::SnapshotManager mgr;
  std::atomic<int> destroyed{0};
  EXPECT_EQ(mgr.epoch(), 0u);

  EXPECT_EQ(mgr.Publish(TaggedState(1, &destroyed)), 1u);
  mvcc::ReadPin pin = mgr.Pin();
  ASSERT_TRUE(pin);
  EXPECT_EQ(pin.epoch(), 1u);
  EXPECT_EQ(TagOf(pin.state()), 1);

  // Two more publishes: the pin must keep serving the epoch-1 payload
  // while new pins see the latest.
  EXPECT_EQ(mgr.Publish(TaggedState(2, &destroyed)), 2u);
  EXPECT_EQ(mgr.Publish(TaggedState(3, &destroyed)), 3u);
  EXPECT_EQ(TagOf(pin.state()), 1);
  EXPECT_EQ(mgr.epoch(), 3u);
  {
    mvcc::ReadPin fresh = mgr.Pin();
    EXPECT_EQ(fresh.epoch(), 3u);
    EXPECT_EQ(TagOf(fresh.state()), 3);
  }
  pin.Release();
  EXPECT_FALSE(pin);
}

TEST(SnapshotManagerTest, ReclaimerNeverFreesPinnedSnapshot) {
  mvcc::SnapshotManager mgr;
  std::atomic<int> destroyed{0};

  mgr.Publish(TaggedState(1, &destroyed));
  mvcc::ReadPin pin = mgr.Pin();

  // Retire the pinned snapshot (and one more on top). Nothing may be
  // destroyed while the epoch-1 pin is alive.
  mgr.Publish(TaggedState(2, &destroyed));
  mgr.Publish(TaggedState(3, &destroyed));
  EXPECT_EQ(destroyed.load(), 0);
  EXPECT_EQ(mgr.retired_snapshots(), 2u);
  EXPECT_EQ(mgr.pinned_readers(), 1u);
  EXPECT_EQ(mgr.snapshots_reclaimed(), 0u);
  EXPECT_EQ(TagOf(pin.state()), 1);

  // Dropping the last old pin lets the deferred reclaimer free both
  // retired snapshots; the current one stays live.
  pin.Release();
  EXPECT_EQ(destroyed.load(), 2);
  EXPECT_EQ(mgr.retired_snapshots(), 0u);
  EXPECT_EQ(mgr.snapshots_reclaimed(), 2u);
  EXPECT_EQ(mgr.pinned_readers(), 0u);
}

TEST(SnapshotManagerTest, WaitForReadersBeforeBlocksUntilPinDrops) {
  mvcc::SnapshotManager mgr;
  std::atomic<int> destroyed{0};
  mgr.Publish(TaggedState(1, &destroyed));
  mvcc::ReadPin pin = mgr.Pin();
  mgr.Publish(TaggedState(2, &destroyed));

  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    mgr.WaitForReadersBefore(2);  // epoch-1 pin must drain first
    drained.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(drained.load(std::memory_order_acquire));
  pin.Release();
  waiter.join();
  EXPECT_TRUE(drained.load(std::memory_order_acquire));
}

// Vacuum racing long-pinned readers: the delete publishes epoch 3, then
// vacuum's WaitForReadersBefore(3) barrier must hold — and the pre-delete
// snapshot must stay unreclaimed — until the LAST pre-delete pin drops,
// not merely the first. (The soak harness drives this same interleaving
// end-to-end with concurrent network readers; this pins down the
// manager-level contract it relies on.)
TEST(SnapshotManagerTest, WaitForReadersBeforeHoldsUntilLastPreDeletePin) {
  mvcc::SnapshotManager mgr;
  std::atomic<int> destroyed{0};
  mgr.Publish(TaggedState(1, &destroyed));
  mgr.Publish(TaggedState(2, &destroyed));

  // Two independent readers pin the pre-delete snapshot (epoch 2).
  mvcc::ReadPin early = mgr.Pin();
  mvcc::ReadPin late = mgr.Pin();
  EXPECT_EQ(mgr.min_pinned_epoch(), 2u);

  // The "delete" publishes epoch 3 and vacuum waits for pre-delete pins.
  mgr.Publish(TaggedState(3, &destroyed));
  std::atomic<bool> barrier_passed{false};
  std::thread vacuum([&] {
    mgr.WaitForReadersBefore(3);
    barrier_passed.store(true, std::memory_order_release);
  });

  // Dropping ONE of the two pins must not open the barrier or let the
  // reclaimer free the epoch-2 snapshot the surviving pin still reads.
  early.Release();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(barrier_passed.load(std::memory_order_acquire));
  EXPECT_EQ(mgr.min_pinned_epoch(), 2u);
  EXPECT_EQ(TagOf(late.state()), 2);
  // Epoch 1 was never pinned past its retirement, so it may be gone, but
  // the pinned epoch-2 snapshot must not be.
  EXPECT_EQ(mgr.retired_snapshots(), 1u);
  EXPECT_LE(destroyed.load(), 1);

  // The last pre-delete pin drops: barrier opens, snapshot reclaimed.
  late.Release();
  vacuum.join();
  EXPECT_TRUE(barrier_passed.load(std::memory_order_acquire));
  EXPECT_EQ(mgr.min_pinned_epoch(), 0u);
  EXPECT_EQ(mgr.retired_snapshots(), 0u);
  EXPECT_EQ(destroyed.load(), 2);
}

TEST(SnapshotManagerTest, MovedPinTransfersOwnership) {
  mvcc::SnapshotManager mgr;
  std::atomic<int> destroyed{0};
  mgr.Publish(TaggedState(1, &destroyed));

  mvcc::ReadPin a = mgr.Pin();
  mvcc::ReadPin b = std::move(a);
  EXPECT_FALSE(a);
  ASSERT_TRUE(b);
  EXPECT_EQ(mgr.pinned_readers(), 1u);
  b.Release();
  EXPECT_EQ(mgr.pinned_readers(), 0u);
}

// ---------------------------------------------------------------------------
// Engine-level MVCC tests: snapshot isolation through the public Mistique
// API, using ImportModel as the ingest path (synthetic, deterministic data).
// ---------------------------------------------------------------------------

std::vector<ImportIntermediate> SyntheticModel(int model_index,
                                               uint64_t rows = 64) {
  ImportIntermediate interm;
  interm.name = "pred";
  interm.stage_index = 1;
  interm.num_rows = rows;
  interm.column_names = {"pred", "score"};
  interm.columns.resize(2);
  for (uint64_t r = 0; r < rows; ++r) {
    interm.columns[0].push_back(model_index * 1000.0 + r * 0.25);
    interm.columns[1].push_back(std::sin(model_index + 0.1 * r));
  }
  return {interm};
}

class MvccEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = std::make_unique<TempDir>("mq_mvcc"); }
  void TearDown() override { FaultInjector::Instance().Disarm(); }

  MistiqueOptions Options() {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 32;
    return opts;
  }

  static FetchRequest RequestFor(int model_index) {
    FetchRequest req;
    req.project = "proj";
    req.model = "m" + std::to_string(model_index);
    req.intermediate = "pred";
    return req;
  }

  static void ExpectByteIdentical(const FetchResult& result, int model_index,
                                  uint64_t rows = 64) {
    ASSERT_EQ(result.columns.size(), 2u);
    ASSERT_EQ(result.columns[0].size(), rows);
    for (uint64_t r = 0; r < rows; ++r) {
      EXPECT_EQ(result.columns[0][r], model_index * 1000.0 + r * 0.25) << r;
      EXPECT_EQ(result.columns[1][r], std::sin(model_index + 0.1 * r)) << r;
    }
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(MvccEngineTest, PublishesBumpEpochAndKeepOldDataByteIdentical) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  const uint64_t epoch0 = mq.CurrentEpoch();

  ASSERT_OK(mq.ImportModel("proj", "m1", SyntheticModel(1)).status());
  const uint64_t epoch1 = mq.CurrentEpoch();
  EXPECT_GT(epoch1, epoch0);
  ASSERT_OK_AND_ASSIGN(FetchResult before, mq.Fetch(RequestFor(1)));
  ExpectByteIdentical(before, 1);

  ASSERT_OK(mq.ImportModel("proj", "m2", SyntheticModel(2)).status());
  ASSERT_OK(mq.ImportModel("proj", "m3", SyntheticModel(3)).status());
  EXPECT_GT(mq.CurrentEpoch(), epoch1);

  // Data published at an earlier epoch is untouched by later publishes.
  ASSERT_OK_AND_ASSIGN(FetchResult after, mq.Fetch(RequestFor(1)));
  ExpectByteIdentical(after, 1);

  // No reader pins are held between queries, so nothing stays retired.
  EXPECT_EQ(mq.snapshots().pinned_readers(), 0u);
  EXPECT_EQ(mq.snapshots().retired_snapshots(), 0u);
}

// The TSAN target: readers fetch and scan a published model in a tight
// loop while the writer streams in new models. Readers must never observe
// an error, a stall, or anything but byte-identical published data.
TEST_F(MvccEngineTest, ConcurrentIngestFetchScanStorm) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK(mq.ImportModel("proj", "m0", SyntheticModel(0)).status());

  constexpr int kReaders = 3;
  constexpr int kWriterModels = 6;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        Result<FetchResult> fetched = mq.Fetch(RequestFor(0));
        if (!fetched.ok() || fetched->columns.size() != 2 ||
            fetched->columns[0].size() != 64 ||
            fetched->columns[0][4] != 1.0) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        fetches.fetch_add(1, std::memory_order_relaxed);
        if (t == 0) continue;  // one thread fetches only
        ScanRequest scan;
        scan.project = "proj";
        scan.model = "m0";
        scan.intermediate = "pred";
        scan.predicate_column = "pred";
        scan.lo = 2.0;
        scan.hi = 6.0;
        scan.columns = {"score"};
        Result<ScanResult> scanned = mq.Scan(scan);
        // pred values are r * 0.25 for r in [0, 64): 17 rows in [2, 6].
        if (!scanned.ok() || scanned->row_ids.size() != 17) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int m = 1; m <= kWriterModels; ++m) {
    ASSERT_OK(mq.ImportModel("proj", "m" + std::to_string(m),
                             SyntheticModel(m))
                  .status());
  }
  // Let readers overlap the post-ingest epochs too before stopping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(fetches.load(), 0u);
  EXPECT_GT(scans.load(), 0u);

  // Every streamed model is visible and byte-identical once published.
  for (int m = 0; m <= kWriterModels; ++m) {
    ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(RequestFor(m)));
    ExpectByteIdentical(result, m);
  }
  EXPECT_EQ(mq.snapshots().pinned_readers(), 0u);
}

// A failure between stage and publish (the mvcc.publish fault point sits
// after the staged partitions seal but before the kModelAdd WAL record)
// must roll back cleanly: readers keep the prior epoch, and a reopen
// recovers to it with the orphan chunks derived dead.
TEST_F(MvccEngineTest, FailedPublishRollsBackAndReopenRecoversPriorEpoch) {
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK(mq.ImportModel("proj", "m1", SyntheticModel(1)).status());
    const uint64_t epoch_before = mq.CurrentEpoch();

    FaultInjector::Instance().Arm("mvcc.publish", FaultMode::kError);
    EXPECT_EQ(mq.ImportModel("proj", "m2", SyntheticModel(2)).status().code(),
              StatusCode::kIoError);
    FaultInjector::Instance().Disarm();

    // The failed ingest left no catalog trace and no epoch bump.
    EXPECT_EQ(mq.CurrentEpoch(), epoch_before);
    EXPECT_EQ(mq.Fetch(RequestFor(2)).status().code(), StatusCode::kNotFound);
    ASSERT_OK_AND_ASSIGN(FetchResult survivor, mq.Fetch(RequestFor(1)));
    ExpectByteIdentical(survivor, 1);

    // Retrying the same name after the rollback succeeds.
    ASSERT_OK(mq.ImportModel("proj", "m2", SyntheticModel(2)).status());
    EXPECT_GT(mq.CurrentEpoch(), epoch_before);
  }

  // Reopen from disk: both committed models replay from the kModelAdd WAL
  // records; the aborted attempt's sealed-but-unreferenced chunks are
  // derived dead and reclaimable.
  Mistique reopened;
  ASSERT_OK(reopened.Open(Options()));
  ASSERT_OK_AND_ASSIGN(FetchResult m1, reopened.Fetch(RequestFor(1)));
  ExpectByteIdentical(m1, 1);
  ASSERT_OK_AND_ASSIGN(FetchResult m2, reopened.Fetch(RequestFor(2)));
  ExpectByteIdentical(m2, 2);
  ASSERT_OK(reopened.Vacuum().status());
}

// Crash between stage and publish: the process dies after the staged
// partitions hit disk but before the kModelAdd record, so reopen must
// serve exactly the pre-crash catalog. Emulated by failing the commit at
// the fault point and discarding the instance without SaveCatalog — the
// on-disk artifacts (sealed orphan partitions + a WAL without the record)
// are identical to a kill at that point.
TEST_F(MvccEngineTest, CrashMidIngestLeavesOnlyOrphanChunks) {
  uint64_t footprint_committed = 0;
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK(mq.ImportModel("proj", "m1", SyntheticModel(1)).status());
    footprint_committed = mq.StorageFootprintBytes();
    FaultInjector::Instance().Arm("mvcc.publish", FaultMode::kError);
    EXPECT_FALSE(mq.ImportModel("proj", "m9", SyntheticModel(9)).ok());
    // No SaveCatalog: recovery is WAL-only, like a real crash.
  }
  Mistique reopened;
  ASSERT_OK(reopened.Open(Options()));
  ASSERT_OK_AND_ASSIGN(FetchResult m1, reopened.Fetch(RequestFor(1)));
  ExpectByteIdentical(m1, 1);
  EXPECT_EQ(reopened.Fetch(RequestFor(9)).status().code(),
            StatusCode::kNotFound);
  // Vacuum drops the orphans; what remains serves m1 byte-identically.
  ASSERT_OK(reopened.Vacuum().status());
  EXPECT_LE(reopened.StorageFootprintBytes(), footprint_committed);
  ASSERT_OK_AND_ASSIGN(FetchResult again, reopened.Fetch(RequestFor(1)));
  ExpectByteIdentical(again, 1);
}

// DeleteModel keeps serving pinned readers; Vacuum waits for them. The
// reader thread here holds queries open across the delete to prove the
// barrier orders reclamation after the last read drains.
TEST_F(MvccEngineTest, DeleteThenVacuumWaitsForSnapshotReaders) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK(mq.ImportModel("proj", "m1", SyntheticModel(1)).status());
  ASSERT_OK(mq.ImportModel("proj", "m2", SyntheticModel(2)).status());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    // m2 stays published throughout; every fetch must succeed.
    while (!stop.load(std::memory_order_acquire)) {
      Result<FetchResult> r = mq.Fetch(RequestFor(2));
      if (!r.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });

  ASSERT_OK(mq.DeleteModel("proj", "m1"));
  ASSERT_OK_AND_ASSIGN(uint64_t reclaimed, mq.Vacuum());
  EXPECT_GT(reclaimed, 0u);
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(mq.Fetch(RequestFor(1)).status().code(), StatusCode::kNotFound);
  ASSERT_OK_AND_ASSIGN(FetchResult m2, mq.Fetch(RequestFor(2)));
  ExpectByteIdentical(m2, 2);
}

// Vacuum renumbers the frames of a partition it rewrites. Model "a<k>"
// owns half of a partition's columns and shares the other half, by exact
// dedup, with model "b<k>". Readers loop over b<k> behind a 1-byte pool,
// so every chunk read loads a frame, while a<k> is deleted and vacuumed:
// no read may pair a chunk with a frame of the old layout.
TEST_F(MvccEngineTest, VacuumRewriteRenumbersFramesUnderReaders) {
  MistiqueOptions opts = Options();
  opts.store.memory_budget_bytes = 1;
  opts.row_block_size = 512;
  Mistique mq;
  ASSERT_OK(mq.Open(opts));

  constexpr uint64_t kRows = 1024;  // Two 4 KB chunks per column.
  constexpr int kShared = 4;
  const auto shared_value = [](int round, int c, uint64_t r) {
    return round * 1e6 + c * 1e4 + static_cast<double>(r) * 0.5;
  };
  for (int round = 0; round < 4; ++round) {
    // a: u0 s0 u1 s1 ... (8 KB per column; four 16 KB frames); b: s0..s3.
    ImportIntermediate a;
    a.name = "pred";
    a.num_rows = kRows;
    ImportIntermediate b = a;
    for (int c = 0; c < kShared; ++c) {
      std::vector<double> unique(kRows), shared(kRows);
      for (uint64_t r = 0; r < kRows; ++r) {
        unique[r] = -(round * 1e6 + c * 1e4 + static_cast<double>(r));
        shared[r] = shared_value(round, c, r);
      }
      a.column_names.push_back("u" + std::to_string(c));
      a.columns.push_back(unique);
      a.column_names.push_back("s" + std::to_string(c));
      a.columns.push_back(shared);
      b.column_names.push_back("s" + std::to_string(c));
      b.columns.push_back(shared);
    }
    const std::string a_name = "a" + std::to_string(round);
    const std::string b_name = "b" + std::to_string(round);
    ASSERT_OK(mq.ImportModel("proj", a_name, {a}).status());
    ASSERT_OK(mq.ImportModel("proj", b_name, {b}).status());

    FetchRequest req;
    req.project = "proj";
    req.model = b_name;
    req.intermediate = "pred";
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::atomic<uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_acquire)) {
          Result<FetchResult> r = mq.Fetch(req);
          bool match = r.ok() && r->columns.size() == kShared;
          for (int c = 0; match && c < kShared; ++c) {
            match = r->columns[c].size() == kRows;
            for (uint64_t row = 0; match && row < kRows; ++row) {
              match = r->columns[c][row] == shared_value(round, c, row);
            }
          }
          if (!match) {
            failures.fetch_add(1, std::memory_order_relaxed);
            ADD_FAILURE() << (r.ok() ? std::string("wrong values")
                                     : r.status().ToString());
            return;
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    while (reads.load(std::memory_order_relaxed) < 4 &&
           failures.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    ASSERT_OK(mq.DeleteModel("proj", a_name));
    ASSERT_OK_AND_ASSIGN(uint64_t reclaimed, mq.Vacuum());
    EXPECT_GT(reclaimed, 0u);
    const uint64_t after_vacuum = reads.load(std::memory_order_relaxed);
    while (reads.load(std::memory_order_relaxed) < after_vacuum + 4 &&
           failures.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    EXPECT_EQ(failures.load(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace mistique
