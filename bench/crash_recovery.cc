// Crash-recovery harness (pstress-style): repeatedly run a write-heavy
// child workload that is killed at an injected fault point, then reopen
// the store in the parent and prove recovery — the catalog loads, every
// surviving intermediate is byte-identical to a golden run or healed by
// re-run, and no atomic-write temp debris is left behind.
//
//   crash_recovery                        # fixed matrix + randomized runs
//   crash_recovery --iterations 80        # total runs (default 50)
//   crash_recovery --seed 7               # seed for the randomized tail
//   crash_recovery --overhead             # durability cost microbenches
//   crash_recovery --child <workdir>      # (internal) the victim workload
//
// The child is this same binary re-exec'd with MISTIQUE_FAULT_POINT /
// MISTIQUE_FAULT_MODE=kill / MISTIQUE_FAULT_NTH set, so it dies with
// _Exit(91) mid-protocol exactly where the label sits.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/mistique.h"
#include "durability/crc32c.h"
#include "durability/durable_file.h"
#include "durability/fault_injection.h"
#include "durability/wal.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"

namespace mistique {
namespace {

namespace fs = std::filesystem;
using bench::CheckOk;
using bench::EnvInt;

MistiqueOptions StoreOptions(const std::string& workdir) {
  MistiqueOptions opts;
  opts.store.directory = workdir + "/store";
  opts.strategy = StorageStrategy::kDedup;
  opts.row_block_size = 128;
  return opts;
}

/// The deterministic victim workload. Touches every fault point more than
/// once: partition seals (LogPipeline), catalog snapshots + WAL rotations
/// (SaveCatalog ×3), non-durable WAL appends (query stats), and a durable
/// WAL append (DeleteModel).
int RunChild(const std::string& workdir) {
  Mistique mq;
  CheckOk(mq.Open(StoreOptions(workdir)), "child open");
  auto p0 = CheckOk(BuildZillowPipeline(1, 0, workdir), "build P1_v0");
  CheckOk(mq.LogPipeline(p0.get(), "zillow").status(), "log P1_v0");
  CheckOk(mq.SaveCatalog(), "save 1");
  CheckOk(mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}).status(),
          "fetch 1");
  auto p1 = CheckOk(BuildZillowPipeline(1, 1, workdir), "build P1_v1");
  CheckOk(mq.LogPipeline(p1.get(), "zillow").status(), "log P1_v1");
  CheckOk(mq.SaveCatalog(), "save 2");
  CheckOk(mq.DeleteModel("zillow", "P1_v1"), "delete P1_v1");
  CheckOk(mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}).status(),
          "fetch 2");
  CheckOk(mq.SaveCatalog(), "save 3");
  return 0;
}

/// Golden pred_test values from one clean run of the child workload.
std::vector<double> GoldenRun(const std::string& workdir) {
  fs::remove_all(workdir + "/store");
  if (RunChild(workdir) != 0) std::abort();
  Mistique mq;
  CheckOk(mq.Open(StoreOptions(workdir)), "golden reopen");
  FetchResult r = CheckOk(
      mq.GetIntermediates({"zillow.P1_v0.pred_test.pred"}), "golden fetch");
  fs::remove_all(workdir + "/store");
  return r.columns[0];
}

struct IterationSpec {
  std::string label;
  int nth = 1;
};

/// Re-execs this binary as the victim child with the fault armed.
/// Returns the child's exit code (91 = injected kill).
int SpawnChild(const char* self, const std::string& workdir,
               const IterationSpec& spec) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::abort();
  }
  if (pid == 0) {
    ::setenv("MISTIQUE_FAULT_POINT", spec.label.c_str(), 1);
    ::setenv("MISTIQUE_FAULT_MODE", "kill", 1);
    ::setenv("MISTIQUE_FAULT_NTH", std::to_string(spec.nth).c_str(), 1);
    ::execl(self, self, "--child", workdir.c_str(),
            static_cast<char*>(nullptr));
    std::perror("execl");
    std::_Exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    std::abort();
  }
  if (WIFSIGNALED(status)) {
    std::fprintf(stderr, "child died on signal %d\n", WTERMSIG(status));
    std::abort();
  }
  return WEXITSTATUS(status);
}

/// Post-crash verification. Dies (abort) on any violated invariant.
void VerifyRecovery(const std::string& workdir,
                    const std::vector<double>& golden,
                    const IterationSpec& spec) {
  const std::string store_dir = workdir + "/store";
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "RECOVERY FAILURE [%s nth=%d]: %s\n",
                 spec.label.c_str(), spec.nth, why.c_str());
    std::abort();
  };

  Mistique mq;
  const Status open_status = mq.Open(StoreOptions(workdir));
  if (!open_status.ok()) fail("reopen: " + open_status.ToString());

  // Invariant 1: the atomic-write protocol leaks no temp files — the
  // reopen swept any the crash left, and none may survive it.
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    if (entry.path().filename().string().ends_with(kTempSuffix)) {
      fail("orphan temp file " + entry.path().string());
    }
  }

  // Invariant 2: every recovered intermediate is servable — byte-identical
  // off storage, or (if a crash tore its chunks away) healed by re-run
  // once the executor is attached.
  std::vector<std::unique_ptr<Pipeline>> attached;
  for (const std::string& name : {std::string("P1_v0"), std::string("P1_v1")}) {
    Result<ModelId> id = mq.metadata().FindModel("zillow", name);
    if (!id.ok()) continue;  // Crashed before this model was snapshotted.
    const int version = name == "P1_v0" ? 0 : 1;
    auto pipeline =
        CheckOk(BuildZillowPipeline(1, version, workdir), "rebuild pipeline");
    CheckOk(mq.AttachPipeline("zillow", name, pipeline.get()), "attach");
    attached.push_back(std::move(pipeline));

    const ModelInfo* model = CheckOk(mq.metadata().GetModel(*id), "get model");
    for (size_t i = 0; i < model->intermediates.size(); ++i) {
      const std::string interm = model->intermediates[i].name;
      FetchRequest req;
      req.project = "zillow";
      req.model = name;
      req.intermediate = interm;
      Result<FetchResult> r = mq.Fetch(req);
      if (!r.ok()) {
        fail("fetch " + name + "." + interm + ": " + r.status().ToString());
      }
      // A second, forced read must now succeed: either the data was intact
      // all along or the fetch above healed it back into storage.
      req.force_read = true;
      Result<FetchResult> read = mq.Fetch(req);
      if (!read.ok()) {
        fail("post-heal read " + name + "." + interm + ": " +
             read.status().ToString());
      }
      if (name == "P1_v0" && interm == "pred_test" &&
          read->columns[0] != golden) {
        fail("pred_test diverged from the golden run");
      }
    }
  }
}

int RunMatrix(const char* self, int iterations, uint64_t seed) {
  bench::BenchDir dir("crash_recovery");
  ZillowConfig config;
  config.num_properties = 400;
  config.num_train = 300;
  config.num_test = 100;
  CheckOk(WriteZillowCsvs(GenerateZillow(config), dir.path()), "zillow csvs");
  const std::vector<double> golden = GoldenRun(dir.path());

  // Fixed matrix first — every label at its first three occurrences —
  // then a seeded random tail up to `iterations`.
  std::vector<IterationSpec> specs;
  for (const std::string& label : FaultPointLabels()) {
    for (int nth = 1; nth <= 3; ++nth) specs.push_back({label, nth});
  }
  Rng rng(seed);
  while (specs.size() < static_cast<size_t>(iterations)) {
    const auto& labels = FaultPointLabels();
    specs.push_back(
        {labels[rng.NextBelow(labels.size())],
         static_cast<int>(rng.UniformInt(1, 6))});
  }

  int crashed = 0, completed = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const IterationSpec& spec = specs[i];
    fs::remove_all(dir.path() + "/store");
    const int code = SpawnChild(self, dir.path(), spec);
    if (code == FaultInjector::kKillExitCode) {
      crashed++;
    } else if (code == 0) {
      completed++;  // The nth occurrence never happened; still verify.
    } else {
      std::fprintf(stderr, "child exited %d at [%s nth=%d]\n", code,
                   spec.label.c_str(), spec.nth);
      return 1;
    }
    VerifyRecovery(dir.path(), golden, spec);
    std::printf("[%3zu/%zu] %-22s nth=%d  %s -> recovered\n", i + 1,
                specs.size(), spec.label.c_str(), spec.nth,
                code == 0 ? "ran to completion" : "killed mid-protocol");
  }
  std::printf(
      "\nAll %zu iterations recovered (%d injected crashes, %d clean runs); "
      "no orphan temps, all intermediates byte-identical or healed.\n",
      specs.size(), crashed, completed);
  return 0;
}

/// Durability-cost microbenches feeding EXPERIMENTS.md: raw CRC32C
/// bandwidth, envelope write/read overhead, WAL append rates, and
/// crash-recovery open time vs a clean open.
int RunOverhead() {
  bench::PrintHeader("Durability overhead");
  Stopwatch watch;

  // CRC32C bandwidth, single core: the path Crc32c dispatches to, then
  // the portable slice-by-8 reference.
  const size_t crc_bytes = 256ull << 20;
  std::vector<uint8_t> buf(crc_bytes);
  Rng rng(42);
  for (size_t i = 0; i < buf.size(); i += 8) {
    const uint64_t v = rng.NextU64();
    std::memcpy(&buf[i], &v, 8);
  }
  watch.Reset();
  uint32_t crc = Crc32c(buf.data(), buf.size());
  const double crc_secs = watch.ElapsedSeconds();
  std::printf("crc32c:          %6.2f GB/s  (256 MB, %s, crc=%08x)\n",
              static_cast<double>(crc_bytes) / 1e9 / crc_secs,
              Crc32cHardwareExtend() != nullptr ? "sse4.2" : "slice-by-8",
              crc);
  watch.Reset();
  crc = Crc32cExtendPortable(0, buf.data(), buf.size());
  const double portable_secs = watch.ElapsedSeconds();
  std::printf("crc32c portable: %6.2f GB/s  (256 MB, slice-by-8, crc=%08x)\n",
              static_cast<double>(crc_bytes) / 1e9 / portable_secs, crc);

  bench::BenchDir dir("durability_overhead");
  // Envelope write (fsync + rename + dir fsync) vs checksum-only share.
  const size_t part_bytes = 8ull << 20;
  std::vector<uint8_t> part(buf.begin(), buf.begin() + part_bytes);
  const int writes = 16;
  watch.Reset();
  for (int i = 0; i < writes; ++i) {
    CheckOk(WriteEnvelopeFileAtomic(
                dir.path() + "/p" + std::to_string(i) + ".mq", part,
                /*sync=*/true, "partition"),
            "envelope write");
  }
  const double write_secs = watch.ElapsedSeconds();
  watch.Reset();
  for (int i = 0; i < writes; ++i) {
    CheckOk(ReadEnvelopeFile(dir.path() + "/p" + std::to_string(i) + ".mq")
                .status(),
            "envelope read");
  }
  const double read_secs = watch.ElapsedSeconds();
  std::printf("envelope write:  %6.2f MB/s  (8 MB x %d, fsync+rename)\n",
              static_cast<double>(part_bytes) * writes / 1e6 / write_secs,
              writes);
  std::printf("envelope read:   %6.2f MB/s  (checksum verified)\n",
              static_cast<double>(part_bytes) * writes / 1e6 / read_secs);

  // WAL appends: durable (fsync each) vs buffered.
  WriteAheadLog wal;
  CheckOk(wal.Open(dir.path() + "/bench.wal", 1, 0, true), "wal open");
  const std::vector<uint8_t> payload(32, 0xab);
  const int appends = 2000;
  watch.Reset();
  for (int i = 0; i < appends; ++i) {
    CheckOk(wal.Append(1, payload, /*durable=*/false), "append");
  }
  const double buffered_secs = watch.ElapsedSeconds();
  const int durable_appends = 200;
  watch.Reset();
  for (int i = 0; i < durable_appends; ++i) {
    CheckOk(wal.Append(1, payload, /*durable=*/true), "append durable");
  }
  const double durable_secs = watch.ElapsedSeconds();
  std::printf("wal append:      %8.0f /s buffered, %6.0f /s durable\n",
              appends / buffered_secs, durable_appends / durable_secs);

  // Recovery time: clean open vs open after a crash that corrupted one
  // partition (quarantine + catalog demotion on the reopen path).
  ZillowConfig config;
  config.num_properties = 400;
  config.num_train = 300;
  config.num_test = 100;
  CheckOk(WriteZillowCsvs(GenerateZillow(config), dir.path()), "csvs");
  if (RunChild(dir.path()) != 0) std::abort();
  watch.Reset();
  {
    Mistique mq;
    CheckOk(mq.Open(StoreOptions(dir.path())), "clean open");
  }
  const double clean_open = watch.ElapsedSeconds();
  // Flip one payload byte in the first partition file.
  for (const auto& entry : fs::directory_iterator(dir.path() + "/store")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0 && name.ends_with(".mq")) {
      std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                       std::ios::binary);
      f.seekp(static_cast<std::streamoff>(kEnvelopeHeaderSize + 7));
      char b = 0x7f;
      f.write(&b, 1);
      break;
    }
  }
  watch.Reset();
  uint64_t detected = 0;
  {
    Mistique mq;
    CheckOk(mq.Open(StoreOptions(dir.path())), "crash open");
    detected = mq.corruptions_detected();
  }
  const double crash_open = watch.ElapsedSeconds();
  std::printf(
      "open time:       %6.2f ms clean, %6.2f ms with %llu corrupt "
      "partition(s) quarantined\n",
      clean_open * 1e3, crash_open * 1e3,
      static_cast<unsigned long long>(detected));
  return 0;
}

int Main(int argc, char** argv) {
  int iterations = EnvInt("CRASH_ITERATIONS", 50);
  uint64_t seed = static_cast<uint64_t>(EnvInt("CRASH_SEED", 1234));
  bool overhead = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--child" && i + 1 < argc) {
      return RunChild(argv[i + 1]);
    } else if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--overhead") {
      overhead = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--iterations N] [--seed S] [--overhead] "
                   "[--child workdir]\n",
                   argv[0]);
      return 2;
    }
  }
  if (overhead) return RunOverhead();
  return RunMatrix(argv[0], iterations, seed);
}

}  // namespace
}  // namespace mistique

int main(int argc, char** argv) { return mistique::Main(argc, argv); }
