// Randomized soak harness (pstress-style): adversarial multi-client
// stress against a *served* store, with crash injection and end-to-end
// invariant checking. This is the regression net behind every layer at
// once — durable storage, MVCC ingest, the TCP service, and the sharded
// cluster front-end (docs/TESTING.md).
//
//   soak_harness [--seed S] [--clients N] [--duration-sec D]
//                [--mode single|cluster|both] [--crash] [--self-check]
//                [--pressure]
//
// The driver spawns this same binary as server children, drives them
// with N concurrent wire-protocol clients each running a seeded random
// op mix (fetch / traced fetch / scan / compressed-domain scan over
// quantized columns / distributed-trace + flight-recorder retrospection
// / session churn / catalog / stats / health), while
// a supervisor thread SIGKILLs and restarts servers —
// some restarts armed with MISTIQUE_FAULT_POINT so the child _Exit(91)s
// mid-write at a labeled crash point. A churn thread inside the
// single-node server concurrently imports, deletes, and vacuums models
// (the train_serve-style ingest stream).
//
// Invariants, checked continuously and after each phase:
//   - every successful read is byte-identical to the closed-form oracle
//     (values are a pure function of (model index, row), so any process
//     can re-derive the expected bytes without shared state);
//   - packed scans over quantized (KBIT/THRESHOLD) columns return exactly
//     the row set of the decompress oracle (fetch + client-side filter),
//     and reconstructed values stay on <= 2^k centers;
//   - reads fail only in tolerated ways (unavailable / degraded /
//     deadline / overload; not-found only for churned models) — a
//     cluster scan is typed-degraded, never silently partial;
//   - metrics stay consistent: cache hits <= lookups, zero corruptions,
//     mvcc epoch never regresses within one server incarnation;
//   - a clean drain loses no admitted response:
//     submitted + cache_hits == completed + expired + failed + abandoned
//     and inflight == 0;
//   - the post-hoc oracle reopen succeeds with no orphan temp files, all
//     surviving models byte-identical, and a clean Vacuum.
//
// Every violation prints a one-line reproduction command. --self-check
// flips one payload byte in a sealed partition and asserts the harness
// CATCHES it (exit 0 iff the injected fault was detected and reported).
//
// Child modes (internal):
//   soak_harness --serve-child <store_dir> <port> <workers> <churn_seed>
//                [pressure]
//   soak_harness --router-child <port> <host:port>...

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/rebalance.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "common/random.h"
#include "core/mistique.h"
#include "durability/durable_file.h"
#include "durability/fault_injection.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace mistique {
namespace {

namespace fs = std::filesystem;
using bench::CheckOk;

// ---------------------------------------------------------------------
// The closed-form oracle: model values are a pure function of
// (formula index, row), so clients, servers, and the post-hoc verifier
// all agree on the expected bytes with no shared state. TRAD imports
// store full precision, so comparisons are exact (==), never epsilon.
// ---------------------------------------------------------------------

constexpr int kStaticModels = 6;
constexpr uint64_t kRows = 96;
constexpr int kChurnBase = 500;  ///< churn.mJ uses formula index 500+J

double Col0(int index, uint64_t row) { return index * 1000.0 + row * 0.25; }
double Col1(int index, uint64_t row) { return std::sin(index + 0.1 * row); }

std::vector<ImportIntermediate> SyntheticModel(int index) {
  ImportIntermediate interm;
  interm.name = "pred";
  interm.stage_index = 1;
  interm.num_rows = kRows;
  interm.column_names = {"pred", "score"};
  interm.columns.resize(2);
  for (uint64_t r = 0; r < kRows; ++r) {
    interm.columns[0].push_back(Col0(index, r));
    interm.columns[1].push_back(Col1(index, r));
  }
  return {std::move(interm)};
}

/// Formula index for a catalog model, or -1 if it is not one of ours.
int FormulaIndexFor(const std::string& project, const std::string& model) {
  if (model.size() < 2 || model[0] != 'm') return -1;
  const int j = std::atoi(model.c_str() + 1);
  if (project == "soak") return j;
  if (project == "churn") return kChurnBase + j;
  return -1;
}

// Quantized static models soak.q0..qN-1: seeded through ImportModel's
// opt-in quantization so their columns take the compressed-domain scan
// path (docs/SCAN.md). Their values are lossy, so the scan oracle is the
// decompress path itself: a scan's row set must equal a client-side
// filter of the *fetched* (reconstructed) column — never the raw QCol.
struct QuantSpec {
  QuantScheme scheme;
  int kbits;
};
constexpr int kQuantModels = 3;
// 8-bit (SIMD kernel), 3-bit (sub-byte SWAR kernel), 1-bit bitmap.
constexpr QuantSpec kQuantSpecs[kQuantModels] = {
    {QuantScheme::kKBit, 8},
    {QuantScheme::kKBit, 3},
    {QuantScheme::kThreshold, 8},
};

double QCol(int qindex, uint64_t row) {
  return std::sin(0.31 * static_cast<double>(row) + qindex) *
         (1.0 + qindex);
}

std::vector<ImportIntermediate> QuantModel(int qindex) {
  ImportIntermediate interm;
  interm.name = "pred";
  interm.stage_index = 1;
  interm.num_rows = kRows;
  interm.column_names = {"pred"};
  interm.columns.resize(1);
  for (uint64_t r = 0; r < kRows; ++r) {
    interm.columns[0].push_back(QCol(qindex, r));
  }
  interm.scheme = kQuantSpecs[qindex].scheme;
  interm.kbits = kQuantSpecs[qindex].kbits;
  return {std::move(interm)};
}

/// Index for a soak.qJ model, or -1.
int QuantIndexFor(const std::string& project, const std::string& model) {
  if (project != "soak" || model.size() < 2 || model[0] != 'q') return -1;
  const int j = std::atoi(model.c_str() + 1);
  return j >= 0 && j < kQuantModels ? j : -1;
}

MistiqueOptions StoreOptions(const std::string& dir, bool pressure = false) {
  MistiqueOptions opts;
  opts.store.directory = dir;
  opts.store.partition_target_bytes = 8 * 1024;  // many partitions
  // The --pressure preset shrinks the buffer pool to a few partitions'
  // worth, so every client read contends on pin/evict instead of being
  // absorbed by a warm pool.
  if (pressure) opts.store.memory_budget_bytes = 64 * 1024;
  opts.strategy = StorageStrategy::kDedup;
  opts.row_block_size = 32;
  return opts;
}

// ---------------------------------------------------------------------
// Violations. Recorded centrally; the driver prints the reproduction
// command with every one at exit.
// ---------------------------------------------------------------------

std::mutex g_violation_mutex;
std::vector<std::string> g_violations;

void Violate(const std::string& message) {
  std::lock_guard<std::mutex> lock(g_violation_mutex);
  g_violations.push_back(message);
  std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", message.c_str());
}

size_t ViolationCount() {
  std::lock_guard<std::mutex> lock(g_violation_mutex);
  return g_violations.size();
}

// ---------------------------------------------------------------------
// Server child: open the store, serve it, optionally churn (import /
// delete / vacuum) on the side. SIGTERM drains and prints an accounting
// line the driver audits for lost responses.
// ---------------------------------------------------------------------

std::atomic<bool> g_shutdown{false};
void HandleSignal(int /*sig*/) { g_shutdown.store(true); }

void ChurnLoop(Mistique* mq, uint64_t seed) {
  Rng rng(seed);
  // Resume where a previous incarnation left off: churn indices already
  // in the recovered catalog stay live; new imports continue past them.
  std::vector<int> live;
  int next = 0;
  for (ModelId id : mq->metadata().ListModels()) {
    Result<ModelInfo*> model = mq->metadata().GetModel(id);
    if (!model.ok() || (*model)->project != "churn") continue;
    const int j = std::atoi((*model)->name.c_str() + 1);
    live.push_back(j);
    if (j + 1 > next) next = j + 1;
  }
  while (!g_shutdown.load(std::memory_order_acquire)) {
    const uint64_t dice = rng.NextBelow(10);
    if (dice < 6 || live.size() < 3) {
      const std::string name = "m" + std::to_string(next);
      CheckOk(mq->ImportModel("churn", name,
                              SyntheticModel(kChurnBase + next))
                  .status(),
              "churn import");
      CheckOk(mq->SaveCatalog(), "churn save");
      live.push_back(next);
      next++;
    } else if (dice < 9 && live.size() > 4) {
      const int victim = live.front();
      live.erase(live.begin());
      CheckOk(mq->DeleteModel("churn", "m" + std::to_string(victim)),
              "churn delete");
      CheckOk(mq->Vacuum().status(), "churn vacuum");
      CheckOk(mq->SaveCatalog(), "churn save after vacuum");
    } else {
      CheckOk(mq->Flush(), "churn flush");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(20 + rng.NextBelow(60)));
  }
}

int RunServeChild(const std::string& store_dir, uint16_t port, size_t workers,
                  uint64_t churn_seed, bool pressure) {
  Mistique mq;
  const Status open_status = mq.Open(StoreOptions(store_dir, pressure));
  if (!open_status.ok()) {
    std::fprintf(stderr, "error: %s\n", open_status.ToString().c_str());
    return 1;
  }
  for (const std::string& warning : mq.recovery_warnings()) {
    std::printf("recovery: %s\n", warning.c_str());
  }

  // Aggressive retrospection policy: the soak clients dump/cross-check
  // the recorder continuously, so it should actually hold traces.
  obs::GlobalFlightRecorder().SetPolicy(/*sample_rate=*/0.25,
                                        /*slow_threshold_sec=*/0.05);
  QueryServiceOptions service_options;
  service_options.num_workers = workers;
  QueryService service(&mq, service_options);

  net::ServerOptions server_options;
  server_options.port = port;
  net::Server server(&service, server_options);
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    std::fprintf(stderr, "error: %s\n", start_status.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("soak-serving %s on 127.0.0.1:%u (churn_seed=%llu)\n",
              store_dir.c_str(), static_cast<unsigned>(server.port()),
              static_cast<unsigned long long>(churn_seed));
  std::fflush(stdout);

  std::thread churn;
  if (churn_seed != 0) churn = std::thread(ChurnLoop, &mq, churn_seed);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (churn.joinable()) churn.join();  // stop the writer before draining
  server.Stop();

  const ServiceStats stats = service.Stats();
  const uint64_t inflight = service.inflight();
  const uint64_t delivered =
      stats.completed + stats.expired + stats.failed + stats.abandoned;
  std::printf(
      "soak-drained: submitted=%llu cache_hits=%llu completed=%llu "
      "expired=%llu failed=%llu abandoned=%llu rejected=%llu inflight=%llu "
      "epoch=%llu\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.expired),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.abandoned),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(inflight),
      static_cast<unsigned long long>(mq.CurrentEpoch()));
  std::fflush(stdout);
  // No admitted response may be lost across a clean drain: cache hits
  // count as completed without being submitted, everything else admitted
  // must have been delivered as exactly one of the four outcomes.
  if (stats.submitted + stats.cache_hits != delivered || inflight != 0) {
    std::fprintf(stderr, "drain accounting violated\n");
    return 3;
  }
  return 0;
}

int RunRouterChild(uint16_t port, const std::vector<std::string>& endpoints) {
  std::vector<cluster::ShardSpec> specs;
  for (size_t i = 0; i < endpoints.size(); ++i) {
    const size_t colon = endpoints[i].rfind(':');
    specs.push_back({static_cast<uint32_t>(i), endpoints[i].substr(0, colon),
                     static_cast<uint16_t>(std::strtoul(
                         endpoints[i].c_str() + colon + 1, nullptr, 10))});
  }
  obs::GlobalFlightRecorder().SetPolicy(/*sample_rate=*/0.25,
                                        /*slow_threshold_sec=*/0.05);
  cluster::Router router(cluster::ShardMap(1, specs));
  CheckOk(router.Start(), "router start");

  net::ServerOptions server_options;
  server_options.port = port;
  net::Server server(&router, server_options);
  const Status start_status = server.Start();
  if (!start_status.ok()) {
    std::fprintf(stderr, "error: %s\n", start_status.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("soak-routing %zu shards on 127.0.0.1:%u\n", specs.size(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  while (!g_shutdown.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  router.Stop();
  std::printf("soak-routed\n");
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------
// Driver-side process management.
// ---------------------------------------------------------------------

uint16_t PickPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) std::abort();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::abort();
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Re-execs this binary as a child with output appended to `log_path`.
/// A non-empty `fault_label` arms the injector so the child _Exit(91)s
/// at that crash point's `fault_nth` occurrence.
pid_t SpawnChild(const std::vector<std::string>& args,
                 const std::string& log_path, const std::string& fault_label,
                 int fault_nth) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::abort();
  }
  if (pid == 0) {
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    if (!fault_label.empty()) {
      ::setenv("MISTIQUE_FAULT_POINT", fault_label.c_str(), 1);
      ::setenv("MISTIQUE_FAULT_MODE", "kill", 1);
      ::setenv("MISTIQUE_FAULT_NTH", std::to_string(fault_nth).c_str(), 1);
    } else {
      ::unsetenv("MISTIQUE_FAULT_POINT");
    }
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::perror("execv");
    std::_Exit(127);
  }
  return pid;
}

/// Reaps `pid` if it has exited. Returns true and stores the raw wait
/// status when it has.
bool TryReap(pid_t pid, int* status) {
  return ::waitpid(pid, status, WNOHANG) == pid;
}

net::ClientOptions ProbeOptions(uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.connect_timeout_sec = 0.5;
  options.request_timeout_sec = 2;
  options.max_reconnect_attempts = 0;
  return options;
}

/// Waits until a server answers Ping on `port` or `pid` dies (returns
/// false; `status` holds the wait status).
bool WaitReady(pid_t pid, uint16_t port, double timeout_sec, int* status) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_sec);
  while (std::chrono::steady_clock::now() < deadline) {
    if (TryReap(pid, status)) return false;
    net::Client probe(ProbeOptions(port));
    if (probe.Ping().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  *status = -1;
  return false;
}

void KillHard(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// SIGTERM + blocking wait; returns the exit code (negative = signaled).
int StopClean(pid_t pid) {
  ::kill(pid, SIGTERM);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return WEXITSTATUS(status);
}

std::string ReadFileTail(const std::string& path, size_t max_bytes = 4096) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return "";
  const auto size = static_cast<size_t>(in.tellg());
  const size_t want = size < max_bytes ? size : max_bytes;
  in.seekg(static_cast<std::streamoff>(size - want));
  std::string out(want, '\0');
  in.read(out.data(), static_cast<std::streamsize>(want));
  return out;
}

/// Value of a `name value` line in a metrics exposition, or -1.
double ParseMetric(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    if (line.size() > name.size() + 1 && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::atof(line.c_str() + name.size() + 1);
    }
    if (eol == std::string::npos) break;
    pos = eol + 1;
  }
  return -1;
}

// ---------------------------------------------------------------------
// Driver configuration and shared client state.
// ---------------------------------------------------------------------

struct Config {
  uint64_t seed = 1;
  int clients = 8;
  double duration_sec = 20;
  std::string mode = "both";  // single | cluster | both
  bool crash = false;
  bool self_check = false;
  /// Tiny buffer-pool preset: serve children run with a 64KB
  /// memory_budget_bytes so every read contends on pin/evict.
  bool pressure = false;
  std::string self_path;  // argv[0], for respawns and repro lines
};

std::string ReproCommand(const Config& cfg) {
  std::string cmd = cfg.self_path + " --seed " + std::to_string(cfg.seed) +
                    " --clients " + std::to_string(cfg.clients) +
                    " --duration-sec " +
                    std::to_string(static_cast<int>(cfg.duration_sec)) +
                    " --mode " + cfg.mode;
  if (cfg.crash) cmd += " --crash";
  if (cfg.self_check) cmd += " --self-check";
  if (cfg.pressure) cmd += " --pressure";
  return cmd;
}

/// Churn-model indices clients discovered via catalog ops; shared so
/// every client can aim fetches at models that actually exist(ed).
struct ChurnView {
  std::mutex mutex;
  std::vector<int> indices;
};

bool ToleratedCode(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

// ---------------------------------------------------------------------
// The client op mix. Each op verifies its answer against the oracle;
// failures must fall into the tolerated classes above.
// ---------------------------------------------------------------------

void VerifyFetchResult(const FetchResult& result, int formula_index,
                       uint64_t n_ex, const std::string& where) {
  if (result.column_names != std::vector<std::string>{"pred", "score"}) {
    Violate(where + ": unexpected columns");
    return;
  }
  if (result.columns.size() != 2 || result.columns[0].size() != n_ex ||
      result.columns[1].size() != n_ex) {
    Violate(where + ": wrong shape (" +
            std::to_string(result.columns.empty()
                               ? 0
                               : result.columns[0].size()) +
            " rows, expected " + std::to_string(n_ex) + ")");
    return;
  }
  for (uint64_t r = 0; r < n_ex; ++r) {
    if (result.columns[0][r] != Col0(formula_index, r) ||
        result.columns[1][r] != Col1(formula_index, r)) {
      Violate(where + ": row " + std::to_string(r) +
              " diverged from the oracle (got " +
              std::to_string(result.columns[0][r]) + ", want " +
              std::to_string(Col0(formula_index, r)) + ")");
      return;
    }
  }
}

/// A trace handed out by the flight recorder (or a response envelope)
/// must be internally consistent: rings copy/move traces whole under a
/// lock, so a torn or partially-written trace — garbage ids, unnamed
/// events, negative offsets, stage sums exceeding the recorded total —
/// is a synchronization bug, not bad luck. `slack` absorbs timer
/// coarseness, never tearing.
void VerifyTraceIntegrity(const obs::QueryTrace& trace,
                          const std::string& where, int depth = 0) {
  if (trace.trace_id == 0) Violate(where + ": zero trace id");
  if (trace.node.empty()) Violate(where + ": empty node");
  if (!std::isfinite(trace.total_sec) || trace.total_sec < 0 ||
      trace.total_sec > 3600) {
    Violate(where + ": implausible total_sec " +
            std::to_string(trace.total_sec));
  }
  constexpr double kSlack = 0.25;
  double top_level = 0;
  for (const obs::TraceEvent& event : trace.events()) {
    if (event.name.empty()) Violate(where + ": unnamed event");
    if (!std::isfinite(event.start_sec) || event.start_sec < 0 ||
        !std::isfinite(event.duration_sec) || event.duration_sec < 0) {
      Violate(where + ": negative/garbage event timing in " + event.name);
    }
    if (event.depth == 0) top_level += event.duration_sec;
  }
  double stage_sum = 0;
  for (const obs::TraceStageTotal& stage : trace.stage_totals()) {
    if (stage.name.empty()) Violate(where + ": unnamed stage total");
    if (stage.count == 0) Violate(where + ": zero-count stage total");
    if (!std::isfinite(stage.total_sec) || stage.total_sec < 0) {
      Violate(where + ": garbage stage total in " + stage.name);
    }
    stage_sum += stage.total_sec;
  }
  // Stage times are measured inside the request, so neither the
  // top-level span sum nor the per-chunk accumulator sum can exceed the
  // request's own recorded latency.
  if (trace.total_sec > 0) {
    if (top_level > trace.total_sec + kSlack) {
      Violate(where + ": top-level span sum " + std::to_string(top_level) +
              "s exceeds total " + std::to_string(trace.total_sec) + "s");
    }
    if (stage_sum > trace.total_sec + kSlack) {
      Violate(where + ": stage sum " + std::to_string(stage_sum) +
              "s exceeds total " + std::to_string(trace.total_sec) + "s");
    }
  }
  if (depth > 4) {
    Violate(where + ": trace tree deeper than any hop count we run");
    return;
  }
  for (const obs::QueryTrace& child : trace.children) {
    VerifyTraceIntegrity(child, where + " >child", depth + 1);
  }
}

void ClientWorker(const Config& cfg, uint16_t port, int client_index,
                  std::atomic<bool>* stop, ChurnView* churn) {
  net::ClientOptions options;
  options.port = port;
  options.connect_timeout_sec = 1;
  options.request_timeout_sec = 8;
  options.max_reconnect_attempts = 3;
  options.backoff_initial_sec = 0.05;
  options.backoff_max_sec = 0.5;
  options.jitter_seed = cfg.seed * 7919 + static_cast<uint64_t>(client_index) + 1;
  net::Client client(options);

  Rng rng(cfg.seed * 1000003 +
          static_cast<uint64_t>(client_index) * 0x9E3779B9ull);
  uint64_t op_count = 0;
  const auto where = [&](const std::string& op) {
    return "[" + cfg.mode + " client " + std::to_string(client_index) +
           " op " + std::to_string(op_count) + "] " + op;
  };

  // Enveloped traced fetch: the hop's trace rides back with the response.
  // Its stage times were measured inside the request, so their sum is
  // bounded by the latency this client observed over the wire (plus
  // generous slack for retries and coarse clocks).
  const auto traced_fetch = [&] {
    const int idx = static_cast<int>(rng.NextBelow(kStaticModels));
    const uint64_t n_ex = 1 + rng.NextBelow(kRows);
    FetchRequest req;
    req.project = "soak";
    req.model = "m" + std::to_string(idx);
    req.intermediate = "pred";
    req.n_ex = n_ex;
    client.SetTraceContext({obs::NewTraceId(), 0, true});
    const auto start = std::chrono::steady_clock::now();
    Result<FetchResult> r = client.Fetch(req);
    const double wire_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
    client.ClearTraceContext();
    const std::string desc = where("dtrace soak.m" + std::to_string(idx));
    if (!r.ok()) {
      if (!ToleratedCode(r.status().code())) {
        Violate(desc + ": " + r.status().ToString());
      }
      return;
    }
    VerifyFetchResult(*r, idx, n_ex, desc);
    if (!trace.has_value()) {
      Violate(desc + ": sampled envelope came back without a trace");
      return;
    }
    VerifyTraceIntegrity(*trace, desc);
    if (!trace->sampled) Violate(desc + ": unsampled trace echoed");
    if (trace->strategy.empty()) Violate(desc + ": empty strategy");
    double stage_sum = 0;
    for (const obs::TraceStageTotal& stage : trace->stage_totals()) {
      stage_sum += stage.total_sec;
    }
    if (stage_sum > wire_sec + 1.0) {
      Violate(desc + ": trace stage sum " + std::to_string(stage_sum) +
              "s exceeds wire latency " + std::to_string(wire_sec) + "s");
    }
  };

  while (!stop->load(std::memory_order_acquire)) {
    op_count++;
    const uint64_t dice = rng.NextBelow(100);

    if (dice < 30) {  // plain fetch of a static model
      const int idx = static_cast<int>(rng.NextBelow(kStaticModels));
      const uint64_t n_ex = 1 + rng.NextBelow(kRows);
      FetchRequest req;
      req.project = "soak";
      req.model = "m" + std::to_string(idx);
      req.intermediate = "pred";
      req.n_ex = n_ex;
      if (rng.Bernoulli(0.2)) req.force_read = true;
      Result<FetchResult> r = client.Fetch(req);
      const std::string desc = where("fetch soak.m" + std::to_string(idx) +
                                     " n=" + std::to_string(n_ex));
      if (r.ok()) {
        VerifyFetchResult(*r, idx, n_ex, desc);
      } else if (!ToleratedCode(r.status().code())) {
        Violate(desc + ": " + r.status().ToString());
      }
    } else if (dice < 40) {  // traced fetch
      traced_fetch();
    } else if (dice < 52) {  // predicate scan with a computable answer
      const int idx = static_cast<int>(rng.NextBelow(kStaticModels));
      const uint64_t a = rng.NextBelow(kRows);
      const uint64_t b = a + rng.NextBelow(kRows - a);
      ScanRequest req;
      req.project = "soak";
      req.model = "m" + std::to_string(idx);
      req.intermediate = "pred";
      req.predicate_column = "pred";
      req.lo = Col0(idx, a) - 0.1;  // strictly between representable values
      req.hi = Col0(idx, b) + 0.1;
      req.columns = {"pred"};
      Result<ScanResult> r = client.Scan(req);
      const std::string desc =
          where("scan soak.m" + std::to_string(idx) + " rows [" +
                std::to_string(a) + "," + std::to_string(b) + "]");
      if (r.ok()) {
        // A successful scan must be exactly the oracle row set — a
        // silently-partial scatter-gather answer shows up right here.
        if (r->row_ids.size() != b - a + 1) {
          Violate(desc + ": got " + std::to_string(r->row_ids.size()) +
                  " rows, expected " + std::to_string(b - a + 1));
        } else {
          for (uint64_t i = 0; i <= b - a; ++i) {
            if (r->row_ids[i] != a + i) {
              Violate(desc + ": row_ids[" + std::to_string(i) + "] = " +
                      std::to_string(r->row_ids[i]) + ", expected " +
                      std::to_string(a + i));
              break;
            }
          }
          if (!r->columns.empty() && !r->columns[0].empty() &&
              r->columns[0][0] != Col0(idx, a)) {
            Violate(desc + ": scan values diverged from the oracle");
          }
        }
      } else if (!ToleratedCode(r.status().code())) {
        Violate(desc + ": " + r.status().ToString());
      }
    } else if (dice < 60) {  // compressed-domain scan vs the decompress oracle
      // Quantized values are lossy, so the oracle is the decompress path:
      // fetch the reconstructed column, filter it client-side, and demand
      // the packed scan return exactly that row set.
      const int q = static_cast<int>(rng.NextBelow(kQuantModels));
      FetchRequest freq;
      freq.project = "soak";
      freq.model = "q" + std::to_string(q);
      freq.intermediate = "pred";
      freq.n_ex = kRows;
      Result<FetchResult> f = client.Fetch(freq);
      const std::string desc = where("qscan soak.q" + std::to_string(q));
      if (!f.ok()) {
        if (!ToleratedCode(f.status().code())) {
          Violate(desc + ": oracle fetch: " + f.status().ToString());
        }
      } else if (f->columns.size() != 1 || f->columns[0].size() != kRows) {
        Violate(desc + ": oracle fetch wrong shape");
      } else {
        const std::vector<double>& vals = f->columns[0];
        // Reconstructed values live on at most 2^k centers.
        std::vector<double> distinct(vals);
        std::sort(distinct.begin(), distinct.end());
        distinct.erase(std::unique(distinct.begin(), distinct.end()),
                       distinct.end());
        const size_t max_centers =
            1ull << (kQuantSpecs[q].scheme == QuantScheme::kThreshold
                         ? 1
                         : kQuantSpecs[q].kbits);
        if (distinct.size() > max_centers) {
          Violate(desc + ": " + std::to_string(distinct.size()) +
                  " distinct values from a " +
                  std::to_string(max_centers) + "-center quantizer");
        }
        // A predicate anchored at observed values hits real bin edges.
        const double a = vals[rng.NextBelow(kRows)];
        const double b = vals[rng.NextBelow(kRows)];
        ScanRequest req;
        req.project = "soak";
        req.model = "q" + std::to_string(q);
        req.intermediate = "pred";
        req.predicate_column = "pred";
        req.lo = std::min(a, b);
        req.hi = std::max(a, b);
        Result<ScanResult> r = client.Scan(req);
        if (r.ok()) {
          std::vector<uint64_t> want;
          for (uint64_t i = 0; i < kRows; ++i) {
            if (vals[i] >= req.lo && vals[i] <= req.hi) want.push_back(i);
          }
          if (r->row_ids != want) {
            Violate(desc + ": packed scan returned " +
                    std::to_string(r->row_ids.size()) +
                    " rows, decompress oracle says " +
                    std::to_string(want.size()));
          }
        } else if (!ToleratedCode(r.status().code())) {
          Violate(desc + ": " + r.status().ToString());
        }
      }
    } else if (dice < 70) {  // fetch a churned (import/delete racing) model
      int churn_index = -1;
      {
        std::lock_guard<std::mutex> lock(churn->mutex);
        if (!churn->indices.empty()) {
          churn_index = churn->indices[rng.NextBelow(churn->indices.size())];
        }
      }
      if (churn_index >= 0) {
        FetchRequest req;
        req.project = "churn";
        req.model = "m" + std::to_string(churn_index);
        req.intermediate = "pred";
        req.n_ex = kRows;
        Result<FetchResult> r = client.Fetch(req);
        const std::string desc =
            where("fetch churn.m" + std::to_string(churn_index));
        if (r.ok()) {
          VerifyFetchResult(*r, kChurnBase + churn_index, kRows, desc);
        } else if (r.status().code() != StatusCode::kNotFound &&
                   !ToleratedCode(r.status().code())) {
          // NotFound is legal: the model may have been deleted since the
          // catalog listing. Anything else non-tolerated is not.
          Violate(desc + ": " + r.status().ToString());
        }
      }
    } else if (dice < 80) {  // catalog: completeness + churn discovery
      Result<wire::CatalogInfo> r = client.Catalog();
      const std::string desc = where("catalog");
      if (r.ok()) {
        std::vector<bool> seen(kStaticModels, false);
        std::vector<bool> seen_quant(kQuantModels, false);
        std::vector<int> churn_now;
        for (const wire::CatalogModel& model : r->models) {
          const int idx = FormulaIndexFor(model.project, model.model);
          const int qidx = QuantIndexFor(model.project, model.model);
          if (model.project == "soak" && idx >= 0 && idx < kStaticModels) {
            seen[static_cast<size_t>(idx)] = true;
          } else if (qidx >= 0) {
            seen_quant[static_cast<size_t>(qidx)] = true;
          } else if (model.project == "churn" && idx >= 0) {
            churn_now.push_back(idx - kChurnBase);
          }
        }
        for (int i = 0; i < kStaticModels; ++i) {
          if (!seen[static_cast<size_t>(i)]) {
            Violate(desc + ": static model soak.m" + std::to_string(i) +
                    " missing from a successful catalog listing");
          }
        }
        for (int i = 0; i < kQuantModels; ++i) {
          if (!seen_quant[static_cast<size_t>(i)]) {
            Violate(desc + ": quantized model soak.q" + std::to_string(i) +
                    " missing from a successful catalog listing");
          }
        }
        std::lock_guard<std::mutex> lock(churn->mutex);
        churn->indices = std::move(churn_now);
      } else if (!ToleratedCode(r.status().code())) {
        Violate(desc + ": " + r.status().ToString());
      }
    } else if (dice < 86) {  // stats consistency
      Result<ServiceStats> r = client.Stats();
      if (r.ok() && r->cache_hits > r->cache_lookups) {
        Violate(where("stats") + ": cache_hits " +
                std::to_string(r->cache_hits) + " > cache_lookups " +
                std::to_string(r->cache_lookups));
      } else if (!r.ok() && !ToleratedCode(r.status().code())) {
        Violate(where("stats") + ": " + r.status().ToString());
      }
    } else if (dice < 92) {  // health probe
      Result<wire::HealthInfo> r = client.Health();
      if (r.ok() && r->state != 0) {
        // Nothing is ever drained while client threads run.
        Violate(where("health") + ": unexpected draining state");
      } else if (!r.ok() && !ToleratedCode(r.status().code())) {
        Violate(where("health") + ": " + r.status().ToString());
      }
    } else if (dice < 96) {  // distributed trace + flight recorder
      const uint64_t flavor = rng.NextBelow(4);
      if (flavor < 2) {
        traced_fetch();
      } else {
        // Retrospection under churn: whatever the rings return must be
        // whole — never a torn/partial trace.
        const bool slow = flavor == 3;
        Result<std::vector<obs::QueryTrace>> r =
            slow ? client.SlowLog(8) : client.TraceDump(8);
        const std::string desc = where(slow ? "slowlog" : "trace-dump");
        if (r.ok()) {
          for (size_t i = 0; i < r->size(); ++i) {
            VerifyTraceIntegrity((*r)[i], desc + " #" + std::to_string(i));
          }
          if (slow) {
            for (size_t i = 1; i < r->size(); ++i) {
              if ((*r)[i - 1].total_sec < (*r)[i].total_sec) {
                Violate(desc + ": slow log not sorted slowest-first");
                break;
              }
            }
          }
        } else if (!ToleratedCode(r.status().code())) {
          Violate(desc + ": " + r.status().ToString());
        }
      }
    } else {  // session churn: drop server-side cache state
      const Status st = client.CloseSession();
      if (!st.ok() && !ToleratedCode(st.code())) {
        Violate(where("close-session") + ": " + st.ToString());
      }
    }
  }
  (void)client.CloseSession();
}

// ---------------------------------------------------------------------
// Supervisor: SIGKILL + restart servers mid-traffic, some restarts
// armed to _Exit(91) at a random crash point; scrape metrics between
// incarnations and hold them to the consistency invariants.
// ---------------------------------------------------------------------

struct ServerSlot {
  std::vector<std::string> args;  ///< respawn command
  std::string log;
  uint16_t port = 0;
  pid_t pid = -1;
  uint64_t incarnation = 0;
  double last_epoch = -1;  ///< within the current incarnation
};

void ScrapeAndCheck(ServerSlot* slot, const std::string& who) {
  net::Client probe(ProbeOptions(slot->port));
  Result<std::string> metrics = probe.Metrics();
  if (!metrics.ok()) return;  // mid-crash; tolerated
  const double corruptions =
      ParseMetric(*metrics, "mistique_corruptions_detected");
  if (corruptions > 0) {
    Violate(who + ": mistique_corruptions_detected = " +
            std::to_string(corruptions));
  }
  const double hits = ParseMetric(*metrics, "mistique_service_cache_hits");
  const double lookups =
      ParseMetric(*metrics, "mistique_service_cache_lookups");
  if (hits >= 0 && lookups >= 0 && hits > lookups) {
    Violate(who + ": cache_hits > cache_lookups in metrics");
  }
  const double epoch = ParseMetric(*metrics, "mistique_mvcc_current_epoch");
  const double min_pinned =
      ParseMetric(*metrics, "mistique_mvcc_min_pinned_epoch");
  if (epoch >= 0) {
    if (slot->last_epoch >= 0 && epoch < slot->last_epoch) {
      Violate(who + ": mvcc epoch regressed " +
              std::to_string(slot->last_epoch) + " -> " +
              std::to_string(epoch) + " within one incarnation");
    }
    slot->last_epoch = epoch;
    if (min_pinned > epoch) {
      Violate(who + ": min pinned epoch " + std::to_string(min_pinned) +
              " exceeds current epoch " + std::to_string(epoch));
    }
  }
}

/// (Re)spawns a slot and waits for readiness; armed children that die at
/// their crash point before serving are respawned unarmed.
bool EnsureUp(ServerSlot* slot, const std::string& fault_label, int fault_nth,
              const std::string& who) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const std::string& label = attempt == 0 ? fault_label : "";
    slot->pid = SpawnChild(slot->args, slot->log, label, fault_nth);
    slot->incarnation++;
    slot->last_epoch = -1;
    int status = 0;
    if (WaitReady(slot->pid, slot->port, 20, &status)) return true;
    if (status == -1) {  // still alive but unreachable
      KillHard(slot->pid);
      continue;
    }
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != FaultInjector::kKillExitCode) {
      Violate(who + ": server exited " + std::to_string(code) +
              " before becoming ready\n--- log tail ---\n" +
              ReadFileTail(slot->log));
      return false;
    }
    // Died at its armed crash point during startup/replay: legal; the
    // next attempt respawns unarmed.
  }
  Violate(who + ": server never became ready after 3 spawns");
  return false;
}

void SupervisorLoop(const Config& cfg, std::vector<ServerSlot*> victims,
                    bool arm_faults, std::atomic<bool>* stop) {
  Rng rng(cfg.seed ^ 0xC0FFEE);
  const std::vector<std::string>& labels = FaultPointLabels();
  while (!stop->load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(400 + rng.NextBelow(1200)));
    if (stop->load(std::memory_order_acquire)) break;
    ServerSlot* victim = victims[rng.NextBelow(victims.size())];
    const std::string who =
        "[" + cfg.mode + " supervisor " + victim->log + "]";

    // Check in on the incumbent first: an armed child may already have
    // died at its crash point.
    int status = 0;
    if (!TryReap(victim->pid, &status)) {
      if (rng.Bernoulli(0.3)) {  // let it live; just audit its metrics
        ScrapeAndCheck(victim, who);
        continue;
      }
      KillHard(victim->pid);
    } else {
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (code != FaultInjector::kKillExitCode) {
        Violate(who + ": server died unexpectedly (exit " +
                std::to_string(code) + ")\n--- log tail ---\n" +
                ReadFileTail(victim->log));
        stop->store(true);
        return;
      }
    }
    // Respawn, sometimes armed so the NEXT death is at a labeled crash
    // point inside the churn writer instead of an arbitrary SIGKILL.
    std::string label;
    int nth = 1;
    if (arm_faults && rng.Bernoulli(0.5)) {
      label = labels[rng.NextBelow(labels.size())];
      nth = static_cast<int>(rng.UniformInt(1, 4));
    }
    if (!EnsureUp(victim, label, nth, who)) {
      stop->store(true);
      return;
    }
    ScrapeAndCheck(victim, who);
  }
}

// ---------------------------------------------------------------------
// Store construction + the post-hoc oracle.
// ---------------------------------------------------------------------

void BuildSeedStore(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Mistique mq;
  CheckOk(mq.Open(StoreOptions(dir)), "seed open");
  for (int i = 0; i < kStaticModels; ++i) {
    CheckOk(mq.ImportModel("soak", "m" + std::to_string(i), SyntheticModel(i))
                .status(),
            "seed import");
  }
  for (int q = 0; q < kQuantModels; ++q) {
    CheckOk(mq.ImportModel("soak", "q" + std::to_string(q), QuantModel(q))
                .status(),
            "seed quant import");
  }
  CheckOk(mq.Flush(), "seed flush");
  CheckOk(mq.SaveCatalog(), "seed save");
}

void SplitSeedStore(const std::string& src_dir, const std::string& prefix,
                    size_t shards) {
  Mistique src;
  CheckOk(src.Open(StoreOptions(src_dir)), "split src open");
  std::vector<cluster::ShardSpec> specs;
  std::vector<std::unique_ptr<Mistique>> stores;
  std::vector<Mistique*> dst;
  for (size_t i = 0; i < shards; ++i) {
    specs.push_back({static_cast<uint32_t>(i), "", 0});
    const std::string dir = prefix + std::to_string(i);
    fs::remove_all(dir);
    fs::create_directories(dir);
    stores.push_back(std::make_unique<Mistique>());
    CheckOk(stores.back()->Open(StoreOptions(dir)), "shard open");
    dst.push_back(stores.back().get());
  }
  CheckOk(cluster::SplitStore(&src, dst, cluster::ShardMap(1, specs)).status(),
          "split");
  for (size_t i = 0; i < shards; ++i) {
    CheckOk(dst[i]->Flush(), "shard flush");
    CheckOk(dst[i]->SaveCatalog(), "shard save");
  }
}

/// Post-hoc verification of one store directory: clean reopen, no
/// atomic-write debris, every surviving model byte-identical to the
/// oracle, and a clean vacuum. Returns the static-model indices found.
std::vector<int> VerifyStoreOracle(const std::string& dir,
                                   const std::string& who) {
  std::vector<int> statics_found;
  Mistique mq;
  const Status open_status = mq.Open(StoreOptions(dir));
  if (!open_status.ok()) {
    Violate(who + ": post-hoc reopen failed: " + open_status.ToString());
    return statics_found;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(kTempSuffix)) {
      Violate(who + ": orphan temp file " + entry.path().string());
    }
  }
  for (ModelId id : mq.metadata().ListModels()) {
    Result<ModelInfo*> model = mq.metadata().GetModel(id);
    if (!model.ok()) {
      Violate(who + ": GetModel failed: " + model.status().ToString());
      continue;
    }
    const std::string& project = (*model)->project;
    const std::string& name = (*model)->name;
    const int qidx = QuantIndexFor(project, name);
    if (qidx >= 0) {
      // Quantized model: fetch must succeed with the right shape, values
      // must lie on at most 2^k centers, and an in-process scan must be
      // byte-identical to filtering the decompressed column.
      Result<FetchResult> qr =
          mq.GetIntermediates({project + "." + name + ".pred.*"}, kRows);
      if (!qr.ok()) {
        Violate(who + ": post-hoc quant fetch " + name + ": " +
                qr.status().ToString());
        continue;
      }
      if (qr->columns.size() != 1 || qr->columns[0].size() != kRows) {
        Violate(who + ": post-hoc quant fetch " + name + " wrong shape");
        continue;
      }
      const std::vector<double>& vals = qr->columns[0];
      std::vector<double> distinct(vals);
      std::sort(distinct.begin(), distinct.end());
      distinct.erase(std::unique(distinct.begin(), distinct.end()),
                     distinct.end());
      const size_t max_centers =
          1ull << (kQuantSpecs[qidx].scheme == QuantScheme::kThreshold
                       ? 1
                       : kQuantSpecs[qidx].kbits);
      if (distinct.size() > max_centers) {
        Violate(who + ": quant model " + name + " has " +
                std::to_string(distinct.size()) + " distinct values from a " +
                std::to_string(max_centers) + "-center quantizer");
      }
      ScanRequest sreq;
      sreq.project = project;
      sreq.model = name;
      sreq.intermediate = "pred";
      sreq.predicate_column = "pred";
      sreq.lo = distinct.front();
      sreq.hi = distinct[distinct.size() / 2];
      Result<ScanResult> sr = mq.Scan(sreq);
      if (!sr.ok()) {
        Violate(who + ": post-hoc quant scan " + name + ": " +
                sr.status().ToString());
        continue;
      }
      std::vector<uint64_t> want;
      for (uint64_t r = 0; r < kRows; ++r) {
        if (vals[r] >= sreq.lo && vals[r] <= sreq.hi) want.push_back(r);
      }
      if (sr->row_ids != want) {
        Violate(who + ": post-hoc quant scan " + name + " returned " +
                std::to_string(sr->row_ids.size()) +
                " rows, decompress oracle says " + std::to_string(want.size()));
      }
      continue;
    }
    const int idx = FormulaIndexFor(project, name);
    if (idx < 0) {
      Violate(who + ": unexpected model " + project + "." + name);
      continue;
    }
    if (project == "soak") statics_found.push_back(idx);
    Result<FetchResult> r =
        mq.GetIntermediates({project + "." + name + ".pred.*"}, kRows);
    if (!r.ok()) {
      Violate(who + ": post-hoc fetch " + project + "." + name + ": " +
              r.status().ToString());
      continue;
    }
    VerifyFetchResult(*r, idx, kRows, who + " post-hoc " + project + "." + name);
  }
  Result<uint64_t> vacuumed = mq.Vacuum();
  if (!vacuumed.ok()) {
    Violate(who + ": post-hoc vacuum failed: " + vacuumed.status().ToString());
  } else if (!statics_found.empty()) {
    // Vacuum must not eat live data.
    const int idx = statics_found[0];
    Result<FetchResult> r = mq.GetIntermediates(
        {"soak.m" + std::to_string(idx) + ".pred.*"}, kRows);
    if (!r.ok()) {
      Violate(who + ": fetch after post-hoc vacuum: " + r.status().ToString());
    } else {
      VerifyFetchResult(*r, idx, kRows, who + " after post-hoc vacuum");
    }
  }
  return statics_found;
}

// ---------------------------------------------------------------------
// One soak run (single-node or 3-shard cluster).
// ---------------------------------------------------------------------

void RunClients(const Config& cfg, uint16_t port, double duration_sec,
                ChurnView* churn, std::function<void()> mid_phase) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < cfg.clients; ++i) {
    threads.emplace_back(ClientWorker, std::cref(cfg), port, i, &stop, churn);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration_sec);
  while (std::chrono::steady_clock::now() < deadline &&
         ViolationCount() == 0) {
    if (mid_phase) mid_phase();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
}

void RunSingleNode(Config cfg, const std::string& workdir) {
  cfg.mode = "single";
  const std::string store_dir = workdir + "/single_store";
  BuildSeedStore(store_dir);

  ServerSlot server;
  server.port = PickPort();
  server.log = workdir + "/single_server.log";
  server.args = {cfg.self_path, "--serve-child", store_dir,
                 std::to_string(server.port), "4",
                 std::to_string(cfg.seed + 1),  // churn on
                 cfg.pressure ? "1" : "0"};
  if (!EnsureUp(&server, "", 1, "[single spawn]")) return;

  ChurnView churn;
  const double warmup = cfg.duration_sec * 0.3;
  const double storm = cfg.duration_sec - warmup;

  std::printf("single-node: warmup %.1fs (%d clients, no crashes)\n", warmup,
              cfg.clients);
  RunClients(cfg, server.port, warmup, &churn, nullptr);

  std::printf("single-node: storm %.1fs (crash injection %s)\n", storm,
              cfg.crash ? "ON" : "off");
  {
    std::atomic<bool> stop_supervisor{false};
    std::thread supervisor;
    if (cfg.crash) {
      supervisor = std::thread(SupervisorLoop, std::cref(cfg),
                               std::vector<ServerSlot*>{&server},
                               /*arm_faults=*/true, &stop_supervisor);
    }
    RunClients(cfg, server.port, storm, &churn, nullptr);
    stop_supervisor.store(true, std::memory_order_release);
    if (supervisor.joinable()) supervisor.join();
  }

  // The supervisor may have left an armed child dead; make sure the final
  // incumbent is alive for the clean-drain check.
  int status = 0;
  if (TryReap(server.pid, &status)) {
    const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != FaultInjector::kKillExitCode) {
      Violate("[single] server died unexpectedly (exit " +
              std::to_string(code) + ")\n--- log tail ---\n" +
              ReadFileTail(server.log));
      return;
    }
    if (!EnsureUp(&server, "", 1, "[single final respawn]")) return;
  }
  ScrapeAndCheck(&server, "[single final scrape]");

  const int code = StopClean(server.pid);
  const std::string tail = ReadFileTail(server.log);
  if (code != 0) {
    Violate("[single drain] server exited " + std::to_string(code) +
            " on SIGTERM (3 = drain accounting)\n--- log tail ---\n" + tail);
  } else if (tail.find("soak-drained:") == std::string::npos) {
    Violate("[single drain] no drain summary in the server log");
  }

  const std::vector<int> statics =
      VerifyStoreOracle(store_dir, "[single oracle]");
  if (statics.size() != static_cast<size_t>(kStaticModels)) {
    Violate("[single oracle] expected " + std::to_string(kStaticModels) +
            " static models after recovery, found " +
            std::to_string(statics.size()));
  }
  std::printf("single-node: done (%llu server incarnations)\n",
              static_cast<unsigned long long>(server.incarnation));
}

void RunCluster(Config cfg, const std::string& workdir) {
  cfg.mode = "cluster";
  constexpr size_t kShards = 3;
  const std::string seed_dir = workdir + "/cluster_seed";
  const std::string shard_prefix = workdir + "/shard";
  BuildSeedStore(seed_dir);
  SplitSeedStore(seed_dir, shard_prefix, kShards);

  std::vector<ServerSlot> shards(kShards);
  std::vector<std::string> endpoints;
  for (size_t i = 0; i < kShards; ++i) {
    shards[i].port = PickPort();
    shards[i].log = workdir + "/shard" + std::to_string(i) + ".log";
    // Shards never churn (cfg churn_seed 0): imports into one shard
    // would not match the router's hash placement.
    shards[i].args = {cfg.self_path, "--serve-child",
                      shard_prefix + std::to_string(i),
                      std::to_string(shards[i].port), "2", "0",
                      cfg.pressure ? "1" : "0"};
    if (!EnsureUp(&shards[i], "", 1, "[cluster shard spawn]")) return;
    endpoints.push_back("127.0.0.1:" + std::to_string(shards[i].port));
  }
  ServerSlot router;
  router.port = PickPort();
  router.log = workdir + "/router.log";
  router.args = {cfg.self_path, "--router-child",
                 std::to_string(router.port)};
  for (const std::string& endpoint : endpoints) {
    router.args.push_back(endpoint);
  }
  if (!EnsureUp(&router, "", 1, "[cluster router spawn]")) return;

  ChurnView churn;  // stays empty: no churn project in cluster mode
  const double warmup = cfg.duration_sec * 0.3;
  const double storm = cfg.duration_sec - warmup;

  std::printf("cluster: warmup %.1fs (%d clients via router)\n", warmup,
              cfg.clients);
  RunClients(cfg, router.port, warmup, &churn, nullptr);

  std::printf("cluster: storm %.1fs (shard crash injection %s)\n", storm,
              cfg.crash ? "ON" : "off");
  {
    std::atomic<bool> stop_supervisor{false};
    std::thread supervisor;
    if (cfg.crash) {
      std::vector<ServerSlot*> victims;
      for (ServerSlot& shard : shards) victims.push_back(&shard);
      // Shards take no writes, so labeled fault points never fire there:
      // cluster crashes are pure SIGKILL + restart.
      supervisor = std::thread(SupervisorLoop, std::cref(cfg), victims,
                               /*arm_faults=*/false, &stop_supervisor);
    }
    RunClients(cfg, router.port, storm, &churn, nullptr);
    stop_supervisor.store(true, std::memory_order_release);
    if (supervisor.joinable()) supervisor.join();
  }

  for (size_t i = 0; i < kShards; ++i) {
    int status = 0;
    if (TryReap(shards[i].pid, &status)) {
      if (!EnsureUp(&shards[i], "", 1, "[cluster final respawn]")) return;
    }
  }
  const int router_code = StopClean(router.pid);
  const std::string router_tail = ReadFileTail(router.log);
  if (router_code != 0) {
    Violate("[cluster drain] router exited " + std::to_string(router_code) +
            "\n--- log tail ---\n" + router_tail);
  } else if (router_tail.find("soak-routed") == std::string::npos) {
    Violate("[cluster drain] no drain marker in the router log");
  }
  for (size_t i = 0; i < kShards; ++i) {
    const int code = StopClean(shards[i].pid);
    if (code != 0) {
      Violate("[cluster drain] shard " + std::to_string(i) + " exited " +
              std::to_string(code) + " on SIGTERM\n--- log tail ---\n" +
              ReadFileTail(shards[i].log));
    }
  }

  // Post-hoc oracle across the shard set: every shard reopens clean, and
  // the union of surviving static models is exactly the full set (each
  // model lives on exactly one shard).
  std::vector<int> all_statics;
  for (size_t i = 0; i < kShards; ++i) {
    const std::vector<int> found = VerifyStoreOracle(
        shard_prefix + std::to_string(i),
        "[cluster oracle shard " + std::to_string(i) + "]");
    all_statics.insert(all_statics.end(), found.begin(), found.end());
  }
  std::vector<bool> seen(kStaticModels, false);
  for (int idx : all_statics) {
    if (idx < 0 || idx >= kStaticModels || seen[static_cast<size_t>(idx)]) {
      Violate("[cluster oracle] static model soak.m" + std::to_string(idx) +
              " duplicated or out of range across shards");
    } else {
      seen[static_cast<size_t>(idx)] = true;
    }
  }
  for (int i = 0; i < kStaticModels; ++i) {
    if (!seen[static_cast<size_t>(i)]) {
      Violate("[cluster oracle] static model soak.m" + std::to_string(i) +
              " lost from every shard");
    }
  }
  uint64_t incarnations = 0;
  for (const ServerSlot& shard : shards) incarnations += shard.incarnation;
  std::printf("cluster: done (%llu shard incarnations)\n",
              static_cast<unsigned long long>(incarnations));
}

// ---------------------------------------------------------------------
// --self-check: prove the net catches a real fault. Flip one payload
// byte inside a sealed partition, serve the store, and require the
// harness to detect it (via the corruption counter and/or failed oracle
// probes). Exits 0 iff the injected fault WAS caught and reported.
// ---------------------------------------------------------------------

int RunSelfCheck(Config cfg, const std::string& workdir) {
  cfg.mode = "single";
  const std::string store_dir = workdir + "/selfcheck_store";
  BuildSeedStore(store_dir);

  bool flipped = false;
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0 && name.ends_with(".mq")) {
      std::fstream f(entry.path(),
                     std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(kEnvelopeHeaderSize + 7));
      char b = 0x7f;
      f.write(&b, 1);
      flipped = true;
      break;
    }
  }
  if (!flipped) {
    std::fprintf(stderr, "self-check: no sealed partition file to corrupt\n");
    return 1;
  }
  std::printf("self-check: flipped one payload byte in a sealed partition\n");

  ServerSlot server;
  server.port = PickPort();
  server.log = workdir + "/selfcheck_server.log";
  server.args = {cfg.self_path, "--serve-child", store_dir,
                 std::to_string(server.port), "2", "0", "0"};
  if (!EnsureUp(&server, "", 1, "[self-check spawn]")) return 1;

  // Probe every static model so the corrupted partition is read, then
  // audit the metrics the soak checkers watch.
  size_t anomalies = 0;
  {
    net::ClientOptions options = ProbeOptions(server.port);
    options.request_timeout_sec = 8;
    net::Client client(options);
    for (int idx = 0; idx < kStaticModels; ++idx) {
      FetchRequest req;
      req.project = "soak";
      req.model = "m" + std::to_string(idx);
      req.intermediate = "pred";
      req.n_ex = kRows;
      Result<FetchResult> r = client.Fetch(req);
      if (!r.ok()) {
        anomalies++;
        std::printf("self-check: fetch soak.m%d failed as expected: %s\n",
                    idx, r.status().ToString().c_str());
        continue;
      }
      for (uint64_t row = 0; row < kRows; ++row) {
        if (r->columns[0][row] != Col0(idx, row) ||
            r->columns[1][row] != Col1(idx, row)) {
          anomalies++;
          std::printf("self-check: soak.m%d row %llu diverged\n", idx,
                      static_cast<unsigned long long>(row));
          break;
        }
      }
    }
    Result<std::string> metrics = client.Metrics();
    if (metrics.ok()) {
      const double corruptions =
          ParseMetric(*metrics, "mistique_corruptions_detected");
      if (corruptions > 0) {
        anomalies++;
        std::printf("self-check: mistique_corruptions_detected = %.0f\n",
                    corruptions);
      }
    }
  }
  StopClean(server.pid);

  if (anomalies == 0) {
    Violate("[self-check] injected bit-flip went completely undetected");
    return 1;
  }
  std::printf(
      "SELF-CHECK PASSED: injected bit-flip caught (%zu anomalies "
      "reported)\nreproduce: %s\n",
      anomalies, ReproCommand(cfg).c_str());
  return 0;
}

// ---------------------------------------------------------------------

int Main(int argc, char** argv) {
  // Internal child modes first: exact argv contracts, no flag parsing.
  if (argc >= 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    if (argc != 6 && argc != 7) return 2;
    return RunServeChild(
        argv[2], static_cast<uint16_t>(std::strtoul(argv[3], nullptr, 10)),
        std::strtoull(argv[4], nullptr, 10),
        std::strtoull(argv[5], nullptr, 10),
        argc == 7 && std::strcmp(argv[6], "1") == 0);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--router-child") == 0) {
    if (argc < 4) return 2;
    std::vector<std::string> endpoints;
    for (int i = 3; i < argc; ++i) endpoints.push_back(argv[i]);
    return RunRouterChild(
        static_cast<uint16_t>(std::strtoul(argv[2], nullptr, 10)), endpoints);
  }

  Config cfg;
  cfg.self_path = argv[0];
  cfg.seed = static_cast<uint64_t>(bench::EnvInt("SOAK_SEED", 1));
  cfg.clients = bench::EnvInt("SOAK_CLIENTS", 8);
  cfg.duration_sec = bench::EnvDouble("SOAK_DURATION_SEC", 20);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--clients" && i + 1 < argc) {
      cfg.clients = std::atoi(argv[++i]);
    } else if (arg == "--duration-sec" && i + 1 < argc) {
      cfg.duration_sec = std::atof(argv[++i]);
    } else if (arg == "--mode" && i + 1 < argc) {
      cfg.mode = argv[++i];
    } else if (arg == "--crash") {
      cfg.crash = true;
    } else if (arg == "--self-check") {
      cfg.self_check = true;
    } else if (arg == "--pressure") {
      cfg.pressure = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--clients N] [--duration-sec D] "
                   "[--mode single|cluster|both] [--crash] [--self-check] "
                   "[--pressure]\n",
                   argv[0]);
      return 2;
    }
  }
  if (cfg.clients < 1) cfg.clients = 1;

  // SOAK_WORKDIR keeps stores and server logs around after exit (CI
  // uploads them as artifacts on failure); default is a self-cleaning
  // scratch directory.
  std::string workdir;
  std::unique_ptr<bench::BenchDir> scratch;
  if (const char* env = std::getenv("SOAK_WORKDIR"); env != nullptr && *env) {
    workdir = env;
    fs::remove_all(workdir);
    fs::create_directories(workdir);
  } else {
    scratch = std::make_unique<bench::BenchDir>("soak_harness");
    workdir = scratch->path();
  }
  std::printf(
      "soak: seed=%llu clients=%d duration=%.0fs mode=%s crash=%s "
      "pressure=%s\n",
      static_cast<unsigned long long>(cfg.seed), cfg.clients,
      cfg.duration_sec, cfg.mode.c_str(), cfg.crash ? "on" : "off",
      cfg.pressure ? "on" : "off");

  if (cfg.self_check) return RunSelfCheck(cfg, workdir);

  if (cfg.mode == "single" || cfg.mode == "both") {
    RunSingleNode(cfg, workdir);
  }
  if (ViolationCount() == 0 &&
      (cfg.mode == "cluster" || cfg.mode == "both")) {
    RunCluster(cfg, workdir);
  }

  std::lock_guard<std::mutex> lock(g_violation_mutex);
  if (!g_violations.empty()) {
    std::fprintf(stderr, "\nsoak FAILED: %zu invariant violation(s)\n",
                 g_violations.size());
    for (const std::string& v : g_violations) {
      std::fprintf(stderr, "  - %s\n", v.c_str());
    }
    std::fprintf(stderr, "reproduce: %s\n", ReproCommand(cfg).c_str());
    return 1;
  }
  std::printf("soak OK: zero invariant violations (seed %llu)\n",
              static_cast<unsigned long long>(cfg.seed));
  return 0;
}

}  // namespace
}  // namespace mistique

int main(int argc, char** argv) { return mistique::Main(argc, argv); }
