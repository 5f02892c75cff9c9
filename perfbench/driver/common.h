// Shared plumbing for the perfbench workloads: arguments, the op tally,
// the in-memory span recorder of traced runs, and the raw-result writer.
//
// The driver measures and records; it computes no summary statistic.
// perfbench/run.py folds the raw result (latency samples, spans, counts)
// into the reported metrics, so all arithmetic lives in one tested place
// (perfbench/metrics.py).

#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/mistique.h"

namespace perfbench {

/// Table 5's query categories: few/many columns x few/many rows.
enum Category : uint32_t { kFcfr = 0, kFcmr = 1, kMcfr = 2, kMcmr = 3 };
constexpr int kNumCategories = 4;
const char* CategoryName(uint32_t category);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;       ///< raw-result JSON path
  std::string work_dir;  ///< scratch directory for stores (wiped)
};

/// Seconds on the steady clock since the driver started.
double Now();

/// One completed op: what it was and how long it took.
struct Sample {
  uint32_t kind = 0;
  uint32_t category = 0;
  double sec = 0;
};

/// Outcome of a run of ops. A failed op (error, refusal, timeout, wrong
/// answer) adds no latency sample; it is counted in `errors` or `wrong`.
struct Tally {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;

  void Merge(const Tally& other);
};

/// In-memory spans of a traced run: name, start, end, parent span, op id,
/// plus an optional amount of work (bytes or values) for rate metrics.
/// Spans stay in memory until the run ends. Thread-safe.
class Spans {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    std::string name;
    double start = 0;
    double end = 0;
    double work = 0;
  };

  /// RAII span; a no-op when the recorder is null. Nested scopes on one
  /// thread become children of the enclosing scope.
  class Scope {
   public:
    Scope(Spans* spans, const char* name, uint64_t op, double work = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_work(double work) { work_ = work; }

   private:
    Spans* spans_;
    const char* name_;
    uint64_t op_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    double start_ = 0;
    double work_ = 0;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void Add(Span span);
  std::mutex mutex_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
  friend class Scope;
};

/// Raw value counts of some intermediates, by how they were produced:
/// DNN activations (float32, 4 B each) and TRAD or imported values (8 B
/// each). perfbench/metrics.py turns them into raw bytes.
struct RawValues {
  double dnn = 0;
  double trad = 0;
};

/// Raw values of the intermediates one model logged. A DNN model counts
/// each logged layer's activations as `net` produced them for a CIFAR
/// 3x32x32 input, before pooling; the input itself is not logged, so it is
/// not counted. A TRAD or imported model counts its stored values.
RawValues LoggedValues(const mistique::ModelInfo& model,
                       const mistique::Network& net);
/// LoggedValues of one model, by name.
RawValues LoggedValues(mistique::Mistique* mq, const std::string& project,
                       const std::string& model, const mistique::Network& net);
/// LoggedValues summed over every model in the catalog.
RawValues CatalogValues(mistique::Mistique* mq, const mistique::Network& net);

/// What a workload hands back to main for writing out.
struct RunResult {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  double measured_s = 0;        ///< wall time of the timed phase
  Tally timed;
  /// ingest_mb_s inputs: raw values of one ingested unit (a checkpoint or
  /// an imported model) and the wall time of each ingest call.
  RawValues ingest_unit;
  std::vector<double> ingest_s;
  /// storage_ratio inputs: Mistique::StorageFootprintBytes() after the
  /// final flush (partitions only, no WAL) and the raw values of the
  /// intermediates live at the end.
  double footprint_bytes = 0;
  RawValues live;
  /// Peak resident memory up to the end of the timed phase, read before
  /// the answer checks, which count in no metric.
  double peak_rss_kb = 0;
  /// Counts that must repeat exactly for one seed (printed every run).
  std::map<std::string, double> counts;
  /// Traced run only: the untraced and traced passes over the same op
  /// list, per-layer values measured directly, and the spans.
  Tally plain_pass;
  Tally traced_pass;
  std::map<std::string, double> layer;
  Spans spans;
  /// Free-form facts about the run (sizes, budgets), for the log.
  std::map<std::string, double> info;
};

/// Current value of a counter in the process-global obs registry.
uint64_t CounterValue(const char* name);

double PeakRssKb();

/// Moves the thread that creates it round every CPU it may use, one step
/// every `period_s`, until destroyed; then it gives the thread back its
/// CPU mask. The host slows each vCPU on its own for seconds at a time (a
/// neighbour's load on the same core), and the scheduler keeps a lone busy
/// thread on one vCPU, so a single-threaded phase would follow that one
/// core's luck. Rotating makes it sample every core's state the same way.
/// Threads the rotated thread starts meanwhile would inherit a one-CPU
/// mask, so only wrap phases that start none.
class CoreRotation {
 public:
  explicit CoreRotation(double period_s = 0.05);
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Aborts the driver with a message (set-up failures are fatal).
[[noreturn]] void Fatal(const std::string& what);

inline void CheckOk(const mistique::Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

template <typename T>
T CheckOk(mistique::Result<T> result, const char* what) {
  if (!result.ok()) {
    Fatal(std::string(what) + ": " + result.status().ToString());
  }
  return std::move(result).ValueOrDie();
}

/// Seed for a named stream derived from the run seed, so every target,
/// row id and perturbation depends only on --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// One cycle of an op list, in order of each op's position in [0, 1). A
/// shape with n copies places copy k at (k + 0.5) / n, so every shape's
/// copies spread evenly over the cycle whatever the seed.
template <typename Op>
std::vector<Op> CycleOrder(std::vector<std::pair<double, Op>> placed) {
  std::stable_sort(placed.begin(), placed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Op> ops;
  for (auto& entry : placed) ops.push_back(std::move(entry.second));
  return ops;
}

/// True when two answers agree within tolerance: their mean absolute
/// difference is at most `rel` times the mean magnitude of `want` (the
/// normalized error tests/mistique_dnn_test.cc bounds). NaNs must match.
bool NearlyEqual(const std::vector<double>& got,
                 const std::vector<double>& want, double rel);

/// FNV-1a over every byte of an answer (names, values, row ids), for the
/// byte-identical answer checks.
uint64_t HashValues(const std::vector<double>& v);
uint64_t HashFetch(const mistique::FetchResult& r);
uint64_t HashScan(const mistique::ScanResult& r);

std::string ResultJson(const Args& args, const RunResult& r,
                       const std::vector<std::string>& kind_names);

// Workload entry points.
void RunDiagCold(const Args& args, RunResult* out);
void RunServeRouted(const Args& args, RunResult* out);
void RunIngestServe(const Args& args, RunResult* out);
std::vector<std::string> DiagColdKinds();
std::vector<std::string> ServeRoutedKinds();
std::vector<std::string> IngestServeKinds();

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
