// perfbench_driver: runs one workload and writes its raw result as JSON.
//
//   perfbench_driver --workload <diag_cold|serve_routed|ingest_serve>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --out <result.json> --work-dir <scratch dir>
//
// Normally started by perfbench/run.py, which builds it, folds the raw
// result into metrics and prints the final JSON line.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"
#include "obs/metrics.h"

namespace perfbench {

const char* CategoryName(uint32_t category) {
  static const char* kNames[] = {"fcfr", "fcmr", "mcfr", "mcmr"};
  return category < kNumCategories ? kNames[category] : "?";
}

double Now() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void Tally::Merge(const Tally& other) {
  samples.insert(samples.end(), other.samples.begin(), other.samples.end());
  attempted += other.attempted;
  errors += other.errors;
  wrong += other.wrong;
}

namespace {
thread_local uint64_t tls_current_span = 0;
}  // namespace

Spans::Scope::Scope(Spans* spans, const char* name, uint64_t op, double work)
    : spans_(spans), name_(name), op_(op), work_(work) {
  if (spans_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(spans_->mutex_);
    id_ = spans_->next_id_++;
  }
  parent_ = tls_current_span;
  tls_current_span = id_;
  start_ = Now();
}

Spans::Scope::~Scope() {
  if (spans_ == nullptr) return;
  const double end = Now();
  tls_current_span = parent_;
  spans_->Add({id_, parent_, op_, name_, start_, end, work_});
}

void Spans::Add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

uint64_t CounterValue(const char* name) {
  return mistique::obs::GlobalMetrics().GetCounter(name, "")->Value();
}

double PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

struct CoreRotation::State {
  pthread_t target;
  cpu_set_t original;
  std::vector<int> cpus;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};

CoreRotation::CoreRotation(double period_s) : state_(new State) {
  State* st = state_.get();
  st->target = pthread_self();
  CPU_ZERO(&st->original);
  pthread_getaffinity_np(st->target, sizeof(cpu_set_t), &st->original);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &st->original)) st->cpus.push_back(cpu);
  }
  if (st->cpus.size() < 2) return;
  const auto period = std::chrono::duration<double>(period_s);
  st->thread = std::thread([st, period] {
    std::unique_lock<std::mutex> lock(st->mutex);
    for (size_t i = 0; !st->stop; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(st->cpus[i % st->cpus.size()], &one);
      pthread_setaffinity_np(st->target, sizeof(cpu_set_t), &one);
      st->cv.wait_for(lock, period, [st] { return st->stop; });
    }
  });
}

CoreRotation::~CoreRotation() {
  if (state_->thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      state_->stop = true;
    }
    state_->cv.notify_all();
    state_->thread.join();
  }
  pthread_setaffinity_np(state_->target, sizeof(cpu_set_t),
                         &state_->original);
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: FATAL: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

RawValues LoggedValues(const mistique::ModelInfo& model,
                       const mistique::Network& net) {
  RawValues raw;
  const auto shapes = net.LayerShapes(3, 32, 32);
  for (const mistique::IntermediateInfo& in : model.intermediates) {
    const double rows = static_cast<double>(in.num_rows);
    if (model.kind == mistique::ModelKind::kDnn) {
      raw.dnn +=
          static_cast<double>(shapes.at(in.stage_index).PerExample()) * rows;
    } else {
      raw.trad += rows * static_cast<double>(in.columns.size());
    }
  }
  return raw;
}

RawValues LoggedValues(mistique::Mistique* mq, const std::string& project,
                       const std::string& model,
                       const mistique::Network& net) {
  const mistique::ModelId id =
      CheckOk(mq->metadata().FindModel(project, model), "find model");
  return LoggedValues(
      *CheckOk(std::as_const(mq->metadata()).GetModel(id), "model"), net);
}

RawValues CatalogValues(mistique::Mistique* mq, const mistique::Network& net) {
  RawValues raw;
  for (mistique::ModelId id : mq->metadata().ListModels()) {
    const RawValues v = LoggedValues(
        *CheckOk(std::as_const(mq->metadata()).GetModel(id), "model"), net);
    raw.dnn += v.dnn;
    raw.trad += v.trad;
  }
  return raw;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  mistique::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextU64();
}

bool NearlyEqual(const std::vector<double>& got,
                 const std::vector<double>& want, double rel) {
  if (got.size() != want.size()) return false;
  double scale = 0;
  double err = 0;
  size_t n = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) || std::isnan(want[i])) {
      if (std::isnan(got[i]) != std::isnan(want[i])) return false;
      continue;
    }
    scale += std::abs(want[i]);
    err += std::abs(got[i] - want[i]);
    ++n;
  }
  if (n == 0) return true;
  scale = std::max(scale / static_cast<double>(n), 1e-12);
  return err / static_cast<double>(n) <= rel * scale;
}

namespace {

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

}  // namespace

uint64_t HashValues(const std::vector<double>& v) {
  return Fnv(kFnvBasis, v.data(), v.size() * sizeof(double));
}

uint64_t HashFetch(const mistique::FetchResult& r) {
  uint64_t h = kFnvBasis;
  for (const auto& name : r.column_names) h = Fnv(h, name.data(), name.size());
  for (const auto& col : r.columns) {
    h = Fnv(h, col.data(), col.size() * sizeof(double));
  }
  return Fnv(h, r.row_ids.data(), r.row_ids.size() * sizeof(uint64_t));
}

uint64_t HashScan(const mistique::ScanResult& r) {
  return Fnv(kFnvBasis, r.row_ids.data(), r.row_ids.size() * sizeof(uint64_t));
}

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMap(std::ostringstream& os, const char* key,
               const std::map<std::string, double>& m) {
  os << ",\"" << key << "\":{";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ",") << "\"" << k << "\":" << Num(v);
    first = false;
  }
  os << "}";
}

void AppendTally(std::ostringstream& os, const char* key, const Tally& t) {
  os << ",\"" << key << "\":{\"attempted\":" << t.attempted
     << ",\"errors\":" << t.errors << ",\"wrong\":" << t.wrong
     << ",\"samples\":[";
  for (size_t i = 0; i < t.samples.size(); ++i) {
    const Sample& s = t.samples[i];
    os << (i ? "," : "") << "[" << s.kind << "," << s.category << ","
       << Num(s.sec) << "]";
  }
  os << "]}";
}

void AppendRaw(std::ostringstream& os, const char* key, const RawValues& v) {
  os << ",\"" << key << "\":{\"dnn\":" << Num(v.dnn) << ",\"trad\":"
     << Num(v.trad) << "}";
}

void AppendDoubles(std::ostringstream& os, const char* key,
                   const std::vector<double>& v) {
  os << ",\"" << key << "\":[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << Num(v[i]);
  os << "]";
}

}  // namespace

std::string ResultJson(const Args& args, const RunResult& r,
                       const std::vector<std::string>& kind_names) {
  std::ostringstream os;
  os << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
     << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"kinds\":[";
  for (size_t i = 0; i < kind_names.size(); ++i) {
    os << (i ? "," : "") << "\"" << kind_names[i] << "\"";
  }
  os << "]";
  AppendDoubles(os, "setup_s", r.setup_s);
  os << ",\"measured_s\":" << Num(r.measured_s);
  AppendTally(os, "timed", r.timed);
  AppendRaw(os, "ingest_unit", r.ingest_unit);
  AppendDoubles(os, "ingest_s", r.ingest_s);
  os << ",\"footprint_bytes\":" << Num(r.footprint_bytes);
  AppendRaw(os, "live", r.live);
  os << ",\"peak_rss_kb\":" << Num(r.peak_rss_kb);
  AppendMap(os, "counts", r.counts);
  AppendMap(os, "info", r.info);
  if (args.trace) {
    AppendTally(os, "plain_pass", r.plain_pass);
    AppendTally(os, "traced_pass", r.traced_pass);
    AppendMap(os, "layer", r.layer);
    os << ",\"spans\":[";
    const auto& spans = r.spans.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Spans::Span& s = spans[i];
      os << (i ? "," : "") << "[" << s.id << "," << s.parent << "," << s.op
         << ",\"" << s.name << "\"," << Num(s.start) << "," << Num(s.end)
         << "," << Num(s.work) << "]";
    }
    os << "]";
  }
  os << "}\n";
  return os.str();
}

}  // namespace perfbench

namespace {

const char* const kFaultVars[] = {"MISTIQUE_FAULT_POINT",
                                  "MISTIQUE_FAULT_MODE",
                                  "MISTIQUE_FAULT_NTH"};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <diag_cold|serve_routed|"
               "ingest_serve> --seed <n> --seconds <s> --trace <0|1> "
               "--out <file> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  for (const char* var : kFaultVars) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench_driver: refusing to run with %s set (fault "
                   "injection would crash or heal the measured program)\n",
                   var);
      return 2;
    }
  }
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.out.empty() || args.work_dir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }
  std::filesystem::remove_all(args.work_dir);
  std::filesystem::create_directories(args.work_dir);
  Now();  // Pin the clock origin.

  RunResult result;
  std::vector<std::string> kinds;
  if (args.workload == "diag_cold") {
    RunDiagCold(args, &result);
    kinds = DiagColdKinds();
  } else if (args.workload == "serve_routed") {
    RunServeRouted(args, &result);
    kinds = ServeRoutedKinds();
  } else if (args.workload == "ingest_serve") {
    RunIngestServe(args, &result);
    kinds = IngestServeKinds();
  } else {
    return Usage();
  }

  std::ofstream out(args.out, std::ios::trunc);
  out << ResultJson(args, result, kinds);
  out.close();
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  return out ? 0 : 4;
}
