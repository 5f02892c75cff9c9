#ifndef MISTIQUE_OBS_TRACE_H_
#define MISTIQUE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

// Per-query cost-decision tracing (docs/OBSERVABILITY.md): a QueryTrace
// records the cost model's estimated t_rerun/t_read, the strategy it
// chose, and the actual elapsed time per stage (queue wait, lock wait,
// disk read, decompress, rerun, dedup-resolve, ...) for one Fetch.
//
// The active trace is a thread-local pointer: the worker executing a
// traced request installs it with a TraceScope, and instrumentation in
// the engine and storage layers annotates it via CurrentTrace() /
// TraceSpan without any parameter threading. Untraced queries (the
// common case) pay one thread-local load per span site. A QueryTrace
// is owned by one request and only ever touched by the thread currently
// executing it (engine fetches are synchronous), so it needs no locks.

namespace mistique {
namespace obs {

/// One timed span. `depth` is the nesting level at the time the span
/// started (0 = top-level stage), so the event list renders as a tree.
struct TraceEvent {
  std::string name;
  uint32_t depth = 0;
  double start_sec = 0;     ///< offset from the trace's start
  double duration_sec = 0;
  uint64_t bytes = 0;       ///< payload moved, when meaningful
};

/// Aggregated per-stage totals for operations too frequent to record
/// individually (per-chunk dedup resolution / decode). Inclusive of any
/// nested spans (a chunk resolve that misses the buffer pool includes
/// its disk_read time).
struct TraceStageTotal {
  std::string name;
  uint64_t count = 0;
  double total_sec = 0;
  uint64_t bytes = 0;
};

class QueryTrace {
 public:
  QueryTrace() = default;
  QueryTrace(uint64_t trace_id, std::string description)
      : trace_id(trace_id), description(std::move(description)) {}

  uint64_t trace_id = 0;
  std::string description;

  /// --- Distributed-trace identity (docs/OBSERVABILITY.md) ---
  std::string node;             ///< which process produced this span tree
                                ///< ("store", "router", "shard0", ...)
  uint64_t parent_span_id = 0;  ///< span in the parent trace this child
                                ///< hangs under; 0 = root
  bool sampled = false;         ///< captured under the sampling policy
  /// Per-shard child traces assembled by the router (empty on leaves).
  std::vector<QueryTrace> children;

  /// --- Cost-model decision record (filled by the engine) ---
  double est_read_sec = -1;   ///< Eq. 4 t_read estimate; -1 = not reached
  double est_rerun_sec = -1;  ///< Eq. 2/3 t_rerun estimate
  std::string strategy;       ///< "read" | "rerun" | "session-cache" |
                              ///< "forced-read" | "forward" | ...
  bool cache_hit = false;
  bool materialized_now = false;
  bool mispredicted = false;  ///< chosen strategy's actual time exceeded
                              ///< the alternative's estimate

  /// --- Actual timings ---
  double queue_wait_sec = 0;  ///< admission queue -> worker dequeue
  double total_sec = 0;       ///< submit -> result ready

  /// Seconds since this trace was constructed (steady clock).
  double Elapsed() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  void AddEvent(std::string name, uint32_t depth, double start_sec,
                double duration_sec, uint64_t bytes);
  /// Merges into the stage-total named `name` (creating it on first use).
  void Accumulate(const std::string& name, double seconds, uint64_t bytes);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceStageTotal>& stage_totals() const {
    return totals_;
  }
  std::vector<TraceEvent>* mutable_events() { return &events_; }
  std::vector<TraceStageTotal>* mutable_stage_totals() { return &totals_; }

  /// Sum of events + totals matching `name` (tests, assertions).
  double StageSeconds(const std::string& name) const;

  /// Human-readable rendering: decision record, span tree (indented by
  /// depth), the aggregate stage table, then child traces indented one
  /// level per hop.
  std::string Format() const;

  /// Current span nesting depth; maintained by TraceSpan.
  uint32_t depth = 0;

 private:
  std::vector<TraceEvent> events_;
  std::vector<TraceStageTotal> totals_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Where one hop's trace hangs in a distributed trace tree: the caller's
/// trace id and the span this hop roots under. A query submitted with a
/// parent is traced whatever the local sampling policy says.
struct TraceParent {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// The trace the current thread is executing under; nullptr when the
/// query is untraced.
QueryTrace* CurrentTrace();

/// Process-unique trace/span id: a per-process random base XOR'd with an
/// atomic counter. Never returns 0 (0 means "no parent" on the wire).
uint64_t NewTraceId();

/// Renders an assembled trace tree as Chrome trace_event JSON (load via
/// chrome://tracing or https://ui.perfetto.dev). Each distinct `node`
/// becomes a pid; spans become complete ("X") events with microsecond
/// timestamps offset so a child trace nests under its parent's timeline.
std::string TraceToChromeJson(const QueryTrace& trace);

/// RAII: installs `trace` as the thread's current trace, restoring the
/// previous one (normally nullptr) on destruction.
class TraceScope {
 public:
  explicit TraceScope(QueryTrace* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  QueryTrace* previous_;
};

/// RAII span: records one TraceEvent on End()/destruction when a trace
/// is active; inert (one thread-local load) otherwise. End() lets call
/// sites close a span before scope exit (e.g. lock-wait spans that end
/// once the lock is held but whose scope spans the whole critical
/// section).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan() { End(); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_bytes(uint64_t bytes) { bytes_ = bytes; }
  void End();

 private:
  QueryTrace* trace_;
  const char* name_ = nullptr;
  uint32_t depth_ = 0;
  double start_sec_ = 0;
  uint64_t bytes_ = 0;
  bool ended_ = false;
};

/// RAII accumulator for high-frequency operations: adds its elapsed time
/// to the trace's stage-total named `name` instead of emitting one event
/// per call.
class AccumSpan {
 public:
  explicit AccumSpan(const char* name);
  ~AccumSpan();
  AccumSpan(const AccumSpan&) = delete;
  AccumSpan& operator=(const AccumSpan&) = delete;

  void add_bytes(uint64_t bytes) { bytes_ += bytes; }

 private:
  QueryTrace* trace_;
  const char* name_ = nullptr;
  double start_sec_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace obs
}  // namespace mistique

#endif  // MISTIQUE_OBS_TRACE_H_
