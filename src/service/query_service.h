#ifndef MISTIQUE_SERVICE_QUERY_SERVICE_H_
#define MISTIQUE_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/lru_cache.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/mistique.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mistique {

/// Handle for one diagnosis session talking to a QueryService.
using SessionId = uint64_t;

/// Configuration for a QueryService instance.
struct QueryServiceOptions {
  /// Worker threads executing queries. 0 = hardware concurrency.
  size_t num_workers = 4;
  /// Admission bound: requests beyond this many queued (not yet running)
  /// queries are rejected with kResourceExhausted. 0 = unbounded.
  size_t max_queue = 64;
  /// Per-session LRU result-cache entries (0 disables caching).
  size_t session_cache_entries = 32;
  /// Deadline applied to requests that don't carry their own
  /// (seconds from submission; 0 = none). A request whose queueing delay
  /// already exceeds its deadline fails with kDeadlineExceeded without
  /// touching the engine.
  double default_deadline_sec = 0;
  /// Test hook: runs on the worker thread immediately after a task is
  /// dequeued, before the deadline check. Lets tests park workers
  /// deterministically to exercise queue-full and deadline paths.
  std::function<void()> pre_execute_hook;
  /// Flight recorder fed every completed query under its sampling
  /// policy (docs/OBSERVABILITY.md): sampled queries carry full span
  /// traces, slow ones always land in the slow log. nullptr = the
  /// process-global recorder.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Node label stamped on traces this service produces ("store",
  /// "shard0", ...) so assembled cluster trees say where each subtree
  /// ran.
  std::string node_name = "store";
};

/// A point-in-time snapshot of service health.
struct ServiceStats {
  uint64_t submitted = 0;   ///< Requests accepted into the queue.
  uint64_t rejected = 0;    ///< Bounced at admission (queue full / bad session).
  uint64_t completed = 0;   ///< Finished OK (including cache hits).
  uint64_t expired = 0;     ///< Dropped because the deadline passed in queue.
  uint64_t failed = 0;      ///< Finished with a non-OK engine status.
  uint64_t queued = 0;      ///< Currently waiting for a worker.
  uint64_t running = 0;     ///< Currently executing.
  uint64_t cache_hits = 0;      ///< Per-session result-cache hits.
  uint64_t cache_lookups = 0;   ///< Per-session result-cache probes.
  uint64_t bytes_read = 0;  ///< Compressed bytes the engine read from disk
                            ///< since the service started.
  uint64_t corruptions_detected = 0;  ///< Checksum failures the engine hit
                                      ///< (partitions quarantined).
  uint64_t partitions_healed = 0;     ///< Quarantined partitions fully
                                      ///< re-materialized via rerun.
  uint64_t abandoned = 0;   ///< Still pending when a Drain deadline passed
                            ///< (they finish with kUnavailable).
  bool draining = false;    ///< Drain was called; new requests are rejected.
  double p50_latency_sec = 0;  ///< Median submit-to-finish latency.
  double p95_latency_sec = 0;
  double p99_latency_sec = 0;  ///< Not carried in the v1 stats frame
                               ///< (old clients must keep parsing it);
                               ///< remote callers use the metrics frame.
  size_t open_sessions = 0;
};

/// The result type each request kind answers with.
template <typename Request>
using ResultFor = std::conditional_t<std::is_same_v<Request, ScanRequest>,
                                     ScanResult, FetchResult>;

/// What QueryService::Submit delivers: the query's result and, when the
/// request carried a trace parent, this hop's trace (docs/OBSERVABILITY.md):
/// the cost model's estimates, the strategy chosen, and actual per-stage
/// timings from queue wait down to disk reads or the scan kernels.
template <typename T>
struct Answer {
  Result<T> result;
  std::optional<obs::QueryTrace> trace;
};

/// Serves concurrent Fetch/GetIntermediates/Scan traffic from many
/// diagnosis sessions against one Mistique engine (the ROADMAP's
/// "many users, one store" surface).
///
/// Requests enter a bounded admission queue and are executed by a worker
/// pool; the engine's reader/writer lock lets materialized reads proceed in
/// parallel while re-runs/materializations serialize. Each session owns an
/// LRU result cache (the only result cache; the engine keeps none), so one
/// session's working set cannot evict another's. Backpressure is explicit:
/// a full queue rejects with kResourceExhausted, and a request whose
/// deadline expires while queued fails with kDeadlineExceeded instead of
/// wasting a worker.
///
/// Thread-safe: any thread may open/close sessions and submit requests.
/// The engine must outlive the service. Destruction drains the queue
/// (every returned future completes).
class QueryService {
 public:
  explicit QueryService(Mistique* engine, QueryServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a session and returns its handle.
  SessionId OpenSession();
  /// Closes a session, dropping its cache. In-flight requests finish
  /// normally. NotFound for unknown ids.
  Status CloseSession(SessionId id);

  /// The one request path for fetches and scans, traced or not:
  /// admission, the session result cache, the bounded queue, deadline
  /// expiry, sampling, slow-log capture and flight-recorder recording.
  /// `deadline_sec` < 0 uses the service default, 0 = no deadline, > 0 =
  /// seconds from now. Only fetches are cached: a scan's answer depends on
  /// its predicate bounds, and its cost is dominated by the zone-map scan,
  /// which reads shared buffer pool state anyway.
  ///
  /// With a `parent` the query is always traced: its trace roots under
  /// the parent, lands in the flight recorder and comes back in the
  /// answer (a session-cache hit gets a minimal "session-cache" trace).
  /// Without one the recorder's sampling policy decides, and the answer
  /// carries no trace. `done` runs exactly once — on the calling thread
  /// for rejections (unknown session, queue full, draining) and cache
  /// hits, otherwise on the worker that ran the query. It must not block.
  /// Defined for FetchRequest and ScanRequest.
  template <typename Request>
  void Submit(SessionId session, Request request, double deadline_sec,
              std::optional<obs::TraceParent> parent,
              std::function<void(Answer<ResultFor<Request>>)> done);

  /// Untraced Submit answered through a future, which always becomes
  /// ready with the result or the rejection status.
  std::future<Result<FetchResult>> SubmitFetch(SessionId session,
                                               FetchRequest request,
                                               double deadline_sec = -1);
  std::future<Result<ScanResult>> SubmitScan(SessionId session,
                                             ScanRequest request,
                                             double deadline_sec = -1);

  /// Graceful shutdown, phase 1 (the only stop path besides destruction):
  /// stops admitting — every later submit is rejected with kUnavailable —
  /// then waits up to `deadline_sec` (<= 0 waits forever) for queued and
  /// running work to finish. Requests still pending at the deadline are
  /// abandoned: workers complete them immediately with kUnavailable
  /// instead of touching the engine. Returns how many were abandoned.
  /// Idempotent; concurrent callers all block until their own deadline.
  uint64_t Drain(double deadline_sec);

  /// Synchronous conveniences (submit + wait).
  Result<FetchResult> Fetch(SessionId session, const FetchRequest& request);
  Result<ScanResult> Scan(SessionId session, const ScanRequest& request);
  Result<FetchResult> GetIntermediates(SessionId session,
                                       const std::vector<std::string>& keys,
                                       uint64_t n_ex = 0);

  ServiceStats Stats() const;

  /// Prometheus-style text exposition: the process-global metric registry
  /// (engine/storage counters and histograms) plus this service's own
  /// latency and queue-wait histograms and stats-derived gauges.
  std::string MetricsText() const;

  size_t num_workers() const { return pool_->num_threads(); }
  Mistique* engine() const { return engine_; }

  /// The flight recorder this service feeds (never nullptr).
  obs::FlightRecorder* flight_recorder() const { return recorder_; }

  /// Admitted requests whose completion has not yet been delivered.
  /// Drain waits on this reaching zero; soak-harness drain checkers read
  /// it (and the mistique_service_inflight gauge) to assert no admitted
  /// response was lost across a clean shutdown.
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  /// A cached answer and the request it answers, compared on a hit
  /// (Mistique::SameRequest) so a key collision costs a miss.
  struct CachedFetch {
    FetchRequest request;
    FetchResult result;
  };
  struct Session {
    explicit Session(size_t cache_entries) : cache(cache_entries) {}
    std::mutex m;
    LruCache<uint64_t, CachedFetch> cache;
  };

  /// Resolves a session handle; returns nullptr (and counts the
  /// rejection) for unknown ids.
  std::shared_ptr<Session> Admit(SessionId session, Status* reject);

  /// Admission control: atomically reserves a queue slot
  /// (increment-then-check, so concurrent submitters cannot overshoot
  /// max_queue on a stale load). False (and counts the rejection) when
  /// the queue is full.
  bool TryEnqueue(Status* reject);

  /// True iff the request's deadline passed; runs on the worker.
  bool ExpiredInQueue(double submit_sec, double deadline_sec);

  /// Worker-side bookkeeping around `body` (dequeue accounting, deadline
  /// and abandon checks, outcome counters, drain wake-up); delivers the
  /// answer through `done`.
  template <typename T>
  void RunTask(double submit_sec, double deadline_sec,
               const std::function<void(Answer<T>)>& done,
               const std::function<Answer<T>()>& body);

  /// Untraced Submit whose answer fulfils a future.
  template <typename Request>
  std::future<Result<ResultFor<Request>>> SubmitForFuture(
      SessionId session, Request request, double deadline_sec);

  /// A trace for `description` labelled with this node, rooted under
  /// `parent` when there is one (else under a fresh trace id).
  obs::QueryTrace NewTrace(std::string description,
                           const std::optional<obs::TraceParent>& parent) const;
  /// Records a finished trace in the flight recorder; hands it back only
  /// when `return_it` (the caller gave a trace parent).
  std::optional<obs::QueryTrace> RecordTrace(obs::QueryTrace trace,
                                             bool return_it);

  void RecordLatency(double seconds);
  void InvalidateSessionCaches();
  double NowSeconds() const;

  Mistique* engine_;
  QueryServiceOptions options_;
  obs::FlightRecorder* recorder_;  ///< resolved from options; never null

  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> running_{0};
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_lookups_{0};
  std::atomic<uint64_t> abandoned_{0};
  /// Admitted requests whose completion callback has not yet returned.
  /// Unlike queued_/running_ (point-in-time stats), this spans the whole
  /// admission→delivery lifetime with no dip in between, so Drain can
  /// wait on it alone and returning guarantees every admitted request's
  /// response was actually handed back.
  std::atomic<uint64_t> inflight_{0};
  /// Set by Drain: stops admission (draining_) and, once the drain
  /// deadline passes, short-circuits still-pending work (abandon_).
  std::atomic<bool> draining_{false};
  std::atomic<bool> abandon_{false};
  /// Signaled by RunTask whenever inflight_ may have hit zero while
  /// draining; Drain waits on it.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  /// Bumped by InvalidateSessionCaches; workers capture it before an
  /// engine Fetch and skip the cache Put if it moved, so a result
  /// computed before a materialization cannot be re-inserted after the
  /// invalidation sweep.
  std::atomic<uint64_t> cache_epoch_{0};
  uint64_t bytes_read_at_start_ = 0;

  mutable std::mutex sessions_mutex_;
  std::unordered_map<SessionId, std::shared_ptr<Session>> sessions_;
  SessionId next_session_ = 1;

  /// Lock-cheap latency tracking: relaxed-atomic fixed-bucket histograms
  /// (replacing the old mutex-guarded latency ring). latency_hist_ records
  /// submit-to-finish time of completed requests; queue_wait_hist_ records
  /// dequeue delay for every task a worker picks up. Instance-owned (not in
  /// the global registry) so multiple services in one process don't blend.
  obs::Histogram latency_hist_;
  obs::Histogram queue_wait_hist_;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  /// Must be the LAST data member: ~QueryService destroys members in
  /// reverse declaration order, and ~ThreadPool drains the queue — the
  /// drained tasks run RunTask, which touches every counter, mutex, and
  /// container above. The unique_ptr also lets ~QueryService drain
  /// explicitly before any other teardown.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace mistique

#endif  // MISTIQUE_SERVICE_QUERY_SERVICE_H_
