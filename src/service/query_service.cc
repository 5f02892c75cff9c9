#include "service/query_service.h"

#include <algorithm>
#include <utility>

namespace mistique {

QueryService::QueryService(Mistique* engine, QueryServiceOptions options)
    : engine_(engine),
      options_(std::move(options)),
      recorder_(options_.flight_recorder != nullptr
                    ? options_.flight_recorder
                    : &obs::GlobalFlightRecorder()),
      bytes_read_at_start_(engine->store().disk_read_bytes()) {
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
}

namespace {

std::string Describe(const FetchRequest& request) {
  return request.project + "." + request.model + "." + request.intermediate;
}
std::string Describe(const ScanRequest& request) {
  return request.project + "." + request.model + "." + request.intermediate +
         " scan(" + request.predicate_column + ")";
}

Result<FetchResult> Execute(Mistique* engine, const FetchRequest& request) {
  return engine->Fetch(request);
}
Result<ScanResult> Execute(Mistique* engine, const ScanRequest& request) {
  return engine->Scan(request);
}

/// The decision record of a query that ran without spans (slow-log
/// capture).
void StampOutcome(const Result<FetchResult>& result, obs::QueryTrace* trace) {
  if (!result.ok()) return;
  trace->materialized_now = result->materialized_now;
  trace->strategy = result->used_read ? "read" : "rerun";
}
void StampOutcome(const Result<ScanResult>& result, obs::QueryTrace* trace) {
  (void)result;
  trace->strategy = "scan";
}

}  // namespace

QueryService::~QueryService() {
  // Drain the queue before any other member is torn down: queued tasks
  // run RunTask, which touches the counters, session map, and latency
  // histograms. (pool_ is also declared last as a second line of defense.)
  pool_.reset();
}

double QueryService::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

SessionId QueryService::OpenSession() {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  const SessionId id = next_session_++;
  sessions_.emplace(
      id, std::make_shared<Session>(options_.session_cache_entries));
  return id;
}

Status QueryService::CloseSession(SessionId id) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  if (sessions_.erase(id) == 0) {
    return Status::NotFound("unknown session " + std::to_string(id));
  }
  return Status::OK();
}

std::shared_ptr<QueryService::Session> QueryService::Admit(SessionId session,
                                                           Status* reject) {
  std::shared_ptr<Session> s;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    auto it = sessions_.find(session);
    if (it != sessions_.end()) s = it->second;
  }
  if (s == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    *reject = Status::NotFound("unknown session " + std::to_string(session));
    return nullptr;
  }
  return s;
}

bool QueryService::TryEnqueue(Status* reject) {
  if (draining_.load(std::memory_order_acquire)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    *reject = Status::Unavailable("service is draining; not admitting");
    return false;
  }
  // Backpressure: bound the number of waiting queries, not in-flight
  // ones. Reserve the slot first and roll back on overflow so N racing
  // submitters cannot all pass a stale check — max_queue is a hard bound.
  const uint64_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.max_queue > 0 && depth > options_.max_queue) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    *reject = Status::ResourceExhausted(
        "admission queue full (" + std::to_string(options_.max_queue) +
        " queued); retry later");
    return false;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool QueryService::ExpiredInQueue(double submit_sec, double deadline_sec) {
  if (deadline_sec <= 0) return false;
  return NowSeconds() - submit_sec > deadline_sec;
}

obs::QueryTrace QueryService::NewTrace(
    std::string description,
    const std::optional<obs::TraceParent>& parent) const {
  obs::QueryTrace trace(parent ? parent->trace_id : obs::NewTraceId(),
                        std::move(description));
  trace.node = options_.node_name;
  if (parent) trace.parent_span_id = parent->parent_span_id;
  return trace;
}

std::optional<obs::QueryTrace> QueryService::RecordTrace(obs::QueryTrace trace,
                                                         bool return_it) {
  if (!return_it) {
    recorder_->Record(std::move(trace));
    return std::nullopt;
  }
  recorder_->Record(trace);
  return trace;
}

template <typename T>
void QueryService::RunTask(double submit_sec, double deadline_sec,
                           const std::function<void(Answer<T>)>& done,
                           const std::function<Answer<T>()>& body) {
  queued_.fetch_sub(1, std::memory_order_relaxed);
  running_.fetch_add(1, std::memory_order_relaxed);
  // Dequeue delay: how long the request sat behind the admission queue
  // before any worker picked it up. Recorded for every task (even ones
  // about to expire) so the histogram reflects real queueing pressure.
  queue_wait_hist_.Record(NowSeconds() - submit_sec);
  if (options_.pre_execute_hook) options_.pre_execute_hook();

  Answer<T> answer = [&]() -> Answer<T> {
    if (abandon_.load(std::memory_order_acquire)) {
      return {Status::Unavailable("abandoned: drain deadline passed"),
              std::nullopt};
    }
    if (ExpiredInQueue(submit_sec, deadline_sec)) {
      return {Status::DeadlineExceeded("deadline of " +
                                       std::to_string(deadline_sec) +
                                       "s passed while queued"),
              std::nullopt};
    }
    return body();
  }();

  const Status status = answer.result.status();
  if (status.ok()) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    RecordLatency(NowSeconds() - submit_sec);
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    expired_.fetch_add(1, std::memory_order_relaxed);
  } else if (status.code() == StatusCode::kUnavailable) {
    abandoned_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  running_.fetch_sub(1, std::memory_order_relaxed);
  // Deliver BEFORE decrementing inflight_: a request counts as in flight
  // until its completion callback ran, so Drain returning means every
  // admitted request's response has actually been handed back (the TCP
  // server relies on this to flush responses before closing sockets).
  done(std::move(answer));
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (draining_.load(std::memory_order_acquire)) {
    // Drain waits for inflight_ == 0; wake it after every completion
    // (taking the lock orders the notify against the wait).
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

template <typename Request>
void QueryService::Submit(
    SessionId session, Request request, double deadline_sec,
    std::optional<obs::TraceParent> parent,
    std::function<void(Answer<ResultFor<Request>>)> done) {
  using T = ResultFor<Request>;
  constexpr bool kCached = std::is_same_v<Request, FetchRequest>;
  if (deadline_sec < 0) deadline_sec = options_.default_deadline_sec;

  Status reject;
  std::shared_ptr<Session> s = Admit(session, &reject);
  if (s == nullptr) {
    done({reject, std::nullopt});
    return;
  }

  // A caller's trace parent always traces. Otherwise the sampling
  // decision happens at admission (one thread-local RNG draw): a sampled
  // request carries a full span trace through the engine and lands in the
  // flight recorder even though the caller asked for a plain query.
  const bool traced = parent.has_value() || recorder_->Sample();

  uint64_t key = 0;
  if constexpr (kCached) {
    // Per-session result cache: hits bypass the queue entirely, so a
    // session replaying its working set costs no worker time.
    key = Mistique::RequestKey(request);
    if (options_.session_cache_entries > 0) {
      cache_lookups_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> cache_lock(s->m);
      const CachedFetch* cached = s->cache.Get(key);
      if (cached != nullptr &&
          Mistique::SameRequest(cached->request, request)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        completed_.fetch_add(1, std::memory_order_relaxed);
        FetchResult hit = cached->result;
        hit.from_cache = true;
        hit.fetch_seconds = 0;
        cache_lock.unlock();
        std::optional<obs::QueryTrace> trace;
        if (traced) {
          obs::QueryTrace t = NewTrace(Describe(request), parent);
          t.sampled = true;
          t.strategy = "session-cache";
          t.cache_hit = true;
          trace = RecordTrace(std::move(t), parent.has_value());
        }
        done({std::move(hit), std::move(trace)});
        return;
      }
    }
  }

  if (!TryEnqueue(&reject)) {
    done({reject, std::nullopt});
    return;
  }
  const double submit_sec = NowSeconds();
  pool_->Submit([this, s, key, submit_sec, deadline_sec, traced, parent,
                 done = std::move(done),
                 request = std::move(request)]() mutable {
    RunTask<T>(submit_sec, deadline_sec, done, [&]() -> Answer<T> {
      [[maybe_unused]] const uint64_t epoch_before =
          cache_epoch_.load(std::memory_order_acquire);
      [[maybe_unused]] const uint64_t engine_epoch_before =
          engine_->CurrentEpoch();
      const double queue_wait = NowSeconds() - submit_sec;
      Answer<T> answer{Status::Internal("unreached"), std::nullopt};
      if (traced) {
        // The trace clock starts at dequeue; time spent queued is
        // reported separately so span offsets line up with the
        // engine-side work they describe. Every TraceSpan / AccumSpan
        // the engine and storage layers open lands in this trace.
        obs::QueryTrace trace = NewTrace(Describe(request), parent);
        trace.sampled = true;
        trace.queue_wait_sec = queue_wait;
        {
          obs::TraceScope scope(&trace);
          answer.result = Execute(engine_, request);
        }
        trace.total_sec = trace.Elapsed();
        answer.trace = RecordTrace(std::move(trace), parent.has_value());
      } else {
        const double t0 = NowSeconds();
        answer.result = Execute(engine_, request);
        // Unsampled-but-slow: retroactive capture. Spans cannot be
        // reconstructed after the fact, so the slow log gets a spanless
        // decision record (strategy, waits, total).
        const double total = NowSeconds() - t0;
        const double threshold = recorder_->slow_threshold_sec();
        if (threshold > 0 && total >= threshold) {
          obs::QueryTrace trace = NewTrace(Describe(request), std::nullopt);
          trace.queue_wait_sec = queue_wait;
          trace.total_sec = total;
          StampOutcome(answer.result, &trace);
          recorder_->Record(std::move(trace));
        }
      }
      if constexpr (kCached) {
        if (!answer.result.ok()) return answer;
        if (answer.result->materialized_now) {
          // The store changed shape; cached results are stale in every
          // session.
          InvalidateSessionCaches();
        } else if (options_.session_cache_entries > 0) {
          std::lock_guard<std::mutex> cache_lock(s->m);
          // Skip the Put if an invalidation sweep ran since we started
          // the engine call (this result predates the materialization
          // that triggered the sweep), or the engine republished its
          // catalog meanwhile (concurrent ingest / delete — the result
          // reflects a superseded epoch).
          if (cache_epoch_.load(std::memory_order_acquire) == epoch_before &&
              engine_->CurrentEpoch() == engine_epoch_before) {
            s->cache.Put(key, {request, *answer.result});
          }
        }
      }
      return answer;
    });
  });
}

template void QueryService::Submit<FetchRequest>(
    SessionId, FetchRequest, double, std::optional<obs::TraceParent>,
    std::function<void(Answer<FetchResult>)>);
template void QueryService::Submit<ScanRequest>(
    SessionId, ScanRequest, double, std::optional<obs::TraceParent>,
    std::function<void(Answer<ScanResult>)>);

template <typename Request>
std::future<Result<ResultFor<Request>>> QueryService::SubmitForFuture(
    SessionId session, Request request, double deadline_sec) {
  using T = ResultFor<Request>;
  auto promise = std::make_shared<std::promise<Result<T>>>();
  std::future<Result<T>> future = promise->get_future();
  Submit(session, std::move(request), deadline_sec, std::nullopt,
         [promise](Answer<T> answer) {
           promise->set_value(std::move(answer.result));
         });
  return future;
}

std::future<Result<FetchResult>> QueryService::SubmitFetch(
    SessionId session, FetchRequest request, double deadline_sec) {
  return SubmitForFuture(session, std::move(request), deadline_sec);
}

std::future<Result<ScanResult>> QueryService::SubmitScan(
    SessionId session, ScanRequest request, double deadline_sec) {
  return SubmitForFuture(session, std::move(request), deadline_sec);
}

uint64_t QueryService::Drain(double deadline_sec) {
  draining_.store(true, std::memory_order_release);
  const auto pending = [this] {
    return inflight_.load(std::memory_order_relaxed);
  };
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    if (deadline_sec <= 0) {
      drain_cv_.wait(lock, [&] { return pending() == 0; });
    } else {
      drain_cv_.wait_for(lock,
                         std::chrono::duration<double>(deadline_sec),
                         [&] { return pending() == 0; });
    }
  }
  const uint64_t left = pending();
  if (left > 0) {
    // Deadline passed with work still pending: abandon it. Workers see
    // the flag before touching the engine and complete immediately with
    // kUnavailable, so destruction (which drains the pool) stays fast.
    abandon_.store(true, std::memory_order_release);
  }
  return left;
}

Result<FetchResult> QueryService::Fetch(SessionId session,
                                        const FetchRequest& request) {
  return SubmitFetch(session, request).get();
}

Result<ScanResult> QueryService::Scan(SessionId session,
                                      const ScanRequest& request) {
  return SubmitScan(session, request).get();
}

Result<FetchResult> QueryService::GetIntermediates(
    SessionId session, const std::vector<std::string>& keys, uint64_t n_ex) {
  MISTIQUE_ASSIGN_OR_RETURN(FetchRequest request,
                            Mistique::ParseIntermediateKeys(keys, n_ex));
  return Fetch(session, request);
}

void QueryService::InvalidateSessionCaches() {
  // Bump the epoch BEFORE clearing: a worker that captured the old epoch
  // either re-inserts before the Clear below (swept) or sees the new
  // epoch inside its cache critical section and skips the Put.
  cache_epoch_.fetch_add(1, std::memory_order_acq_rel);
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    all.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) {
      (void)id;
      all.push_back(s);
    }
  }
  for (const auto& s : all) {
    std::lock_guard<std::mutex> cache_lock(s->m);
    s->cache.Clear();
  }
}

void QueryService::RecordLatency(double seconds) {
  // Two relaxed fetch_adds — no lock on the completion path. Unlike the
  // old ring this is cumulative, not windowed: percentiles cover the
  // service's whole lifetime, which is what the stats surface documents.
  latency_hist_.Record(seconds);
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.queued = queued_.load(std::memory_order_relaxed);
  stats.running = running_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_lookups = cache_lookups_.load(std::memory_order_relaxed);
  stats.abandoned = abandoned_.load(std::memory_order_relaxed);
  stats.draining = draining_.load(std::memory_order_relaxed);
  const uint64_t read_now = engine_->store().disk_read_bytes();
  stats.bytes_read =
      read_now >= bytes_read_at_start_ ? read_now - bytes_read_at_start_ : 0;
  stats.corruptions_detected = engine_->corruptions_detected();
  stats.partitions_healed = engine_->partitions_healed();
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    stats.open_sessions = sessions_.size();
  }
  // One coherent histogram snapshot for all three quantiles (interpolated
  // within exponential buckets, so they are estimates with <= one-bucket
  // error — fine for health reporting). The old p50/p95 fields stay
  // populated for existing callers; p99 is new.
  const obs::Histogram::Snapshot lat = latency_hist_.TakeSnapshot();
  if (lat.count > 0) {
    stats.p50_latency_sec = lat.Quantile(0.50);
    stats.p95_latency_sec = lat.Quantile(0.95);
    stats.p99_latency_sec = lat.Quantile(0.99);
  }
  return stats;
}

std::string QueryService::MetricsText() const {
  // Process-global metrics first (engine fetch/scan counters, disk and
  // decompress histograms, cost-model gauges), then this instance's own
  // histograms and stats-derived gauges. Gauges are emitted even when
  // zero — scrapers assert on e.g. mistique_corruptions_detected 0.
  std::string out = obs::GlobalMetrics().TextExposition();
  obs::AppendHistogramText(
      "mistique_service_latency_seconds",
      "Submit-to-finish latency of completed service requests.",
      latency_hist_, &out);
  obs::AppendHistogramText(
      "mistique_service_queue_wait_seconds",
      "Delay between request admission and a worker dequeuing it.",
      queue_wait_hist_, &out);
  const ServiceStats stats = Stats();
  obs::AppendGaugeText("mistique_service_submitted",
                       "Requests accepted into the admission queue.",
                       static_cast<double>(stats.submitted), &out);
  obs::AppendGaugeText("mistique_service_rejected",
                       "Requests bounced at admission.",
                       static_cast<double>(stats.rejected), &out);
  obs::AppendGaugeText("mistique_service_completed",
                       "Requests finished OK (including cache hits).",
                       static_cast<double>(stats.completed), &out);
  obs::AppendGaugeText("mistique_service_expired",
                       "Requests whose deadline passed while queued.",
                       static_cast<double>(stats.expired), &out);
  obs::AppendGaugeText("mistique_service_failed",
                       "Requests that finished with a non-OK engine status.",
                       static_cast<double>(stats.failed), &out);
  obs::AppendGaugeText("mistique_service_queued",
                       "Requests currently waiting for a worker.",
                       static_cast<double>(stats.queued), &out);
  obs::AppendGaugeText("mistique_service_running",
                       "Requests currently executing.",
                       static_cast<double>(stats.running), &out);
  obs::AppendGaugeText("mistique_service_cache_hits",
                       "Per-session result-cache hits.",
                       static_cast<double>(stats.cache_hits), &out);
  obs::AppendGaugeText("mistique_service_cache_lookups",
                       "Per-session result-cache probes.",
                       static_cast<double>(stats.cache_lookups), &out);
  obs::AppendGaugeText(
      "mistique_service_bytes_read",
      "Compressed bytes the engine read from disk since service start.",
      static_cast<double>(stats.bytes_read), &out);
  obs::AppendGaugeText(
      "mistique_corruptions_detected",
      "Checksum failures the engine hit (partitions quarantined).",
      static_cast<double>(stats.corruptions_detected), &out);
  obs::AppendGaugeText(
      "mistique_partitions_healed",
      "Quarantined partitions fully re-materialized via rerun.",
      static_cast<double>(stats.partitions_healed), &out);
  obs::AppendGaugeText("mistique_service_open_sessions",
                       "Diagnosis sessions currently open.",
                       static_cast<double>(stats.open_sessions), &out);
  obs::AppendGaugeText(
      "mistique_service_inflight",
      "Admitted requests whose completion has not been delivered yet "
      "(queued + running + in delivery). Zero after a clean drain.",
      static_cast<double>(inflight()), &out);
  return out;
}

}  // namespace mistique
