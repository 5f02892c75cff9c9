#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <utility>

namespace mistique {
namespace cluster {

namespace {

std::string ShardLabel(const ShardSpec& spec) {
  return "shard " + std::to_string(spec.shard_id) + " (" + spec.host + ":" +
         std::to_string(spec.port) + ")";
}

std::string Describe(const FetchRequest& request) {
  return request.project + "." + request.model + "." + request.intermediate;
}
std::string Describe(const ScanRequest& request) {
  return request.project + "." + request.model + "." + request.intermediate +
         " scan(" + request.predicate_column + ")";
}

/// The strategy a router trace names: fetches forward to their owner,
/// scans scatter to every shard and gather the answers.
const char* Strategy(const FetchRequest&) { return "forward"; }
const char* Strategy(const ScanRequest&) { return "scatter-gather"; }

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One fetch attempt on a leased shard client; the answer stays in its
/// checked wire encoding so the router relays it without a re-encode.
/// With a trace id the request carries a fresh span of that trace (a
/// retried or hedged attempt's child is then distinguishable), and the
/// shard's child trace comes back in `child`. The context is cleared
/// before the lease returns to the pool: pooled clients are reused for
/// untraced traffic.
Result<std::string> FetchAttempt(net::Client* client,
                                 const FetchRequest& request,
                                 std::optional<uint64_t> trace_id,
                                 std::optional<obs::QueryTrace>* child) {
  if (!trace_id.has_value()) return client->FetchPayload(request);
  client->SetTraceContext({*trace_id, obs::NewTraceId(), true});
  Result<std::string> payload = client->FetchPayload(request);
  *child = client->TakeLastTrace();
  client->ClearTraceContext();
  return payload;
}

}  // namespace

Router::Router(ShardMap map, RouterOptions options)
    : map_(std::move(map)),
      options_(std::move(options)),
      recorder_(options_.flight_recorder != nullptr
                    ? options_.flight_recorder
                    : &obs::GlobalFlightRecorder()) {
  pool_ = std::make_shared<ShardClientPool>(
      map_, options_.shard_client, options_.max_idle_clients_per_shard);
  up_.reserve(map_.shards().size());
  shard_up_gauges_.reserve(map_.shards().size());
  obs::MetricsRegistry& registry = obs::GlobalMetrics();
  for (const ShardSpec& spec : map_.shards()) {
    // Unknown-but-optimistic until the first probe: requests arriving
    // before the health thread's opening sweep should try, not degrade.
    up_.push_back(std::make_unique<std::atomic<bool>>(true));
    shard_up_gauges_.push_back(registry.GetGauge(
        "mistique_router_shard_up_" + std::to_string(spec.shard_id),
        "1 when the router's health checker last saw this shard alive."));
    shard_up_gauges_.back()->Set(1);
  }
  fetches_ = registry.GetCounter("mistique_router_fetches_total",
                                 "Fetches forwarded by the router.");
  scans_ = registry.GetCounter("mistique_router_scans_total",
                               "Scatter-gather scans coordinated.");
  traces_ = registry.GetCounter("mistique_router_traces_total",
                                "Traced fetches forwarded.");
  retries_ = registry.GetCounter(
      "mistique_router_forward_retries_total",
      "Forward attempts retried after a transport failure.");
  hedges_ = registry.GetCounter("mistique_router_hedges_total",
                                "Tail-latency hedge requests launched.");
  hedge_wins_ = registry.GetCounter(
      "mistique_router_hedge_wins_total",
      "Requests where the hedge answered before the primary.");
  degraded_ = registry.GetCounter(
      "mistique_router_degraded_total",
      "Requests answered with the typed degraded error.");
  rejoins_ = registry.GetCounter(
      "mistique_router_shard_rejoins_total",
      "Down->up health transitions (restarted shards re-admitted).");
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (started_.exchange(true)) {
    return Status::AlreadyExists("router already started");
  }
  if (map_.empty()) return Status::InvalidArgument("router has no shards");
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  health_thread_ = std::thread([this] { HealthLoop(); });
  return Status::OK();
}

void Router::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    health_cv_.notify_all();
  }
  if (health_thread_.joinable()) health_thread_.join();
  // ThreadPool's destructor finishes queued jobs before joining, so
  // in-flight forwards complete (or degrade) rather than vanish.
  workers_.reset();
}

bool Router::ShardUp(size_t shard_index) const {
  return up_[shard_index]->load(std::memory_order_relaxed);
}

void Router::MarkShard(size_t shard_index, bool up) {
  const bool was = up_[shard_index]->exchange(up, std::memory_order_relaxed);
  if (was == up) return;
  shard_up_gauges_[shard_index]->Set(up ? 1 : 0);
  if (up) rejoins_->Increment();
}

Status Router::DegradedShard(size_t shard_index,
                             const std::string& what) const {
  degraded_->Increment();
  return wire::Degraded(what + ": " + ShardLabel(map_.shards()[shard_index]) +
                        " is unavailable; other partitions keep serving");
}

void Router::HealthLoop() {
  // The health thread owns one dedicated client per shard — never the
  // forwarding pool, so probes cannot be starved by a request burst and a
  // wedged shard cannot eat pooled connections.
  net::ClientOptions probe_options = options_.shard_client;
  probe_options.connect_timeout_sec = options_.health_timeout_sec;
  probe_options.request_timeout_sec = options_.health_timeout_sec;
  probe_options.max_reconnect_attempts = 0;
  std::vector<std::unique_ptr<net::Client>> probes;
  for (const ShardSpec& spec : map_.shards()) {
    net::ClientOptions options = probe_options;
    options.host = spec.host;
    options.port = spec.port;
    probes.push_back(std::make_unique<net::Client>(options));
  }
  while (true) {
    for (size_t i = 0; i < probes.size(); ++i) {
      if (stopping_.load()) return;
      const Result<wire::HealthInfo> health = probes[i]->Health();
      // Draining (state 1) counts as down for routing: the shard is
      // refusing new work on purpose.
      MarkShard(i, health.ok() && health->state == 0);
    }
    std::unique_lock<std::mutex> lock(health_mutex_);
    health_cv_.wait_for(
        lock,
        std::chrono::duration<double>(options_.health_interval_sec),
        [this] { return stopping_.load(); });
    if (stopping_.load()) return;
  }
}

template <typename T>
Result<T> Router::Forward(size_t shard_index, const ShardCall<T>& call) {
  if (!ShardUp(shard_index)) {
    return DegradedShard(shard_index, "request not forwarded");
  }
  Status last = Status::OK();
  for (int attempt = 0; attempt < std::max(options_.max_forward_attempts, 1);
       ++attempt) {
    if (attempt > 0) retries_->Increment();
    ShardClientPool::Lease lease = pool_->Checkout(shard_index);
    Result<T> result = call(lease.get());
    if (result.ok()) return result;
    last = result.status();
    // Anything the shard *said* (NotFound, InvalidArgument, overload…)
    // is a real answer — pass it through. Only transport-level
    // unavailability is the router's to absorb.
    if (last.code() != StatusCode::kUnavailable || wire::IsDegraded(last)) {
      return last;
    }
  }
  MarkShard(shard_index, false);
  return DegradedShard(shard_index, "forward failed (" + last.message() + ")");
}

Result<std::string> Router::ForwardFetch(size_t shard_index,
                                         const FetchRequest& request,
                                         obs::QueryTrace* root) {
  const std::string label = ShardLabel(map_.shards()[shard_index]);
  std::optional<uint64_t> trace_id;
  if (root != nullptr) trace_id = root->trace_id;
  auto graft = [root, &label](std::optional<obs::QueryTrace> child) {
    if (!child.has_value()) return;
    if (child->node.empty()) child->node = label;
    root->children.push_back(std::move(*child));
  };

  if (options_.hedge_delay_sec <= 0) {
    std::optional<obs::QueryTrace> child;
    const double start = root != nullptr ? root->Elapsed() : 0;
    Result<std::string> result = Forward<std::string>(
        shard_index, [&request, trace_id, &child](net::Client* client) {
          return FetchAttempt(client, request, trace_id, &child);
        });
    if (root != nullptr) {
      root->AddEvent("forward " + label, 0, start, root->Elapsed() - start,
                     0);
      graft(std::move(child));
    }
    return result;
  }

  if (!ShardUp(shard_index)) {
    return DegradedShard(shard_index, "request not forwarded");
  }
  // Hedged: primary on a detached thread; if it has not answered after
  // hedge_delay, a duplicate runs on a second pooled connection and the
  // first answer wins. The loser finishes on its own and only touches
  // shared_ptr state, so nothing here waits for it (nor for its child
  // trace, which dies with it). Under a trace the root gets one attempt
  // span per launch, winner tagged, so hedge wins are visible in the
  // assembled tree.
  struct HedgeState {
    std::mutex mutex;
    std::condition_variable cv;
    std::optional<Result<std::string>> result;
    std::optional<obs::QueryTrace> child;
    bool hedge_won = false;
  };
  auto state = std::make_shared<HedgeState>();
  auto attempt = [state, pool = pool_, shard_index, request, trace_id,
                  hedge_wins = hedge_wins_](bool is_hedge) {
    ShardClientPool::Lease lease = pool->Checkout(shard_index);
    std::optional<obs::QueryTrace> child;
    Result<std::string> r =
        FetchAttempt(lease.get(), request, trace_id, &child);
    std::lock_guard<std::mutex> lock(state->mutex);
    if (!state->result.has_value()) {
      if (is_hedge) hedge_wins->Increment();
      state->hedge_won = is_hedge;
      state->result.emplace(std::move(r));
      state->child = std::move(child);
      state->cv.notify_all();
    }
  };
  const double primary_start = root != nullptr ? root->Elapsed() : 0;
  double hedge_start = 0;
  bool hedged = false;
  std::thread([attempt] { attempt(false); }).detach();
  std::unique_lock<std::mutex> lock(state->mutex);
  const bool primary_done = state->cv.wait_for(
      lock, std::chrono::duration<double>(options_.hedge_delay_sec),
      [&state] { return state->result.has_value(); });
  if (!primary_done) {
    hedges_->Increment();
    hedged = true;
    if (root != nullptr) hedge_start = root->Elapsed();
    std::thread([attempt] { attempt(true); }).detach();
  }
  state->cv.wait(lock, [&state] { return state->result.has_value(); });
  Result<std::string> result = std::move(*state->result);
  std::optional<obs::QueryTrace> child = std::move(state->child);
  const bool hedge_won = state->hedge_won;
  lock.unlock();

  if (root != nullptr) {
    const double settled = root->Elapsed();
    root->AddEvent(
        std::string("attempt primary ") + label + (hedge_won ? "" : " (won)"),
        0, primary_start, settled - primary_start, 0);
    if (hedged) {
      root->AddEvent(
          std::string("attempt hedge ") + label + (hedge_won ? " (won)" : ""),
          0, hedge_start, settled - hedge_start, 0);
    }
    graft(std::move(child));
  }
  if (result.ok()) return result;
  const Status st = result.status();
  if (st.code() == StatusCode::kUnavailable && !wire::IsDegraded(st)) {
    MarkShard(shard_index, false);
    return DegradedShard(shard_index, "forward failed (" + st.message() + ")");
  }
  return st;
}

template <typename Request>
std::optional<obs::QueryTrace> Router::StartTrace(
    const Request& request, const std::optional<wire::TraceContext>& ctx) {
  const bool client_sampled = ctx.has_value() && ctx->sampled;
  // Router-side self-sampling: a slice of the traffic no client traced
  // builds a tree anyway, so the flight recorder holds assembled trees
  // even when nobody asked. Such a tree never rides the response.
  if (!client_sampled && !recorder_->Sample()) return std::nullopt;
  traces_->Increment();
  obs::QueryTrace root(client_sampled ? ctx->trace_id : obs::NewTraceId(),
                       Describe(request));
  root.node = options_.node_name;
  if (client_sampled) root.parent_span_id = ctx->parent_span_id;
  root.sampled = true;
  root.strategy = Strategy(request);
  return root;
}

template <typename Request>
void Router::RecordIfSlow(const Request& request,
                          std::chrono::steady_clock::time_point start) {
  const double total = SecondsSince(start);
  const double slow = recorder_->slow_threshold_sec();
  if (slow <= 0 || total < slow) return;
  obs::QueryTrace trace(obs::NewTraceId(), Describe(request));
  trace.node = options_.node_name;
  trace.strategy = Strategy(request);
  trace.total_sec = total;
  recorder_->Record(std::move(trace));
}

void Router::Reply(wire::MsgType type, Result<std::string> payload,
                   const std::optional<wire::TraceContext>& ctx,
                   std::optional<obs::QueryTrace> root,
                   net::Responder respond) {
  if (root.has_value()) root->total_sec = root->Elapsed();
  if (!payload.ok()) {
    // The failed tree is still worth retaining — a degraded forward in
    // the flight recorder explains itself better than a counter. Errors
    // answer bare (not enveloped) like the shard side does; the client's
    // unwrap path treats kErrorResp uniformly.
    if (root.has_value()) recorder_->Record(std::move(*root));
    respond(wire::MsgType::kErrorResp, wire::EncodeError(payload.status()));
    return;
  }
  if (ctx.has_value()) {
    const bool attach = ctx->sampled && root.has_value();
    respond(wire::MsgType::kTracedResp,
            wire::EncodeTracedResponse(type, *payload,
                                       attach ? &*root : nullptr));
  } else {
    respond(type, std::move(*payload));
  }
  if (root.has_value()) recorder_->Record(std::move(*root));
}

void Router::HandleFetch(FetchRequest request,
                         std::optional<wire::TraceContext> ctx,
                         net::Responder respond) {
  fetches_->Increment();
  const auto start = std::chrono::steady_clock::now();
  std::optional<obs::QueryTrace> root = StartTrace(request, ctx);
  const size_t owner =
      map_.OwnerIndex(ShardMap::PartitionKey(request.project, request.model));
  Result<std::string> payload =
      ForwardFetch(owner, request, root.has_value() ? &*root : nullptr);
  if (!root.has_value() && payload.ok()) {
    RecordIfSlow(request, start);
  }
  Reply(wire::MsgType::kFetchResp, std::move(payload), ctx, std::move(root),
        std::move(respond));
}

Result<ScanResult> Router::ScatterScan(const ScanRequest& request,
                                       obs::QueryTrace* root) {
  const size_t n = map_.shards().size();
  // Scatter: every shard in parallel. Scans must see the whole key space
  // (a stale placement could leave rows off the ring owner), so a single
  // unreachable shard makes the scan degraded — never silently partial.
  std::vector<Result<ScanResult>> results(
      n, Result<ScanResult>(Status::Internal("unprobed")));
  std::vector<std::optional<obs::QueryTrace>> kids(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([this, i, root, &request, &results, &kids] {
      if (!ShardUp(i)) {
        results[i] = Status::Unavailable("down at scatter time");
        return;
      }
      ShardClientPool::Lease lease = pool_->Checkout(i);
      if (root != nullptr) {
        lease->SetTraceContext({root->trace_id, obs::NewTraceId(), true});
        results[i] = lease->Scan(request);
        kids[i] = lease->TakeLastTrace();
        lease->ClearTraceContext();
      } else {
        results[i] = lease->Scan(request);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (root != nullptr) {
    root->AddEvent("scatter " + std::to_string(n) + " shards", 0, 0,
                   root->Elapsed(), 0);
  }

  ScanResult merged;
  std::vector<const ScanResult*> parts;
  for (size_t i = 0; i < n; ++i) {
    if (results[i].ok()) {
      merged.blocks_scanned += results[i]->blocks_scanned;
      merged.blocks_pruned += results[i]->blocks_pruned;
      parts.push_back(&*results[i]);
      if (root != nullptr && kids[i].has_value()) {
        if (kids[i]->node.empty()) kids[i]->node = ShardLabel(map_.shards()[i]);
        root->children.push_back(std::move(*kids[i]));
      }
      continue;
    }
    const Status st = results[i].status();
    // Shards that simply do not hold this model answer kNotFound: an
    // empty contribution, not a failure. In a traced scan they still
    // appear as synthesized children, so the assembled tree always shows
    // one child per live shard the scatter touched.
    if (st.code() == StatusCode::kNotFound) {
      if (root != nullptr) {
        obs::QueryTrace child(root->trace_id, "no rows on this shard");
        child.node = ShardLabel(map_.shards()[i]);
        child.parent_span_id = root->trace_id;
        child.sampled = true;
        child.strategy = "not-found";
        root->children.push_back(std::move(child));
      }
      continue;
    }
    if (st.code() == StatusCode::kUnavailable) {
      MarkShard(i, false);
      return DegradedShard(i, "scan aborted (results would be incomplete)");
    }
    // A semantic error (bad predicate column, etc.) — relay it.
    return st;
  }
  if (parts.empty()) {
    return Status::NotFound(
        "no shard holds " +
        ShardMap::PartitionKey(request.project, request.model));
  }

  // Gather: with model-granularity partitioning exactly one shard
  // normally contributes; the general path k-way merges by row id so a
  // mid-rebalance cluster (model briefly visible on two shards) still
  // answers in row order.
  for (const ScanResult* part : parts) {
    if (merged.column_names.empty()) merged.column_names = part->column_names;
  }
  if (parts.size() == 1) {
    const ScanResult* only = parts[0];
    merged.row_ids = only->row_ids;
    merged.columns = only->columns;
  } else {
    struct RowRef {
      uint64_t row_id;
      size_t part;
      size_t index;
    };
    std::vector<RowRef> rows;
    for (size_t p = 0; p < parts.size(); ++p) {
      for (size_t r = 0; r < parts[p]->row_ids.size(); ++r) {
        rows.push_back({parts[p]->row_ids[r], p, r});
      }
    }
    std::sort(rows.begin(), rows.end(),
              [](const RowRef& a, const RowRef& b) {
                return a.row_id != b.row_id ? a.row_id < b.row_id
                                            : a.part < b.part;
              });
    merged.columns.resize(merged.column_names.size());
    for (const RowRef& row : rows) {
      merged.row_ids.push_back(row.row_id);
      const ScanResult* part = parts[row.part];
      for (size_t c = 0;
           c < merged.columns.size() && c < part->columns.size(); ++c) {
        merged.columns[c].push_back(part->columns[c][row.index]);
      }
    }
  }
  return merged;
}

void Router::HandleScan(ScanRequest request,
                        std::optional<wire::TraceContext> ctx,
                        net::Responder respond) {
  scans_->Increment();
  const auto start = std::chrono::steady_clock::now();
  std::optional<obs::QueryTrace> root = StartTrace(request, ctx);
  Result<ScanResult> merged =
      ScatterScan(request, root.has_value() ? &*root : nullptr);
  if (!merged.ok()) {
    Reply(wire::MsgType::kScanResp, merged.status(), ctx, std::move(root),
          std::move(respond));
    return;
  }
  if (!root.has_value()) {
    RecordIfSlow(request, start);
  }
  Reply(wire::MsgType::kScanResp, wire::EncodeScanResult(*merged), ctx,
        std::move(root), std::move(respond));
}

void Router::HandleStats(net::Responder respond) {
  // Cluster-wide stats: counters sum across live shards; percentile
  // latencies take the worst shard (percentiles do not add).
  ServiceStats total;
  for (size_t i = 0; i < map_.shards().size(); ++i) {
    if (!ShardUp(i)) continue;
    ShardClientPool::Lease lease = pool_->Checkout(i);
    Result<ServiceStats> stats = lease->Stats();
    if (!stats.ok()) continue;
    total.submitted += stats->submitted;
    total.rejected += stats->rejected;
    total.completed += stats->completed;
    total.expired += stats->expired;
    total.failed += stats->failed;
    total.queued += stats->queued;
    total.running += stats->running;
    total.cache_hits += stats->cache_hits;
    total.cache_lookups += stats->cache_lookups;
    total.bytes_read += stats->bytes_read;
    total.corruptions_detected += stats->corruptions_detected;
    total.partitions_healed += stats->partitions_healed;
    total.abandoned += stats->abandoned;
    total.open_sessions += stats->open_sessions;
    total.p50_latency_sec = std::max(total.p50_latency_sec,
                                     stats->p50_latency_sec);
    total.p95_latency_sec = std::max(total.p95_latency_sec,
                                     stats->p95_latency_sec);
    total.p99_latency_sec = std::max(total.p99_latency_sec,
                                     stats->p99_latency_sec);
  }
  total.draining = draining_.load();
  respond(wire::MsgType::kStatsResp, wire::EncodeStats(total));
}

void Router::HandleCatalog(net::Responder respond) {
  // Union of every shard's catalog — rebalance tooling's cluster view.
  // Like scans, an unreachable shard degrades the answer rather than
  // silently hiding its models.
  wire::CatalogInfo merged;
  for (size_t i = 0; i < map_.shards().size(); ++i) {
    if (!ShardUp(i)) {
      respond(wire::MsgType::kErrorResp,
              wire::EncodeError(
                  DegradedShard(i, "catalog listing incomplete")));
      return;
    }
    ShardClientPool::Lease lease = pool_->Checkout(i);
    Result<wire::CatalogInfo> part = lease->Catalog();
    if (!part.ok()) {
      MarkShard(i, false);
      respond(wire::MsgType::kErrorResp,
              wire::EncodeError(
                  DegradedShard(i, "catalog listing incomplete")));
      return;
    }
    for (wire::CatalogModel& model : part->models) {
      merged.models.push_back(std::move(model));
    }
  }
  respond(wire::MsgType::kCatalogResp, wire::EncodeCatalog(merged));
}

net::FrameDisposition Router::HandleFrame(uint64_t conn_token,
                                          const wire::Frame& frame,
                                          net::Responder respond) {
  (void)conn_token;
  switch (frame.type) {
    case wire::MsgType::kPingReq:
      respond(wire::MsgType::kPingResp, "");
      return net::FrameDisposition::kOk;
    case wire::MsgType::kHealthReq: {
      wire::HealthInfo health;
      health.state = draining_.load() ? 1 : 0;
      health.queued = workers_ == nullptr ? 0 : workers_->queue_depth();
      health.running = in_flight_.load();
      respond(wire::MsgType::kHealthResp, wire::EncodeHealth(health));
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kShardMapReq: {
      wire::ShardMapInfo info = map_.ToWire();
      for (size_t i = 0; i < info.shards.size(); ++i) {
        info.shards[i].health = ShardUp(i) ? 0 : 2;
      }
      respond(wire::MsgType::kShardMapResp, wire::EncodeShardMap(info));
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kOpenSessionReq:
      // Router sessions are tokens only: shard-side sessions (and their
      // result caches) belong to the pooled clients. Clients get a valid
      // id so the single-store protocol flow works unchanged.
      respond(wire::MsgType::kOpenSessionResp,
              wire::EncodeSessionId(next_session_.fetch_add(1)));
      return net::FrameDisposition::kOk;
    case wire::MsgType::kCloseSessionReq: {
      uint64_t session = 0;
      const Status decoded = wire::DecodeSessionId(frame.payload, &session);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return net::FrameDisposition::kMalformed;
      }
      respond(wire::MsgType::kCloseSessionResp, "");
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kMetricsReq:
      respond(wire::MsgType::kMetricsResp,
              wire::EncodeMetricsText(obs::GlobalMetrics().TextExposition()));
      return net::FrameDisposition::kOk;
    case wire::MsgType::kTraceDumpReq: {
      uint32_t max = 0;
      const Status decoded = wire::DecodeTraceQuery(frame.payload, &max);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return net::FrameDisposition::kMalformed;
      }
      // Inline: retrospection must answer even when the worker pool is
      // saturated — that is exactly when you want the flight recorder.
      respond(wire::MsgType::kTraceDumpResp,
              wire::EncodeTraceList(recorder_->Dump(max)));
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kSlowLogReq: {
      uint32_t max = 0;
      const Status decoded = wire::DecodeTraceQuery(frame.payload, &max);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return net::FrameDisposition::kMalformed;
      }
      respond(wire::MsgType::kSlowLogResp,
              wire::EncodeTraceList(recorder_->SlowLog(max)));
      return net::FrameDisposition::kOk;
    }
    default:
      break;
  }

  // Everything below forwards to shards and must leave the I/O thread.
  if (draining_.load()) {
    respond(wire::MsgType::kErrorResp,
            wire::EncodeError(Status::Unavailable("router is draining")));
    return net::FrameDisposition::kOk;
  }
  // Count the request before queueing, and decrement exactly once when
  // its response goes out, so DrainRequests sees queued work too.
  in_flight_.fetch_add(1);
  auto done = std::make_shared<std::atomic<bool>>(false);
  net::Responder tracked = [this, done, respond = std::move(respond)](
                               wire::MsgType type, std::string payload) {
    respond(type, std::move(payload));
    if (!done->exchange(true)) in_flight_.fetch_sub(1);
  };

  // Fetches and scans take one path each, bare or inside a kTracedReq
  // envelope; an envelope around anything else dispatches its inner frame
  // as if it had arrived bare and wraps the answer back up.
  std::optional<wire::TraceContext> ctx;
  wire::MsgType type = frame.type;
  std::string inner_payload;
  const std::string* payload = &frame.payload;
  if (type == wire::MsgType::kTracedReq) {
    ctx.emplace();
    const Status decoded =
        wire::DecodeTracedRequest(frame.payload, &*ctx, &type, &inner_payload);
    if (!decoded.ok()) {
      tracked(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
      return net::FrameDisposition::kMalformed;
    }
    payload = &inner_payload;
    if (type != wire::MsgType::kFetchReq && type != wire::MsgType::kScanReq) {
      // The wrapping responder closes over `tracked` (not `respond`), so
      // the in-flight count this call already took stays balanced even
      // though the recursive call takes its own.
      wire::Frame inner_frame;
      inner_frame.type = type;
      inner_frame.request_id = frame.request_id;
      inner_frame.payload = std::move(inner_payload);
      net::Responder wrapping =
          [tracked = std::move(tracked)](wire::MsgType inner_type,
                                         std::string inner_body) {
            tracked(wire::MsgType::kTracedResp,
                    wire::EncodeTracedResponse(inner_type, inner_body,
                                               nullptr));
          };
      return HandleFrame(conn_token, inner_frame, std::move(wrapping));
    }
  }

  switch (type) {
    case wire::MsgType::kFetchReq: {
      uint64_t session = 0;
      FetchRequest request;
      const Status decoded =
          wire::DecodeFetchRequest(*payload, &session, &request);
      if (!decoded.ok()) {
        tracked(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return net::FrameDisposition::kMalformed;
      }
      workers_->Submit([this, ctx, request = std::move(request),
                        tracked = std::move(tracked)]() mutable {
        HandleFetch(std::move(request), ctx, std::move(tracked));
      });
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kScanReq: {
      uint64_t session = 0;
      ScanRequest request;
      const Status decoded =
          wire::DecodeScanRequest(*payload, &session, &request);
      if (!decoded.ok()) {
        tracked(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return net::FrameDisposition::kMalformed;
      }
      workers_->Submit([this, ctx, request = std::move(request),
                        tracked = std::move(tracked)]() mutable {
        HandleScan(std::move(request), ctx, std::move(tracked));
      });
      return net::FrameDisposition::kOk;
    }
    case wire::MsgType::kStatsReq:
      workers_->Submit([this, tracked = std::move(tracked)]() mutable {
        HandleStats(std::move(tracked));
      });
      return net::FrameDisposition::kOk;
    case wire::MsgType::kCatalogReq:
      workers_->Submit([this, tracked = std::move(tracked)]() mutable {
        HandleCatalog(std::move(tracked));
      });
      return net::FrameDisposition::kOk;
    default:
      tracked(wire::MsgType::kErrorResp,
              wire::EncodeError(Status::InvalidArgument(
                  "unexpected frame type from client")));
      return net::FrameDisposition::kFatal;
  }
}

void Router::OnConnectionClosed(uint64_t conn_token) { (void)conn_token; }

uint64_t Router::DrainRequests(double deadline_sec) {
  draining_.store(true);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(deadline_sec);
  while (in_flight_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return in_flight_.load();
}

RouterStats Router::Stats() const {
  RouterStats stats;
  for (size_t i = 0; i < map_.shards().size(); ++i) {
    const ShardSpec& spec = map_.shards()[i];
    stats.shards.push_back({spec.shard_id, spec.host, spec.port, ShardUp(i)});
  }
  stats.fetches = fetches_->Value();
  stats.scans = scans_->Value();
  stats.traces = traces_->Value();
  stats.retries = retries_->Value();
  stats.hedges = hedges_->Value();
  stats.hedge_wins = hedge_wins_->Value();
  stats.degraded = degraded_->Value();
  stats.rejoins = rejoins_->Value();
  stats.in_flight = in_flight_.load();
  return stats;
}

}  // namespace cluster
}  // namespace mistique
