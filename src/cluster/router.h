#ifndef MISTIQUE_CLUSTER_ROUTER_H_
#define MISTIQUE_CLUSTER_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard_client_pool.h"
#include "cluster/shard_map.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "net/client.h"
#include "net/frame_handler.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/query_service.h"

namespace mistique {
namespace cluster {

struct RouterOptions {
  /// Worker threads executing forwarded requests (the server's I/O
  /// thread never blocks on a shard).
  size_t num_workers = 8;
  /// Base options for pooled shard clients (host/port overridden per
  /// shard). Defaults are tuned for fail-fast forwarding: one reconnect
  /// attempt, short connect timeout — the router's own retry/health
  /// machinery handles the rest.
  net::ClientOptions shard_client;
  size_t max_idle_clients_per_shard = 8;
  /// Forward attempts per request (each on a fresh pooled client) before
  /// the owning shard is declared down and the request degrades.
  int max_forward_attempts = 2;
  double health_interval_sec = 0.5;
  /// Per-probe budget; a shard that cannot answer kHealthReq this fast
  /// is marked down.
  double health_timeout_sec = 1.0;
  /// > 0 enables tail-latency hedging for fetches and scans: if the
  /// primary attempt has not answered after this delay, a duplicate is
  /// issued on a second pooled connection and the first answer wins.
  /// (Shards hold disjoint data, so hedges target the same owner shard;
  /// this papers over a slow connection or a stalled worker, not a dead
  /// machine.)
  double hedge_delay_sec = 0;
  /// Flight recorder fed with assembled trace trees (sampled traffic)
  /// and slow queries; nullptr = the process-global recorder.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// `node` stamped on traces this router produces, so multi-hop trees
  /// read unambiguously ("router", "edge-router", ...).
  std::string node_name = "router";

  RouterOptions() {
    shard_client.connect_timeout_sec = 2;
    shard_client.max_reconnect_attempts = 1;
    shard_client.backoff_initial_sec = 0.02;
    shard_client.backoff_max_sec = 0.2;
  }
};

/// Point-in-time router state for CLIs and tests.
struct RouterStats {
  struct Shard {
    uint32_t shard_id = 0;
    std::string host;
    uint16_t port = 0;
    bool up = false;
  };
  std::vector<Shard> shards;
  uint64_t fetches = 0;
  uint64_t scans = 0;
  uint64_t traces = 0;
  uint64_t retries = 0;
  uint64_t hedges = 0;
  uint64_t hedge_wins = 0;
  uint64_t degraded = 0;
  uint64_t rejoins = 0;
  uint64_t in_flight = 0;
};

/// The cluster front-end: a net::FrameHandler that partitions the store
/// across N single-store shard servers behind one wire endpoint
/// (docs/CLUSTER.md).
///
/// Requests route by the consistent-hash ShardMap: a fetch or a scan names
/// one model, models are whole-shard, so each goes straight to the owner
/// of its `project.model`, and the owner's checked answer is relayed byte
/// for byte. A health thread probes each shard with kHealthReq; a dead
/// shard degrades only the partitions it owns — fetches and scans of its
/// models answer with the typed kDegraded wire error instead of a silent
/// partial result, while the rest of the key space keeps serving. A
/// restarted shard is re-admitted by the next successful probe; the
/// router never needs a restart.
///
/// Plug a Router into net::Server and it speaks the ordinary protocol —
/// existing clients cannot tell a router from a single store, except
/// that kShardMapReq actually answers here.
class Router : public net::FrameHandler {
 public:
  explicit Router(ShardMap map, RouterOptions options = {});
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Starts workers + the health thread (which immediately probes every
  /// shard once, so routing decisions have real health from the start).
  Status Start();
  void Stop();

  // net::FrameHandler:
  net::FrameDisposition HandleFrame(uint64_t conn_token,
                                    const wire::Frame& frame,
                                    net::Responder respond) override;
  void OnConnectionClosed(uint64_t conn_token) override;
  uint64_t DrainRequests(double deadline_sec) override;

  RouterStats Stats() const;
  const ShardMap& map() const { return map_; }
  bool ShardUp(size_t shard_index) const;

 private:
  /// One call on a leased shard client, returning the shard's answer.
  using ShardCall = std::function<Result<std::string>(net::Client*)>;

  void MarkShard(size_t shard_index, bool up);

  /// Bounded-retry forward to one shard; marks it down on exhausted
  /// kUnavailable and converts the failure to the typed degraded error.
  Result<std::string> Forward(size_t shard_index, const ShardCall& call);
  /// Forward of a FetchRequest or ScanRequest, with optional tail-latency
  /// hedging. Returns the owner shard's kFetchResp or kScanResp payload,
  /// checked but not decoded, for the caller to relay byte for byte. With
  /// a non-null `root`, every attempt propagates the trace context to its
  /// shard, attempt spans (one "forward" span, or primary + hedge with
  /// the winner tagged) land in `root`, and the winning shard's child
  /// trace is grafted under it.
  template <typename Request>
  Result<std::string> ForwardRequest(size_t shard_index,
                                     const Request& request,
                                     obs::QueryTrace* root);

  /// The one handler for fetches and scans: owner, forward, reply. `ctx`
  /// is set when the request arrived in a kTracedReq envelope; the answer
  /// then goes back in one. A client-sampled context, or the router's own
  /// sampling, builds this hop's root trace: the forward runs under it,
  /// the tree is assembled and recorded, and it rides the answer only
  /// when the client sampled it.
  template <typename Request>
  void HandleRouted(Request request, std::optional<wire::TraceContext> ctx,
                    net::Responder respond);
  /// This hop's root trace, or nothing when neither the client nor the
  /// router's sampling policy traces the request.
  template <typename Request>
  std::optional<obs::QueryTrace> StartTrace(
      const Request& request, const std::optional<wire::TraceContext>& ctx);
  /// Untraced traffic still feeds the slow-query log: a spanless decision
  /// record (spans cannot be reconstructed after the fact).
  template <typename Request>
  void RecordIfSlow(const Request& request,
                    std::chrono::steady_clock::time_point start);
  /// Answers a forwarded fetch or scan and records its tree, failed or
  /// not. Success answers enveloped when the request was (carrying `root`
  /// only for a client-sampled context), bare otherwise; errors answer
  /// bare.
  void Reply(wire::MsgType type, Result<std::string> payload,
             const std::optional<wire::TraceContext>& ctx,
             std::optional<obs::QueryTrace> root, net::Responder respond);
  void HandleStats(net::Responder respond);
  void HandleCatalog(net::Responder respond);

  Status DegradedShard(size_t shard_index, const std::string& what) const;

  void HealthLoop();

  ShardMap map_;
  RouterOptions options_;
  obs::FlightRecorder* recorder_;
  /// shared_ptr so detached hedge losers can outlive the router safely.
  std::shared_ptr<ShardClientPool> pool_;
  std::unique_ptr<ThreadPool> workers_;

  /// Per-shard liveness (indexed like map_.shards()).
  std::vector<std::unique_ptr<std::atomic<bool>>> up_;
  std::thread health_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::mutex health_mutex_;
  std::condition_variable health_cv_;

  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> next_session_{1};

  // Counters live in the process-global registry (scraped via
  // kMetricsReq); pointers cached here for the hot path.
  obs::Counter* fetches_;
  obs::Counter* scans_;
  obs::Counter* traces_;
  obs::Counter* retries_;
  obs::Counter* hedges_;
  obs::Counter* hedge_wins_;
  obs::Counter* degraded_;
  obs::Counter* rejoins_;
  std::vector<obs::Gauge*> shard_up_gauges_;
};

}  // namespace cluster
}  // namespace mistique

#endif  // MISTIQUE_CLUSTER_ROUTER_H_
