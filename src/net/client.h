#ifndef MISTIQUE_NET_CLIENT_H_
#define MISTIQUE_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/wire.h"

namespace mistique {
namespace net {

/// One reconnect delay: `base_sec` scaled by a uniform factor in
/// [1 - jitter, 1]. Many clients (and a router's whole connection pool)
/// backing off from the same shard restart would otherwise sleep the
/// exact same schedule and reconnect in lockstep — jitter spreads the
/// stampede over a window. Exposed as a free function so tests can pin
/// the rng and verify the bounds.
double JitteredBackoff(double base_sec, double jitter, Rng* rng);

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// TCP connect + handshake budget, per attempt.
  double connect_timeout_sec = 5;
  /// Send + receive budget per request. Expiry surfaces as
  /// kDeadlineExceeded and drops the connection (the response may still
  /// be in flight; reconnecting resynchronizes the stream).
  double request_timeout_sec = 30;
  /// Transport failures (refused, reset, EOF) trigger reconnects with
  /// exponential backoff; after this many failed attempts the request
  /// fails with kUnavailable. 0 = never reconnect.
  int max_reconnect_attempts = 5;
  double backoff_initial_sec = 0.05;
  double backoff_max_sec = 2.0;
  /// Fraction of each backoff sleep randomized away (see
  /// JitteredBackoff). 0 restores the deterministic schedule.
  double backoff_jitter = 0.25;
  /// Seed for the jitter rng; 0 derives a per-client seed (address +
  /// clock) so distinct clients get distinct schedules. Tests pin it.
  uint64_t jitter_seed = 0;
  /// After a reconnect, transparently reopen a server-side session (the
  /// old one died with the old server/connection) and retry the request
  /// once under the new session.
  bool auto_reopen_session = true;
};

/// Synchronous MISTIQUE wire-protocol client: one connection, one
/// server-side session (opened lazily), one request in flight.
///
/// Every call maps wire errors back to typed Status (kOverloaded =>
/// kResourceExhausted, so callers can back off on admission-queue
/// pressure without string matching). Transport failures are retried
/// with bounded exponential backoff — a server restart mid-session looks
/// like one slow request, not an error, because the client reconnects,
/// re-handshakes, reopens its session, and reissues the (idempotent)
/// request. Not thread-safe; use one Client per thread.
class Client {
 public:
  explicit Client(ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Establishes the connection + handshake (idempotent). The other
  /// calls connect lazily; this is for checking reachability upfront.
  Status Connect();
  void Close();

  Status Ping();
  /// Opens (or returns the already-open) server-side session.
  Result<SessionId> OpenSession();
  /// Closes the server-side session (no-op if none).
  Status CloseSession();

  /// Fetch/Scan run under this client's session, opening one if needed.
  Result<FetchResult> Fetch(const FetchRequest& request);
  /// Fetch without the decode: the server's kFetchResp payload, already
  /// checked with wire::CheckFetchResult, so it fails exactly when Fetch
  /// would. A router relays these bytes unchanged.
  Result<std::string> FetchPayload(const FetchRequest& request);
  Result<ScanResult> Scan(const ScanRequest& request);
  Result<ServiceStats> Stats();
  /// Prometheus-style exposition text scraped from the server.
  Result<std::string> Metrics();
  /// Liveness + load probe (serving/draining, queued, running); the
  /// cluster health checker's frame. Any v1 server answers it.
  Result<wire::HealthInfo> Health();
  /// The routing table of a cluster router. Plain shards answer
  /// kNotFound.
  Result<wire::ShardMapInfo> FetchShardMap();
  /// The server's model catalog (shape only) — rebalance discovery.
  Result<wire::CatalogInfo> Catalog();
  /// --- Distributed tracing (docs/OBSERVABILITY.md) ---

  /// Installs a trace context: until cleared, every request travels in a
  /// kTracedReq envelope carrying it, so the receiving node (shard or
  /// router) roots its spans under (trace_id, parent_span_id). When the
  /// context is sampled, the hop's trace rides back in the response
  /// envelope and is stashed for TakeLastTrace(). Responses are
  /// otherwise byte-identical to un-enveloped calls.
  void SetTraceContext(const wire::TraceContext& ctx) { trace_ctx_ = ctx; }
  void ClearTraceContext() { trace_ctx_.reset(); }
  bool has_trace_context() const { return trace_ctx_.has_value(); }
  /// The trace attached to the most recent enveloped response (empty if
  /// the hop attached none); consuming it clears the stash.
  std::optional<obs::QueryTrace> TakeLastTrace() {
    std::optional<obs::QueryTrace> out = std::move(last_trace_);
    last_trace_.reset();
    return out;
  }

  /// Flight-recorder retrospection: recently sampled traces (newest
  /// first) / the slow-query log (slowest first) of the remote node.
  /// `max` = 0 returns everything retained.
  Result<std::vector<obs::QueryTrace>> TraceDump(uint32_t max = 0);
  Result<std::vector<obs::QueryTrace>> SlowLog(uint32_t max = 0);

  bool connected() const { return fd_ >= 0; }
  /// Session id on the server; 0 when none is open.
  SessionId session_id() const { return session_; }
  /// Successful reconnects performed (a server restart shows up here).
  uint64_t reconnects() const { return reconnects_; }
  /// Connection attempts that failed (each cost one backoff sleep).
  uint64_t failed_attempts() const { return failed_attempts_; }

 private:
  /// One connect + handshake attempt against the configured endpoint.
  Status TryConnect();
  /// Sends `payload` as a `type` frame and reads the response frame.
  /// Transport errors come back as kUnavailable (retryable); timeouts as
  /// kDeadlineExceeded. Both drop the connection.
  Status Roundtrip(wire::MsgType type, const std::string& payload,
                   wire::Frame* response);
  /// The full request path: ensure connected (+ session when
  /// `with_session`), encode via `encode(session)`, roundtrip, verify the
  /// response type. Transport-level kUnavailable triggers the
  /// reconnect/backoff loop, re-encoding each attempt so a reopened
  /// session's id is picked up. Server-reported errors return as-is.
  Status Call(wire::MsgType type, bool with_session,
              const std::function<std::string(SessionId)>& encode,
              wire::MsgType expect, wire::Frame* response);
  /// Interprets a response frame: expected type => OK, kErrorResp =>
  /// its decoded status, anything else => kInternal.
  static Status ExpectType(const wire::Frame& frame, wire::MsgType expected);
  /// Unpacks a kTracedResp envelope in place (stashing any attached
  /// trace), then applies ExpectType to the inner response.
  Status UnwrapTracedResponse(wire::Frame* response, wire::MsgType expect);
  Status SendAll(const void* data, size_t len);
  Status RecvAll(void* data, size_t len);
  /// Opens a server-side session on the current connection.
  Status OpenSessionInternal();

  ClientOptions options_;
  int fd_ = -1;
  SessionId session_ = 0;
  bool ever_connected_ = false;
  uint64_t next_request_id_ = 1;
  uint64_t reconnects_ = 0;
  uint64_t failed_attempts_ = 0;
  Rng jitter_rng_;
  std::optional<wire::TraceContext> trace_ctx_;
  std::optional<obs::QueryTrace> last_trace_;
};

}  // namespace net
}  // namespace mistique

#endif  // MISTIQUE_NET_CLIENT_H_
