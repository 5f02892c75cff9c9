#ifndef MISTIQUE_NET_SERVER_H_
#define MISTIQUE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/status.h"
#include "net/frame_handler.h"
#include "net/wire.h"

namespace mistique {

class QueryService;

namespace net {

struct ServerOptions {
  /// Listen address. Loopback by default: exposing a store beyond the
  /// machine is an explicit decision ("0.0.0.0").
  std::string host = "127.0.0.1";
  /// 0 = OS-assigned ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately after
  /// accept (the kernel backlog already smoothed the burst).
  size_t max_connections = 256;
  /// Connections with no inbound traffic for this long are closed.
  /// 0 = never.
  double idle_timeout_sec = 300;
  /// Budget Stop() gives FrameHandler::DrainRequests for in-flight work.
  double drain_deadline_sec = 5;
  /// Budget Stop() gives the final response flush after the drain.
  double flush_deadline_sec = 2;
};

/// Point-in-time counters for the serving layer (transport-level; query
/// stats live in ServiceStats).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over max_connections
  uint64_t connections_closed = 0;
  uint64_t frames_received = 0;
  uint64_t protocol_errors = 0;  ///< bad magic/version/CRC/malformed frames
  uint64_t idle_closed = 0;
  size_t active_connections = 0;
};

/// TCP front door for a FrameHandler: one poll(2)-driven I/O thread
/// multiplexing every connection, with request semantics delegated to the
/// handler (docs/NETWORK.md). The QueryService constructor serves a
/// single store (ServiceHandler); a cluster::Router handler makes the
/// same front door a sharded cluster's router (docs/CLUSTER.md).
///
/// The I/O thread owns all socket state. It accepts (non-blocking),
/// validates the handshake, accumulates partial frames per connection,
/// and hands complete requests to the handler with a thread-safe
/// Responder; slow work responds from worker threads by appending the
/// encoded response to the connection's outbox and poking a wake pipe,
/// so the poll loop — possibly parked in poll(2) — resumes and flushes.
///
/// Malformed input (bad magic, version skew, CRC mismatch, oversized or
/// truncated-forever frames) never takes the server down: the offending
/// connection gets an error frame where the stream still has meaning,
/// then is closed; other connections are untouched.
///
/// Stop() (also run by the destructor) drains gracefully: stop
/// accepting, FrameHandler::DrainRequests(drain_deadline), flush
/// outstanding responses for up to flush_deadline, close everything.
class Server {
 public:
  /// Single-store convenience: builds and owns a ServiceHandler over
  /// `service` (the pre-cluster API; every existing call site).
  explicit Server(QueryService* service, ServerOptions options = {});
  /// Serves an arbitrary handler (not owned; must outlive the server).
  explicit Server(FrameHandler* handler, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the I/O thread. kIoError on bind/listen
  /// failure (e.g. port in use); kAlreadyExists if already started.
  Status Start();

  /// Graceful shutdown; idempotent, safe from any thread (including a
  /// signal-watcher). Blocks until the I/O thread exits.
  void Stop();

  /// The bound port (useful with port = 0). 0 before Start().
  uint16_t port() const { return port_; }

  ServerStats Stats() const;

 private:
  struct Connection;
  /// Write side of the wake pipe, shared with completion callbacks.
  /// Responders capture {Connection, WakeHandle} shared_ptrs — never the
  /// Server — so a callback firing during/after teardown touches only
  /// refcounted state (Retire() is ordered against Wake() by the
  /// handle's mutex, so the fd cannot be written after close).
  struct WakeHandle;

  void IoLoop();
  void DoAccept();
  /// Feeds newly read bytes through handshake + frame parsing. False =
  /// close the connection now.
  bool ConsumeInbound(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const wire::Frame& frame);
  /// Appends a response frame to conn's outbox and wakes the I/O thread;
  /// callable from any thread. Drops silently if conn already closed.
  static void AppendResponse(const std::shared_ptr<Connection>& conn,
                             const std::shared_ptr<WakeHandle>& wake,
                             wire::MsgType type, uint64_t request_id,
                             std::string_view payload);
  static void AppendError(const std::shared_ptr<Connection>& conn,
                          const std::shared_ptr<WakeHandle>& wake,
                          uint64_t request_id, const Status& status);
  /// Flushes as much outbox as the socket accepts. False = fatal write
  /// error, close.
  bool FlushOutbound(const std::shared_ptr<Connection>& conn);
  void CloseConnection(int fd, const char* reason);

  FrameHandler* handler_;
  /// Set only by the QueryService constructor (owned ServiceHandler).
  std::unique_ptr<FrameHandler> owned_handler_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  std::shared_ptr<WakeHandle> wake_;
  std::atomic<uint16_t> port_{0};

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::thread io_thread_;
  std::mutex stop_mutex_;  ///< serializes concurrent Stop() calls
  bool stopped_ = false;   ///< guarded by stop_mutex_

  /// Connections are owned by the I/O thread; the map is mutated only
  /// there. shared_ptrs keep a Connection alive while worker threads
  /// hold Responders against it.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;
  /// Next Connection::token (tokens are never reused, unlike fds).
  uint64_t next_conn_token_ = 1;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<size_t> active_{0};
};

}  // namespace net
}  // namespace mistique

#endif  // MISTIQUE_NET_SERVER_H_
