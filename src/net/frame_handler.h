#ifndef MISTIQUE_NET_FRAME_HANDLER_H_
#define MISTIQUE_NET_FRAME_HANDLER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "net/wire.h"

namespace mistique {
namespace net {

/// Delivers one response frame for the request the Responder was created
/// for (the request id is bound in). Thread-safe and callable from any
/// thread; call it at most once per request. If the connection died in
/// the meantime the response is dropped silently. Payloads larger than
/// the frame cap are replaced with a typed kOutOfRange error frame, so
/// handlers do not each re-implement the size check.
using Responder = std::function<void(wire::MsgType, std::string)>;

/// What the Server should do after a frame was handled, decided
/// synchronously (payload decoding happens inline even when the work
/// itself is asynchronous).
enum class FrameDisposition {
  kOk,
  /// The payload was malformed: counted as a protocol error; the
  /// connection survives (the handler already responded with a typed
  /// error frame, and frame boundaries are intact).
  kMalformed,
  /// The frame is hostile or nonsensical (e.g. a response type sent as a
  /// request): counted, and the connection is closed once its outbox
  /// flushes.
  kFatal,
};

/// What a net::Server serves. The server owns sockets, the poll loop,
/// handshake, frame parsing, and response flushing; the handler owns
/// request semantics. Two implementations exist: ServiceHandler (a
/// single-node QueryService) and cluster::Router (routes each request to
/// the shard that owns its model). Both speak the same wire protocol, so
/// a client cannot tell a router from a shard.
///
/// Threading: HandleFrame and OnConnectionClosed run on the server's I/O
/// thread and must not block (dispatch slow work to a pool and respond
/// from there via the Responder). DrainRequests runs on the thread that
/// called Server::Stop.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;

  /// `conn_token` identifies the connection (unique for the server's
  /// lifetime, never reused) so handlers can keep per-connection state
  /// such as session ownership.
  virtual FrameDisposition HandleFrame(uint64_t conn_token,
                                       const wire::Frame& frame,
                                       Responder respond) = 0;

  /// The connection is gone; release per-connection state. No Responder
  /// for it will deliver after this returns.
  virtual void OnConnectionClosed(uint64_t conn_token) = 0;

  /// Stop admitting new work and wait up to `deadline_sec` for in-flight
  /// requests to deliver their responses. Returns how many were
  /// abandoned at the deadline.
  virtual uint64_t DrainRequests(double deadline_sec) = 0;
};

}  // namespace net
}  // namespace mistique

#endif  // MISTIQUE_NET_FRAME_HANDLER_H_
