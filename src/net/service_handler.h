#ifndef MISTIQUE_NET_SERVICE_HANDLER_H_
#define MISTIQUE_NET_SERVICE_HANDLER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/frame_handler.h"
#include "service/query_service.h"

namespace mistique {
namespace net {

struct ServerStats;

/// The single-node FrameHandler: answers every wire request from one
/// QueryService (the behavior net::Server had before the handler split).
/// Sessions are tracked per connection so a vanished client cannot leak
/// its result caches; fetches and scans, bare or enveloped, dispatch
/// through the service's one Submit path and respond from worker threads.
///
/// All state except the service itself is touched only on the server's
/// I/O thread (HandleFrame / OnConnectionClosed), so it needs no locks.
class ServiceHandler : public FrameHandler {
 public:
  /// `server_stats` (optional) supplies transport-level gauges for the
  /// metrics exposition; the owning Server wires it to its own Stats().
  explicit ServiceHandler(QueryService* service,
                          std::function<ServerStats()> server_stats = {});

  FrameDisposition HandleFrame(uint64_t conn_token, const wire::Frame& frame,
                               Responder respond) override;
  void OnConnectionClosed(uint64_t conn_token) override;
  uint64_t DrainRequests(double deadline_sec) override;

 private:
  /// Decodes one fetch or scan and submits it. A request that arrived in
  /// a kTracedReq envelope (`ctx` set) answers in one, carrying this
  /// hop's trace when the context is sampled; errors answer bare.
  template <typename Request>
  FrameDisposition SubmitQuery(const std::string& payload,
                               std::optional<wire::TraceContext> ctx,
                               Responder respond);

  QueryService* service_;
  std::function<ServerStats()> server_stats_;
  /// Sessions each live connection opened (I/O-thread-only).
  std::unordered_map<uint64_t, std::vector<SessionId>> sessions_;
};

}  // namespace net
}  // namespace mistique

#endif  // MISTIQUE_NET_SERVICE_HANDLER_H_
