#include "net/service_handler.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/mistique.h"
#include "net/server.h"
#include "obs/metrics.h"

namespace mistique {
namespace net {

namespace {

Status DecodeRequest(const std::string& payload, uint64_t* session,
                     FetchRequest* request) {
  return wire::DecodeFetchRequest(payload, session, request);
}
Status DecodeRequest(const std::string& payload, uint64_t* session,
                     ScanRequest* request) {
  return wire::DecodeScanRequest(payload, session, request);
}

wire::MsgType ResponseType(const FetchResult&) {
  return wire::MsgType::kFetchResp;
}
wire::MsgType ResponseType(const ScanResult&) {
  return wire::MsgType::kScanResp;
}

std::string EncodeResult(const FetchResult& result) {
  return wire::EncodeFetchResult(result);
}
std::string EncodeResult(const ScanResult& result) {
  return wire::EncodeScanResult(result);
}

}  // namespace

ServiceHandler::ServiceHandler(QueryService* service,
                               std::function<ServerStats()> server_stats)
    : service_(service), server_stats_(std::move(server_stats)) {}

FrameDisposition ServiceHandler::HandleFrame(uint64_t conn_token,
                                             const wire::Frame& frame,
                                             Responder respond) {
  switch (frame.type) {
    case wire::MsgType::kPingReq:
      respond(wire::MsgType::kPingResp, "");
      return FrameDisposition::kOk;
    case wire::MsgType::kOpenSessionReq: {
      const SessionId session = service_->OpenSession();
      sessions_[conn_token].push_back(session);
      respond(wire::MsgType::kOpenSessionResp,
              wire::EncodeSessionId(session));
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kCloseSessionReq: {
      uint64_t session = 0;
      const Status decoded = wire::DecodeSessionId(frame.payload, &session);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return FrameDisposition::kMalformed;
      }
      const Status st = service_->CloseSession(session);
      if (!st.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(st));
        return FrameDisposition::kOk;
      }
      auto it = sessions_.find(conn_token);
      if (it != sessions_.end()) {
        auto pos = std::find(it->second.begin(), it->second.end(), session);
        if (pos != it->second.end()) it->second.erase(pos);
      }
      respond(wire::MsgType::kCloseSessionResp, "");
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kStatsReq:
      respond(wire::MsgType::kStatsResp,
              wire::EncodeStats(service_->Stats()));
      return FrameDisposition::kOk;
    case wire::MsgType::kHealthReq: {
      // Inline like kStatsReq: pure counter reads, never the admission
      // queue — a drowning shard must still answer its health probe.
      const ServiceStats stats = service_->Stats();
      wire::HealthInfo health;
      health.state = stats.draining ? 1 : 0;
      health.queued = stats.queued;
      health.running = stats.running;
      health.open_sessions = stats.open_sessions;
      respond(wire::MsgType::kHealthResp, wire::EncodeHealth(health));
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kShardMapReq:
      // Valid frame, wrong endpoint: only a cluster router has a map.
      respond(wire::MsgType::kErrorResp,
              wire::EncodeError(Status::NotFound(
                  "this endpoint serves a single store, not a cluster "
                  "(shard maps live on the router)")));
      return FrameDisposition::kOk;
    case wire::MsgType::kCatalogReq: {
      // Rare (rebalance discovery) but can block behind the engine's
      // exclusive lock, so it must leave the I/O thread. The thread is
      // detached: the Responder only touches refcounted connection state,
      // and the engine outlives the server at every call site.
      std::thread([service = service_, respond = std::move(respond)] {
        const CatalogSummary summary = service->engine()->ExportCatalog();
        wire::CatalogInfo info;
        for (const CatalogSummary::Model& model : summary.models) {
          wire::CatalogModel out;
          out.project = model.project;
          out.model = model.name;
          out.kind = static_cast<uint8_t>(model.kind);
          for (const CatalogSummary::Intermediate& interm :
               model.intermediates) {
            wire::CatalogIntermediate i;
            i.name = interm.name;
            i.stage_index = interm.stage_index;
            i.num_rows = interm.num_rows;
            i.columns = interm.columns;
            out.intermediates.push_back(std::move(i));
          }
          info.models.push_back(std::move(out));
        }
        respond(wire::MsgType::kCatalogResp, wire::EncodeCatalog(info));
      }).detach();
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kFetchReq:
      return SubmitQuery<FetchRequest>(frame.payload, std::nullopt,
                                       std::move(respond));
    case wire::MsgType::kScanReq:
      return SubmitQuery<ScanRequest>(frame.payload, std::nullopt,
                                      std::move(respond));
    case wire::MsgType::kMetricsReq: {
      // Inline like kStatsReq: the exposition is a pure counter read, no
      // engine work, so it never touches the admission queue.
      std::string text = service_->MetricsText();
      if (server_stats_) {
        const ServerStats server_stats = server_stats_();
        obs::AppendGaugeText(
            "mistique_net_connections_accepted",
            "TCP connections accepted since server start.",
            static_cast<double>(server_stats.connections_accepted), &text);
        obs::AppendGaugeText(
            "mistique_net_connections_rejected",
            "Connections refused at the max_connections cap.",
            static_cast<double>(server_stats.connections_rejected), &text);
        obs::AppendGaugeText(
            "mistique_net_connections_closed",
            "Connections torn down (any reason).",
            static_cast<double>(server_stats.connections_closed), &text);
        obs::AppendGaugeText(
            "mistique_net_frames_received",
            "Well-formed request frames parsed.",
            static_cast<double>(server_stats.frames_received), &text);
        obs::AppendGaugeText(
            "mistique_net_protocol_errors",
            "Handshake/frame/payload violations seen.",
            static_cast<double>(server_stats.protocol_errors), &text);
        obs::AppendGaugeText(
            "mistique_net_idle_closed",
            "Connections closed by the idle sweep.",
            static_cast<double>(server_stats.idle_closed), &text);
        obs::AppendGaugeText(
            "mistique_net_active_connections",
            "Connections currently open.",
            static_cast<double>(server_stats.active_connections), &text);
      }
      respond(wire::MsgType::kMetricsResp, wire::EncodeMetricsText(text));
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kTracedReq: {
      // Distributed-trace envelope: an ordinary request riding with a
      // TraceContext. Fetches and scans take their one path with the
      // context attached; everything else dispatches as if it had arrived
      // bare, wrapping whatever it answers back into the envelope (error
      // responses ride inside it too, so the client's unwrap path is
      // uniform).
      wire::TraceContext ctx;
      wire::MsgType inner_type = wire::MsgType::kPingReq;
      std::string inner_payload;
      const Status decoded = wire::DecodeTracedRequest(
          frame.payload, &ctx, &inner_type, &inner_payload);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return FrameDisposition::kMalformed;
      }
      if (inner_type == wire::MsgType::kFetchReq) {
        return SubmitQuery<FetchRequest>(inner_payload, ctx,
                                         std::move(respond));
      }
      if (inner_type == wire::MsgType::kScanReq) {
        return SubmitQuery<ScanRequest>(inner_payload, ctx,
                                        std::move(respond));
      }
      wire::Frame inner_frame;
      inner_frame.type = inner_type;
      inner_frame.request_id = frame.request_id;
      inner_frame.payload = std::move(inner_payload);
      Responder wrapping =
          [respond = std::move(respond)](wire::MsgType type,
                                         std::string payload) {
            respond(wire::MsgType::kTracedResp,
                    wire::EncodeTracedResponse(type, payload, nullptr));
          };
      return HandleFrame(conn_token, inner_frame, std::move(wrapping));
    }
    case wire::MsgType::kTraceDumpReq: {
      uint32_t max = 0;
      const Status decoded = wire::DecodeTraceQuery(frame.payload, &max);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return FrameDisposition::kMalformed;
      }
      // Inline like kStatsReq: a few brief ring-shard mutexes, no engine
      // work — retrospection must answer even when the queue is full.
      respond(wire::MsgType::kTraceDumpResp,
              wire::EncodeTraceList(service_->flight_recorder()->Dump(max)));
      return FrameDisposition::kOk;
    }
    case wire::MsgType::kSlowLogReq: {
      uint32_t max = 0;
      const Status decoded = wire::DecodeTraceQuery(frame.payload, &max);
      if (!decoded.ok()) {
        respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
        return FrameDisposition::kMalformed;
      }
      respond(
          wire::MsgType::kSlowLogResp,
          wire::EncodeTraceList(service_->flight_recorder()->SlowLog(max)));
      return FrameDisposition::kOk;
    }
    default:
      // A response type sent by a client: well-formed but nonsensical.
      respond(wire::MsgType::kErrorResp,
              wire::EncodeError(Status::InvalidArgument(
                  "unexpected frame type from client")));
      return FrameDisposition::kFatal;
  }
}

template <typename Request>
FrameDisposition ServiceHandler::SubmitQuery(
    const std::string& payload, std::optional<wire::TraceContext> ctx,
    Responder respond) {
  uint64_t session = 0;
  Request request;
  const Status decoded = DecodeRequest(payload, &session, &request);
  if (!decoded.ok()) {
    respond(wire::MsgType::kErrorResp, wire::EncodeError(decoded));
    return FrameDisposition::kMalformed;
  }
  std::optional<obs::TraceParent> parent;
  if (ctx.has_value() && ctx->sampled) {
    parent = obs::TraceParent{ctx->trace_id, ctx->parent_span_id};
  }
  // The callback runs on a service worker (or inline on rejection and
  // cache hits); the Responder captures only refcounted state, never the
  // Server.
  service_->Submit(
      session, std::move(request), -1, parent,
      [respond = std::move(respond), enveloped = ctx.has_value()](
          Answer<ResultFor<Request>> answer) {
        if (!answer.result.ok()) {
          respond(wire::MsgType::kErrorResp,
                  wire::EncodeError(answer.result.status()));
          return;
        }
        const wire::MsgType type = ResponseType(*answer.result);
        std::string body = EncodeResult(*answer.result);
        if (!enveloped) {
          respond(type, std::move(body));
          return;
        }
        respond(wire::MsgType::kTracedResp,
                wire::EncodeTracedResponse(
                    type, body,
                    answer.trace.has_value() ? &*answer.trace : nullptr));
      });
  return FrameDisposition::kOk;
}

void ServiceHandler::OnConnectionClosed(uint64_t conn_token) {
  auto it = sessions_.find(conn_token);
  if (it == sessions_.end()) return;
  // A vanished client's sessions would otherwise leak their result
  // caches until process exit.
  for (SessionId session : it->second) {
    (void)service_->CloseSession(session);
  }
  sessions_.erase(it);
}

uint64_t ServiceHandler::DrainRequests(double deadline_sec) {
  return service_->Drain(deadline_sec);
}

}  // namespace net
}  // namespace mistique
