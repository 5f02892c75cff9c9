#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace mistique {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

void SetSocketTimeout(int fd, int which, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                             tv.tv_sec)) *
                                        1e6);
  setsockopt(fd, SOL_SOCKET, which, &tv, sizeof(tv));
}

}  // namespace

double JitteredBackoff(double base_sec, double jitter, Rng* rng) {
  if (jitter <= 0) return base_sec;
  const double j = std::min(jitter, 1.0);
  return base_sec * (1.0 - j * rng->NextDouble());
}

Client::Client(ClientOptions options) : options_(std::move(options)) {
  uint64_t seed = options_.jitter_seed;
  if (seed == 0) {
    seed = static_cast<uint64_t>(
               std::chrono::steady_clock::now().time_since_epoch().count()) ^
           reinterpret_cast<uintptr_t>(this);
  }
  jitter_rng_.Seed(seed);
}

Client::~Client() {
  // Best-effort: let the server reap the session now rather than at
  // connection-close detection.
  if (connected() && session_ != 0) (void)CloseSession();
  Close();
}

void Client::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  // Sessions are per-connection on the server (it closes them when the
  // connection dies), so a dropped connection always invalidates ours.
  session_ = 0;
}

Status Client::TryConnect() {
  Close();
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad server address " + options_.host);
  }

  // Non-blocking connect so the timeout is ours, not the kernel's.
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      const Status st = Errno("connect " + options_.host + ":" +
                              std::to_string(options_.port));
      close(fd);
      return st;
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        poll(&pfd, 1, static_cast<int>(options_.connect_timeout_sec * 1e3));
    if (ready <= 0) {
      close(fd);
      return Status::Unavailable("connect timed out after " +
                                 std::to_string(options_.connect_timeout_sec) +
                                 "s");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      close(fd);
      return Status::Unavailable("connect failed: " +
                                 std::string(std::strerror(err)));
    }
  }
  fcntl(fd, F_SETFL, flags);  // back to blocking; timeouts via SO_*TIMEO
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetSocketTimeout(fd, SO_RCVTIMEO, options_.connect_timeout_sec);
  SetSocketTimeout(fd, SO_SNDTIMEO, options_.connect_timeout_sec);
  fd_ = fd;

  // Protocol handshake.
  const std::string hello = wire::EncodeHello();
  Status st = SendAll(hello.data(), hello.size());
  if (st.ok()) {
    char reply[wire::kHandshakeBytes];
    st = RecvAll(reply, sizeof(reply));
    if (st.ok()) st = wire::DecodeHelloReply(reply, sizeof(reply));
  }
  if (!st.ok()) {
    Close();
    return st;
  }
  SetSocketTimeout(fd_, SO_RCVTIMEO, options_.request_timeout_sec);
  SetSocketTimeout(fd_, SO_SNDTIMEO, options_.request_timeout_sec);
  // Any successful connect after the first is a reconnect (a server
  // restart shows up here even when the very next attempt succeeds).
  if (ever_connected_) reconnects_++;
  ever_connected_ = true;
  return Status::OK();
}

Status Client::SendAll(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return Status::DeadlineExceeded("send timed out");
    }
    return Errno("send");
  }
  return Status::OK();
}

Status Client::RecvAll(void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = recv(fd_, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("receive timed out");
    }
    return Errno("recv");
  }
  return Status::OK();
}

Status Client::Roundtrip(wire::MsgType type, const std::string& payload,
                         wire::Frame* response) {
  if (fd_ < 0) return Status::Unavailable("not connected");
  const uint64_t request_id = next_request_id_++;
  std::string out;
  wire::AppendFrame(&out, type, request_id, payload);
  Status st = SendAll(out.data(), out.size());
  if (!st.ok()) {
    Close();
    return st;
  }

  // Response: length prefix, then the body (re-assembled so ParseFrame
  // performs the CRC + structure validation exactly once, same code path
  // as the server).
  char len_buf[4];
  st = RecvAll(len_buf, sizeof(len_buf));
  if (!st.ok()) {
    Close();
    return st;
  }
  uint32_t body_len = 0;
  for (size_t i = 0; i < 4; ++i) {
    body_len |= static_cast<uint32_t>(static_cast<uint8_t>(len_buf[i]))
                << (8 * i);
  }
  if (body_len < 1 + 8 + 4 || body_len > wire::kMaxFrameBytes) {
    Close();
    return Status::Corruption("bad response frame length " +
                              std::to_string(body_len));
  }
  std::string frame_bytes(len_buf, sizeof(len_buf));
  frame_bytes.resize(4u + body_len);
  st = RecvAll(frame_bytes.data() + 4, body_len);
  if (!st.ok()) {
    Close();
    return st;
  }
  size_t consumed = 0;
  st = wire::ParseFrame(frame_bytes.data(), frame_bytes.size(), response,
                        &consumed);
  if (!st.ok() || consumed == 0) {
    Close();
    return st.ok() ? Status::Corruption("short response frame") : st;
  }
  if (response->request_id != request_id) {
    // The stream is desynchronized (e.g. a response to a timed-out
    // earlier request); only a fresh connection recovers.
    Close();
    return Status::Unavailable("response id mismatch; reconnecting");
  }
  return Status::OK();
}

Status Client::ExpectType(const wire::Frame& frame, wire::MsgType expected) {
  if (frame.type == expected) return Status::OK();
  if (frame.type == wire::MsgType::kErrorResp) {
    return wire::DecodeError(frame.payload);
  }
  return Status::Internal("unexpected response frame type " +
                          std::to_string(static_cast<int>(frame.type)));
}

Status Client::UnwrapTracedResponse(wire::Frame* response,
                                    wire::MsgType expect) {
  MISTIQUE_RETURN_NOT_OK(ExpectType(*response, wire::MsgType::kTracedResp));
  wire::MsgType inner_type = wire::MsgType::kPingResp;
  std::string inner_payload;
  bool has_trace = false;
  obs::QueryTrace trace;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeTracedResponse(
      response->payload, &inner_type, &inner_payload, &has_trace, &trace));
  if (has_trace) last_trace_ = std::move(trace);
  // Rewrite the frame in place so the caller decodes the inner response
  // exactly as if it had arrived bare.
  response->type = inner_type;
  response->payload = std::move(inner_payload);
  return ExpectType(*response, expect);
}

Status Client::OpenSessionInternal() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(
      Roundtrip(wire::MsgType::kOpenSessionReq, "", &resp));
  MISTIQUE_RETURN_NOT_OK(ExpectType(resp, wire::MsgType::kOpenSessionResp));
  return wire::DecodeSessionId(resp.payload, &session_);
}

Status Client::Call(wire::MsgType type, bool with_session,
                    const std::function<std::string(SessionId)>& encode,
                    wire::MsgType expect, wire::Frame* response) {
  int attempts = 0;
  double backoff = options_.backoff_initial_sec;
  bool reconnected = false;
  for (;;) {
    Status st = Status::OK();
    if (fd_ < 0) {
      const bool had_session = session_ != 0 || reconnected;
      st = TryConnect();
      if (st.ok()) {
        if (with_session && had_session && !options_.auto_reopen_session) {
          return Status::Unavailable(
              "connection lost and auto_reopen_session is off: the "
              "server-side session is gone");
        }
      }
    }
    if (st.ok() && with_session && session_ == 0) st = OpenSessionInternal();
    if (st.ok()) {
      // Re-encoded each attempt: a reopened session changes the id
      // embedded in the payload.
      if (trace_ctx_.has_value()) {
        // Trace context installed: ship the request inside a kTracedReq
        // envelope so the trace identity propagates, and unwrap the
        // response envelope (stashing any attached trace) before the
        // caller decodes it.
        st = Roundtrip(wire::MsgType::kTracedReq,
                       wire::EncodeTracedRequest(*trace_ctx_, type,
                                                 encode(session_)),
                       response);
        if (st.ok()) return UnwrapTracedResponse(response, expect);
      } else {
        st = Roundtrip(type, encode(session_), response);
        if (st.ok()) return ExpectType(*response, expect);
      }
    }
    if (st.code() != StatusCode::kUnavailable) return st;
    if (attempts >= options_.max_reconnect_attempts) {
      return Status::Unavailable(st.message() + " (gave up after " +
                                 std::to_string(attempts) +
                                 " reconnect attempts)");
    }
    attempts++;
    failed_attempts_++;
    reconnected = true;
    std::this_thread::sleep_for(std::chrono::duration<double>(
        JitteredBackoff(backoff, options_.backoff_jitter, &jitter_rng_)));
    backoff = std::min(backoff * 2, options_.backoff_max_sec);
  }
}

Status Client::Connect() {
  if (connected()) return Status::OK();
  return TryConnect();
}

Status Client::Ping() {
  wire::Frame resp;
  return Call(wire::MsgType::kPingReq, /*with_session=*/false,
              [](SessionId) { return std::string(); },
              wire::MsgType::kPingResp, &resp);
}

Result<SessionId> Client::OpenSession() {
  if (connected() && session_ != 0) return session_;
  wire::Frame resp;
  // Ping via Call to reuse the reconnect loop, then open explicitly.
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kPingReq, false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kPingResp, &resp));
  if (session_ == 0) MISTIQUE_RETURN_NOT_OK(OpenSessionInternal());
  return session_;
}

Status Client::CloseSession() {
  if (!connected() || session_ == 0) {
    session_ = 0;
    return Status::OK();
  }
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Roundtrip(wire::MsgType::kCloseSessionReq,
                                   wire::EncodeSessionId(session_), &resp));
  MISTIQUE_RETURN_NOT_OK(ExpectType(resp, wire::MsgType::kCloseSessionResp));
  session_ = 0;
  return Status::OK();
}

Result<FetchResult> Client::Fetch(const FetchRequest& request) {
  MISTIQUE_ASSIGN_OR_RETURN(std::string payload, FetchPayload(request));
  FetchResult result;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeFetchResult(payload, &result));
  return result;
}

Result<std::string> Client::FetchPayload(const FetchRequest& request) {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(
      wire::MsgType::kFetchReq, /*with_session=*/true,
      [&request](SessionId session) {
        return wire::EncodeFetchRequest(session, request);
      },
      wire::MsgType::kFetchResp, &resp));
  MISTIQUE_RETURN_NOT_OK(wire::CheckFetchResult(resp.payload));
  return std::move(resp.payload);
}

Result<ScanResult> Client::Scan(const ScanRequest& request) {
  MISTIQUE_ASSIGN_OR_RETURN(std::string payload, ScanPayload(request));
  ScanResult result;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeScanResult(payload, &result));
  return result;
}

Result<std::string> Client::ScanPayload(const ScanRequest& request) {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(
      wire::MsgType::kScanReq, /*with_session=*/true,
      [&request](SessionId session) {
        return wire::EncodeScanRequest(session, request);
      },
      wire::MsgType::kScanResp, &resp));
  MISTIQUE_RETURN_NOT_OK(wire::CheckScanResult(resp.payload));
  return std::move(resp.payload);
}

Result<ServiceStats> Client::Stats() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kStatsReq,
                              /*with_session=*/false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kStatsResp, &resp));
  ServiceStats stats;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeStats(resp.payload, &stats));
  return stats;
}

Result<std::string> Client::Metrics() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kMetricsReq,
                              /*with_session=*/false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kMetricsResp, &resp));
  std::string text;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeMetricsText(resp.payload, &text));
  return text;
}

Result<wire::HealthInfo> Client::Health() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kHealthReq,
                              /*with_session=*/false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kHealthResp, &resp));
  wire::HealthInfo health;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeHealth(resp.payload, &health));
  return health;
}

Result<wire::ShardMapInfo> Client::FetchShardMap() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kShardMapReq,
                              /*with_session=*/false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kShardMapResp, &resp));
  wire::ShardMapInfo map;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeShardMap(resp.payload, &map));
  return map;
}

Result<wire::CatalogInfo> Client::Catalog() {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(wire::MsgType::kCatalogReq,
                              /*with_session=*/false,
                              [](SessionId) { return std::string(); },
                              wire::MsgType::kCatalogResp, &resp));
  wire::CatalogInfo catalog;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeCatalog(resp.payload, &catalog));
  return catalog;
}

Result<std::vector<obs::QueryTrace>> Client::TraceDump(uint32_t max) {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(
      wire::MsgType::kTraceDumpReq, /*with_session=*/false,
      [max](SessionId) { return wire::EncodeTraceQuery(max); },
      wire::MsgType::kTraceDumpResp, &resp));
  std::vector<obs::QueryTrace> traces;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeTraceList(resp.payload, &traces));
  return traces;
}

Result<std::vector<obs::QueryTrace>> Client::SlowLog(uint32_t max) {
  wire::Frame resp;
  MISTIQUE_RETURN_NOT_OK(Call(
      wire::MsgType::kSlowLogReq, /*with_session=*/false,
      [max](SessionId) { return wire::EncodeTraceQuery(max); },
      wire::MsgType::kSlowLogResp, &resp));
  std::vector<obs::QueryTrace> traces;
  MISTIQUE_RETURN_NOT_OK(wire::DecodeTraceList(resp.payload, &traces));
  return traces;
}

}  // namespace net
}  // namespace mistique
