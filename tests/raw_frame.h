#ifndef MISTIQUE_TESTS_RAW_FRAME_H_
#define MISTIQUE_TESTS_RAW_FRAME_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "net/wire.h"

namespace mistique {

/// What a server did with one raw request frame.
struct RawExchange {
  bool answered = false;  ///< a well-formed response frame came back
  wire::MsgType type = wire::MsgType::kPingReq;  ///< its type
  bool closed = false;    ///< the server then closed the connection
};

/// Opens a fresh connection to 127.0.0.1:`port`, handshakes, sends one
/// frame of `type` (any byte, including numbers no handler serves) and
/// reads until the server closes the connection or 5 s pass. Lets a test
/// send frames net::Client would never produce.
inline RawExchange ExchangeRawFrame(uint16_t port, wire::MsgType type,
                                    const std::string& payload) {
  RawExchange out;
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  timeval timeout{};
  timeout.tv_sec = 5;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return out;
  }
  std::string bytes = wire::EncodeHello();
  wire::AppendFrame(&bytes, type, /*request_id=*/7, payload);
  (void)send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  std::string in;
  char buf[4096];
  ssize_t n = 0;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    in.append(buf, static_cast<size_t>(n));
  }
  out.closed = n == 0;
  close(fd);
  if (in.size() <= wire::kHandshakeBytes) return out;
  wire::Frame frame;
  size_t consumed = 0;
  const Status parsed =
      wire::ParseFrame(in.data() + wire::kHandshakeBytes,
                       in.size() - wire::kHandshakeBytes, &frame, &consumed);
  if (parsed.ok() && consumed > 0) {
    out.answered = true;
    out.type = frame.type;
  }
  return out;
}

}  // namespace mistique

#endif  // MISTIQUE_TESTS_RAW_FRAME_H_
