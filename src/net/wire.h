#ifndef MISTIQUE_NET_WIRE_H_
#define MISTIQUE_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/mistique.h"
#include "service/query_service.h"

namespace mistique {
namespace wire {

/// --- Protocol constants (docs/NETWORK.md) ---

/// "MQTQ" little-endian: first four bytes a client ever sends.
constexpr uint32_t kMagic = 0x5154514D;
/// Bumped on any incompatible frame/payload change. The handshake
/// rejects mismatches; there is no negotiation (one version per build).
constexpr uint16_t kProtocolVersion = 1;
/// Hard ceiling on one frame's encoded size. Caps both the server's
/// per-connection read buffer (malicious length prefixes cannot balloon
/// memory) and legitimate responses (a fetch result larger than this
/// fails with kOutOfRange instead of being sent).
constexpr size_t kMaxFrameBytes = 256u << 20;
/// Fixed handshake exchange: u32 magic, u16 version, u16 flags (hello) /
/// u16 accept (reply).
constexpr size_t kHandshakeBytes = 8;

/// Frame layout, after the handshake (all integers little-endian):
///
///   u32  body_len          length of everything after this field
///   u8   msg_type
///   u64  request_id        echoed verbatim in the response
///   ...  payload           type-specific encoding
///   u32  crc32c            over msg_type + request_id + payload
///
/// body_len = 1 + 8 + payload_len + 4.
constexpr size_t kFrameOverhead = 4 + 1 + 8 + 4;

enum class MsgType : uint8_t {
  kPingReq = 1,
  kPingResp = 2,
  kOpenSessionReq = 3,
  kOpenSessionResp = 4,   ///< payload: u64 session_id
  kCloseSessionReq = 5,   ///< payload: u64 session_id
  kCloseSessionResp = 6,
  kFetchReq = 7,          ///< payload: u64 session_id + FetchRequest
  kFetchResp = 8,         ///< payload: FetchResult
  kScanReq = 9,           ///< payload: u64 session_id + ScanRequest
  kScanResp = 10,         ///< payload: ScanResult
  kStatsReq = 11,
  kStatsResp = 12,        ///< payload: ServiceStats
  kErrorResp = 13,        ///< payload: u16 wire error code + string
  // Observability frames (additive: the kStatsResp payload is frozen —
  // old clients ExpectEnd() it — so new telemetry rides new types
  // instead of growing an existing payload).
  kMetricsReq = 14,
  kMetricsResp = 15,      ///< payload: Prometheus-style exposition text
  // 16 and 17 are retired (a one-hop traced fetch and its answer; tracing
  // now rides the kTracedReq envelope) and stay reserved. They still pass
  // IsValidMsgType, so such a frame parses and meets each handler's
  // unexpected-type error.
  // Cluster frames (additive, still protocol v1): a router answers
  // kShardMapReq with its current routing table; kHealthReq is the
  // health-checker's probe — unlike kPingReq it reports load, so a
  // router can tell "alive but drowning" from "alive".
  kShardMapReq = 18,
  kShardMapResp = 19,     ///< payload: ShardMapInfo
  kHealthReq = 20,
  kHealthResp = 21,       ///< payload: HealthInfo
  // Catalog listing, the discovery half of rebalancing: a new owner asks
  // the old owner what a model's intermediates/columns look like before
  // streaming them over with ordinary fetches.
  kCatalogReq = 22,
  kCatalogResp = 23,      ///< payload: CatalogInfo
  // 24 is retired (a one-hop traced scan) and stays reserved, like 16/17.
  // Distributed-tracing envelope (additive, v1): kTracedReq wraps any
  // ordinary request payload together with a TraceContext, so trace
  // identity propagates hop to hop without touching the inner payload
  // encodings. The response envelope carries the ordinary response plus
  // (when the context was sampled) the hop's assembled QueryTrace.
  kTracedReq = 25,      ///< payload: TraceContext + inner type + payload
  kTracedResp = 26,     ///< payload: inner type + payload + opt. trace
  // Flight-recorder retrospection (docs/OBSERVABILITY.md): dump the ring
  // of recently sampled traces / the slow-query log of a running node.
  kTraceDumpReq = 27,   ///< payload: u32 max entries (0 = all)
  kTraceDumpResp = 28,  ///< payload: u32 count + count QueryTraces
  kSlowLogReq = 29,     ///< payload: u32 max entries (0 = all)
  kSlowLogResp = 30,    ///< payload: u32 count + count QueryTraces
};

/// True iff `t` lies in the frame-type range (decode guard). Retired
/// numbers inside the range pass; handlers reject them.
bool IsValidMsgType(uint8_t t);

/// Wire error codes carried by kErrorResp. Values 0..99 mirror
/// StatusCode numerically; 100+ are wire-specific. kOverloaded is the
/// admission queue's kResourceExhausted: a distinct code so clients and
/// load balancers can tell "back off and retry" from every other error
/// without parsing messages.
enum class WireError : uint16_t {
  kOverloaded = 100,
  /// A cluster router could not reach the shard owning the requested
  /// partitions: the rest of the cluster is healthy and the query itself
  /// was fine. Distinct from plain kUnavailable so clients can tell "this
  /// key's shard is down, others work" from "the whole endpoint is gone".
  kDegraded = 101,
};

/// Status -> wire code (kResourceExhausted becomes kOverloaded, degraded
/// kUnavailable — see Degraded() — becomes kDegraded).
uint16_t WireErrorFromStatus(const Status& status);
/// Wire code + message -> Status (kOverloaded becomes kResourceExhausted,
/// kDegraded becomes a Degraded() kUnavailable, unknown codes become
/// kInternal).
Status StatusFromWireError(uint16_t code, std::string message);

/// The typed degraded error a router returns when a query's owner shard is
/// unavailable: StatusCode::kUnavailable plus a recognizable tag, carried
/// across the wire as WireError::kDegraded. In-process callers test with
/// IsDegraded(); remote callers get the same answer after decode.
Status Degraded(std::string message);
bool IsDegraded(const Status& status);

/// --- Bounds-checked primitive encoding (little-endian) ---

/// Appends primitives to a std::string buffer. Vectors go out as a u32
/// count followed by their elements' raw bytes in one block, which is
/// their little-endian encoding on the little-endian hosts this build
/// supports (wire.cc asserts it).
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutF64(double v);
  /// u32 length + raw bytes.
  void PutString(std::string_view s);
  void PutU64Vec(const std::vector<uint64_t>& v);
  void PutF64Vec(const std::vector<double>& v);
  void PutStringVec(const std::vector<std::string>& v);

 private:
  std::string* out_;
};

/// Reads primitives from a byte range; every getter fails with
/// kCorruption on truncation instead of reading past the end, and vector
/// getters validate the declared count against the bytes actually
/// remaining before allocating (a fuzzed length prefix cannot trigger a
/// giant allocation).
class Reader {
 public:
  Reader(const void* data, size_t len)
      : p_(static_cast<const uint8_t*>(data)), len_(len) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetF64(double* v);
  Status GetString(std::string* s);
  Status GetU64Vec(std::vector<uint64_t>* v);
  Status GetF64Vec(std::vector<double>* v);
  Status GetStringVec(std::vector<std::string>* v);
  /// Layout-only twins of the getters above: the same checks, same
  /// failures, but nothing is copied out (CheckFetchResult).
  Status SkipU64Vec();
  Status SkipF64Vec();
  Status SkipStringVec();

  size_t remaining() const { return len_ - pos_; }
  /// Decoders call this last: trailing bytes mean a version skew or a
  /// corrupted length field that happened to pass CRC.
  Status ExpectEnd() const;

 private:
  /// A u32 count followed by count * `elem_bytes` bytes: checks the count
  /// against the bytes remaining, then steps past the block and points
  /// `*block` at it.
  Status GetBlock(size_t elem_bytes, const char* what, uint32_t* count,
                  const uint8_t** block);
  /// Steps past one u32-length-prefixed string.
  Status SkipString();

  const uint8_t* p_;
  size_t len_;
  size_t pos_ = 0;
};

/// --- Handshake ---

/// Client hello and server reply are both exactly kHandshakeBytes.
std::string EncodeHello();
/// `accept` true = serve, false = version mismatch (connection closes).
std::string EncodeHelloReply(bool accept);
/// Validates a client hello. kInvalidArgument on bad magic (close without
/// replying: it is not our protocol), kUnavailable on version mismatch
/// (reply reject, then close).
Status DecodeHello(const void* data, size_t len);
/// Validates a server reply on the client side.
Status DecodeHelloReply(const void* data, size_t len);

/// --- Frames ---

struct Frame {
  MsgType type = MsgType::kPingReq;
  uint64_t request_id = 0;
  std::string payload;
};

/// Appends one encoded frame (header + payload + CRC) to `out`.
void AppendFrame(std::string* out, MsgType type, uint64_t request_id,
                 std::string_view payload);

/// Tries to parse one frame from the front of [data, data+len).
/// Returns OK with *consumed == 0 when the buffer holds only a prefix
/// (read more bytes); OK with *consumed > 0 when `frame` was filled;
/// kCorruption / kOutOfRange / kInvalidArgument when the stream is
/// unrecoverable (oversized length, CRC mismatch, unknown type) — the
/// connection must be torn down, since frame boundaries are lost.
Status ParseFrame(const void* data, size_t len, Frame* frame,
                  size_t* consumed);

/// --- Payload encodings ---

std::string EncodeFetchRequest(uint64_t session, const FetchRequest& req);
Status DecodeFetchRequest(const std::string& payload, uint64_t* session,
                          FetchRequest* req);

std::string EncodeFetchResult(const FetchResult& result);
Status DecodeFetchResult(const std::string& payload, FetchResult* result);
/// Walks a kFetchResp payload's layout without decoding it: accepts and
/// rejects exactly the payloads DecodeFetchResult does, at the cost of
/// one step per string and column rather than per value. A router checks
/// a shard's answer with it and then relays the bytes unchanged.
Status CheckFetchResult(const std::string& payload);

std::string EncodeScanRequest(uint64_t session, const ScanRequest& req);
Status DecodeScanRequest(const std::string& payload, uint64_t* session,
                         ScanRequest* req);

std::string EncodeScanResult(const ScanResult& result);
Status DecodeScanResult(const std::string& payload, ScanResult* result);

std::string EncodeStats(const ServiceStats& stats);
Status DecodeStats(const std::string& payload, ServiceStats* stats);

std::string EncodeError(const Status& status);
Status DecodeError(const std::string& payload);

std::string EncodeSessionId(uint64_t session);
Status DecodeSessionId(const std::string& payload, uint64_t* session);

std::string EncodeMetricsText(const std::string& text);
Status DecodeMetricsText(const std::string& payload, std::string* text);

/// --- Distributed tracing (docs/OBSERVABILITY.md) ---

/// Trace identity carried hop to hop by the kTracedReq envelope. The
/// receiving node roots its spans under (trace_id, parent_span_id);
/// `sampled` false means "propagate identity, do not capture spans" —
/// the request still travels in an envelope so the caller's sampling
/// decision is authoritative cluster-wide.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;
};

std::string EncodeTracedRequest(const TraceContext& ctx, MsgType inner_type,
                                std::string_view inner_payload);
/// Rejects nested envelopes (an envelope wrapping an envelope is always
/// a malformed or malicious frame) and unknown inner types.
Status DecodeTracedRequest(const std::string& payload, TraceContext* ctx,
                           MsgType* inner_type, std::string* inner_payload);

std::string EncodeTracedResponse(MsgType inner_type,
                                 std::string_view inner_payload,
                                 const obs::QueryTrace* trace);
/// `has_trace` reports whether the hop attached a trace; when false,
/// `trace` is left default-constructed.
Status DecodeTracedResponse(const std::string& payload, MsgType* inner_type,
                            std::string* inner_payload, bool* has_trace,
                            obs::QueryTrace* trace);

/// kTraceDumpReq / kSlowLogReq payload: max entries wanted (0 = all).
std::string EncodeTraceQuery(uint32_t max);
Status DecodeTraceQuery(const std::string& payload, uint32_t* max);

/// kTraceDumpResp / kSlowLogResp payload: a list of trace trees.
std::string EncodeTraceList(const std::vector<obs::QueryTrace>& traces);
Status DecodeTraceList(const std::string& payload,
                       std::vector<obs::QueryTrace>* traces);

/// --- Cluster payloads ---

/// One shard as a router advertises it. `health` mirrors
/// cluster::ShardHealth numerically (0 up, 1 suspect, 2 down) but stays a
/// raw u8 here so the wire layer does not depend on src/cluster.
struct ShardEntry {
  uint32_t shard_id = 0;
  std::string host;
  uint16_t port = 0;
  uint8_t health = 0;
};

/// A versioned routing table: which shards exist and how keys hash onto
/// them (vnodes_per_shard fixes the consistent-hash ring geometry, so two
/// processes given the same ShardMapInfo route identically).
struct ShardMapInfo {
  uint64_t version = 0;
  uint32_t vnodes_per_shard = 0;
  std::vector<ShardEntry> shards;
};

std::string EncodeShardMap(const ShardMapInfo& map);
Status DecodeShardMap(const std::string& payload, ShardMapInfo* map);

/// Health probe answer: serving state plus instantaneous load, so a
/// router's health checker can distinguish "alive", "alive but drowning",
/// and "draining for shutdown" without a data query.
struct HealthInfo {
  uint8_t state = 0;  ///< 0 = serving, 1 = draining
  uint64_t queued = 0;
  uint64_t running = 0;
  uint64_t open_sessions = 0;
};

std::string EncodeHealth(const HealthInfo& health);
Status DecodeHealth(const std::string& payload, HealthInfo* health);

/// The shape of one intermediate as the catalog listing advertises it —
/// enough for a peer to issue the fetches that stream the data out and to
/// ImportModel it on the other side. Chunk ids, zone maps, and
/// quantization tables stay private to the owning store.
struct CatalogIntermediate {
  std::string name;
  int32_t stage_index = 0;
  uint64_t num_rows = 0;
  std::vector<std::string> columns;
};

struct CatalogModel {
  std::string project;
  std::string model;
  uint8_t kind = 0;  ///< ModelKind numerically (0 TRAD, 1 DNN)
  std::vector<CatalogIntermediate> intermediates;
};

/// kCatalogResp payload: every model in the store.
struct CatalogInfo {
  std::vector<CatalogModel> models;
};

std::string EncodeCatalog(const CatalogInfo& catalog);
Status DecodeCatalog(const std::string& payload, CatalogInfo* catalog);

}  // namespace wire
}  // namespace mistique

#endif  // MISTIQUE_NET_WIRE_H_
