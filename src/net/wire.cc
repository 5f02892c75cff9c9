#include "net/wire.h"

#include <bit>
#include <cstring>

#include "durability/crc32c.h"

namespace mistique {
namespace wire {

// Vectors cross the wire as their in-memory bytes (one memcpy each way),
// which equals the little-endian encoding only on a little-endian host.
// common/bytes.h and scan/packed_view.h make the same assumption.
static_assert(std::endian::native == std::endian::little,
              "the wire codec copies vectors as raw little-endian blocks");

namespace {

/// Decoded vectors are validated against bytes-remaining before any
/// allocation; per-element minimum sizes for that check.
constexpr size_t kMinStringBytes = 4;  // empty string = u32 length
/// A column list entry is at least its u32 element count.
constexpr size_t kMinColumnBytes = 4;

void PutLe(std::string* out, uint64_t v, size_t bytes) {
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

template <typename T>
void PutBlock(std::string* out, const std::vector<T>& v) {
  if (!v.empty()) {
    out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
}

template <typename T>
void CopyBlock(const uint8_t* block, uint32_t count, std::vector<T>* v) {
  v->resize(count);
  if (count > 0) std::memcpy(v->data(), block, count * sizeof(T));
}

/// Encoded sizes, so the result encoders allocate once.
size_t StringVecBytes(const std::vector<std::string>& v) {
  size_t n = 4;
  for (const std::string& s : v) n += 4 + s.size();
  return n;
}

size_t ColumnsBytes(const std::vector<std::vector<double>>& columns) {
  size_t n = 4;
  for (const std::vector<double>& col : columns) {
    n += 4 + col.size() * sizeof(double);
  }
  return n;
}

}  // namespace

bool IsValidMsgType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kPingReq) &&
         t <= static_cast<uint8_t>(MsgType::kSlowLogResp);
}

/// Message tag identifying a router's typed degraded kUnavailable (see
/// Degraded() in wire.h). A tag in the message — rather than a new
/// StatusCode — keeps Status's taxonomy stable while the wire still
/// carries a distinct code.
constexpr char kDegradedTag[] = "degraded: ";

Status Degraded(std::string message) {
  if (message.rfind(kDegradedTag, 0) == 0) {
    return Status::Unavailable(std::move(message));
  }
  return Status::Unavailable(kDegradedTag + std::move(message));
}

bool IsDegraded(const Status& status) {
  return status.code() == StatusCode::kUnavailable &&
         status.message().rfind(kDegradedTag, 0) == 0;
}

uint16_t WireErrorFromStatus(const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    return static_cast<uint16_t>(WireError::kOverloaded);
  }
  if (IsDegraded(status)) {
    return static_cast<uint16_t>(WireError::kDegraded);
  }
  return static_cast<uint16_t>(status.code());
}

Status StatusFromWireError(uint16_t code, std::string message) {
  if (code == static_cast<uint16_t>(WireError::kOverloaded)) {
    return Status::ResourceExhausted(std::move(message));
  }
  if (code == static_cast<uint16_t>(WireError::kDegraded)) {
    return Degraded(std::move(message));
  }
  if (code > static_cast<uint16_t>(StatusCode::kUnavailable) || code == 0) {
    return Status::Internal("unknown wire error code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

/// --- Writer ---

void Writer::PutU16(uint16_t v) { PutLe(out_, v, 2); }
void Writer::PutU32(uint32_t v) { PutLe(out_, v, 4); }
void Writer::PutU64(uint64_t v) { PutLe(out_, v, 8); }

void Writer::PutF64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void Writer::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  out_->append(s.data(), s.size());
}

void Writer::PutU64Vec(const std::vector<uint64_t>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  PutBlock(out_, v);
}

void Writer::PutF64Vec(const std::vector<double>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  PutBlock(out_, v);
}

void Writer::PutStringVec(const std::vector<std::string>& v) {
  PutU32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) PutString(s);
}

/// --- Reader ---

namespace {
Status Truncated(const char* what) {
  return Status::Corruption(std::string("truncated payload reading ") + what);
}
}  // namespace

Status Reader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Truncated("u8");
  *v = p_[pos_++];
  return Status::OK();
}

Status Reader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Truncated("u16");
  *v = static_cast<uint16_t>(p_[pos_]) |
       static_cast<uint16_t>(p_[pos_ + 1]) << 8;
  pos_ += 2;
  return Status::OK();
}

Status Reader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Truncated("u32");
  *v = 0;
  for (size_t i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(p_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return Status::OK();
}

Status Reader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Truncated("u64");
  *v = 0;
  for (size_t i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(p_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return Status::OK();
}

Status Reader::GetF64(double* v) {
  uint64_t bits = 0;
  MISTIQUE_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status Reader::GetString(std::string* s) {
  uint32_t len = 0;
  MISTIQUE_RETURN_NOT_OK(GetU32(&len));
  if (remaining() < len) return Truncated("string bytes");
  s->assign(reinterpret_cast<const char*>(p_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status Reader::GetBlock(size_t elem_bytes, const char* what, uint32_t* count,
                        const uint8_t** block) {
  MISTIQUE_RETURN_NOT_OK(GetU32(count));
  if (remaining() / elem_bytes < *count) return Truncated(what);
  *block = p_ + pos_;
  pos_ += *count * elem_bytes;
  return Status::OK();
}

Status Reader::GetU64Vec(std::vector<uint64_t>* v) {
  uint32_t count = 0;
  const uint8_t* block = nullptr;
  MISTIQUE_RETURN_NOT_OK(GetBlock(8, "u64 vector", &count, &block));
  CopyBlock(block, count, v);
  return Status::OK();
}

Status Reader::GetF64Vec(std::vector<double>* v) {
  uint32_t count = 0;
  const uint8_t* block = nullptr;
  MISTIQUE_RETURN_NOT_OK(GetBlock(8, "f64 vector", &count, &block));
  CopyBlock(block, count, v);
  return Status::OK();
}

Status Reader::GetStringVec(std::vector<std::string>* v) {
  uint32_t count = 0;
  MISTIQUE_RETURN_NOT_OK(GetU32(&count));
  if (remaining() / kMinStringBytes < count) return Truncated("string vector");
  v->resize(count);
  for (uint32_t i = 0; i < count; ++i) MISTIQUE_RETURN_NOT_OK(GetString(&(*v)[i]));
  return Status::OK();
}

Status Reader::SkipString() {
  uint32_t len = 0;
  MISTIQUE_RETURN_NOT_OK(GetU32(&len));
  if (remaining() < len) return Truncated("string bytes");
  pos_ += len;
  return Status::OK();
}

Status Reader::SkipU64Vec() {
  uint32_t count = 0;
  const uint8_t* block = nullptr;
  return GetBlock(8, "u64 vector", &count, &block);
}

Status Reader::SkipF64Vec() {
  uint32_t count = 0;
  const uint8_t* block = nullptr;
  return GetBlock(8, "f64 vector", &count, &block);
}

Status Reader::SkipStringVec() {
  uint32_t count = 0;
  MISTIQUE_RETURN_NOT_OK(GetU32(&count));
  if (remaining() / kMinStringBytes < count) return Truncated("string vector");
  for (uint32_t i = 0; i < count; ++i) MISTIQUE_RETURN_NOT_OK(SkipString());
  return Status::OK();
}

Status Reader::ExpectEnd() const {
  if (pos_ != len_) {
    return Status::Corruption(std::to_string(len_ - pos_) +
                              " trailing payload bytes");
  }
  return Status::OK();
}

/// --- Handshake ---

std::string EncodeHello() {
  std::string out;
  Writer w(&out);
  w.PutU32(kMagic);
  w.PutU16(kProtocolVersion);
  w.PutU16(0);  // flags, reserved
  return out;
}

std::string EncodeHelloReply(bool accept) {
  std::string out;
  Writer w(&out);
  w.PutU32(kMagic);
  w.PutU16(kProtocolVersion);
  w.PutU16(accept ? 1 : 0);
  return out;
}

Status DecodeHello(const void* data, size_t len) {
  Reader r(data, len);
  uint32_t magic = 0;
  uint16_t version = 0, flags = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  MISTIQUE_RETURN_NOT_OK(r.GetU16(&version));
  MISTIQUE_RETURN_NOT_OK(r.GetU16(&flags));
  if (magic != kMagic) {
    return Status::InvalidArgument("bad handshake magic");
  }
  if (version != kProtocolVersion) {
    return Status::Unavailable("protocol version mismatch: peer " +
                               std::to_string(version) + ", ours " +
                               std::to_string(kProtocolVersion));
  }
  return Status::OK();
}

Status DecodeHelloReply(const void* data, size_t len) {
  Reader r(data, len);
  uint32_t magic = 0;
  uint16_t version = 0, accept = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  MISTIQUE_RETURN_NOT_OK(r.GetU16(&version));
  MISTIQUE_RETURN_NOT_OK(r.GetU16(&accept));
  if (magic != kMagic) {
    return Status::InvalidArgument("bad handshake magic in server reply");
  }
  if (accept != 1) {
    return Status::Unavailable(
        "server rejected handshake (server protocol version " +
        std::to_string(version) + ", client " +
        std::to_string(kProtocolVersion) + ")");
  }
  return Status::OK();
}

/// --- Frames ---

void AppendFrame(std::string* out, MsgType type, uint64_t request_id,
                 std::string_view payload) {
  out->reserve(out->size() + kFrameOverhead + payload.size());
  Writer w(out);
  const uint32_t body_len =
      static_cast<uint32_t>(1 + 8 + payload.size() + 4);
  w.PutU32(body_len);
  const size_t crc_start = out->size();
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(request_id);
  out->append(payload.data(), payload.size());
  const uint32_t crc =
      Crc32c(out->data() + crc_start, out->size() - crc_start);
  w.PutU32(crc);
}

Status ParseFrame(const void* data, size_t len, Frame* frame,
                  size_t* consumed) {
  *consumed = 0;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  if (len < 4) return Status::OK();  // need the length prefix
  uint32_t body_len = 0;
  for (size_t i = 0; i < 4; ++i) body_len |= static_cast<uint32_t>(p[i]) << (8 * i);
  if (body_len < 1 + 8 + 4) {
    return Status::Corruption("frame body too short (" +
                              std::to_string(body_len) + " bytes)");
  }
  if (body_len > kMaxFrameBytes) {
    return Status::OutOfRange("frame of " + std::to_string(body_len) +
                              " bytes exceeds the " +
                              std::to_string(kMaxFrameBytes) + " cap");
  }
  if (len < 4u + body_len) return Status::OK();  // partial frame

  const uint8_t* body = p + 4;
  const size_t crc_off = body_len - 4;
  uint32_t stored_crc = 0;
  for (size_t i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(body[crc_off + i]) << (8 * i);
  }
  const uint32_t actual_crc = Crc32c(body, crc_off);
  if (stored_crc != actual_crc) {
    return Status::Corruption("frame CRC mismatch");
  }
  if (!IsValidMsgType(body[0])) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(body[0]));
  }
  frame->type = static_cast<MsgType>(body[0]);
  frame->request_id = 0;
  for (size_t i = 0; i < 8; ++i) {
    frame->request_id |= static_cast<uint64_t>(body[1 + i]) << (8 * i);
  }
  frame->payload.assign(reinterpret_cast<const char*>(body + 9),
                        crc_off - 9);
  *consumed = 4u + body_len;
  return Status::OK();
}

/// --- Payload encodings ---

namespace {

/// The column list of a fetch or scan result: a u32 count, checked
/// against the bytes left before anything is allocated, then one f64
/// vector per column. SkipColumns walks exactly what GetColumns reads.
Status ReadColumnCount(Reader* r, uint32_t* num_cols) {
  MISTIQUE_RETURN_NOT_OK(r->GetU32(num_cols));
  if (r->remaining() / kMinColumnBytes < *num_cols) {
    return Status::Corruption("truncated payload reading column list");
  }
  return Status::OK();
}

Status GetColumns(Reader* r, std::vector<std::vector<double>>* columns) {
  uint32_t num_cols = 0;
  MISTIQUE_RETURN_NOT_OK(ReadColumnCount(r, &num_cols));
  columns->resize(num_cols);
  for (std::vector<double>& col : *columns) {
    MISTIQUE_RETURN_NOT_OK(r->GetF64Vec(&col));
  }
  return Status::OK();
}

Status SkipColumns(Reader* r) {
  uint32_t num_cols = 0;
  MISTIQUE_RETURN_NOT_OK(ReadColumnCount(r, &num_cols));
  for (uint32_t c = 0; c < num_cols; ++c) {
    MISTIQUE_RETURN_NOT_OK(r->SkipF64Vec());
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFetchRequest(uint64_t session, const FetchRequest& req) {
  std::string out;
  Writer w(&out);
  w.PutU64(session);
  w.PutString(req.project);
  w.PutString(req.model);
  w.PutString(req.intermediate);
  w.PutStringVec(req.columns);
  w.PutU64(req.n_ex);
  w.PutU64Vec(req.row_ids);
  // tri-state: 0 = cost model decides, 1 = force read, 2 = force re-run
  w.PutU8(!req.force_read.has_value() ? 0 : (*req.force_read ? 1 : 2));
  w.PutF64(req.sample_fraction);
  return out;
}

Status DecodeFetchRequest(const std::string& payload, uint64_t* session,
                          FetchRequest* req) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(session));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->project));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->model));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->intermediate));
  MISTIQUE_RETURN_NOT_OK(r.GetStringVec(&req->columns));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&req->n_ex));
  MISTIQUE_RETURN_NOT_OK(r.GetU64Vec(&req->row_ids));
  uint8_t force = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&force));
  if (force > 2) return Status::Corruption("bad force_read tri-state");
  req->force_read = force == 0 ? std::nullopt
                               : std::optional<bool>(force == 1);
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&req->sample_fraction));
  return r.ExpectEnd();
}

std::string EncodeFetchResult(const FetchResult& result) {
  std::string out;
  out.reserve(StringVecBytes(result.column_names) +
              ColumnsBytes(result.columns) + 4 +
              result.row_ids.size() * sizeof(uint64_t) + 1 + 1 + 3 * 8 + 1);
  Writer w(&out);
  w.PutStringVec(result.column_names);
  w.PutU32(static_cast<uint32_t>(result.columns.size()));
  for (const std::vector<double>& col : result.columns) w.PutF64Vec(col);
  w.PutU64Vec(result.row_ids);
  w.PutU8(result.used_read ? 1 : 0);
  w.PutU8(result.from_cache ? 1 : 0);
  w.PutF64(result.fetch_seconds);
  w.PutF64(result.predicted_read_sec);
  w.PutF64(result.predicted_rerun_sec);
  w.PutU8(result.materialized_now ? 1 : 0);
  return out;
}

Status DecodeFetchResult(const std::string& payload, FetchResult* result) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetStringVec(&result->column_names));
  MISTIQUE_RETURN_NOT_OK(GetColumns(&r, &result->columns));
  MISTIQUE_RETURN_NOT_OK(r.GetU64Vec(&result->row_ids));
  uint8_t b = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
  result->used_read = b != 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
  result->from_cache = b != 0;
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&result->fetch_seconds));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&result->predicted_read_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&result->predicted_rerun_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
  result->materialized_now = b != 0;
  return r.ExpectEnd();
}

Status CheckFetchResult(const std::string& payload) {
  // DecodeFetchResult step for step, skipping where it copies. Its flags
  // and timings accept any value, so only their width is checked here.
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.SkipStringVec());
  MISTIQUE_RETURN_NOT_OK(SkipColumns(&r));
  MISTIQUE_RETURN_NOT_OK(r.SkipU64Vec());
  uint8_t b = 0;
  double f = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));  // used_read
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));  // from_cache
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&f));  // fetch_seconds
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&f));  // predicted_read_sec
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&f));  // predicted_rerun_sec
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));  // materialized_now
  return r.ExpectEnd();
}

std::string EncodeScanRequest(uint64_t session, const ScanRequest& req) {
  std::string out;
  Writer w(&out);
  w.PutU64(session);
  w.PutString(req.project);
  w.PutString(req.model);
  w.PutString(req.intermediate);
  w.PutString(req.predicate_column);
  w.PutF64(req.lo);
  w.PutF64(req.hi);
  w.PutStringVec(req.columns);
  return out;
}

Status DecodeScanRequest(const std::string& payload, uint64_t* session,
                         ScanRequest* req) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(session));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->project));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->model));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->intermediate));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&req->predicate_column));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&req->lo));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&req->hi));
  MISTIQUE_RETURN_NOT_OK(r.GetStringVec(&req->columns));
  return r.ExpectEnd();
}

std::string EncodeScanResult(const ScanResult& result) {
  std::string out;
  out.reserve(4 + result.row_ids.size() * sizeof(uint64_t) +
              StringVecBytes(result.column_names) +
              ColumnsBytes(result.columns) + 8 + 8);
  Writer w(&out);
  w.PutU64Vec(result.row_ids);
  w.PutStringVec(result.column_names);
  w.PutU32(static_cast<uint32_t>(result.columns.size()));
  for (const std::vector<double>& col : result.columns) w.PutF64Vec(col);
  w.PutU64(result.blocks_scanned);
  w.PutU64(result.blocks_pruned);
  return out;
}

Status DecodeScanResult(const std::string& payload, ScanResult* result) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64Vec(&result->row_ids));
  MISTIQUE_RETURN_NOT_OK(r.GetStringVec(&result->column_names));
  MISTIQUE_RETURN_NOT_OK(GetColumns(&r, &result->columns));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&result->blocks_scanned));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&result->blocks_pruned));
  return r.ExpectEnd();
}

Status CheckScanResult(const std::string& payload) {
  // DecodeScanResult step for step, skipping where it copies.
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.SkipU64Vec());
  MISTIQUE_RETURN_NOT_OK(r.SkipStringVec());
  MISTIQUE_RETURN_NOT_OK(SkipColumns(&r));
  uint64_t blocks = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&blocks));  // blocks_scanned
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&blocks));  // blocks_pruned
  return r.ExpectEnd();
}

std::string EncodeStats(const ServiceStats& stats) {
  std::string out;
  Writer w(&out);
  w.PutU64(stats.submitted);
  w.PutU64(stats.rejected);
  w.PutU64(stats.completed);
  w.PutU64(stats.expired);
  w.PutU64(stats.failed);
  w.PutU64(stats.queued);
  w.PutU64(stats.running);
  w.PutU64(stats.cache_hits);
  w.PutU64(stats.cache_lookups);
  w.PutU64(stats.bytes_read);
  w.PutU64(stats.corruptions_detected);
  w.PutU64(stats.partitions_healed);
  w.PutU64(stats.abandoned);
  w.PutU8(stats.draining ? 1 : 0);
  w.PutF64(stats.p50_latency_sec);
  w.PutF64(stats.p95_latency_sec);
  w.PutU64(stats.open_sessions);
  return out;
}

Status DecodeStats(const std::string& payload, ServiceStats* stats) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->submitted));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->rejected));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->completed));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->expired));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->failed));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->queued));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->running));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->cache_hits));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->cache_lookups));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->bytes_read));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->corruptions_detected));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->partitions_healed));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&stats->abandoned));
  uint8_t draining = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&draining));
  stats->draining = draining != 0;
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&stats->p50_latency_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&stats->p95_latency_sec));
  uint64_t open_sessions = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&open_sessions));
  stats->open_sessions = static_cast<size_t>(open_sessions);
  return r.ExpectEnd();
}

std::string EncodeError(const Status& status) {
  std::string out;
  Writer w(&out);
  w.PutU16(WireErrorFromStatus(status));
  w.PutString(status.message());
  return out;
}

Status DecodeError(const std::string& payload) {
  Reader r(payload.data(), payload.size());
  uint16_t code = 0;
  std::string message;
  MISTIQUE_RETURN_NOT_OK(r.GetU16(&code));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&message));
  MISTIQUE_RETURN_NOT_OK(r.ExpectEnd());
  return StatusFromWireError(code, std::move(message));
}

std::string EncodeSessionId(uint64_t session) {
  std::string out;
  Writer w(&out);
  w.PutU64(session);
  return out;
}

Status DecodeSessionId(const std::string& payload, uint64_t* session) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(session));
  return r.ExpectEnd();
}

std::string EncodeMetricsText(const std::string& text) {
  std::string out;
  Writer w(&out);
  w.PutString(text);
  return out;
}

Status DecodeMetricsText(const std::string& payload, std::string* text) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetString(text));
  return r.ExpectEnd();
}

namespace {
/// Per-element minimum sizes for the count-vs-remaining checks below:
/// event = string(4) + u32 + 2*f64 + u64; stage = string(4) + u64 + f64
/// + u64.
constexpr size_t kMinTraceEventBytes = 4 + 4 + 8 + 8 + 8;
constexpr size_t kMinStageTotalBytes = 4 + 8 + 8 + 8;
/// Every trace node keeps a 17-byte slot (u64, u64, u8) where the retired
/// frame 17 carried a result summary. It is written as zeros and skipped
/// on decode, so the frames that carry traces keep their bytes.
constexpr size_t kReservedTraceSlotBytes = 8 + 8 + 1;

/// Smallest possible encoded trace (all strings empty, no events/totals/
/// children): id 8 + desc 4 + strategy 4 + 4 f64 + flags 1 + two counts
/// 8 + reserved slot + node 4 + parent 8 + sampled 1 + child count 4.
constexpr size_t kMinTraceBytes =
    8 + 4 + 4 + 32 + 1 + 8 + kReservedTraceSlotBytes + 4 + 8 + 1 + 4;
/// Hop count bound on the child-trace recursion: real trees are client ->
/// router -> shard (depth 2); anything deeper than this is a hostile
/// payload, not a cluster.
constexpr int kMaxTraceTreeDepth = 8;

void EncodeTraceInto(Writer& w, const obs::QueryTrace& trace) {
  w.PutU64(trace.trace_id);
  w.PutString(trace.description);
  w.PutString(trace.strategy);
  w.PutF64(trace.est_read_sec);
  w.PutF64(trace.est_rerun_sec);
  w.PutF64(trace.queue_wait_sec);
  w.PutF64(trace.total_sec);
  w.PutU8(static_cast<uint8_t>((trace.cache_hit ? 1 : 0) |
                               (trace.materialized_now ? 2 : 0) |
                               (trace.mispredicted ? 4 : 0)));
  const auto& events = trace.events();
  w.PutU32(static_cast<uint32_t>(events.size()));
  for (const obs::TraceEvent& e : events) {
    w.PutString(e.name);
    w.PutU32(e.depth);
    w.PutF64(e.start_sec);
    w.PutF64(e.duration_sec);
    w.PutU64(e.bytes);
  }
  const auto& totals = trace.stage_totals();
  w.PutU32(static_cast<uint32_t>(totals.size()));
  for (const obs::TraceStageTotal& t : totals) {
    w.PutString(t.name);
    w.PutU64(t.count);
    w.PutF64(t.total_sec);
    w.PutU64(t.bytes);
  }
  w.PutU64(0);
  w.PutU64(0);
  w.PutU8(0);
  // Distributed-trace tail (additive within v1: every in-tree decoder
  // reads it; only the frozen kStatsResp payload is pinned by layout).
  w.PutString(trace.node);
  w.PutU64(trace.parent_span_id);
  w.PutU8(trace.sampled ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(trace.children.size()));
  for (const obs::QueryTrace& child : trace.children) {
    EncodeTraceInto(w, child);
  }
}

Status DecodeTraceInto(Reader& r, obs::QueryTrace* trace, int depth) {
  if (depth > kMaxTraceTreeDepth) {
    return Status::Corruption("trace tree nests deeper than any cluster");
  }
  uint64_t trace_id = 0;
  std::string description;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&trace_id));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&description));
  *trace = obs::QueryTrace(trace_id, std::move(description));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&trace->strategy));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&trace->est_read_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&trace->est_rerun_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&trace->queue_wait_sec));
  MISTIQUE_RETURN_NOT_OK(r.GetF64(&trace->total_sec));
  uint8_t flags = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&flags));
  trace->cache_hit = (flags & 1) != 0;
  trace->materialized_now = (flags & 2) != 0;
  trace->mispredicted = (flags & 4) != 0;
  uint32_t count = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&count));
  if (r.remaining() / kMinTraceEventBytes < count) {
    return Status::Corruption("truncated payload reading trace events");
  }
  trace->mutable_events()->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::TraceEvent& e = (*trace->mutable_events())[i];
    MISTIQUE_RETURN_NOT_OK(r.GetString(&e.name));
    MISTIQUE_RETURN_NOT_OK(r.GetU32(&e.depth));
    MISTIQUE_RETURN_NOT_OK(r.GetF64(&e.start_sec));
    MISTIQUE_RETURN_NOT_OK(r.GetF64(&e.duration_sec));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&e.bytes));
  }
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&count));
  if (r.remaining() / kMinStageTotalBytes < count) {
    return Status::Corruption("truncated payload reading stage totals");
  }
  trace->mutable_stage_totals()->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::TraceStageTotal& t = (*trace->mutable_stage_totals())[i];
    MISTIQUE_RETURN_NOT_OK(r.GetString(&t.name));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&t.count));
    MISTIQUE_RETURN_NOT_OK(r.GetF64(&t.total_sec));
    MISTIQUE_RETURN_NOT_OK(r.GetU64(&t.bytes));
  }
  uint64_t reserved64 = 0;
  uint8_t reserved8 = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&reserved64));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&reserved64));
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&reserved8));
  MISTIQUE_RETURN_NOT_OK(r.GetString(&trace->node));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&trace->parent_span_id));
  uint8_t sampled = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&sampled));
  trace->sampled = sampled != 0;
  uint32_t n_children = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&n_children));
  if (r.remaining() / kMinTraceBytes < n_children) {
    return Status::Corruption("truncated payload reading child traces");
  }
  trace->children.resize(n_children);
  for (uint32_t i = 0; i < n_children; ++i) {
    MISTIQUE_RETURN_NOT_OK(DecodeTraceInto(r, &trace->children[i], depth + 1));
  }
  return Status::OK();
}
}  // namespace

std::string EncodeTracedRequest(const TraceContext& ctx, MsgType inner_type,
                                std::string_view inner_payload) {
  std::string out;
  Writer w(&out);
  w.PutU64(ctx.trace_id);
  w.PutU64(ctx.parent_span_id);
  w.PutU8(ctx.sampled ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(inner_type));
  w.PutString(inner_payload);
  return out;
}

Status DecodeTracedRequest(const std::string& payload, TraceContext* ctx,
                           MsgType* inner_type, std::string* inner_payload) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&ctx->trace_id));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&ctx->parent_span_id));
  uint8_t sampled = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&sampled));
  ctx->sampled = sampled != 0;
  uint8_t inner = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&inner));
  if (!IsValidMsgType(inner)) {
    return Status::Corruption("traced envelope with unknown inner type");
  }
  if (inner == static_cast<uint8_t>(MsgType::kTracedReq) ||
      inner == static_cast<uint8_t>(MsgType::kTracedResp)) {
    return Status::Corruption("traced envelope nests another envelope");
  }
  *inner_type = static_cast<MsgType>(inner);
  MISTIQUE_RETURN_NOT_OK(r.GetString(inner_payload));
  return r.ExpectEnd();
}

std::string EncodeTracedResponse(MsgType inner_type,
                                 std::string_view inner_payload,
                                 const obs::QueryTrace* trace) {
  std::string out;
  Writer w(&out);
  w.PutU8(static_cast<uint8_t>(inner_type));
  w.PutString(inner_payload);
  w.PutU8(trace != nullptr ? 1 : 0);
  if (trace != nullptr) {
    EncodeTraceInto(w, *trace);
  }
  return out;
}

Status DecodeTracedResponse(const std::string& payload, MsgType* inner_type,
                            std::string* inner_payload, bool* has_trace,
                            obs::QueryTrace* trace) {
  Reader r(payload.data(), payload.size());
  uint8_t inner = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&inner));
  if (!IsValidMsgType(inner)) {
    return Status::Corruption("traced envelope with unknown inner type");
  }
  if (inner == static_cast<uint8_t>(MsgType::kTracedReq) ||
      inner == static_cast<uint8_t>(MsgType::kTracedResp)) {
    return Status::Corruption("traced envelope nests another envelope");
  }
  *inner_type = static_cast<MsgType>(inner);
  MISTIQUE_RETURN_NOT_OK(r.GetString(inner_payload));
  uint8_t flag = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&flag));
  *has_trace = flag != 0;
  *trace = obs::QueryTrace();
  if (*has_trace) MISTIQUE_RETURN_NOT_OK(DecodeTraceInto(r, trace, 0));
  return r.ExpectEnd();
}

std::string EncodeTraceQuery(uint32_t max) {
  std::string out;
  Writer w(&out);
  w.PutU32(max);
  return out;
}

Status DecodeTraceQuery(const std::string& payload, uint32_t* max) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU32(max));
  return r.ExpectEnd();
}

std::string EncodeTraceList(const std::vector<obs::QueryTrace>& traces) {
  std::string out;
  Writer w(&out);
  w.PutU32(static_cast<uint32_t>(traces.size()));
  for (const obs::QueryTrace& trace : traces) {
    EncodeTraceInto(w, trace);
  }
  return out;
}

Status DecodeTraceList(const std::string& payload,
                       std::vector<obs::QueryTrace>* traces) {
  Reader r(payload.data(), payload.size());
  uint32_t count = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&count));
  if (r.remaining() / kMinTraceBytes < count) {
    return Status::Corruption("truncated payload reading trace list");
  }
  traces->clear();
  traces->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    MISTIQUE_RETURN_NOT_OK(DecodeTraceInto(r, &(*traces)[i], 0));
  }
  return r.ExpectEnd();
}

std::string EncodeShardMap(const ShardMapInfo& map) {
  std::string out;
  Writer w(&out);
  w.PutU64(map.version);
  w.PutU32(map.vnodes_per_shard);
  w.PutU32(static_cast<uint32_t>(map.shards.size()));
  for (const ShardEntry& shard : map.shards) {
    w.PutU32(shard.shard_id);
    w.PutString(shard.host);
    w.PutU16(shard.port);
    w.PutU8(shard.health);
  }
  return out;
}

Status DecodeShardMap(const std::string& payload, ShardMapInfo* map) {
  // Smallest possible shard entry: u32 id + empty string (u32 len) +
  // u16 port + u8 health.
  constexpr size_t kMinShardEntryBytes = 4 + 4 + 2 + 1;
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&map->version));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&map->vnodes_per_shard));
  uint32_t count = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&count));
  if (r.remaining() / kMinShardEntryBytes < count) {
    return Status::Corruption("truncated payload reading shard map");
  }
  map->shards.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardEntry& shard = map->shards[i];
    MISTIQUE_RETURN_NOT_OK(r.GetU32(&shard.shard_id));
    MISTIQUE_RETURN_NOT_OK(r.GetString(&shard.host));
    MISTIQUE_RETURN_NOT_OK(r.GetU16(&shard.port));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&shard.health));
  }
  return r.ExpectEnd();
}

std::string EncodeHealth(const HealthInfo& health) {
  std::string out;
  Writer w(&out);
  w.PutU8(health.state);
  w.PutU64(health.queued);
  w.PutU64(health.running);
  w.PutU64(health.open_sessions);
  return out;
}

Status DecodeHealth(const std::string& payload, HealthInfo* health) {
  Reader r(payload.data(), payload.size());
  MISTIQUE_RETURN_NOT_OK(r.GetU8(&health->state));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&health->queued));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&health->running));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&health->open_sessions));
  return r.ExpectEnd();
}

std::string EncodeCatalog(const CatalogInfo& catalog) {
  std::string out;
  Writer w(&out);
  w.PutU32(static_cast<uint32_t>(catalog.models.size()));
  for (const CatalogModel& model : catalog.models) {
    w.PutString(model.project);
    w.PutString(model.model);
    w.PutU8(model.kind);
    w.PutU32(static_cast<uint32_t>(model.intermediates.size()));
    for (const CatalogIntermediate& interm : model.intermediates) {
      w.PutString(interm.name);
      w.PutU32(static_cast<uint32_t>(interm.stage_index));
      w.PutU64(interm.num_rows);
      w.PutStringVec(interm.columns);
    }
  }
  return out;
}

Status DecodeCatalog(const std::string& payload, CatalogInfo* catalog) {
  // Smallest model: two empty strings + kind + intermediate count.
  constexpr size_t kMinModelBytes = 4 + 4 + 1 + 4;
  // Smallest intermediate: empty name + stage + rows + column count.
  constexpr size_t kMinIntermBytes = 4 + 4 + 8 + 4;
  Reader r(payload.data(), payload.size());
  uint32_t model_count = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&model_count));
  if (r.remaining() / kMinModelBytes < model_count) {
    return Status::Corruption("truncated payload reading catalog");
  }
  catalog->models.resize(model_count);
  for (uint32_t m = 0; m < model_count; ++m) {
    CatalogModel& model = catalog->models[m];
    MISTIQUE_RETURN_NOT_OK(r.GetString(&model.project));
    MISTIQUE_RETURN_NOT_OK(r.GetString(&model.model));
    MISTIQUE_RETURN_NOT_OK(r.GetU8(&model.kind));
    uint32_t interm_count = 0;
    MISTIQUE_RETURN_NOT_OK(r.GetU32(&interm_count));
    if (r.remaining() / kMinIntermBytes < interm_count) {
      return Status::Corruption("truncated payload reading catalog model");
    }
    model.intermediates.resize(interm_count);
    for (uint32_t i = 0; i < interm_count; ++i) {
      CatalogIntermediate& interm = model.intermediates[i];
      MISTIQUE_RETURN_NOT_OK(r.GetString(&interm.name));
      uint32_t stage = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&stage));
      interm.stage_index = static_cast<int32_t>(stage);
      MISTIQUE_RETURN_NOT_OK(r.GetU64(&interm.num_rows));
      MISTIQUE_RETURN_NOT_OK(r.GetStringVec(&interm.columns));
    }
  }
  return r.ExpectEnd();
}

}  // namespace wire
}  // namespace mistique
