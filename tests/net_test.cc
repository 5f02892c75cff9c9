// Serving-layer tests: wire-protocol encode/decode safety (round-trips,
// fuzzed garbage, truncation, CRC flips), the TCP server front-end
// (handshake rejection, overload backpressure, graceful drain), and the
// client library (timeouts, reconnect backoff, restart survival).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "nn/cifar.h"
#include "obs/flight_recorder.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "raw_frame.h"
#include "service/query_service.h"
#include "test_util.h"

namespace mistique {
namespace {

// ---------------------------------------------------------------------
// Wire protocol: pure encode/decode, no sockets.
// ---------------------------------------------------------------------

TEST(WireTest, PrimitiveRoundTrip) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF64(-1234.5678);
  const std::string with_nul("he\0llo", 6);  // embedded NUL survives
  w.PutString(with_nul);
  w.PutU64Vec({1, 2, 3});
  w.PutF64Vec({0.5, -0.25});
  w.PutStringVec({"a", "", "ccc"});

  wire::Reader r(buf.data(), buf.size());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string s;
  std::vector<uint64_t> u64v;
  std::vector<double> f64v;
  std::vector<std::string> sv;
  ASSERT_OK(r.GetU8(&u8));
  ASSERT_OK(r.GetU16(&u16));
  ASSERT_OK(r.GetU32(&u32));
  ASSERT_OK(r.GetU64(&u64));
  ASSERT_OK(r.GetF64(&f64));
  ASSERT_OK(r.GetString(&s));
  ASSERT_OK(r.GetU64Vec(&u64v));
  ASSERT_OK(r.GetF64Vec(&f64v));
  ASSERT_OK(r.GetStringVec(&sv));
  ASSERT_OK(r.ExpectEnd());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(f64, -1234.5678);
  EXPECT_EQ(s, with_nul);
  EXPECT_EQ(u64v, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(f64v, (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(sv, (std::vector<std::string>{"a", "", "ccc"}));
}

TEST(WireTest, ReaderRejectsTruncationAtEveryPrefix) {
  std::string buf;
  wire::Writer w(&buf);
  w.PutU64Vec({7, 8, 9});
  w.PutString("tail");
  // Every strict prefix must fail cleanly, never read OOB or allocate
  // from a partial length field.
  for (size_t len = 0; len < buf.size(); ++len) {
    wire::Reader r(buf.data(), len);
    std::vector<uint64_t> v;
    std::string s;
    Status st = r.GetU64Vec(&v);
    if (st.ok()) st = r.GetString(&s);
    EXPECT_FALSE(st.ok()) << "prefix " << len << " decoded";
  }
}

TEST(WireTest, VectorCountCannotTriggerGiantAllocation) {
  // A u32 count of ~1 billion with only 4 bytes of payload behind it:
  // the reader must reject before allocating count * 8 bytes.
  std::string buf;
  wire::Writer w(&buf);
  w.PutU32(0x3FFFFFFF);
  w.PutU32(0x12345678);  // "data"
  wire::Reader r(buf.data(), buf.size());
  std::vector<uint64_t> v;
  EXPECT_FALSE(r.GetU64Vec(&v).ok());
  EXPECT_TRUE(v.empty());
}

TEST(WireTest, FetchRequestRoundTrip) {
  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  req.columns = {"pred", "other"};
  req.n_ex = 42;
  req.row_ids = {5, 9, 11};
  req.force_read = true;
  req.sample_fraction = 0.25;

  const std::string payload = wire::EncodeFetchRequest(77, req);
  uint64_t session = 0;
  FetchRequest out;
  ASSERT_OK(wire::DecodeFetchRequest(payload, &session, &out));
  EXPECT_EQ(session, 77u);
  EXPECT_EQ(out.project, req.project);
  EXPECT_EQ(out.model, req.model);
  EXPECT_EQ(out.intermediate, req.intermediate);
  EXPECT_EQ(out.columns, req.columns);
  EXPECT_EQ(out.n_ex, req.n_ex);
  EXPECT_EQ(out.row_ids, req.row_ids);
  ASSERT_TRUE(out.force_read.has_value());
  EXPECT_TRUE(*out.force_read);
  EXPECT_DOUBLE_EQ(out.sample_fraction, 0.25);

  // The tri-state force_read: unset and false must survive too.
  req.force_read.reset();
  FetchRequest out2;
  ASSERT_OK(wire::DecodeFetchRequest(wire::EncodeFetchRequest(1, req),
                                     &session, &out2));
  EXPECT_FALSE(out2.force_read.has_value());
  req.force_read = false;
  FetchRequest out3;
  ASSERT_OK(wire::DecodeFetchRequest(wire::EncodeFetchRequest(1, req),
                                     &session, &out3));
  ASSERT_TRUE(out3.force_read.has_value());
  EXPECT_FALSE(*out3.force_read);
}

TEST(WireTest, FetchResultRoundTrip) {
  FetchResult result;
  result.column_names = {"c0", "c1"};
  result.columns = {{1.5, 2.5, 3.5}, {-1, -2, -3}};
  result.row_ids = {10, 20, 30};
  result.used_read = true;
  result.from_cache = true;
  result.fetch_seconds = 0.125;
  result.predicted_read_sec = 0.5;
  result.predicted_rerun_sec = 2.0;
  result.materialized_now = true;

  FetchResult out;
  ASSERT_OK(wire::DecodeFetchResult(wire::EncodeFetchResult(result), &out));
  EXPECT_EQ(out.column_names, result.column_names);
  EXPECT_EQ(out.columns, result.columns);
  EXPECT_EQ(out.row_ids, result.row_ids);
  EXPECT_EQ(out.used_read, result.used_read);
  EXPECT_EQ(out.from_cache, result.from_cache);
  EXPECT_DOUBLE_EQ(out.fetch_seconds, result.fetch_seconds);
  EXPECT_EQ(out.materialized_now, result.materialized_now);
}

TEST(WireTest, ScanRoundTrip) {
  ScanRequest req;
  req.project = "p";
  req.model = "m";
  req.intermediate = "i";
  req.predicate_column = "col";
  req.lo = -2.5;
  req.hi = 1e18;
  req.columns = {"a"};
  uint64_t session = 0;
  ScanRequest req_out;
  ASSERT_OK(wire::DecodeScanRequest(wire::EncodeScanRequest(9, req), &session,
                                    &req_out));
  EXPECT_EQ(session, 9u);
  EXPECT_EQ(req_out.predicate_column, "col");
  EXPECT_DOUBLE_EQ(req_out.lo, -2.5);
  EXPECT_DOUBLE_EQ(req_out.hi, 1e18);

  ScanResult result;
  result.row_ids = {1, 4, 6};
  result.column_names = {"a"};
  result.columns = {{0.1, 0.2, 0.3}};
  result.blocks_scanned = 12;
  result.blocks_pruned = 7;
  ScanResult out;
  ASSERT_OK(wire::DecodeScanResult(wire::EncodeScanResult(result), &out));
  EXPECT_EQ(out.row_ids, result.row_ids);
  EXPECT_EQ(out.columns, result.columns);
  EXPECT_EQ(out.blocks_scanned, 12u);
  EXPECT_EQ(out.blocks_pruned, 7u);
}

// The result payloads are frozen by bytes, not only by round trip: the
// hex below is what the per-byte encoder produced before vectors became
// raw blocks, so any codec change that moves a byte fails here even if it
// still decodes its own output. The values cover what a byte-order or
// float-canonicalization slip would change: -0.0, NaN payloads (quiet and
// signalling), denormals, infinities, an empty column and empty row ids.

double DoubleFromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

std::string BytesFromHex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Bitwise equality, so NaNs compare by payload and -0.0 != 0.0.
void ExpectSameBits(const std::vector<std::vector<double>>& a,
                    const std::vector<std::vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].size(), b[c].size()) << "column " << c;
    if (a[c].empty()) continue;
    EXPECT_EQ(std::memcmp(a[c].data(), b[c].data(),
                          a[c].size() * sizeof(double)),
              0)
        << "column " << c;
  }
}

TEST(WireTest, ResultEncodingsMatchGoldenBytes) {
  FetchResult fetch;
  fetch.column_names = {"x", "", "nan"};
  fetch.columns = {{-0.0, 1.5, std::numeric_limits<double>::denorm_min(),
                    -std::numeric_limits<double>::infinity()},
                   {},
                   {DoubleFromBits(0x7ff8000000000123ull),
                    DoubleFromBits(0xfff4000000000001ull)}};
  fetch.used_read = true;
  fetch.from_cache = false;
  fetch.fetch_seconds = 0.25;
  fetch.predicted_read_sec = -0.0;
  fetch.predicted_rerun_sec = DoubleFromBits(0x000fffffffffffffull);
  fetch.materialized_now = true;
  const std::string fetch_golden = BytesFromHex(
      "03000000010000007800000000030000006e616e030000000400000000000000"
      "00000080000000000000f83f0100000000000000000000000000f0ff00000000"
      "02000000230100000000f87f010000000000f4ff000000000100000000000000"
      "d03f0000000000000080ffffffffffff0f0001");
  ASSERT_EQ(fetch_golden.size(), 115u);
  EXPECT_EQ(wire::EncodeFetchResult(fetch), fetch_golden);
  FetchResult fetch_out;
  ASSERT_OK(wire::DecodeFetchResult(fetch_golden, &fetch_out));
  EXPECT_EQ(fetch_out.column_names, fetch.column_names);
  ExpectSameBits(fetch_out.columns, fetch.columns);
  EXPECT_TRUE(fetch_out.row_ids.empty());
  EXPECT_TRUE(fetch_out.used_read);
  EXPECT_FALSE(fetch_out.from_cache);
  EXPECT_TRUE(fetch_out.materialized_now);
  ExpectSameBits({{fetch_out.fetch_seconds, fetch_out.predicted_read_sec,
                   fetch_out.predicted_rerun_sec}},
                 {{fetch.fetch_seconds, fetch.predicted_read_sec,
                   fetch.predicted_rerun_sec}});
  EXPECT_OK(wire::CheckFetchResult(fetch_golden));

  ScanResult scan;
  scan.row_ids = {0, 7, 0xFFFFFFFFFFFFFFFFull};
  scan.column_names = {"s", "empty"};
  scan.columns = {{DoubleFromBits(0x8000000000000001ull),
                   DoubleFromBits(0x7ff0000000000001ull), 3.0},
                  {}};
  scan.blocks_scanned = 5;
  scan.blocks_pruned = 0x0102030405060708ull;
  const std::string scan_golden = BytesFromHex(
      "0300000000000000000000000700000000000000ffffffffffffffff02000000"
      "010000007305000000656d707479020000000300000001000000000000800100"
      "00000000f07f0000000000000840000000000500000000000000080706050403"
      "0201");
  ASSERT_EQ(scan_golden.size(), 98u);
  EXPECT_EQ(wire::EncodeScanResult(scan), scan_golden);
  ScanResult scan_out;
  ASSERT_OK(wire::DecodeScanResult(scan_golden, &scan_out));
  EXPECT_EQ(scan_out.row_ids, scan.row_ids);
  EXPECT_EQ(scan_out.column_names, scan.column_names);
  ExpectSameBits(scan_out.columns, scan.columns);
  EXPECT_EQ(scan_out.blocks_scanned, 5u);
  EXPECT_EQ(scan_out.blocks_pruned, 0x0102030405060708ull);
  EXPECT_EQ(wire::kProtocolVersion, 1);
}

TEST(WireTest, StatsRoundTrip) {
  ServiceStats stats;
  stats.submitted = 1;
  stats.rejected = 2;
  stats.completed = 3;
  stats.expired = 4;
  stats.failed = 5;
  stats.queued = 6;
  stats.running = 7;
  stats.cache_hits = 8;
  stats.cache_lookups = 9;
  stats.bytes_read = 10;
  stats.corruptions_detected = 11;
  stats.partitions_healed = 12;
  stats.abandoned = 13;
  stats.draining = true;
  stats.p50_latency_sec = 0.5;
  stats.p95_latency_sec = 0.95;
  stats.open_sessions = 14;

  ServiceStats out;
  ASSERT_OK(wire::DecodeStats(wire::EncodeStats(stats), &out));
  EXPECT_EQ(out.submitted, 1u);
  EXPECT_EQ(out.rejected, 2u);
  EXPECT_EQ(out.completed, 3u);
  EXPECT_EQ(out.expired, 4u);
  EXPECT_EQ(out.failed, 5u);
  EXPECT_EQ(out.cache_hits, 8u);
  EXPECT_EQ(out.bytes_read, 10u);
  EXPECT_EQ(out.corruptions_detected, 11u);
  EXPECT_EQ(out.partitions_healed, 12u);
  EXPECT_EQ(out.abandoned, 13u);
  EXPECT_TRUE(out.draining);
  EXPECT_DOUBLE_EQ(out.p95_latency_sec, 0.95);
  EXPECT_EQ(out.open_sessions, 14u);
}

TEST(WireTest, ErrorMappingPreservesOverloaded) {
  // kResourceExhausted <-> kOverloaded is the backpressure contract.
  const Status overload = Status::ResourceExhausted("queue full");
  EXPECT_EQ(wire::WireErrorFromStatus(overload),
            static_cast<uint16_t>(wire::WireError::kOverloaded));
  const Status back = wire::DecodeError(wire::EncodeError(overload));
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(back.message().find("queue full"), std::string::npos);

  // Ordinary codes survive numerically.
  const Status nf = Status::NotFound("no such model");
  const Status nf_back = wire::DecodeError(wire::EncodeError(nf));
  EXPECT_EQ(nf_back.code(), StatusCode::kNotFound);
}

TEST(WireTest, FrameRoundTripAndPartialDelivery) {
  std::string buf;
  wire::AppendFrame(&buf, wire::MsgType::kFetchReq, 42, "payload-bytes");
  wire::AppendFrame(&buf, wire::MsgType::kPingReq, 43, "");

  // Every strict prefix of the first frame: "need more", not an error.
  const size_t first_len = buf.size() - wire::kFrameOverhead;  // ping is empty
  for (size_t len = 0; len < first_len; ++len) {
    wire::Frame f;
    size_t consumed = 99;
    ASSERT_OK(wire::ParseFrame(buf.data(), len, &f, &consumed));
    EXPECT_EQ(consumed, 0u) << "prefix " << len;
  }

  // Full buffer: two frames back to back.
  wire::Frame f1, f2;
  size_t consumed1 = 0, consumed2 = 0;
  ASSERT_OK(wire::ParseFrame(buf.data(), buf.size(), &f1, &consumed1));
  ASSERT_GT(consumed1, 0u);
  EXPECT_EQ(f1.type, wire::MsgType::kFetchReq);
  EXPECT_EQ(f1.request_id, 42u);
  EXPECT_EQ(f1.payload, "payload-bytes");
  ASSERT_OK(wire::ParseFrame(buf.data() + consumed1, buf.size() - consumed1,
                             &f2, &consumed2));
  EXPECT_EQ(f2.type, wire::MsgType::kPingReq);
  EXPECT_EQ(f2.request_id, 43u);
  EXPECT_EQ(consumed1 + consumed2, buf.size());
}

TEST(WireTest, EveryByteFlipIsDetected) {
  std::string buf;
  wire::AppendFrame(&buf, wire::MsgType::kFetchReq, 7, "abcdefgh");
  for (size_t i = 4; i < buf.size(); ++i) {  // skip the length prefix
    std::string bad = buf;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    wire::Frame f;
    size_t consumed = 0;
    const Status st = wire::ParseFrame(bad.data(), bad.size(), &f, &consumed);
    // A flip inside the CRC-covered region (or the CRC itself) must
    // never yield a successfully parsed frame.
    EXPECT_FALSE(st.ok() && consumed > 0) << "flip at byte " << i;
  }
}

TEST(WireTest, LengthFieldCorruptionIsSafe) {
  std::string buf;
  wire::AppendFrame(&buf, wire::MsgType::kPingReq, 1, "");
  // Oversized declared length: rejected outright (kOutOfRange), because
  // waiting for 4GB that never arrives is also a failure mode.
  std::string huge = buf;
  huge[0] = static_cast<char>(0xFF);
  huge[1] = static_cast<char>(0xFF);
  huge[2] = static_cast<char>(0xFF);
  huge[3] = static_cast<char>(0x7F);
  wire::Frame f;
  size_t consumed = 0;
  EXPECT_FALSE(wire::ParseFrame(huge.data(), huge.size(), &f, &consumed).ok());

  // Undersized (below header+crc minimum): corruption.
  std::string tiny = buf;
  tiny[0] = 2;
  tiny[1] = tiny[2] = tiny[3] = 0;
  EXPECT_FALSE(wire::ParseFrame(tiny.data(), tiny.size(), &f, &consumed).ok());
}

TEST(WireTest, FuzzedGarbageNeverParses) {
  // Deterministic LCG: garbage buffers must either ask for more bytes or
  // fail typed — never crash, never return a parsed frame whose CRC the
  // generator did not actually compute (2^-32 per trial; with 400 trials
  // the test is effectively deterministic).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  for (int trial = 0; trial < 400; ++trial) {
    std::string buf(static_cast<size_t>(next()) + 1, '\0');
    for (char& c : buf) c = static_cast<char>(next());
    wire::Frame f;
    size_t consumed = 0;
    const Status st = wire::ParseFrame(buf.data(), buf.size(), &f, &consumed);
    EXPECT_FALSE(st.ok() && consumed > 0) << "trial " << trial;
  }
}

TEST(WireTest, FuzzedPayloadDecodersNeverCrash) {
  uint64_t state = 0xDEADBEEFCAFEF00Dull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string payload(static_cast<size_t>(next()), '\0');
    for (char& c : payload) c = static_cast<char>(next());
    uint64_t session = 0;
    FetchRequest freq;
    FetchResult fres;
    ScanRequest sreq;
    ScanResult sres;
    ServiceStats stats;
    (void)wire::DecodeFetchRequest(payload, &session, &freq);
    EXPECT_EQ(wire::CheckFetchResult(payload).ok(),
              wire::DecodeFetchResult(payload, &fres).ok());
    (void)wire::DecodeScanRequest(payload, &session, &sreq);
    (void)wire::DecodeScanResult(payload, &sres);
    (void)wire::DecodeStats(payload, &stats);
    (void)wire::DecodeError(payload);
  }
  // Truncations of a VALID encoding exercise the deep branches.
  FetchResult result;
  result.column_names = {"a", "b"};
  result.columns = {{1, 2}, {3, 4}};
  result.row_ids = {0, 1};
  const std::string good = wire::EncodeFetchResult(result);
  for (size_t len = 0; len < good.size(); ++len) {
    FetchResult out;
    EXPECT_FALSE(
        wire::DecodeFetchResult(good.substr(0, len), &out).ok())
        << "truncation at " << len;
    EXPECT_FALSE(wire::CheckFetchResult(good.substr(0, len)).ok())
        << "truncation at " << len;
  }
  // Every single-byte mutation of it: counts and lengths that grow,
  // shrink or overrun must get the same verdict from the layout walk a
  // router relays by as from the decoder a client uses.
  for (size_t pos = 0; pos < good.size(); ++pos) {
    for (const uint8_t mask : {0x01, 0x02, 0x80, 0xFF}) {
      std::string mutated = good;
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
      FetchResult out;
      EXPECT_EQ(wire::CheckFetchResult(mutated).ok(),
                wire::DecodeFetchResult(mutated, &out).ok())
          << "byte " << pos << " ^ " << static_cast<int>(mask);
    }
  }
}

// The PR 6/PR 5 frame families (shard map, health, catalog, metrics,
// traces) get the same treatment as the original payloads: a round-trip
// through a fully-populated value, then truncation at every byte of the
// valid encoding — every strict prefix must fail typed, never crash or
// decode a partial value as success.

wire::ShardMapInfo SampleShardMap() {
  wire::ShardMapInfo map;
  map.version = 42;
  map.vnodes_per_shard = 16;
  map.shards.resize(3);
  for (uint32_t i = 0; i < 3; ++i) {
    map.shards[i].shard_id = i;
    map.shards[i].host = "127.0.0.1";
    map.shards[i].port = static_cast<uint16_t>(7451 + i);
    map.shards[i].health = static_cast<uint8_t>(i);  // up/suspect/down
  }
  return map;
}

wire::CatalogInfo SampleCatalog() {
  wire::CatalogInfo catalog;
  catalog.models.resize(2);
  catalog.models[0].project = "zillow";
  catalog.models[0].model = "P1_v0";
  catalog.models[0].kind = 0;
  catalog.models[0].intermediates.resize(2);
  catalog.models[0].intermediates[0].name = "train_merged";
  catalog.models[0].intermediates[0].stage_index = 3;
  catalog.models[0].intermediates[0].num_rows = 4096;
  catalog.models[0].intermediates[0].columns = {"logerror", "taxamount"};
  catalog.models[0].intermediates[1].name = "pred";
  catalog.models[0].intermediates[1].stage_index = 7;
  catalog.models[0].intermediates[1].num_rows = 4096;
  catalog.models[0].intermediates[1].columns = {"pred"};
  catalog.models[1].project = "cifar";
  catalog.models[1].model = "ckpt_e0";
  catalog.models[1].kind = 1;
  return catalog;
}

obs::QueryTrace SampleTrace() {
  obs::QueryTrace trace(99, "fetch zillow.P1_v0.pred");
  trace.est_read_sec = 0.25;
  trace.est_rerun_sec = 4.5;
  trace.strategy = "read";
  trace.cache_hit = false;
  trace.materialized_now = true;
  trace.mispredicted = true;
  trace.queue_wait_sec = 0.001;
  trace.total_sec = 0.3;
  trace.AddEvent("disk_read", 0, 0.01, 0.2, 8192);
  trace.AddEvent("decompress", 1, 0.05, 0.1, 65536);
  trace.Accumulate("dedup_resolve", 0.02, 512);
  return trace;
}

TEST(WireTest, ShardMapHealthCatalogMetricsTraceRoundTrip) {
  const wire::ShardMapInfo map = SampleShardMap();
  wire::ShardMapInfo map_out;
  ASSERT_OK(wire::DecodeShardMap(wire::EncodeShardMap(map), &map_out));
  EXPECT_EQ(map_out.version, 42u);
  EXPECT_EQ(map_out.vnodes_per_shard, 16u);
  ASSERT_EQ(map_out.shards.size(), 3u);
  EXPECT_EQ(map_out.shards[2].shard_id, 2u);
  EXPECT_EQ(map_out.shards[2].host, "127.0.0.1");
  EXPECT_EQ(map_out.shards[2].port, 7453);
  EXPECT_EQ(map_out.shards[2].health, 2);

  wire::HealthInfo health;
  health.state = 1;
  health.queued = 11;
  health.running = 4;
  health.open_sessions = 7;
  wire::HealthInfo health_out;
  ASSERT_OK(wire::DecodeHealth(wire::EncodeHealth(health), &health_out));
  EXPECT_EQ(health_out.state, 1);
  EXPECT_EQ(health_out.queued, 11u);
  EXPECT_EQ(health_out.running, 4u);
  EXPECT_EQ(health_out.open_sessions, 7u);

  const wire::CatalogInfo catalog = SampleCatalog();
  wire::CatalogInfo catalog_out;
  ASSERT_OK(wire::DecodeCatalog(wire::EncodeCatalog(catalog), &catalog_out));
  ASSERT_EQ(catalog_out.models.size(), 2u);
  EXPECT_EQ(catalog_out.models[0].project, "zillow");
  ASSERT_EQ(catalog_out.models[0].intermediates.size(), 2u);
  EXPECT_EQ(catalog_out.models[0].intermediates[0].columns,
            (std::vector<std::string>{"logerror", "taxamount"}));
  EXPECT_EQ(catalog_out.models[0].intermediates[1].stage_index, 7);
  EXPECT_EQ(catalog_out.models[1].kind, 1);
  EXPECT_TRUE(catalog_out.models[1].intermediates.empty());

  const std::string exposition = "mistique_fetch_total 3\n# HELP x y\n";
  std::string text_out;
  ASSERT_OK(
      wire::DecodeMetricsText(wire::EncodeMetricsText(exposition), &text_out));
  EXPECT_EQ(text_out, exposition);

  const obs::QueryTrace trace = SampleTrace();
  std::vector<obs::QueryTrace> traces_out;
  ASSERT_OK(wire::DecodeTraceList(wire::EncodeTraceList({trace}),
                                  &traces_out));
  ASSERT_EQ(traces_out.size(), 1u);
  const obs::QueryTrace& trace_out = traces_out[0];
  EXPECT_EQ(trace_out.trace_id, 99u);
  EXPECT_EQ(trace_out.description, trace.description);
  EXPECT_DOUBLE_EQ(trace_out.est_read_sec, 0.25);
  EXPECT_DOUBLE_EQ(trace_out.est_rerun_sec, 4.5);
  EXPECT_EQ(trace_out.strategy, "read");
  EXPECT_TRUE(trace_out.materialized_now);
  EXPECT_TRUE(trace_out.mispredicted);
  ASSERT_EQ(trace_out.events().size(), 2u);
  EXPECT_EQ(trace_out.events()[1].name, "decompress");
  EXPECT_EQ(trace_out.events()[1].depth, 1u);
  EXPECT_EQ(trace_out.events()[1].bytes, 65536u);
  ASSERT_EQ(trace_out.stage_totals().size(), 1u);
  EXPECT_EQ(trace_out.stage_totals()[0].name, "dedup_resolve");
}

TEST(WireTest, NewPayloadsRejectTruncationAtEveryByte) {
  FetchResult fetch;
  fetch.column_names = {"pred", "score"};
  fetch.columns = {{0.5, -1.25, 3.0}, {}};
  fetch.row_ids = {4, 8, 15};
  const std::string encodings[] = {
      wire::EncodeShardMap(SampleShardMap()),
      wire::EncodeHealth(wire::HealthInfo{1, 11, 4, 7}),
      wire::EncodeCatalog(SampleCatalog()),
      wire::EncodeMetricsText("mistique_fetch_total 3\n"),
      wire::EncodeTraceList({SampleTrace()}),
      wire::EncodeFetchResult(fetch),
  };
  const char* names[] = {"shardmap", "health",     "catalog",
                         "metrics",  "trace",      "fetch-check"};
  ASSERT_OK(wire::CheckFetchResult(encodings[5]));
  for (size_t which = 0; which < std::size(encodings); ++which) {
    const std::string& good = encodings[which];
    ASSERT_FALSE(good.empty()) << names[which];
    for (size_t len = 0; len < good.size(); ++len) {
      const std::string prefix = good.substr(0, len);
      Status st;
      switch (which) {
        case 0: {
          wire::ShardMapInfo out;
          st = wire::DecodeShardMap(prefix, &out);
          break;
        }
        case 1: {
          wire::HealthInfo out;
          st = wire::DecodeHealth(prefix, &out);
          break;
        }
        case 2: {
          wire::CatalogInfo out;
          st = wire::DecodeCatalog(prefix, &out);
          break;
        }
        case 3: {
          std::string out;
          st = wire::DecodeMetricsText(prefix, &out);
          break;
        }
        case 4: {
          std::vector<obs::QueryTrace> out;
          st = wire::DecodeTraceList(prefix, &out);
          break;
        }
        case 5: {
          st = wire::CheckFetchResult(prefix);
          FetchResult out;
          EXPECT_EQ(st.ok(), wire::DecodeFetchResult(prefix, &out).ok());
          break;
        }
      }
      EXPECT_FALSE(st.ok())
          << names[which] << " decoded a truncation at byte " << len << "/"
          << good.size();
    }
  }
}

TEST(WireTest, TracedEnvelopePayloadsRejectTruncationAtEveryByte) {
  wire::TraceContext ctx;
  ctx.trace_id = 0x1122334455667788ull;
  ctx.parent_span_id = 0x99;
  ctx.sampled = true;
  const obs::QueryTrace trace = SampleTrace();
  std::vector<obs::QueryTrace> list;
  list.push_back(trace);
  list.push_back(trace);

  const std::string encodings[] = {
      wire::EncodeTracedRequest(ctx, wire::MsgType::kFetchReq, "inner"),
      wire::EncodeTracedResponse(wire::MsgType::kFetchResp, "body", &trace),
      wire::EncodeTraceQuery(7),
      wire::EncodeTraceList(list),
  };
  const char* names[] = {"traced_req", "traced_resp", "trace_query",
                         "trace_list"};
  for (size_t which = 0; which < 4; ++which) {
    const std::string& good = encodings[which];
    ASSERT_FALSE(good.empty()) << names[which];
    for (size_t len = 0; len < good.size(); ++len) {
      const std::string prefix = good.substr(0, len);
      Status st;
      switch (which) {
        case 0: {
          wire::TraceContext c;
          auto t = wire::MsgType::kErrorResp;
          std::string p;
          st = wire::DecodeTracedRequest(prefix, &c, &t, &p);
          break;
        }
        case 1: {
          auto t = wire::MsgType::kErrorResp;
          std::string p;
          bool has = false;
          obs::QueryTrace tr;
          st = wire::DecodeTracedResponse(prefix, &t, &p, &has, &tr);
          break;
        }
        case 2: {
          uint32_t max = 0;
          st = wire::DecodeTraceQuery(prefix, &max);
          break;
        }
        case 3: {
          std::vector<obs::QueryTrace> out;
          st = wire::DecodeTraceList(prefix, &out);
          break;
        }
      }
      EXPECT_FALSE(st.ok())
          << names[which] << " decoded a truncation at byte " << len << "/"
          << good.size();
    }
  }
}

/// The frames that carry trace trees (kTracedResp, kTraceDumpResp,
/// kSlowLogResp) keep their exact bytes, including each node's zeroed
/// 17-byte reserved slot. The hex below is what the encoder wrote while
/// the slot still held the result summary of the retired frame 17.
TEST(WireTest, TraceEncodingsMatchGoldenBytes) {
  obs::QueryTrace root(0x0102030405060708ull, "router fetch");
  root.node = "router";
  root.parent_span_id = 42;
  root.sampled = true;
  root.strategy = "forward";
  root.total_sec = 0.5;
  root.materialized_now = true;
  root.AddEvent("forward s0", 0, 0.0, 0.5, 0);
  obs::QueryTrace child(0x0102030405060708ull, "z.m.i");
  child.node = "shard0";
  child.parent_span_id = 9001;
  child.sampled = true;
  child.strategy = "read";
  child.est_read_sec = 0.25;
  child.est_rerun_sec = 4.5;
  child.queue_wait_sec = 0.001;
  child.total_sec = 0.375;
  child.mispredicted = true;
  child.AddEvent("read", 1, 0.125, 0.25, 64);
  child.Accumulate("decode", 0.0625, 2048);
  root.children.push_back(child);
  const std::string traced_golden = BytesFromHex(
      "08030000006162630108070605040302010c000000726f757465722066657463"
      "6807000000666f7277617264000000000000f0bf000000000000f0bf00000000"
      "00000000000000000000e03f02010000000a000000666f727761726420733000"
      "0000000000000000000000000000000000e03f00000000000000000000000000"
      "0000000000000000000000000000000006000000726f757465722a0000000000"
      "000001010000000807060504030201050000007a2e6d2e690400000072656164"
      "000000000000d03f0000000000001240fca9f1d24d62503f000000000000d83f"
      "0401000000040000007265616401000000000000000000c03f000000000000d0"
      "3f400000000000000001000000060000006465636f6465010000000000000000"
      "0000000000b03f00080000000000000000000000000000000000000000000000"
      "0600000073686172643029230000000000000100000000");
  ASSERT_EQ(traced_golden.size(), 343u);
  EXPECT_EQ(wire::EncodeTracedResponse(wire::MsgType::kFetchResp, "abc",
                                       &root),
            traced_golden);
  wire::MsgType inner = wire::MsgType::kErrorResp;
  std::string body;
  bool has_trace = false;
  obs::QueryTrace got;
  ASSERT_OK(wire::DecodeTracedResponse(traced_golden, &inner, &body,
                                       &has_trace, &got));
  EXPECT_EQ(inner, wire::MsgType::kFetchResp);
  EXPECT_EQ(body, "abc");
  ASSERT_TRUE(has_trace);
  EXPECT_EQ(got.parent_span_id, 42u);
  ASSERT_EQ(got.children.size(), 1u);
  EXPECT_EQ(got.children[0].node, "shard0");
  EXPECT_EQ(got.children[0].stage_totals()[0].bytes, 2048u);

  std::vector<obs::QueryTrace> list;
  list.emplace_back(1, "first");
  list.back().node = "shard-a";
  list.emplace_back(2, "second");
  list.back().sampled = true;
  list.back().cache_hit = true;
  list.back().strategy = "session-cache";
  list.back().total_sec = 0.2;
  const std::string list_golden = BytesFromHex(
      "02000000010000000000000005000000666972737400000000000000000000f0"
      "bf000000000000f0bf0000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000700000073686172642d610000"
      "00000000000000000000000200000000000000060000007365636f6e640d0000"
      "0073657373696f6e2d6361636865000000000000f0bf000000000000f0bf0000"
      "0000000000009a9999999999c93f010000000000000000000000000000000000"
      "00000000000000000000000000000000000000000100000000");
  ASSERT_EQ(list_golden.size(), 217u);
  EXPECT_EQ(wire::EncodeTraceList(list), list_golden);
  std::vector<obs::QueryTrace> list_out;
  ASSERT_OK(wire::DecodeTraceList(list_golden, &list_out));
  ASSERT_EQ(list_out.size(), 2u);
  EXPECT_EQ(list_out[0].node, "shard-a");
  EXPECT_EQ(list_out[1].strategy, "session-cache");
  EXPECT_TRUE(list_out[1].cache_hit);
}

TEST(WireTest, NewMsgTypesAreValidAndFuzzSafe) {
  for (uint8_t t = static_cast<uint8_t>(wire::MsgType::kMetricsReq);
       t <= static_cast<uint8_t>(wire::MsgType::kSlowLogResp); ++t) {
    EXPECT_TRUE(wire::IsValidMsgType(t)) << "type " << int{t};
  }
  EXPECT_FALSE(wire::IsValidMsgType(0));
  EXPECT_FALSE(wire::IsValidMsgType(
      static_cast<uint8_t>(wire::MsgType::kSlowLogResp) + 1));

  // Same LCG-garbage discipline as FuzzedPayloadDecodersNeverCrash, for
  // the decoders added since.
  uint64_t state = 0xA5A5A5A55A5A5A5Aull;
  auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint8_t>(state >> 33);
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::string payload(static_cast<size_t>(next()), '\0');
    for (char& c : payload) c = static_cast<char>(next());
    wire::ShardMapInfo map;
    wire::HealthInfo health;
    wire::CatalogInfo catalog;
    std::string text;
    obs::QueryTrace trace;
    (void)wire::DecodeShardMap(payload, &map);
    (void)wire::DecodeHealth(payload, &health);
    (void)wire::DecodeCatalog(payload, &catalog);
    (void)wire::DecodeMetricsText(payload, &text);
    wire::TraceContext ctx;
    auto inner = wire::MsgType::kErrorResp;
    std::string inner_payload;
    bool has_trace = false;
    uint32_t max = 0;
    std::vector<obs::QueryTrace> traces;
    (void)wire::DecodeTracedRequest(payload, &ctx, &inner, &inner_payload);
    (void)wire::DecodeTracedResponse(payload, &inner, &inner_payload,
                                     &has_trace, &trace);
    (void)wire::DecodeTraceQuery(payload, &max);
    (void)wire::DecodeTraceList(payload, &traces);
  }
}

TEST(WireTest, HandshakeEncodingAndVersionCheck) {
  const std::string hello = wire::EncodeHello();
  ASSERT_EQ(hello.size(), wire::kHandshakeBytes);
  ASSERT_OK(wire::DecodeHello(hello.data(), hello.size()));

  std::string bad_magic = hello;
  bad_magic[0] = 'X';
  EXPECT_EQ(wire::DecodeHello(bad_magic.data(), bad_magic.size()).code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = hello;
  bad_version[4] = static_cast<char>(wire::kProtocolVersion + 1);
  EXPECT_EQ(wire::DecodeHello(bad_version.data(), bad_version.size()).code(),
            StatusCode::kUnavailable);

  const std::string accept = wire::EncodeHelloReply(true);
  const std::string reject = wire::EncodeHelloReply(false);
  ASSERT_OK(wire::DecodeHelloReply(accept.data(), accept.size()));
  EXPECT_FALSE(wire::DecodeHelloReply(reject.data(), reject.size()).ok());
}

// ---------------------------------------------------------------------
// Server + client over real loopback sockets.
// ---------------------------------------------------------------------

/// Parks service workers inside pre_execute_hook until opened (same
/// pattern as service_test).
class WorkerGate {
 public:
  std::function<void()> Hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(m_);
      arrived_++;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void AwaitParked(int n) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  int arrived_ = 0;
  bool open_ = false;
};

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("net");
    ZillowConfig config;
    config.num_properties = 400;
    config.num_train = 300;
    config.num_test = 100;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));

    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 64;
    ASSERT_OK(mq_.Open(opts));
    ASSERT_OK_AND_ASSIGN(pipeline_, BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq_.LogPipeline(pipeline_.get(), "zillow").status());
    ASSERT_OK(mq_.Flush());
  }

  /// Service + server with the given knobs; stores them in members.
  void StartServer(QueryServiceOptions service_options = {},
                   net::ServerOptions server_options = {}) {
    service_ = std::make_unique<QueryService>(&mq_, service_options);
    server_ = std::make_unique<net::Server>(service_.get(), server_options);
    ASSERT_OK(server_->Start());
  }

  net::ClientOptions ClientOpts() {
    net::ClientOptions options;
    options.port = server_->port();
    options.backoff_initial_sec = 0.01;
    options.backoff_max_sec = 0.05;
    return options;
  }

  FetchRequest FetchReq(uint64_t n_ex = 16) {
    FetchRequest req;
    req.project = "zillow";
    req.model = "P1_v0";
    req.intermediate = "pred_test";
    req.force_read = true;
    req.n_ex = n_ex;
    return req;
  }

  std::unique_ptr<TempDir> dir_;
  Mistique mq_;
  std::unique_ptr<Pipeline> pipeline_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<net::Server> server_;
};

TEST_F(NetTest, RemoteFetchMatchesInProcessBytes) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(FetchResult ref, mq_.Fetch(FetchReq()));

  net::Client client(ClientOpts());
  ASSERT_OK_AND_ASSIGN(FetchResult remote, client.Fetch(FetchReq()));
  EXPECT_EQ(remote.column_names, ref.column_names);
  EXPECT_EQ(remote.columns, ref.columns);  // identical doubles, bit for bit
  EXPECT_EQ(remote.row_ids, ref.row_ids);
  EXPECT_EQ(remote.used_read, ref.used_read);
}

TEST_F(NetTest, RemoteScanMatchesInProcess) {
  StartServer();
  ScanRequest scan;
  scan.project = "zillow";
  scan.model = "P1_v0";
  scan.intermediate = "train_merged";
  scan.predicate_column = "taxamount";
  scan.lo = 0;
  scan.hi = 1e9;
  ASSERT_OK_AND_ASSIGN(ScanResult ref, mq_.Scan(scan));
  ASSERT_FALSE(ref.row_ids.empty());

  net::Client client(ClientOpts());
  ASSERT_OK_AND_ASSIGN(ScanResult remote, client.Scan(scan));
  EXPECT_EQ(remote.row_ids, ref.row_ids);
  EXPECT_EQ(remote.columns, ref.columns);
}

TEST_F(NetTest, RemoteTraceScanCarriesStagesAndSummary) {
  // A quantized DNN store so the scan runs the packed kernels; the trace
  // an enveloped scan brings back must show the scan_packed stage
  // (docs/SCAN.md).
  TempDir qdir("net_tracescan");
  Mistique qmq;
  {
    CifarConfig config;
    config.num_examples = 96;
    const CifarData data = GenerateCifar(config);
    auto input = std::make_shared<Tensor>(data.images);
    MistiqueOptions opts;
    opts.store.directory = qdir.path() + "/store";
    opts.strategy = StorageStrategy::kDedup;
    opts.row_block_size = 32;
    opts.dnn_scheme = QuantScheme::kKBit;
    opts.kbits = 4;
    ASSERT_OK(qmq.Open(opts));
    DnnScaleConfig scale;
    scale.cnn_scale = 0.2;
    auto net = BuildCifarCnn(scale);
    ASSERT_OK(qmq.LogNetwork(net.get(), input, "cifar", "cnn").status());
    ASSERT_OK(qmq.Flush());
  }
  QueryService qservice(&qmq, {});
  net::Server qserver(&qservice, {});
  ASSERT_OK(qserver.Start());

  ScanRequest scan;
  scan.project = "cifar";
  scan.model = "cnn";
  scan.intermediate = "layer7";
  scan.predicate_column = "n0";
  scan.lo = -1e30;
  scan.hi = 1e30;
  ASSERT_OK_AND_ASSIGN(ScanResult ref, qmq.Scan(scan));
  ASSERT_EQ(ref.row_ids.size(), 96u);

  net::ClientOptions copts;
  copts.port = qserver.port();
  net::Client client(copts);
  client.SetTraceContext({obs::NewTraceId(), 0, true});
  ASSERT_OK_AND_ASSIGN(ScanResult remote, client.Scan(scan));
  std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
  client.ClearTraceContext();
  EXPECT_EQ(remote.row_ids.size(), ref.row_ids.size());
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->description, "cifar.cnn.layer7 scan(n0)");
  EXPECT_GT(trace->total_sec, 0.0);
  // The compressed-domain kernel stage survived the wire round-trip.
  EXPECT_GT(trace->StageSeconds("scan_packed"), 0.0);
  EXPECT_EQ(trace->StageSeconds("scan_decode"), 0.0);
  qserver.Stop();
}

TEST_F(NetTest, TracedFetchEnvelopeReturnsTraceAndIdenticalBytes) {
  obs::FlightRecorderOptions ropts;
  ropts.sample_rate = 0.0;         // only explicit envelopes carry traces
  ropts.slow_threshold_sec = 0.0;  // slow log off
  obs::FlightRecorder recorder(ropts);
  QueryServiceOptions sopts;
  sopts.flight_recorder = &recorder;
  StartServer(sopts);
  ASSERT_OK_AND_ASSIGN(FetchResult ref, mq_.Fetch(FetchReq()));

  net::Client client(ClientOpts());
  const uint64_t trace_id = obs::NewTraceId();
  client.SetTraceContext({trace_id, 42, true});
  ASSERT_OK_AND_ASSIGN(FetchResult traced, client.Fetch(FetchReq()));
  std::optional<obs::QueryTrace> trace = client.TakeLastTrace();
  client.ClearTraceContext();

  // Tracing must not perturb results: bit-identical to the plain path.
  EXPECT_EQ(traced.column_names, ref.column_names);
  EXPECT_EQ(traced.columns, ref.columns);
  EXPECT_EQ(traced.row_ids, ref.row_ids);

  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->trace_id, trace_id);
  EXPECT_EQ(trace->parent_span_id, 42u);
  EXPECT_EQ(trace->node, "store");
  EXPECT_TRUE(trace->sampled);
  EXPECT_GT(trace->total_sec, 0.0);
  EXPECT_FALSE(trace->events().empty());

  // The hop also recorded itself into its flight recorder, already
  // hung under the caller's span.
  const std::vector<obs::QueryTrace> dump = recorder.Dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_EQ(dump[0].trace_id, trace_id);
  EXPECT_EQ(dump[0].parent_span_id, 42u);

  // Context cleared: the next call rides plain frames, no trace left.
  ASSERT_OK(client.Fetch(FetchReq(17)).status());
  EXPECT_FALSE(client.TakeLastTrace().has_value());
}

TEST_F(NetTest, TraceDumpAndSlowLogTravelOverWire) {
  obs::FlightRecorderOptions ropts;
  ropts.sample_rate = 0.0;
  ropts.slow_threshold_sec = 1e-9;  // every query qualifies as slow
  obs::FlightRecorder recorder(ropts);
  QueryServiceOptions sopts;
  sopts.flight_recorder = &recorder;
  StartServer(sopts);

  net::Client client(ClientOpts());
  client.SetTraceContext({obs::NewTraceId(), 0, true});
  ASSERT_OK(client.Fetch(FetchReq(16)).status());
  ASSERT_OK(client.Fetch(FetchReq(32)).status());
  client.ClearTraceContext();

  ASSERT_OK_AND_ASSIGN(std::vector<obs::QueryTrace> dump,
                       client.TraceDump(0));
  ASSERT_GE(dump.size(), 2u);
  for (const obs::QueryTrace& t : dump) {
    EXPECT_EQ(t.node, "store");
    EXPECT_TRUE(t.sampled);
    EXPECT_NE(t.trace_id, 0u);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<obs::QueryTrace> one, client.TraceDump(1));
  EXPECT_EQ(one.size(), 1u);

  ASSERT_OK_AND_ASSIGN(std::vector<obs::QueryTrace> slow, client.SlowLog(0));
  ASSERT_GE(slow.size(), 2u);
  for (size_t i = 1; i < slow.size(); ++i) {
    EXPECT_GE(slow[i - 1].total_sec, slow[i].total_sec);
  }
}

TEST_F(NetTest, RetiredTraceFramesGetAnErrorAndCloseTheConnection) {
  StartServer();
  net::Client good(ClientOpts());
  ASSERT_OK(good.Fetch(FetchReq()).status());
  // 16 / 17 / 24 were the one-hop trace frames; the numbers stay
  // reserved and land on the handler's unexpected-type path.
  for (const uint8_t retired : {16, 17, 24}) {
    const RawExchange exchange =
        ExchangeRawFrame(server_->port(), static_cast<wire::MsgType>(retired),
                         wire::EncodeFetchRequest(1, FetchReq()));
    ASSERT_TRUE(exchange.answered) << int{retired};
    EXPECT_EQ(exchange.type, wire::MsgType::kErrorResp) << int{retired};
    EXPECT_TRUE(exchange.closed) << int{retired};
    // Other connections keep serving.
    EXPECT_OK(good.Fetch(FetchReq(8)).status());
  }
}

TEST_F(NetTest, ErrorsTravelTyped) {
  StartServer();
  net::Client client(ClientOpts());
  FetchRequest bad = FetchReq();
  bad.model = "no_such_model";
  const Status st = client.Fetch(bad).status();
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
}

TEST_F(NetTest, StatsRpcExposesServiceCounters) {
  StartServer();
  net::Client client(ClientOpts());
  ASSERT_OK(client.Fetch(FetchReq()).status());
  ASSERT_OK_AND_ASSIGN(ServiceStats stats, client.Stats());
  EXPECT_GE(stats.completed, 1u);
  EXPECT_GE(stats.open_sessions, 1u);
  EXPECT_EQ(stats.corruptions_detected, 0u);
  EXPECT_FALSE(stats.draining);
}

TEST_F(NetTest, ConcurrentClientsSeeIsolatedSessionsAndIdenticalData) {
  StartServer();
  ASSERT_OK_AND_ASSIGN(FetchResult ref, mq_.Fetch(FetchReq()));

  constexpr int kClients = 6;
  constexpr int kIters = 20;
  std::atomic<int> mismatches{0};
  std::mutex session_mutex;
  std::vector<SessionId> session_ids;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      net::Client client(ClientOpts());
      for (int i = 0; i < kIters; ++i) {
        auto result = client.Fetch(FetchReq());
        if (!result.ok() ||
            result.ValueOrDie().columns != ref.columns) {
          mismatches++;
        }
      }
      std::lock_guard<std::mutex> lock(session_mutex);
      session_ids.push_back(client.session_id());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every connection got its own server-side session.
  std::sort(session_ids.begin(), session_ids.end());
  EXPECT_EQ(std::unique(session_ids.begin(), session_ids.end()),
            session_ids.end());
  EXPECT_NE(session_ids.front(), 0u);
}

TEST_F(NetTest, VersionMismatchHandshakeRejected) {
  StartServer();
  // Raw socket: future-version client.
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string hello = wire::EncodeHello();
  hello[4] = static_cast<char>(wire::kProtocolVersion + 7);
  ASSERT_EQ(send(fd, hello.data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));

  // The server answers with a reject reply, then closes.
  char reply[wire::kHandshakeBytes];
  size_t got = 0;
  while (got < sizeof(reply)) {
    const ssize_t n = recv(fd, reply + got, sizeof(reply) - got, 0);
    ASSERT_GT(n, 0) << "server closed before sending a reject reply";
    got += static_cast<size_t>(n);
  }
  EXPECT_EQ(wire::DecodeHelloReply(reply, sizeof(reply)).code(),
            StatusCode::kUnavailable);
  char extra;
  EXPECT_EQ(recv(fd, &extra, 1, 0), 0);  // EOF: connection closed
  close(fd);

  // The server is still healthy for well-versioned clients.
  net::Client client(ClientOpts());
  EXPECT_OK(client.Ping());
}

TEST_F(NetTest, GarbageBytesCloseConnectionNotServer) {
  StartServer();
  net::Client good(ClientOpts());
  ASSERT_OK(good.Ping());

  for (int trial = 0; trial < 8; ++trial) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // Garbage straight into the handshake; on later trials, a valid
    // handshake followed by a garbage frame.
    std::string bytes(64, '\0');
    for (size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<char>((trial * 131 + i * 31) & 0xFF);
    }
    if (trial % 2 == 1) bytes = wire::EncodeHello() + bytes;
    (void)send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    // Drain whatever the server sends until it closes our end.
    char sink[256];
    while (recv(fd, sink, sizeof(sink), 0) > 0) {
    }
    close(fd);
  }
  // Still serving.
  EXPECT_OK(good.Ping());
  EXPECT_GE(server_->Stats().protocol_errors, 4u);
}

TEST_F(NetTest, OverloadSurfacesAsResourceExhausted) {
  WorkerGate gate;
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.max_queue = 1;
  service_options.session_cache_entries = 0;
  service_options.pre_execute_hook = gate.Hook();
  StartServer(service_options);

  // First fetch occupies the lone (parked) worker.
  std::thread t1([&] {
    net::Client client(ClientOpts());
    EXPECT_OK(client.Fetch(FetchReq()).status());
  });
  gate.AwaitParked(1);

  // Second fetch fills the queue (slot freed only when the gate opens).
  std::thread t2([&] {
    net::Client client(ClientOpts());
    EXPECT_OK(client.Fetch(FetchReq()).status());
  });
  while (service_->Stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Third fetch: admission rejects, the wire says kOverloaded, the
  // client surfaces kResourceExhausted — connection stays usable.
  net::Client client(ClientOpts());
  const Status st = client.Fetch(FetchReq()).status();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_TRUE(client.connected());

  gate.Open();
  t1.join();
  t2.join();
  EXPECT_OK(client.Fetch(FetchReq()).status());
  EXPECT_GE(service_->Stats().rejected, 1u);
}

TEST_F(NetTest, RequestTimeoutSurfacesAsDeadlineExceeded) {
  WorkerGate gate;
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.session_cache_entries = 0;
  service_options.pre_execute_hook = gate.Hook();
  StartServer(service_options);

  net::ClientOptions options = ClientOpts();
  options.request_timeout_sec = 0.25;
  options.max_reconnect_attempts = 0;
  net::Client client(options);
  const Status st = client.Fetch(FetchReq()).status();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // The connection was dropped to resynchronize the stream.
  EXPECT_FALSE(client.connected());
  gate.Open();
}

TEST_F(NetTest, ReconnectBackoffGivesUpThenRecovers) {
  StartServer();
  const uint16_t port = server_->port();
  server_->Stop();
  server_.reset();  // No listener: connections now refused.

  net::ClientOptions options;
  options.port = port;
  options.connect_timeout_sec = 0.5;
  options.max_reconnect_attempts = 2;
  options.backoff_initial_sec = 0.01;
  options.backoff_max_sec = 0.02;
  net::Client client(options);
  const Status st = client.Ping();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_EQ(client.failed_attempts(), 2u);

  // Server comes back on the same port: the same client recovers.
  net::ServerOptions server_options;
  server_options.port = port;
  StartServer({}, server_options);
  EXPECT_OK(client.Ping());
}

TEST_F(NetTest, ClientSurvivesServerRestartMidSession) {
  StartServer();
  const uint16_t port = server_->port();

  net::ClientOptions options = ClientOpts();
  options.connect_timeout_sec = 0.5;
  net::Client client(options);
  ASSERT_OK(client.Fetch(FetchReq()).status());
  const SessionId old_session = client.session_id();
  ASSERT_NE(old_session, 0u);

  // Restart: the old session is gone with the old process state.
  server_->Stop();
  server_.reset();
  service_.reset();
  net::ServerOptions server_options;
  server_options.port = port;
  StartServer({}, server_options);

  // Same client object, same request: reconnect + reopen is transparent.
  ASSERT_OK_AND_ASSIGN(FetchResult result, client.Fetch(FetchReq()));
  EXPECT_FALSE(result.columns.empty());
  EXPECT_GE(client.reconnects(), 1u);
  EXPECT_NE(client.session_id(), 0u);
}

TEST_F(NetTest, StopDrainsInFlightWorkBeforeClosing) {
  WorkerGate gate;
  QueryServiceOptions service_options;
  service_options.num_workers = 1;
  service_options.session_cache_entries = 0;
  service_options.pre_execute_hook = gate.Hook();
  net::ServerOptions server_options;
  server_options.drain_deadline_sec = 10;
  StartServer(service_options, server_options);

  // A fetch that is mid-execution when Stop() begins.
  std::optional<Status> fetch_status;
  std::thread t1([&] {
    net::Client client(ClientOpts());
    fetch_status = client.Fetch(FetchReq()).status();
  });
  gate.AwaitParked(1);

  std::thread stopper([&] { server_->Stop(); });
  // Give Stop() time to enter the drain, then release the worker: the
  // response must still reach the client through the draining server.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Open();
  stopper.join();
  t1.join();
  ASSERT_TRUE(fetch_status.has_value());
  EXPECT_OK(*fetch_status);
  EXPECT_EQ(service_->Stats().abandoned, 0u);
}

// ---------------------------------------------------------------------
// QueryService::Drain semantics (no sockets).
// ---------------------------------------------------------------------

TEST_F(NetTest, DrainRejectsNewWorkAndReportsAbandoned) {
  WorkerGate gate;
  QueryServiceOptions options;
  options.num_workers = 1;
  options.session_cache_entries = 0;
  options.pre_execute_hook = gate.Hook();
  QueryService service(&mq_, options);
  const SessionId session = service.OpenSession();

  std::thread t1([&] {
    // Parked in the worker; finishes once the gate opens, after the
    // drain deadline has already passed.
    (void)service.Fetch(session, FetchReq());
  });
  gate.AwaitParked(1);

  const uint64_t abandoned = service.Drain(/*deadline_sec=*/0.1);
  EXPECT_EQ(abandoned, 1u);
  EXPECT_TRUE(service.Stats().draining);

  // Post-drain admissions bounce with kUnavailable.
  const Status st = service.Fetch(session, FetchReq()).status();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();

  gate.Open();
  t1.join();
  EXPECT_EQ(service.Stats().abandoned, 1u);
}

TEST_F(NetTest, DrainWithIdleServiceReturnsImmediately) {
  QueryService service(&mq_, {});
  const SessionId session = service.OpenSession();
  ASSERT_OK(service.Fetch(session, FetchReq()).status());
  EXPECT_EQ(service.Drain(/*deadline_sec=*/5), 0u);
  EXPECT_TRUE(service.Stats().draining);
}

}  // namespace
}  // namespace mistique
