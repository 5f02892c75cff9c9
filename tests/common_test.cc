#include <cmath>
#include <limits>

#include "common/bytes.h"
#include "common/float16.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace mistique {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk gone");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk gone");
  EXPECT_EQ(s.ToString(), "IOError: disk gone");
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCorruption), "Corruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  MISTIQUE_ASSIGN_OR_RETURN(int h, Half(x));
  MISTIQUE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  ASSERT_TRUE(Quarter(8).ok());
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Quarter(5).status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Hashing

TEST(HashTest, Deterministic) {
  const char data[] = "mistique";
  EXPECT_EQ(Fnv1a64(data, 8), Fnv1a64(data, 8));
  EXPECT_NE(Fnv1a64(data, 8), Fnv1a64(data, 7));
}

TEST(HashTest, SeedChangesHash) {
  const char data[] = "abc";
  EXPECT_NE(Fnv1a64(data, 3, 1), Fnv1a64(data, 3, 2));
}

TEST(HashTest, FingerprintDistinguishesContent) {
  const std::vector<uint8_t> a{1, 2, 3, 4};
  const std::vector<uint8_t> b{1, 2, 3, 5};
  EXPECT_EQ(FingerprintBytes(a.data(), a.size()),
            FingerprintBytes(a.data(), a.size()));
  EXPECT_FALSE(FingerprintBytes(a.data(), a.size()) ==
               FingerprintBytes(b.data(), b.size()));
}

TEST(HashTest, Mix64Spreads) {
  // Nearby inputs should diverge in high bits.
  EXPECT_NE(Mix64(1) >> 32, Mix64(2) >> 32);
  // Zero is the murmur finalizer's (only) fixed point — callers that hash
  // ids always offset by +1 first.
  EXPECT_EQ(Mix64(0), 0u);
  EXPECT_NE(Mix64(1), 0u);
}

// ---------------------------------------------------------------- Float16

TEST(Float16Test, ExactSmallValues) {
  // Values exactly representable in binary16 round-trip losslessly.
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f, 65504.0f}) {
    EXPECT_EQ(HalfToFloat(FloatToHalf(v)), v) << v;
  }
}

TEST(Float16Test, Infinity) {
  EXPECT_TRUE(std::isinf(HalfToFloat(FloatToHalf(1e20f))));
  EXPECT_TRUE(std::isinf(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::infinity()))));
  EXPECT_LT(HalfToFloat(FloatToHalf(-1e20f)), 0);
}

TEST(Float16Test, NaN) {
  EXPECT_TRUE(std::isnan(
      HalfToFloat(FloatToHalf(std::numeric_limits<float>::quiet_NaN()))));
}

TEST(Float16Test, SubnormalRoundTrip) {
  const float smallest_normal = 6.103515625e-05f;  // 2^-14
  EXPECT_EQ(HalfToFloat(FloatToHalf(smallest_normal)), smallest_normal);
  const float subnormal = 5.960464477539063e-08f;  // 2^-24
  EXPECT_EQ(HalfToFloat(FloatToHalf(subnormal)), subnormal);
  // Below half-subnormal range flushes to zero.
  EXPECT_EQ(HalfToFloat(FloatToHalf(1e-9f)), 0.0f);
}

class Float16SweepTest : public ::testing::TestWithParam<int> {};

TEST_P(Float16SweepTest, RelativeErrorBounded) {
  // binary16 has 11 significand bits: relative error <= 2^-11 for normals.
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.Uniform(-1000, 1000));
    if (std::abs(v) < 1e-3) continue;
    const float r = HalfToFloat(FloatToHalf(v));
    EXPECT_LE(std::abs(r - v) / std::abs(v), 1.0 / 2048.0) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Float16SweepTest,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

// ---------------------------------------------------------------- Bytes

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU16(258);
  w.PutU32(70000);
  w.PutU64(1ull << 40);
  w.PutI64(-5);
  w.PutF32(1.5f);
  w.PutF64(-2.25);
  w.PutString("hello");
  w.PutBlob({9, 8, 7});

  ByteReader r(w.bytes());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  float f32;
  double f64;
  std::string s;
  std::span<const uint8_t> blob;
  ASSERT_OK(r.GetU8(&u8));
  ASSERT_OK(r.GetU16(&u16));
  ASSERT_OK(r.GetU32(&u32));
  ASSERT_OK(r.GetU64(&u64));
  ASSERT_OK(r.GetI64(&i64));
  ASSERT_OK(r.GetF32(&f32));
  ASSERT_OK(r.GetF64(&f64));
  ASSERT_OK(r.GetString(&s));
  ASSERT_OK(r.GetBlob(&blob));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 258);
  EXPECT_EQ(u32, 70000u);
  EXPECT_EQ(u64, 1ull << 40);
  EXPECT_EQ(i64, -5);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(std::vector<uint8_t>(blob.begin(), blob.end()),
            (std::vector<uint8_t>{9, 8, 7}));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, TruncationIsCorruption) {
  ByteWriter w;
  w.PutU32(1);
  ByteReader r(w.bytes());
  uint64_t v;
  EXPECT_EQ(r.GetU64(&v).code(), StatusCode::kCorruption);
}

TEST(BytesTest, TruncatedStringIsCorruption) {
  ByteWriter w;
  w.PutU32(100);  // Claims 100 bytes follow; none do.
  ByteReader r(w.bytes());
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace mistique
