#include <cstring>

#include "common/random.h"
#include "compress/codec.h"
#include "compress/lzss.h"
#include "compress/simple_codecs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace mistique {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

std::vector<uint8_t> RepeatingBytes(size_t n, size_t period, uint64_t seed) {
  std::vector<uint8_t> unit = RandomBytes(period, seed);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t take = std::min(period, n - out.size());
    out.insert(out.end(), unit.begin(), unit.begin() + static_cast<ptrdiff_t>(take));
  }
  return out;
}

// Parameterized round-trip: every codec must restore every data pattern.
struct CodecCase {
  CodecType codec;
  const char* pattern;
};

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<CodecType, const char*>> {};

std::vector<uint8_t> MakePattern(const std::string& name) {
  if (name == "empty") return {};
  if (name == "single") return {42};
  if (name == "zeros") return std::vector<uint8_t>(10000, 0);
  if (name == "random") return RandomBytes(20000, 1);
  if (name == "repeating") return RepeatingBytes(30000, 512, 2);
  if (name == "low_cardinality") {
    Rng rng(3);
    std::vector<uint8_t> out(15000);
    const uint8_t dict[4] = {3, 60, 61, 255};
    for (auto& b : out) b = dict[rng.NextBelow(4)];
    return out;
  }
  if (name == "ascending") {
    std::vector<uint8_t> out(5000);
    for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
    return out;
  }
  return {1, 2, 3};
}

TEST_P(CodecRoundTripTest, RoundTrips) {
  const auto [type, pattern] = GetParam();
  ASSERT_OK_AND_ASSIGN(const Codec* codec, GetCodec(type));
  const std::vector<uint8_t> input = MakePattern(pattern);
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec->Compress(input, &compressed));
  ASSERT_OK(codec->Decompress(compressed, &output));
  EXPECT_EQ(output, input) << CodecTypeName(type) << " on " << pattern;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPatterns, CodecRoundTripTest,
    ::testing::Combine(
        ::testing::Values(CodecType::kNone, CodecType::kRle,
                          CodecType::kDelta, CodecType::kDictionary,
                          CodecType::kLzss),
        ::testing::Values("empty", "single", "zeros", "random", "repeating",
                          "low_cardinality", "ascending")),
    [](const auto& info) {
      return std::string(CodecTypeName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param);
    });

TEST(LzssTest, CompressesRepeatedData) {
  // The whole-buffer window must fold a repeated 8KB block to ~nothing.
  const std::vector<uint8_t> input = RepeatingBytes(256 * 1024, 8192, 7);
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  EXPECT_LT(compressed.size(), input.size() / 10);
}

TEST(LzssTest, RandomDataDoesNotExplode) {
  const std::vector<uint8_t> input = RandomBytes(64 * 1024, 9);
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  // Worst case: 1 control byte per 8 literals + header.
  EXPECT_LT(compressed.size(), input.size() * 9 / 8 + 64);
}

TEST(LzssTest, LongRangeMatchAcrossWindow) {
  // Two identical 100KB halves separated by random filler: the second half
  // must compress as one long back-reference chain even at distance 100KB+.
  std::vector<uint8_t> half = RandomBytes(100 * 1024, 11);
  std::vector<uint8_t> input = half;
  input.insert(input.end(), half.begin(), half.end());
  LzssCodec codec;
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec.Compress(input, &compressed));
  ASSERT_OK(codec.Decompress(compressed, &output));
  EXPECT_EQ(output, input);
  EXPECT_LT(compressed.size(), half.size() * 12 / 10);
}

TEST(LzssTest, CorruptStreamIsRejected) {
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(RandomBytes(1000, 1), &compressed));
  // Truncate the stream.
  compressed.resize(compressed.size() / 2);
  std::vector<uint8_t> output;
  EXPECT_FALSE(codec.Decompress(compressed, &output).ok());
}

TEST(LzssTest, BadDistanceIsCorruption) {
  // Hand-craft a stream: declared length 4, one match token with distance 9
  // into an empty history.
  std::vector<uint8_t> stream;
  const uint64_t len = 4;
  stream.resize(8);
  std::memcpy(stream.data(), &len, 8);
  stream.push_back(0x01);  // Control: first token is a match.
  const uint32_t distance = 9;
  const uint16_t mlen = 4;
  stream.resize(stream.size() + 6);
  std::memcpy(stream.data() + 9, &distance, 4);
  std::memcpy(stream.data() + 13, &mlen, 2);
  LzssCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

TEST(LzssTest, ImpossibleDeclaredLengthIsCorruption) {
  // 9 bytes declaring 2^62 output bytes: rejected before any allocation.
  std::vector<uint8_t> stream(8);
  const uint64_t len = uint64_t{1} << 62;
  std::memcpy(stream.data(), &len, 8);
  stream.push_back(0x00);
  LzssCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

TEST(LzssTest, LongestMatchStillDecodes) {
  // The bound's edge: a literal plus one 65,535-byte match of it, 8
  // stream bytes for 65,536 output bytes.
  std::vector<uint8_t> stream(8);
  const uint64_t len = 65536;
  std::memcpy(stream.data(), &len, 8);
  stream.push_back(0x02);  // Control: a literal, then a match.
  stream.push_back(0x5a);
  const uint32_t distance = 1;
  const uint16_t mlen = 0xffff;
  stream.resize(stream.size() + 6);
  std::memcpy(stream.data() + 10, &distance, 4);
  std::memcpy(stream.data() + 14, &mlen, 2);
  LzssCodec codec;
  std::vector<uint8_t> output;
  ASSERT_OK(codec.Decompress(stream, &output));
  EXPECT_EQ(output, std::vector<uint8_t>(65536, 0x5a));
}

TEST(RleTest, CompressesRuns) {
  std::vector<uint8_t> input(100000, 7);
  RleCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  EXPECT_LT(compressed.size(), 1000u);
}

TEST(RleTest, ZeroRunIsCorruption) {
  std::vector<uint8_t> stream(8 + 2, 0);
  const uint64_t len = 5;
  std::memcpy(stream.data(), &len, 8);
  // run byte = 0 -> invalid.
  RleCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

TEST(DictionaryTest, PacksLowCardinality) {
  const std::vector<uint8_t> input = MakePattern("low_cardinality");
  DictionaryCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  // 4-bit packing: ~half the size.
  EXPECT_LT(compressed.size(), input.size() * 6 / 10);
}

TEST(DictionaryTest, FallsBackOnHighCardinality) {
  const std::vector<uint8_t> input = RandomBytes(4096, 21);
  DictionaryCodec codec;
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec.Compress(input, &compressed));
  ASSERT_OK(codec.Decompress(compressed, &output));
  EXPECT_EQ(output, input);
}

TEST(CodecRegistryTest, UnknownTagRejected) {
  EXPECT_FALSE(GetCodec(static_cast<CodecType>(250)).ok());
}

TEST(CodecRegistryTest, NamesAreStable) {
  EXPECT_STREQ(CodecTypeName(CodecType::kLzss), "lzss");
  EXPECT_STREQ(CodecTypeName(CodecType::kNone), "none");
  EXPECT_STREQ(CodecTypeName(CodecType::kRle), "rle");
  EXPECT_STREQ(CodecTypeName(CodecType::kDelta), "delta");
  EXPECT_STREQ(CodecTypeName(CodecType::kDictionary), "dictionary");
}

}  // namespace
}  // namespace mistique
