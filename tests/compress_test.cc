#include <algorithm>
#include <cstring>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/random.h"
#include "compress/codec.h"
#include "compress/lzss.h"
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
        ::testing::Values(CodecType::kNone, CodecType::kLzss),
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

TEST(LzssTest, CompressOutputIsByteStable) {
  // Sealed partitions hold this token stream, so Compress's output is part
  // of the on-disk format. The hex was recorded from the build that
  // shipped the byte-at-a-time decoder; the block-copy decoder changed no
  // byte of it.
  const std::string text =
      "MISTIQUE stores model intermediates; MISTIQUE stores model "
      "intermediates!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!! abcabcabcabcabcabc";
  const std::vector<uint8_t> input(text.begin(), text.end());
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(LzssCodec().Compress(input, &compressed));
  EXPECT_EQ(compressed,
            HexBytes("7b00000000000000004d49535449515545002073746f726573"
                     "20006d6f64656c20696e007465726d65646961407465733b20"
                     "4d2500000022002121010000001f0020616263030000000f00"));
  ASSERT_OK(LzssCodec().Decompress(compressed, &output));
  EXPECT_EQ(output, input);
}

// ------------------------------------------------- Differential decoding

// The byte-at-a-time decoder LZSS shipped with, kept as the reference the
// block-copy decoder must agree with on every stream, valid or not.
Status ReferenceDecompress(const std::vector<uint8_t>& input,
                           std::vector<uint8_t>* output) {
  ByteReader r(input);
  uint64_t out_len = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&out_len));
  const uint64_t stream = r.remaining();
  if (out_len > stream / 6 * 0xffff + stream % 6) {
    return Status::Corruption("declared length exceeds the stream");
  }
  output->clear();
  uint8_t ctrl = 0;
  int bit = 8;
  while (output->size() < out_len) {
    if (bit == 8) {
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&ctrl));
      bit = 0;
    }
    const bool is_match = (ctrl >> bit) & 1;
    bit++;
    if (is_match) {
      uint32_t distance = 0;
      uint16_t length = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&distance));
      MISTIQUE_RETURN_NOT_OK(r.GetU16(&length));
      if (distance == 0 || distance > output->size()) {
        return Status::Corruption("invalid match distance");
      }
      if (output->size() + length > out_len) {
        return Status::Corruption("match overruns declared length");
      }
      const size_t src = output->size() - distance;
      for (uint16_t k = 0; k < length; ++k) {
        output->push_back((*output)[src + k]);
      }
    } else {
      uint8_t b = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
      output->push_back(b);
    }
  }
  return Status::OK();
}

// Decodes `stream` with both decoders: the same bytes wherever the
// reference succeeds, kCorruption wherever it fails. The decoder reads a
// copy of exactly the stream's size, so a sanitizer sees any read past it.
void ExpectSameDecode(const std::vector<uint8_t>& stream,
                      const std::string& what) {
  const std::unique_ptr<uint8_t[]> exact(new uint8_t[stream.size()]);
  std::copy(stream.begin(), stream.end(), exact.get());
  std::vector<uint8_t> want, got;
  const Status ref = ReferenceDecompress(stream, &want);
  const Status st = LzssCodec().Decompress(
      std::span<const uint8_t>(exact.get(), stream.size()), &got);
  if (ref.ok()) {
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
    ASSERT_EQ(got, want) << what;
  } else {
    ASSERT_EQ(ref.code(), StatusCode::kCorruption) << what;
    ASSERT_EQ(st.code(), StatusCode::kCorruption)
        << what << ": the reference failed with " << ref.ToString();
  }
}

std::vector<uint8_t> Compressed(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> out;
  EXPECT_OK(LzssCodec().Compress(input, &out));
  return out;
}

// Random blocks, each either fresh or a copy of earlier output at a random
// distance: literal runs, short and long matches, near and far.
std::vector<uint8_t> MixedBytes(size_t n, Rng& rng) {
  std::vector<uint8_t> out;
  while (out.size() < n) {
    const size_t len = 1 + rng.NextBelow(300);
    if (out.size() > 16 && rng.Bernoulli(0.5)) {
      const size_t from = rng.NextBelow(out.size());
      for (size_t k = 0; k < len; ++k) out.push_back(out[from + k]);
    } else {
      for (size_t k = 0; k < len; ++k) {
        out.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
      }
    }
  }
  out.resize(n);
  return out;
}

// Inputs whose streams hold every token shape: random bytes (literal
// blocks), a run (a distance-1 match of 65,535 bytes), repeats whose
// distance of 1-16 is shorter than the match, and mixed blocks.
std::vector<std::vector<uint8_t>> LargeInputs(Rng& rng) {
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t n : {4096, 70000}) inputs.push_back(RandomBytes(n, rng.NextU64()));
  inputs.push_back(std::vector<uint8_t>(200000, 0x5a));
  for (size_t period = 1; period <= 16; ++period) {
    inputs.push_back(
        RepeatingBytes(1000 + rng.NextBelow(5000), period, rng.NextU64()));
  }
  inputs.push_back(MixedBytes(100000, rng));
  return inputs;
}

std::vector<std::vector<uint8_t>> SmallInputs(Rng& rng) {
  std::vector<std::vector<uint8_t>> inputs = {{}, {42}};
  for (size_t n : {7, 8, 9, 20}) inputs.push_back(RandomBytes(n, rng.NextU64()));
  inputs.push_back(std::vector<uint8_t>(40, 0));
  inputs.push_back(RepeatingBytes(45, 3, rng.NextU64()));
  inputs.push_back(MixedBytes(60, rng));
  return inputs;
}

TEST(LzssDifferentialTest, CompressedStreamsDecodeAlike) {
  TestSeed seed(20261019);
  Rng rng(seed.value());
  std::vector<std::vector<uint8_t>> inputs = LargeInputs(rng);
  for (std::vector<uint8_t>& in : SmallInputs(rng)) inputs.push_back(in);
  // Larger than the decoder presizes for: the output grows as it decodes.
  inputs.push_back(std::vector<uint8_t>(3 << 20, 0));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const std::vector<uint8_t> stream = Compressed(inputs[i]);
    ExpectSameDecode(stream, "input " + std::to_string(i));
    std::vector<uint8_t> output;
    ASSERT_OK(LzssCodec().Decompress(stream, &output));
    ASSERT_EQ(output, inputs[i]) << "input " << i;
  }
}

TEST(LzssDifferentialTest, EveryByteChangeAndTruncationOfSmallStreams) {
  TestSeed seed(20261020);
  Rng rng(seed.value());
  for (const std::vector<uint8_t>& input : SmallInputs(rng)) {
    const std::vector<uint8_t> stream = Compressed(input);
    const std::string what = std::to_string(input.size()) + "-byte input";
    for (size_t pos = 0; pos < stream.size(); ++pos) {
      for (int v = 0; v < 256; ++v) {
        if (v == stream[pos]) continue;
        std::vector<uint8_t> changed = stream;
        changed[pos] = static_cast<uint8_t>(v);
        ExpectSameDecode(changed, what + ", byte " + std::to_string(pos) +
                                      " = " + std::to_string(v));
        if (HasFatalFailure()) return;
      }
    }
    for (size_t len = 0; len < stream.size(); ++len) {
      ExpectSameDecode(std::vector<uint8_t>(stream.begin(),
                                            stream.begin() + len),
                       what + ", cut to " + std::to_string(len));
      if (HasFatalFailure()) return;
    }
    std::vector<uint8_t> extended = stream;
    extended.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
    ExpectSameDecode(extended, what + ", one trailing byte");
  }
}

TEST(LzssDifferentialTest, RandomMutationsOfLargeStreams) {
  TestSeed seed(20261021);
  Rng rng(seed.value());
  std::vector<std::vector<uint8_t>> streams;
  for (const std::vector<uint8_t>& input : LargeInputs(rng)) {
    streams.push_back(Compressed(input));
  }
  for (int round = 0; round < 2000; ++round) {
    const size_t which = rng.NextBelow(streams.size());
    std::vector<uint8_t> stream = streams[which];
    // Half the rounds hit the header and first tokens, where a change
    // moves the declared length or every later match.
    const size_t span =
        rng.Bernoulli(0.5) ? std::min<size_t>(64, stream.size()) : stream.size();
    const size_t changes = 1 + rng.NextBelow(4);
    for (size_t c = 0; c < changes; ++c) {
      stream[rng.NextBelow(span)] = static_cast<uint8_t>(rng.NextBelow(256));
    }
    if (rng.Bernoulli(0.25)) stream.resize(rng.NextBelow(stream.size() + 1));
    ExpectSameDecode(stream, "stream " + std::to_string(which) + ", round " +
                                 std::to_string(round));
    if (HasFatalFailure()) return;
  }
}

TEST(CodecRegistryTest, UnknownTagRejected) {
  EXPECT_FALSE(GetCodec(static_cast<CodecType>(250)).ok());
}

TEST(CodecRegistryTest, ReservedTagsRejected) {
  // Tags 1-3 named the deleted rle, delta and dictionary codecs.
  for (int tag = 1; tag <= 3; ++tag) {
    EXPECT_EQ(GetCodec(static_cast<CodecType>(tag)).status().code(),
              StatusCode::kInvalidArgument)
        << "tag " << tag;
  }
}

TEST(CodecRegistryTest, NamesAreStable) {
  EXPECT_STREQ(CodecTypeName(CodecType::kLzss), "lzss");
  EXPECT_STREQ(CodecTypeName(CodecType::kNone), "none");
}

}  // namespace
}  // namespace mistique
