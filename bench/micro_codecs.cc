// Micro-benchmarks (google-benchmark) for the hot storage-path primitives:
// compression codecs, MinHash signatures, float16 conversion, and k-bit
// quantization. These are the per-chunk costs behind the logging overhead
// measurements of Fig. 11.

#include <benchmark/benchmark.h>

#include "common/float16.h"
#include "common/random.h"
#include "compress/codec.h"
#include "dedup/minhash.h"
#include "quantize/quantizer.h"
#include "storage/column_chunk.h"

namespace mistique {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

std::vector<uint8_t> RepeatingBytes(size_t n, size_t period) {
  std::vector<uint8_t> unit = RandomBytes(period, 7);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t take = std::min(period, n - out.size());
    out.insert(out.end(), unit.begin(),
               unit.begin() + static_cast<ptrdiff_t>(take));
  }
  return out;
}

void BM_CodecCompress(benchmark::State& state, CodecType type,
                      bool repetitive) {
  const Codec* codec = GetCodec(type).ValueOrDie();
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input =
      repetitive ? RepeatingBytes(n, 4096) : RandomBytes(n, 3);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(input, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["ratio"] =
      static_cast<double>(n) / static_cast<double>(out.size());
}

void BM_CodecDecompress(benchmark::State& state, CodecType type) {
  const Codec* codec = GetCodec(type).ValueOrDie();
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input = RepeatingBytes(n, 4096);
  std::vector<uint8_t> compressed, out;
  (void)codec->Compress(input, &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decompress(compressed, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

BENCHMARK_CAPTURE(BM_CodecCompress, lzss_random, CodecType::kLzss, false)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, lzss_repetitive, CodecType::kLzss, true)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, rle_repetitive, CodecType::kRle, true)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecDecompress, lzss, CodecType::kLzss)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecDecompress, rle, CodecType::kRle)->Arg(1 << 20);

void BM_MinHash(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) v = rng.Gaussian();
  const ColumnChunk chunk = ColumnChunk::FromDoubles(values);
  MinHashOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMinHash(chunk, opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MinHash)->Arg(1024)->Arg(8192);

void BM_Float16RoundTrip(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> values(4096);
  for (float& v : values) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    uint32_t acc = 0;
    for (float v : values) acc += FloatToHalf(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Float16RoundTrip);

void BM_KBitQuantize(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> sample(16384), values(4096);
  for (double& v : sample) v = rng.Gaussian();
  for (double& v : values) v = rng.Gaussian();
  KBitQuantizer q(static_cast<int>(state.range(0)));
  (void)q.Fit(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Quantize(values));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_KBitQuantize)->Arg(8)->Arg(3);

void BM_PoolQuantize(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> map(32 * 32);
  for (double& v : map) v = rng.Gaussian();
  PoolQuantizer pool(static_cast<int>(state.range(0)), PoolMode::kAvg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.PoolMap(map, 32, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_PoolQuantize)->Arg(2)->Arg(32);

}  // namespace
}  // namespace mistique
