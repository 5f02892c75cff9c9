// obs_overhead — cost of the observability layer on the fetch hot path.
//
// Measures per-call latency of engine fetches (forced read, warm buffer
// pool — the hottest path, where every instrumented site fires: fetch
// counters, lock-wait spans, dedup-resolve/decode accumulators, pool-hit
// counters) with the obs runtime switch ON vs OFF. The OFF baseline still
// pays one relaxed load + branch per site; building with
// -DMISTIQUE_OBS_DISABLED=ON compiles even that out. Blocks of the two
// modes are interleaved so clock drift and cache warmup hit both equally.
//
// Acceptance target (ISSUE/EXPERIMENTS.md): enabled p50 within 2% of
// disabled p50.
//
// Knobs: MQ_EXAMPLES (default 256), MQ_ITERS (paired rounds, default 40),
// MQ_BLOCK (fetches per timed pass, default 45).
//
// MQ_FLIGHTREC=1 measures the flight-recorder path instead: the ON pass
// adds the per-request sampling draw plus span capture + Record() for
// the sampled slice (MQ_SAMPLE_RATE, default 0.01) on top of the obs
// runtime; the OFF pass is the plain fetch. This is the CI obs-smoke
// gate: always-on retrospection must stay under the same 2% budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/mistique.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace mistique;         // NOLINT: bench brevity.
using namespace mistique::bench;  // NOLINT

namespace {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  return v[idx];
}

}  // namespace

int main() {
  const int num_examples = EnvInt("MQ_EXAMPLES", 256);
  const size_t iters = static_cast<size_t>(EnvInt("MQ_ITERS", 40));
  const size_t block = static_cast<size_t>(EnvInt("MQ_BLOCK", 45));
  const bool flightrec = EnvInt("MQ_FLIGHTREC", 0) != 0;
  const double sample_rate = EnvInt("MQ_SAMPLE_RATE_PCT", 1) / 100.0;

  BenchDir dir("obs_overhead");
  CifarConfig data_config;
  data_config.num_examples = num_examples;
  CifarData data = GenerateCifar(data_config);
  auto input = std::make_shared<Tensor>(data.images);

  DnnScaleConfig scale;
  scale.vgg_scale = 0.05;
  scale.cnn_scale = 0.2;
  auto net = BuildCifarCnn(scale);

  MistiqueOptions options;
  options.store.directory = dir.path() + "/store";
  options.strategy = StorageStrategy::kDedup;
  options.row_block_size = 64;
  Mistique mq;
  CheckOk(mq.Open(options), "open");
  const ModelId id =
      CheckOk(mq.LogNetwork(net.get(), input, "cifar", "cnn"), "log");
  CheckOk(mq.Flush(), "flush");

  const ModelInfo* model = CheckOk(mq.metadata().GetModel(id), "model");
  std::vector<FetchRequest> requests;
  for (const IntermediateInfo& interm : model->intermediates) {
    FetchRequest req;
    req.project = "cifar";
    req.model = "cnn";
    req.intermediate = interm.name;
    req.force_read = true;
    req.n_ex = static_cast<uint64_t>(num_examples) / 2;
    requests.push_back(std::move(req));
  }

  // Warm the buffer pool so both modes measure the in-memory path.
  for (const FetchRequest& req : requests) {
    CheckOk(mq.Fetch(req), "warm fetch");
  }

  std::printf("# obs_overhead: %zu paired rounds, %zu fetches/pass, "
              "%zu layers, %d examples (obs compiled %s%s)\n",
              iters, block, requests.size(), num_examples,
              obs::kCompiledIn ? "in" : "OUT",
              flightrec ? ", flight recorder mode" : "");

  // Flight-recorder mode: the ON pass pays the per-request sampling draw
  // and, for the sampled slice, a span-traced fetch recorded into a
  // bounded ring — exactly what a serving node does for plain traffic.
  obs::FlightRecorderOptions recorder_options;
  recorder_options.sample_rate = sample_rate;
  obs::FlightRecorder recorder(recorder_options);

  // One sample = one timed pass over every layer (identical work in both
  // modes). Each round times an ON pass and an OFF pass back to back, in
  // alternating order, and records the paired ratio — the pairing cancels
  // frequency-scaling and cache drift that per-fetch timings cannot.
  const auto run_pass = [&](bool enabled) {
    if (!flightrec) obs::SetEnabled(enabled);
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < block; ++i) {
      const FetchRequest& req = requests[i % requests.size()];
      if (flightrec && enabled && recorder.Sample()) {
        obs::QueryTrace trace(obs::NewTraceId(), "bench fetch");
        trace.sampled = true;
        {
          obs::TraceScope scope(&trace);
          CheckOk(mq.Fetch(req), "fetch");
        }
        trace.total_sec = trace.Elapsed();
        recorder.Record(std::move(trace));
      } else {
        CheckOk(mq.Fetch(req), "fetch");
      }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  run_pass(true);  // warm both code paths once more before measuring
  run_pass(false);

  std::vector<double> on_samples, off_samples, ratios;
  for (size_t round = 0; round < iters; ++round) {
    double on_sec = 0, off_sec = 0;
    if (round % 2 == 0) {
      on_sec = run_pass(true);
      off_sec = run_pass(false);
    } else {
      off_sec = run_pass(false);
      on_sec = run_pass(true);
    }
    on_samples.push_back(on_sec);
    off_samples.push_back(off_sec);
    if (off_sec > 0) ratios.push_back(on_sec / off_sec);
  }
  obs::SetEnabled(true);

  const double per_fetch = 1e6 / static_cast<double>(block);
  const double on_p50 = Quantile(on_samples, 0.50);
  const double off_p50 = Quantile(off_samples, 0.50);
  const double overhead_pct = (Quantile(ratios, 0.50) - 1.0) * 100.0;

  std::printf("%12s %14s\n", "mode", "p50_us/fetch");
  std::printf("%12s %14.2f\n", "obs_on", on_p50 * per_fetch);
  std::printf("%12s %14.2f\n", "obs_off", off_p50 * per_fetch);
  std::printf("p50 overhead (median paired ratio): %+.2f%% (target < 2%%)\n",
              overhead_pct);
  return 0;
}
