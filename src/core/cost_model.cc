#include "core/cost_model.h"

#include <algorithm>

#include "common/random.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "scan/packed_view.h"
#include "scan/scan_kernels.h"

namespace mistique {

Status CostModel::Calibrate(DataStore* store, size_t probe_bytes) {
  // Round-trip a synthetic partition: seal it, then read it cold. Gaussian
  // doubles (and the uniform bins of the second probe) do not shrink under
  // LZSS, so both probes are sealed raw and ρ_d and ρ_p time a raw read:
  // file read, CRC and chunk copy, then the decode or packed scan.
  Rng rng(123);
  const size_t n_values = probe_bytes / sizeof(double);
  std::vector<double> values(n_values);
  for (double& v : values) v = rng.Gaussian();

  const PartitionId pid = store->CreatePartition();
  MISTIQUE_ASSIGN_OR_RETURN(
      ChunkId chunk,
      store->AddChunk(pid, ColumnChunk::FromDoubles(values)));
  MISTIQUE_RETURN_NOT_OK(store->SealPartition(pid));

  // Measure the *cold* path explicitly — file read + deserialize + decode
  // — bypassing the buffer pool (ρ_d models reads that miss it).
  Stopwatch watch;
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                            store->disk().ReadPartition(pid));
  MISTIQUE_ASSIGN_OR_RETURN(Partition partition,
                            Partition::Deserialize(bytes));
  MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* cold, partition.Get(chunk));
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<double> decoded,
                            cold->DecodeAsDouble());
  const double secs = watch.ElapsedSeconds();
  (void)decoded;
  if (secs > 1e-7) {
    params_.read_bytes_per_sec = static_cast<double>(probe_bytes) / secs;
    // Exposed so estimated-vs-actual drift in traces can be read against
    // the ρ_d the estimates were computed with.
    obs::GlobalMetrics()
        .GetGauge("mistique_cost_model_read_bytes_per_sec",
                  "Calibrated rho_d (effective read bandwidth, bytes/sec) "
                  "used by Eq. 4 read-time estimates.")
        ->Set(static_cast<int64_t>(params_.read_bytes_per_sec));
  }
  // The probe is scratch data; leave no footprint behind.
  MISTIQUE_RETURN_NOT_OK(store->DropPartition(pid));

  // Second probe: ρ_p, the packed-scannable read path. Same cold
  // file read + deserialize, but the predicate runs on the packed words
  // (src/scan/) instead of dequantizing — so bytes/sec here is the rate
  // the kernels actually sustain over stored KBIT/THRESHOLD bytes.
  Rng prng(124);
  std::vector<uint8_t> bins(probe_bytes);
  for (uint8_t& b : bins) b = static_cast<uint8_t>(prng.NextBelow(256));
  const PartitionId ppid = store->CreatePartition();
  MISTIQUE_ASSIGN_OR_RETURN(ChunkId pchunk,
                            store->AddChunk(ppid, ColumnChunk::FromBins(bins)));
  MISTIQUE_RETURN_NOT_OK(store->SealPartition(ppid));
  Stopwatch pwatch;
  MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> pbytes,
                            store->disk().ReadPartition(ppid));
  MISTIQUE_ASSIGN_OR_RETURN(Partition ppartition,
                            Partition::Deserialize(pbytes));
  MISTIQUE_ASSIGN_OR_RETURN(const ColumnChunk* pcold, ppartition.Get(pchunk));
  if (auto view = scan::PackedView::Of(*pcold)) {
    std::vector<uint64_t> hits;
    scan::CmpPacked(*view, 64, 191, 0, &hits);
    const double psecs = pwatch.ElapsedSeconds();
    if (psecs > 1e-7 && !hits.empty()) {
      params_.packed_read_bytes_per_sec =
          static_cast<double>(probe_bytes) / psecs;
      obs::GlobalMetrics()
          .GetGauge("mistique_cost_model_packed_read_bytes_per_sec",
                    "Calibrated rho_p (effective packed-scan bandwidth, "
                    "bytes/sec) used for KBIT/THRESHOLD read-time "
                    "estimates.")
          ->Set(static_cast<int64_t>(params_.packed_read_bytes_per_sec));
    }
  }
  return store->DropPartition(ppid);
}

double CostModel::RerunSeconds(const ModelInfo& model,
                               const IntermediateInfo& intermediate,
                               uint64_t n_ex) const {
  if (intermediate.num_rows == 0) return 0;
  if (n_ex == 0 || n_ex > intermediate.num_rows) n_ex = intermediate.num_rows;

  if (model.kind == ModelKind::kTrad) {
    // Pipeline stages transform whole frames: re-running for any subset
    // costs the full cumulative stage time (Eq. 2 with full input).
    return intermediate.cum_exec_sec_per_ex *
           static_cast<double>(intermediate.num_rows);
  }
  // DNN (Eq. 3): fixed model load + input streaming + batched forward.
  const double input_bytes =
      static_cast<double>(n_ex) * 3.0 * 32.0 * 32.0 * sizeof(float);
  return model.model_load_sec + input_bytes / params_.input_bytes_per_sec +
         intermediate.cum_exec_sec_per_ex * static_cast<double>(n_ex);
}

double CostModel::ReadSeconds(const IntermediateInfo& intermediate,
                              uint64_t n_ex, double column_fraction) const {
  if (intermediate.num_rows == 0) return 0;
  if (n_ex == 0 || n_ex > intermediate.num_rows) n_ex = intermediate.num_rows;
  // Reads happen at RowBlock granularity.
  const uint64_t block = std::max<uint64_t>(intermediate.row_block_size, 1);
  const uint64_t rows_read =
      std::min(intermediate.num_rows, ((n_ex + block - 1) / block) * block);
  const double bytes = intermediate.stored_bytes_per_ex *
                       static_cast<double>(rows_read) *
                       std::clamp(column_fraction, 0.0, 1.0);
  const double rate = PackedScannable(intermediate)
                          ? params_.packed_read_bytes_per_sec
                          : params_.read_bytes_per_sec;
  return bytes / rate;
}

double CostModel::Gamma(const ModelInfo& model,
                        const IntermediateInfo& intermediate,
                        uint64_t estimated_bytes) const {
  if (estimated_bytes == 0) return 0;
  const double t_rerun =
      RerunSeconds(model, intermediate, intermediate.num_rows);
  // Estimate read time from the byte estimate (the intermediate may not be
  // materialized yet, so stored_bytes_per_ex may be unset).
  const double t_read =
      static_cast<double>(estimated_bytes) / params_.read_bytes_per_sec;
  if (t_rerun <= t_read) return 0;
  const double saved = t_rerun - t_read;
  return saved * static_cast<double>(intermediate.n_query) /
         (static_cast<double>(estimated_bytes) / 1e9);
}

}  // namespace mistique
