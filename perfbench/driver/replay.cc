// Layer replays for traced runs: the benchmark cannot see inside
// Mistique::Fetch, so it re-issues the storage, compress and quantize
// calls a fetch made — on the same partitions and chunks — and times each
// under its own span.

#include "replay.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>
#include <utility>

#include "compress/codec.h"
#include "durability/durable_file.h"
#include "scan/packed_view.h"
#include "scan/scan_kernels.h"
#include "storage/partition.h"

namespace perfbench {

using namespace mistique;  // NOLINT: driver brevity.

std::vector<ChunkLoc> ChunksOf(Mistique* mq, const FetchRequest& req) {
  std::vector<ChunkLoc> out;
  Result<ModelId> id = mq->metadata().FindModel(req.project, req.model);
  if (!id.ok()) return out;
  Result<const IntermediateInfo*> found =
      std::as_const(mq->metadata()).FindIntermediate(*id, req.intermediate);
  if (!found.ok()) return out;
  const IntermediateInfo& in = **found;
  std::vector<size_t> cols;
  if (req.columns.empty()) {
    for (size_t c = 0; c < in.columns.size(); ++c) cols.push_back(c);
  } else {
    for (const std::string& name : req.columns) {
      for (size_t c = 0; c < in.columns.size(); ++c) {
        if (in.columns[c].name == name) cols.push_back(c);
      }
    }
  }
  std::set<uint64_t> blocks;
  const uint64_t bs = std::max<uint64_t>(in.row_block_size, 1);
  if (!req.row_ids.empty()) {
    for (uint64_t r : req.row_ids) blocks.insert(r / bs);
  } else {
    const uint64_t rows = req.n_ex == 0 ? in.num_rows
                                        : std::min(in.num_rows, req.n_ex);
    for (uint64_t b = 0; b * bs < rows; ++b) blocks.insert(b);
  }
  for (size_t c : cols) {
    const ColumnInfo& col = in.columns[c];
    for (uint64_t b : blocks) {
      if (b >= col.chunks.size()) continue;
      Result<PartitionId> pid = mq->store().PartitionOf(col.chunks[b]);
      if (pid.ok()) out.push_back({col.chunks[b], *pid, &in});
    }
  }
  return out;
}

void ReplayReads(Mistique* mq, const std::vector<ChunkLoc>& locs,
                 size_t max_partitions, Spans* spans, uint64_t op) {
  std::vector<PartitionId> parts;
  for (const ChunkLoc& l : locs) {
    if (std::find(parts.begin(), parts.end(), l.partition) == parts.end()) {
      parts.push_back(l.partition);
    }
  }
  if (parts.size() > max_partitions) parts.resize(max_partitions);
  Result<const Codec*> codec = GetCodec(mq->options().store.codec);
  for (PartitionId pid : parts) {
    if (!mq->store().disk().Contains(pid)) continue;  // still open
    Result<std::vector<uint8_t>> bytes = [&] {
      Spans::Scope span(spans, "storage.read_partition", op);
      Result<std::vector<uint8_t>> b = mq->store().disk().ReadPartition(pid);
      if (b.ok()) span.set_work(static_cast<double>(b->size()));
      return b;
    }();
    if (!bytes.ok()) continue;
    Result<Partition> part = [&] {
      Spans::Scope span(spans, "compress.deserialize", op);
      Result<Partition> p = Partition::Deserialize(*bytes);
      if (p.ok()) span.set_work(static_cast<double>(p->data_bytes()));
      return p;
    }();
    if (!part.ok()) continue;
    if (codec.ok()) {
      Spans::Scope span(spans, "compress.serialize", op,
                        static_cast<double>(part->data_bytes()));
      (void)part->Serialize(**codec);
    }
    for (const ChunkLoc& l : locs) {
      if (l.partition != pid) continue;
      Result<const ColumnChunk*> chunk = part->Get(l.chunk);
      if (!chunk.ok()) continue;
      const ReconstructionTable* recon =
          l.interm->scheme == QuantScheme::kKBit ? &l.interm->recon : nullptr;
      Spans::Scope span(spans, "quantize.decode", op,
                        static_cast<double>((*chunk)->num_values()));
      (void)(*chunk)->DecodeAsDouble(recon);
    }
  }
}

void ReplayDecode(Mistique* mq, const std::vector<ChunkLoc>& locs,
                  Spans* spans, uint64_t op) {
  for (const ChunkLoc& l : locs) {
    Result<ChunkRef> ref = mq->store().GetChunk(l.chunk);
    if (!ref.ok()) continue;
    const ReconstructionTable* recon =
        l.interm->scheme == QuantScheme::kKBit ? &l.interm->recon : nullptr;
    Spans::Scope span(spans, "quantize.decode", op,
                      static_cast<double>(ref->chunk->num_values()));
    (void)ref->chunk->DecodeAsDouble(recon);
  }
}

void ReplayPackedScan(Mistique* mq, const std::vector<ChunkLoc>& locs,
                      double lo, double hi, Spans* spans, uint64_t op) {
  std::vector<uint64_t> rows;
  for (const ChunkLoc& l : locs) {
    const std::vector<double>& centers = l.interm->recon.centers;
    if (l.interm->scheme != QuantScheme::kKBit || centers.empty()) continue;
    const int64_t lo_bin =
        std::lower_bound(centers.begin(), centers.end(), lo) -
        centers.begin();
    const int64_t hi_bin =
        (std::upper_bound(centers.begin(), centers.end(), hi) -
         centers.begin()) - 1;
    Result<ChunkRef> ref = mq->store().GetChunk(l.chunk);
    if (!ref.ok() || lo_bin > hi_bin) continue;
    std::optional<scan::PackedView> view = scan::PackedView::Of(*ref->chunk);
    if (!view) continue;
    rows.clear();
    Spans::Scope span(spans, "scan.cmp_packed", op,
                      static_cast<double>(ref->chunk->num_values()));
    scan::CmpPacked(*view, static_cast<uint64_t>(lo_bin),
                    static_cast<uint64_t>(hi_bin), 0, &rows);
  }
}

void ReplaySyncWrite(Mistique* mq, Spans* spans) {
  const std::string path =
      mq->options().store.directory + "/perfbench_sync_probe.bin";
  const std::vector<uint8_t> payload(mq->options().store.partition_target_bytes,
                                     0x5a);
  for (int i = 0; i < 5; ++i) {
    Spans::Scope span(spans, "durability.sync_write", 0,
                      static_cast<double>(payload.size()));
    (void)WriteEnvelopeFileAtomic(path, payload, /*sync=*/true, "perfbench");
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

}  // namespace perfbench
