#ifndef PERFBENCH_DRIVER_REPLAY_H_
#define PERFBENCH_DRIVER_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "core/mistique.h"

namespace perfbench {

/// One stored chunk a fetch reads, and the partition holding it.
struct ChunkLoc {
  mistique::ChunkId chunk = 0;
  mistique::PartitionId partition = 0;
  const mistique::IntermediateInfo* interm = nullptr;
};

/// The chunks `req` reads (its columns x the RowBlocks its rows fall in),
/// resolved through the writer's catalog. Set-up/verification only.
std::vector<ChunkLoc> ChunksOf(mistique::Mistique* mq,
                               const mistique::FetchRequest& req);

/// Replays, for up to `max_partitions` of the partitions in `locs`:
/// DiskStore::ReadPartition ("storage.read_partition", work = file bytes),
/// Partition::Deserialize ("compress.deserialize", work = decoded bytes),
/// Partition::Serialize with the store's codec ("compress.serialize"), and
/// ColumnChunk::DecodeAsDouble on each chunk in it ("quantize.decode",
/// work = values).
void ReplayReads(mistique::Mistique* mq, const std::vector<ChunkLoc>& locs,
                 size_t max_partitions, Spans* spans, uint64_t op);

/// Replays ColumnChunk::DecodeAsDouble on `locs`' chunks as the buffer
/// pool holds them ("quantize.decode", work = values).
void ReplayDecode(mistique::Mistique* mq, const std::vector<ChunkLoc>& locs,
                  Spans* spans, uint64_t op);

/// Replays scan::CmpPacked on `locs`' chunks for the predicate [lo, hi],
/// translated to bins as Mistique::Scan does ("scan.cmp_packed", work =
/// values). Chunks that are not packed are skipped.
void ReplayPackedScan(mistique::Mistique* mq,
                      const std::vector<ChunkLoc>& locs, double lo, double hi,
                      Spans* spans, uint64_t op);

/// Times WriteEnvelopeFileAtomic (fsync on) of a partition-sized file in
/// the store directory, five times ("durability.sync_write").
void ReplaySyncWrite(mistique::Mistique* mq, Spans* spans);

/// Size of a file, 0 when missing.
uint64_t FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPLAY_H_
