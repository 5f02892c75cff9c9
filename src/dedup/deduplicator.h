#ifndef MISTIQUE_DEDUP_DEDUPLICATOR_H_
#define MISTIQUE_DEDUP_DEDUPLICATOR_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/status.h"
#include "dedup/lsh_index.h"
#include "dedup/minhash.h"
#include "storage/data_store.h"

namespace mistique {

/// Behaviour switches for chunk placement (Sec. 4.2).
struct DedupOptions {
  /// Skip storing chunks whose content fingerprint was already stored.
  bool exact = true;
  /// Cluster similar chunks into shared partitions via MinHash/LSH.
  /// The paper enables this for TRAD pipelines and disables it for DNNs
  /// ("DNN columns seldom have similar values").
  bool similarity = true;
  /// Jaccard threshold for joining an existing cluster.
  double tau = 0.5;
  MinHashOptions minhash;
};

/// Implements MISTIQUE's write path: exact de-duplication by content hash,
/// then similarity-driven partition placement so the partition codec
/// compresses redundancy away (Alg. 4 lines 8-13).
///
/// Callers may instead pass an explicit `colocation_group`, which bypasses
/// the similarity search and co-locates all chunks of the group — the DNN
/// and import mode, where columns of one intermediate stay together.
class Deduplicator {
 public:
  /// `store` must outlive the deduplicator.
  Deduplicator(DataStore* store, DedupOptions options)
      : store_(store),
        options_(options),
        lsh_(options.minhash.num_hashes, /*num_bands=*/32) {}

  struct AddResult {
    ChunkId chunk_id = kInvalidChunkId;
    /// True when the chunk was an exact duplicate and no bytes were stored.
    bool was_duplicate = false;
    PartitionId partition = 0;
  };

  /// Stores (or dedups) one chunk. `colocation_group` = 0 means "use
  /// similarity placement"; any other value co-locates by group id.
  Result<AddResult> AddChunk(ColumnChunk chunk, uint64_t colocation_group = 0);

  /// Drops exact-dedup index entries pointing at deleted chunks, so future
  /// identical content is stored fresh instead of referencing dead ids.
  void ForgetChunks(const std::unordered_set<ChunkId>& dead);

  /// --- statistics ---
  uint64_t duplicate_chunks() const { return duplicate_chunks_; }
  uint64_t duplicate_bytes() const { return duplicate_bytes_; }
  uint64_t clusters_created() const { return next_cluster_ - 1; }

 private:
  /// Open partition that currently receives chunks for `cluster`; creates a
  /// fresh one if the previous was sealed.
  PartitionId PartitionForCluster(uint64_t cluster);

  DataStore* store_;
  DedupOptions options_;
  LshIndex lsh_;

  std::unordered_map<Fingerprint, ChunkId, FingerprintHasher> exact_index_;
  std::unordered_map<uint64_t, PartitionId> cluster_partition_;
  std::unordered_map<uint64_t, PartitionId> group_partition_;
  uint64_t next_cluster_ = 1;
  uint64_t duplicate_chunks_ = 0;
  uint64_t duplicate_bytes_ = 0;
};

}  // namespace mistique

#endif  // MISTIQUE_DEDUP_DEDUPLICATOR_H_
