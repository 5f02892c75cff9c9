#include "storage/disk_store.h"

#include <algorithm>
#include <filesystem>

#include "common/stopwatch.h"
#include "durability/durable_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mistique {

namespace fs = std::filesystem;

namespace {

// Registered from Open() (not lazily on first read) so the exposition
// lists them at zero before any buffer-pool miss happens.
obs::Counter* ReadBytesCounter() {
  static obs::Counter* counter = obs::GlobalMetrics().GetCounter(
      "mistique_disk_read_bytes_total",
      "Stored partition bytes read from disk: the frames buffer-pool "
      "misses load, whole files for vacuum and calibration.");
  return counter;
}

obs::Histogram* ReadSecondsHistogram() {
  static obs::Histogram* hist = obs::GlobalMetrics().GetHistogram(
      "mistique_disk_read_seconds",
      "Wall time of one partition read: open + pread of one frame or of a "
      "run of consecutive frames, or open + read + CRC verify of a whole "
      "file.");
  return hist;
}

}  // namespace

Status DiskStore::Open(const std::string& directory, bool sync,
                       std::vector<std::string>* warnings) {
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return Status::IoError("cannot create " + directory + ": " + ec.message());
  }
  ReadBytesCounter();
  ReadSecondsHistogram();
  directory_ = directory;
  sync_ = sync;
  sizes_.clear();
  total_bytes_ = 0;
  open_warnings_.clear();

  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();

    // Sweep temp files left by atomic writes a crash interrupted. The
    // renamed destination (if the rename happened) is complete; the temp
    // is garbage either way.
    if (name.ends_with(kTempSuffix)) {
      std::error_code rm_ec;
      fs::remove(entry.path(), rm_ec);
      open_warnings_.push_back("removed orphan temp file " + name +
                               (rm_ec ? " (failed: " + rm_ec.message() + ")"
                                      : ""));
      continue;
    }

    // Partition files are named part-<id>.mq; everything else in the
    // directory (catalog, WAL, quarantined files) is not ours to index.
    if (name.rfind("part-", 0) != 0) continue;
    const size_t dot = name.find('.', 5);
    if (dot == std::string::npos || name.substr(dot) != ".mq") {
      if (name.find(kQuarantineSuffix) == std::string::npos) {
        open_warnings_.push_back("skipped stray file " + name);
      }
      continue;
    }
    PartitionId id = 0;
    try {
      size_t parsed = 0;
      const std::string digits = name.substr(5, dot - 5);
      id = static_cast<PartitionId>(std::stoul(digits, &parsed));
      if (parsed != digits.size() || digits.empty()) {
        open_warnings_.push_back("skipped stray file " + name);
        continue;
      }
    } catch (...) {
      open_warnings_.push_back("skipped stray file " + name);
      continue;
    }

    // Structural validation without reading the payload: zero-length and
    // truncated files are skipped so a later read cannot trip over them.
    Result<uint64_t> payload = ProbeEnvelopeFile(entry.path().string());
    if (!payload.ok()) {
      open_warnings_.push_back("skipped unreadable partition file " + name +
                               ": " + payload.status().ToString());
      continue;
    }
    sizes_[id] = *payload;
    total_bytes_ += *payload;
  }
  if (ec) {
    return Status::IoError("cannot scan " + directory + ": " + ec.message());
  }
  if (warnings != nullptr) {
    warnings->insert(warnings->end(), open_warnings_.begin(),
                     open_warnings_.end());
  }
  return Status::OK();
}

std::string DiskStore::PathFor(PartitionId id) const {
  return directory_ + "/part-" + std::to_string(id) + ".mq";
}

Status DiskStore::WritePartition(PartitionId id,
                                 const std::vector<uint8_t>& bytes) {
  MISTIQUE_RETURN_NOT_OK(WritePartitionFileOnly(id, bytes));
  IndexWrittenPartition(id, bytes.size());
  return Status::OK();
}

Status DiskStore::WritePartitionFileOnly(PartitionId id,
                                         const std::vector<uint8_t>& bytes) {
  if (directory_.empty()) return Status::Internal("disk store not opened");
  return WriteEnvelopeFileAtomic(PathFor(id), bytes, sync_, "partition");
}

void DiskStore::IndexWrittenPartition(PartitionId id, uint64_t payload_bytes) {
  auto it = sizes_.find(id);
  if (it != sizes_.end()) total_bytes_ -= it->second;
  sizes_[id] = payload_bytes;
  total_bytes_ += payload_bytes;
}

Result<std::vector<uint8_t>> DiskStore::ReadPartition(PartitionId id) const {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) {
    return Status::NotFound("partition " + std::to_string(id) +
                            " not on disk");
  }
  obs::Counter* read_bytes = ReadBytesCounter();
  obs::Histogram* read_seconds = ReadSecondsHistogram();
  obs::TraceSpan span("disk_read");
  Stopwatch watch;
  Result<std::vector<uint8_t>> bytes = ReadEnvelopeFile(PathFor(id));
  read_seconds->Record(watch.ElapsedSeconds());
  if (bytes.ok()) {
    read_bytes->Add(bytes->size());
    span.set_bytes(bytes->size());
  }
  return bytes;
}

Result<std::vector<uint8_t>> DiskStore::ReadRange(PartitionId id,
                                                  uint64_t offset,
                                                  uint64_t length) const {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) {
    return Status::NotFound("partition " + std::to_string(id) +
                            " not on disk");
  }
  if (offset > it->second || length > it->second - offset) {
    return Status::Corruption("range past the end of partition " +
                              std::to_string(id));
  }
  obs::TraceSpan span("disk_read");
  Stopwatch watch;
  Result<std::vector<uint8_t>> bytes =
      ReadEnvelopeRange(PathFor(id), offset, length);
  ReadSecondsHistogram()->Record(watch.ElapsedSeconds());
  if (bytes.ok()) {
    ReadBytesCounter()->Add(bytes->size());
    span.set_bytes(bytes->size());
  }
  return bytes;
}

Result<uint64_t> DiskStore::PartitionSize(PartitionId id) const {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) {
    return Status::NotFound("partition " + std::to_string(id) +
                            " not on disk");
  }
  return it->second;
}

std::vector<PartitionId> DiskStore::ListPartitions() const {
  std::vector<PartitionId> out;
  out.reserve(sizes_.size());
  for (const auto& [id, size] : sizes_) {
    (void)size;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status DiskStore::DeletePartition(PartitionId id) {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) return Status::OK();
  std::error_code ec;
  fs::remove(PathFor(id), ec);
  if (ec) {
    return Status::IoError("cannot remove partition file: " + ec.message());
  }
  total_bytes_ -= it->second;
  sizes_.erase(it);
  return Status::OK();
}

Status DiskStore::QuarantinePartition(PartitionId id) {
  auto it = sizes_.find(id);
  if (it == sizes_.end()) return Status::OK();
  const std::string path = PathFor(id);
  std::error_code ec;
  fs::rename(path, path + kQuarantineSuffix, ec);
  if (ec) {
    // Last resort: a quarantined file must never be served again.
    std::error_code rm_ec;
    fs::remove(path, rm_ec);
    if (rm_ec) {
      return Status::IoError("cannot quarantine partition " +
                             std::to_string(id) + ": " + ec.message());
    }
  }
  total_bytes_ -= it->second;
  sizes_.erase(it);
  return Status::OK();
}

Status DiskStore::Clear() {
  for (const auto& [id, size] : sizes_) {
    (void)size;
    std::error_code ec;
    fs::remove(PathFor(id), ec);
    if (ec) return Status::IoError("cannot remove partition file: " + ec.message());
  }
  sizes_.clear();
  total_bytes_ = 0;
  return Status::OK();
}

}  // namespace mistique
