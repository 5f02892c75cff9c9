#include "durability/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "durability/crc32c.h"
#include "durability/fault_injection.h"

namespace mistique {

const char kTempSuffix[] = ".tmp";
const char kQuarantineSuffix[] = ".corrupt";

namespace {

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Writes all of `data` to `fd`, retrying short writes.
Status WriteAll(int fd, const uint8_t* data, size_t len,
                const std::string& path) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write to", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

void BuildHeader(uint64_t payload_len, uint32_t crc, uint8_t out[]) {
  ByteWriter w;
  w.PutU32(kEnvelopeMagic);
  w.PutU32(kEnvelopeVersion);
  w.PutU64(payload_len);
  w.PutU32(crc);
  std::memcpy(out, w.bytes().data(), kEnvelopeHeaderSize);
}

Status ParseHeader(const uint8_t* header, const std::string& path,
                   uint64_t* payload_len, uint32_t* crc) {
  ByteReader r(header, kEnvelopeHeaderSize);
  uint32_t magic = 0, version = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&magic));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(&version));
  MISTIQUE_RETURN_NOT_OK(r.GetU64(payload_len));
  MISTIQUE_RETURN_NOT_OK(r.GetU32(crc));
  if (magic != kEnvelopeMagic) {
    return Status::Corruption("bad envelope magic in " + path);
  }
  if (version != kEnvelopeVersion) {
    return Status::Corruption("unsupported envelope version " +
                              std::to_string(version) + " in " + path);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<uint8_t>> ReadEnvelopeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);

  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};

  uint8_t header[kEnvelopeHeaderSize];
  size_t got = 0;
  while (got < kEnvelopeHeaderSize) {
    const ssize_t n = ::read(fd, header + got, kEnvelopeHeaderSize - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read from", path);
    }
    if (n == 0) {
      return Status::Corruption("truncated envelope header in " + path);
    }
    got += static_cast<size_t>(n);
  }
  uint64_t payload_len = 0;
  uint32_t expected_crc = 0;
  MISTIQUE_RETURN_NOT_OK(
      ParseHeader(header, path, &payload_len, &expected_crc));

  std::vector<uint8_t> payload(payload_len);
  size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::read(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read from", path);
    }
    if (n == 0) {
      return Status::Corruption("envelope payload truncated in " + path);
    }
    off += static_cast<size_t>(n);
  }
  // Trailing bytes beyond the declared payload mean the file is not what
  // we wrote.
  uint8_t extra;
  if (::read(fd, &extra, 1) > 0) {
    return Status::Corruption("envelope has trailing bytes in " + path);
  }

  const uint32_t actual_crc = Crc32c(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    return Status::DataLoss("checksum mismatch in " + path + " (stored " +
                            std::to_string(expected_crc) + ", computed " +
                            std::to_string(actual_crc) + ")");
  }
  return payload;
}

Result<std::vector<uint8_t>> ReadEnvelopeRange(const std::string& path,
                                               uint64_t offset,
                                               uint64_t length) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};

  std::vector<uint8_t> bytes(length);
  const uint64_t start = kEnvelopeHeaderSize + offset;
  size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::pread(fd, bytes.data() + got, bytes.size() - got,
                              static_cast<off_t>(start + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read from", path);
    }
    if (n == 0) {
      return Status::Corruption("envelope payload truncated in " + path);
    }
    got += static_cast<size_t>(n);
  }
  return bytes;
}

Result<uint64_t> ProbeEnvelopeFile(const std::string& path) {
  std::error_code ec;
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat " + path + ": " + ec.message());
  if (file_size < kEnvelopeHeaderSize) {
    return Status::Corruption("file shorter than envelope header: " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  uint8_t header[kEnvelopeHeaderSize];
  const ssize_t n = ::read(fd, header, kEnvelopeHeaderSize);
  ::close(fd);
  if (n != static_cast<ssize_t>(kEnvelopeHeaderSize)) {
    return ErrnoError("cannot read header of", path);
  }
  uint64_t payload_len = 0;
  uint32_t crc = 0;
  MISTIQUE_RETURN_NOT_OK(ParseHeader(header, path, &payload_len, &crc));
  if (payload_len + kEnvelopeHeaderSize != file_size) {
    return Status::Corruption(
        "envelope length mismatch in " + path + " (declares " +
        std::to_string(payload_len) + " payload bytes, file holds " +
        std::to_string(file_size - kEnvelopeHeaderSize) + ")");
  }
  return payload_len;
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open directory", dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoError("cannot fsync directory", dir);
  return Status::OK();
}

Status WriteEnvelopeFileAtomic(const std::string& path,
                               const uint8_t* payload, size_t len, bool sync,
                               const char* fault_prefix) {
  const std::string prefix(fault_prefix);
  const std::string tmp = path + kTempSuffix;

  // Everything before the rename goes through `fail`, which removes the
  // temp file so no crash-free error path leaks a *.tmp.
  const auto fail = [&](Status status) {
    ::unlink(tmp.c_str());
    return status;
  };

  const int fd = ::open(tmp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("cannot create", tmp);

  uint8_t header[kEnvelopeHeaderSize];
  BuildHeader(len, Crc32c(payload, len), header);
  {
    Status st = WriteAll(fd, header, kEnvelopeHeaderSize, tmp);
    if (st.ok()) st = WriteAll(fd, payload, len, tmp);
    if (st.ok()) st = FaultInjector::Instance().Check(
        (prefix + ".tmp_written").c_str());
    if (!st.ok()) {
      ::close(fd);
      return fail(st);
    }
  }
  if (sync && ::fsync(fd) != 0) {
    const Status st = ErrnoError("cannot fsync", tmp);
    ::close(fd);
    return fail(st);
  }
  if (::close(fd) != 0) return fail(ErrnoError("cannot close", tmp));
  MISTIQUE_RETURN_NOT_OK([&] {
    Status st =
        FaultInjector::Instance().Check((prefix + ".tmp_synced").c_str());
    return st.ok() ? st : fail(st);
  }());

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail(ErrnoError("cannot rename " + tmp + " to", path));
  }
  // Past the rename the destination is complete; a crash from here on
  // loses only the directory-entry durability the final fsync provides.
  MISTIQUE_FAULT((prefix + ".renamed").c_str());
  if (sync) {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    MISTIQUE_RETURN_NOT_OK(FsyncDir(dir.empty() ? "." : dir));
  }
  return Status::OK();
}

Status WriteEnvelopeFileAtomic(const std::string& path,
                               const std::vector<uint8_t>& payload, bool sync,
                               const char* fault_prefix) {
  return WriteEnvelopeFileAtomic(path, payload.data(), payload.size(), sync,
                                 fault_prefix);
}

}  // namespace mistique
