#include "service/commit_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/expects.hpp"
#include "common/wire.hpp"
#include "policy/criticality.hpp"

namespace slacksched {

namespace {

using wire::put;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw CommitLogError(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kEveryCommit:
      return "every-commit";
  }
  return "unknown";
}

void encode_wal_record(const Job& job, int machine, TimePoint start,
                       std::vector<char>& out) {
  // Header and payload go straight into `out`; the CRC is patched in once
  // the payload bytes are in place.
  const std::size_t frame = out.size();
  put(out, static_cast<std::uint32_t>(kWalPayloadBytes));
  put(out, std::uint32_t{0});  // crc, patched below
  put(out, static_cast<std::int64_t>(job.id));
  put(out, job.release);
  put(out, job.proc);
  put(out, job.deadline);
  put(out, static_cast<std::int32_t>(machine));
  put(out, static_cast<std::uint32_t>(criticality_index(job.criticality)));
  put(out, start);
  SLACKSCHED_ENSURES(out.size() - frame == kWalRecordBytes);
  wire::patch(out, frame + 4,
              wire::crc32_ieee(out.data() + frame + kWalFrameBytes,
                               kWalPayloadBytes));
}

bool wal_record_intact(const char* record) {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, record, sizeof(len));
  std::memcpy(&crc, record + 4, sizeof(crc));
  return len == kWalPayloadBytes &&
         wire::crc32_ieee(record + kWalFrameBytes, kWalPayloadBytes) == crc;
}

std::unique_ptr<CommitLog> CommitLog::open(const std::string& path,
                                           int machines,
                                           const CommitLogConfig& config,
                                           FaultInjector* faults, int shard) {
  SLACKSCHED_EXPECTS(!path.empty());
  SLACKSCHED_EXPECTS(machines >= 1);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) throw_errno("cannot open commit log", path);

  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    throw_errno("cannot seek commit log", path);
  }
  if (static_cast<std::size_t>(size) < kWalHeaderBytes) {
    // Fresh log (or a tail torn inside the header): reset and write the
    // header.
    if (::ftruncate(fd, 0) != 0) {
      ::close(fd);
      throw_errno("cannot reset commit log", path);
    }
    std::vector<char> header;
    header.insert(header.end(), kWalMagic, kWalMagic + sizeof(kWalMagic));
    put(header, kWalVersion);
    put(header, static_cast<std::uint32_t>(machines));
    SLACKSCHED_ENSURES(header.size() == kWalHeaderBytes);
    if (::write(fd, header.data(), header.size()) !=
        static_cast<ssize_t>(header.size())) {
      ::close(fd);
      throw_errno("cannot write commit log header", path);
    }
  } else {
    char header[kWalHeaderBytes];
    if (::pread(fd, header, sizeof(header), 0) !=
        static_cast<ssize_t>(sizeof(header))) {
      ::close(fd);
      throw_errno("cannot read commit log header", path);
    }
    if (std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
      ::close(fd);
      throw CommitLogError(path + ": not a commit log (bad magic)");
    }
    std::uint32_t version = 0;
    std::uint32_t header_machines = 0;
    std::memcpy(&version, header + 8, sizeof(version));
    std::memcpy(&header_machines, header + 12, sizeof(header_machines));
    if (version != kWalVersion) {
      ::close(fd);
      throw CommitLogError(path + ": unsupported commit log version " +
                           std::to_string(version));
    }
    if (header_machines != static_cast<std::uint32_t>(machines)) {
      ::close(fd);
      throw CommitLogError(path + ": commit log is for " +
                           std::to_string(header_machines) +
                           " machines, shard has " + std::to_string(machines));
    }
  }
  auto log = std::unique_ptr<CommitLog>(
      new CommitLog(path, fd, config, faults, shard));
  // The observer learns of the open last: it may throw (a stale leader
  // must not append), in which case the fresh descriptor closes with the
  // log and open() fails loudly.
  if (config.observer != nullptr) {
    config.observer->on_open(log->path(), machines, config.base_records);
  }
  return log;
}

CommitLog::CommitLog(std::string path, int fd, const CommitLogConfig& config,
                     FaultInjector* faults, int shard)
    : path_(std::move(path)),
      fd_(fd),
      config_(config),
      faults_(faults),
      shard_(shard) {
  buffer_.reserve(config_.buffer_bytes + kWalRecordBytes);
}

CommitLog::~CommitLog() {
  // Crash-consistent teardown: buffered records are lost, exactly as an
  // unflushed user-space buffer dies with a crashed process.
  if (fd_ >= 0) ::close(fd_);
}

void CommitLog::append(const Job& job, int machine, TimePoint start) {
  SLACKSCHED_EXPECTS(fd_ >= 0);
  const std::size_t offset = buffer_.size();
  encode_wal_record(job, machine, start, buffer_);
  ++records_;
  bytes_ += kWalRecordBytes;
  unsynced_ = true;
  // Snapshot the encoded frame before any flush clears the buffer: the
  // observer streams the exact bytes the file carries.
  char frame[kWalRecordBytes];
  if (config_.observer != nullptr) {
    std::memcpy(frame, buffer_.data() + offset, kWalRecordBytes);
  }
  if (config_.fsync == FsyncPolicy::kEveryCommit) {
    flush_buffer();
    fsync_now();
  } else if (buffer_.size() >= config_.buffer_bytes) {
    flush_buffer();
  }
  // Local durability first, then replication: under an ack-on-commit
  // contract this blocks until the follower holds the record too.
  if (config_.observer != nullptr) {
    config_.observer->on_record(frame, kWalRecordBytes, records_total());
  }
}

void CommitLog::sync_batch() {
  // A batch that appended nothing since the last fsync has nothing to make
  // durable: skip the syscall (a fresh log still fsyncs once, for its
  // header and whatever recovery left behind).
  if (config_.fsync == FsyncPolicy::kBatch && unsynced_) {
    flush_buffer();
    fsync_now();
  }
  if (config_.observer != nullptr) {
    config_.observer->on_batch(records_total());
  }
}

void CommitLog::sync() {
  flush_buffer();
  fsync_now();
}

void CommitLog::close() {
  SLACKSCHED_EXPECTS(fd_ >= 0);
  flush_buffer();
  if (config_.fsync != FsyncPolicy::kNever) fsync_now();
  ::close(fd_);
  fd_ = -1;
  if (config_.observer != nullptr) {
    config_.observer->on_close(records_total());
  }
}

void CommitLog::flush_buffer() {
  const char* data = buffer_.data();
  std::size_t remaining = buffer_.size();
  while (remaining > 0) {
    const ssize_t written = ::write(fd_, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot append to commit log", path_);
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  buffer_.clear();
}

void CommitLog::fsync_now() {
  SLACKSCHED_FAULT_CRASH_POINT(faults_, FaultSite::kFsync, shard_);
  if (::fsync(fd_) != 0) throw_errno("cannot fsync commit log", path_);
  ++fsyncs_;
  unsynced_ = false;
}

}  // namespace slacksched
