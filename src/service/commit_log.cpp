#include "service/commit_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/expects.hpp"
#include "common/wire.hpp"

namespace slacksched {

namespace {

using wire::put;

/// Records per scan_wal read: 832 KiB, a few reads for a long history.
constexpr std::size_t kScanRecords = 16384;

std::string errno_text(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// preads `n` bytes at `offset`; returns the bytes read (fewer only at
/// the end of the file), or -1 on a read failure.
ssize_t read_at(int fd, char* out, std::size_t n, std::size_t offset) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r =
        ::pread(fd, out + got, n - got, static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kBatch:
      return "batch";
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
  put(out, start);
  SLACKSCHED_ENSURES(out.size() - frame == kWalRecordBytes);
  wire::patch(out, frame + 4,
              wire::crc32c(out.data() + frame + kWalFrameBytes,
                           kWalPayloadBytes));
}

static_assert(kWalFrameBytes == wire::kRecordFrameBytes,
              "a WAL record is framed as wire::intact_records checks");

std::size_t wal_intact_records(const char* records, std::size_t count) {
  return wire::intact_records(records, count, kWalPayloadBytes);
}

void decode_wal_record(const char* record, Job& job, int& machine,
                       TimePoint& start) {
  const char* cursor = record + kWalFrameBytes;
  job.id = static_cast<JobId>(wire::get<std::int64_t>(&cursor));
  job.release = wire::get<double>(&cursor);
  job.proc = wire::get<double>(&cursor);
  job.deadline = wire::get<double>(&cursor);
  machine = static_cast<int>(wire::get<std::int32_t>(&cursor));
  start = wire::get<double>(&cursor);
}

int open_wal(const std::string& path, int machines, WalMode mode,
             std::size_t* size, std::string* error) {
  const int flags = mode == WalMode::kAppend      ? O_RDWR | O_CREAT | O_APPEND
                    : mode == WalMode::kReadWrite ? O_RDWR
                                                  : O_RDONLY;
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  error->clear();
  if (fd < 0) {
    if (errno != ENOENT || mode == WalMode::kAppend) {
      *error = errno_text("cannot open commit log", path);
    }
    return -1;
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  char header[kWalHeaderBytes] = {};
  if (end < 0) {
    *error = errno_text("cannot seek commit log", path);
  } else if (static_cast<std::size_t>(end) < kWalHeaderBytes) {
    if (mode != WalMode::kAppend) {
      *size = static_cast<std::size_t>(end);
      return fd;
    }
    // Fresh, or torn inside the header: reset it to a fresh header. The
    // descriptor appends, so the header lands at offset 0.
    std::vector<char> fresh(kWalMagic, kWalMagic + sizeof(kWalMagic));
    put(fresh, kWalVersion);
    put(fresh, static_cast<std::uint32_t>(machines));
    if (::ftruncate(fd, 0) == 0 && write_wal(fd, fresh.data(), fresh.size())) {
      *size = kWalHeaderBytes;
      return fd;
    }
    *error = errno_text("cannot reset commit log", path);
  } else if (read_at(fd, header, kWalHeaderBytes, 0) !=
             static_cast<ssize_t>(kWalHeaderBytes)) {
    *error = errno_text("cannot read commit log header", path);
  } else {
    const char* cursor = header + sizeof(kWalMagic);
    const auto version = wire::get<std::uint32_t>(&cursor);
    const auto header_machines = wire::get<std::uint32_t>(&cursor);
    if (std::memcmp(header, kWalMagic, sizeof(kWalMagic)) != 0) {
      *error = path + ": not a commit log (bad magic)";
    } else if (version != kWalVersion) {
      *error = path + ": unsupported commit log version " +
               std::to_string(version);
    } else if (header_machines != static_cast<std::uint32_t>(machines)) {
      *error = path + ": commit log is for " +
               std::to_string(header_machines) + " machines, expected " +
               std::to_string(machines);
    } else {
      *size = static_cast<std::size_t>(end);
      return fd;
    }
  }
  ::close(fd);
  return -1;
}

std::size_t scan_wal(int fd, std::size_t size, const std::string& path,
                     const std::function<bool(const char* record)>& visit,
                     std::string* error) {
  if (size < kWalHeaderBytes) return 0;
  const std::size_t chunk =
      std::min((size - kWalHeaderBytes) / kWalRecordBytes, kScanRecords) *
      kWalRecordBytes;
  // Left uninitialised: only bytes just read are visited.
  const auto buffer = std::make_unique_for_overwrite<char[]>(chunk);
  std::size_t end = kWalHeaderBytes;
  while (end + kWalRecordBytes <= size) {
    const std::size_t want = std::min(chunk, size - end);
    const ssize_t got = read_at(fd, buffer.get(), want, end);
    if (got < 0) {
      *error = errno_text("cannot read commit log", path);
      return end;
    }
    const std::size_t whole = static_cast<std::size_t>(got) / kWalRecordBytes;
    const std::size_t intact = wal_intact_records(buffer.get(), whole);
    for (std::size_t i = 0; i < intact; ++i) {
      if (!visit(buffer.get() + i * kWalRecordBytes)) return end;
      end += kWalRecordBytes;
    }
    if (intact < whole) return end;
    if (static_cast<std::size_t>(got) < want) break;  // the file shrank
  }
  return end;
}

bool read_wal_records(int fd, std::uint64_t first, std::uint64_t count,
                      char* out) {
  const std::size_t bytes = static_cast<std::size_t>(count) * kWalRecordBytes;
  return read_at(fd, out, bytes,
                 kWalHeaderBytes +
                     static_cast<std::size_t>(first) * kWalRecordBytes) ==
         static_cast<ssize_t>(bytes);
}

bool write_wal(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0 && errno == EINTR) continue;
    if (written < 0) return false;
    data += written;
    size -= static_cast<std::size_t>(written);
  }
  return true;
}

std::unique_ptr<CommitLog> CommitLog::open(const std::string& path,
                                           int machines,
                                           const CommitLogConfig& config,
                                           FaultInjector* faults, int shard) {
  SLACKSCHED_EXPECTS(!path.empty());
  SLACKSCHED_EXPECTS(machines >= 1);
  std::size_t size = 0;
  std::string error;
  const int fd = open_wal(path, machines, WalMode::kAppend, &size, &error);
  if (fd < 0) throw CommitLogError(error);
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
  buffer_.reserve(kWalFlushBytes + kWalRecordBytes);
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
  if (buffer_.size() >= kWalFlushBytes) flush_buffer();
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
  if (!write_wal(fd_, buffer_.data(), buffer_.size())) {
    throw CommitLogError(errno_text("cannot append to commit log", path_));
  }
  buffer_.clear();
}

void CommitLog::fsync_now() {
  SLACKSCHED_FAULT_CRASH_POINT(faults_, FaultSite::kFsync, shard_);
  if (::fsync(fd_) != 0) {
    throw CommitLogError(errno_text("cannot fsync commit log", path_));
  }
  ++fsyncs_;
  unsynced_ = false;
}

}  // namespace slacksched
