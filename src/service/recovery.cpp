#include "service/recovery.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "policy/criticality.hpp"
#include "sched/decision.hpp"
#include "sched/validator.hpp"
#include "service/commit_log.hpp"

namespace slacksched {

namespace {

template <typename T>
T get_raw(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

RecoveryResult fail(RecoveryResult result, std::string error) {
  result.ok = false;
  result.error = std::move(error);
  return result;
}

}  // namespace

RecoveryResult recover_commit_log(const std::string& path, int machines,
                                  OnlineScheduler* scheduler,
                                  bool truncate_file,
                                  const SpeedProfile* speeds) {
  const SpeedProfile* profile =
      speeds != nullptr
          ? speeds
          : (scheduler != nullptr ? scheduler->speed_profile() : nullptr);
  RecoveryResult result{.schedule = profile != nullptr
                                        ? Schedule(machines, profile->speeds())
                                        : Schedule(machines),
                        .metrics = {},
                        .records_replayed = 0,
                        .bytes_truncated = 0,
                        .tail_truncated = false,
                        .ok = true,
                        .error = {}};
  if (machines < 1) {
    return fail(std::move(result), "recovery requires machines >= 1");
  }

  const int fd = ::open(path.c_str(), truncate_file ? O_RDWR : O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return result;  // no log yet: fresh state
    return fail(std::move(result), "cannot open commit log " + path + ": " +
                                       std::strerror(errno));
  }

  const off_t raw_size = ::lseek(fd, 0, SEEK_END);
  if (raw_size < 0) {
    ::close(fd);
    return fail(std::move(result), "cannot seek commit log " + path + ": " +
                                       std::strerror(errno));
  }
  const std::size_t size = static_cast<std::size_t>(raw_size);

  if (size < kWalHeaderBytes) {
    // Torn inside the header: nothing was ever durably committed.
    if (size > 0) {
      result.tail_truncated = true;
      result.bytes_truncated = size;
      if (truncate_file && ::ftruncate(fd, 0) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        return fail(std::move(result),
                    "cannot truncate commit log " + path + ": " + err);
      }
    }
    ::close(fd);
    return result;
  }

  std::vector<char> data(size);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n =
        ::pread(fd, data.data() + off, size - off, static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return fail(std::move(result),
                  "cannot read commit log " + path + ": " + err);
    }
    if (n == 0) break;  // concurrent shrink; treat the rest as torn
    off += static_cast<std::size_t>(n);
  }
  const std::size_t have = off;

  if (std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    ::close(fd);
    return fail(std::move(result), path + ": not a commit log (bad magic)");
  }
  const auto version = get_raw<std::uint32_t>(data.data() + 8);
  const auto header_machines = get_raw<std::uint32_t>(data.data() + 12);
  if (version != kWalVersion) {
    ::close(fd);
    return fail(std::move(result), path + ": unsupported commit log version " +
                                       std::to_string(version));
  }
  if (header_machines != static_cast<std::uint32_t>(machines)) {
    ::close(fd);
    return fail(std::move(result),
                path + ": commit log is for " +
                    std::to_string(header_machines) + " machines, expected " +
                    std::to_string(machines));
  }

  std::size_t offset = kWalHeaderBytes;
  // The first short, implausible or CRC-failing record starts the torn
  // tail: a length field the writer never produced is not a record to skip.
  while (offset + kWalRecordBytes <= have &&
         wal_record_intact(data.data() + offset)) {
    const char* payload = data.data() + offset + kWalFrameBytes;
    Job job;
    job.id = static_cast<JobId>(get_raw<std::int64_t>(payload));
    job.release = get_raw<double>(payload + 8);
    job.proc = get_raw<double>(payload + 16);
    job.deadline = get_raw<double>(payload + 24);
    const int machine = static_cast<int>(get_raw<std::int32_t>(payload + 32));
    const auto criticality = get_raw<std::uint32_t>(payload + 36);
    const TimePoint start = get_raw<double>(payload + 40);
    if (criticality >= kCriticalityCount) {
      // A class outside the enum passed the CRC: the record is corrupt in
      // a way framing cannot see, like an illegal commitment.
      ::close(fd);
      return fail(std::move(result),
                  path + ": record " +
                      std::to_string(result.records_replayed + 1) +
                      " carries criticality " + std::to_string(criticality) +
                      ", outside the frozen class range");
    }
    job.criticality = static_cast<Criticality>(criticality);

    if (!job.structurally_valid()) {
      // Every scheduler requires a structurally valid job before it can
      // accept one, so no live shard logs such a record: it is corrupt in a
      // way the CRC cannot see.
      ::close(fd);
      return fail(std::move(result),
                  path + ": record " +
                      std::to_string(result.records_replayed + 1) + " (" +
                      job.to_string() + ") is not a valid job");
    }

    const Decision decision = Decision::accept(machine, start);
    const std::string violation =
        validate_commitment(result.schedule, job, decision);
    if (!violation.empty()) {
      ::close(fd);
      return fail(std::move(result),
                  path + ": record " +
                      std::to_string(result.records_replayed + 1) +
                      " (job " + std::to_string(job.id) +
                      ") fails commitment validation: " + violation);
    }
    result.schedule.commit(job, machine, start);
    if (scheduler != nullptr &&
        !scheduler->restore_commitment(job, machine, start)) {
      ::close(fd);
      return fail(std::move(result),
                  path + ": scheduler '" + scheduler->name() +
                      "' cannot restore commitments; recovery for it is "
                      "unsupported");
    }
    ++result.records_replayed;
    ++result.metrics.submitted;
    ++result.metrics.accepted;
    result.metrics.accepted_volume += job.proc;

    offset += kWalRecordBytes;
  }

  if (offset < have) {
    result.tail_truncated = true;
    result.bytes_truncated = have - offset;
    if (truncate_file && ::ftruncate(fd, static_cast<off_t>(offset)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return fail(std::move(result),
                  "cannot truncate commit log " + path + ": " + err);
    }
  }
  ::close(fd);
  result.metrics.makespan = result.schedule.makespan();
  return result;
}

}  // namespace slacksched
