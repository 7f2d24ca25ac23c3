#include "service/recovery.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "sched/decision.hpp"
#include "sched/validator.hpp"
#include "service/commit_log.hpp"

namespace slacksched {

namespace {

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

  std::size_t size = 0;
  std::string error;
  const int fd =
      open_wal(path, machines, truncate_file ? WalMode::kReadWrite
                                             : WalMode::kRead,
               &size, &error);
  if (fd < 0) {
    // No file is a fresh state; any other refusal is a hard error.
    return error.empty() ? std::move(result)
                         : fail(std::move(result), std::move(error));
  }

  // A failed record ends the scan; the message is built only then.
  const auto refuse = [&](const std::string& why) {
    error = path + ": record " + std::to_string(result.records_replayed + 1) +
            why;
    return false;
  };
  const std::size_t end = scan_wal(
      fd, size, path,
      [&](const char* record) {
        Job job;
        int machine = 0;
        TimePoint start = 0.0;
        if (!decode_wal_record(record, job, machine, start)) {
          // A class outside the enum passed the CRC: the record is corrupt
          // in a way framing cannot see, like an illegal commitment.
          return refuse(
              " carries a criticality outside the frozen class range");
        }
        if (!job.structurally_valid()) {
          // Every scheduler requires a structurally valid job before it
          // can accept one, so no live shard logs such a record: it is
          // corrupt in a way the CRC cannot see.
          return refuse(" (" + job.to_string() + ") is not a valid job");
        }
        const std::string violation = validate_commitment(
            result.schedule, job, Decision::accept(machine, start));
        if (!violation.empty()) {
          return refuse(" (job " + std::to_string(job.id) +
                        ") fails commitment validation: " + violation);
        }
        result.schedule.commit(job, machine, start);
        if (scheduler != nullptr &&
            !scheduler->restore_commitment(job, machine, start)) {
          return refuse(": scheduler '" + scheduler->name() +
                        "' cannot restore commitments; recovery for it is "
                        "unsupported");
        }
        ++result.records_replayed;
        ++result.metrics.submitted;
        ++result.metrics.accepted;
        result.metrics.accepted_volume += job.proc;
        return true;
      },
      &error);
  if (error.empty() && end < size) {
    // The first short, implausible or CRC-failing record starts the torn
    // tail, which is 0 for a file torn inside its header: nothing after it
    // was ever durably committed.
    result.tail_truncated = true;
    result.bytes_truncated = size - end;
    if (truncate_file && ::ftruncate(fd, static_cast<off_t>(end)) != 0) {
      error = "cannot truncate commit log " + path + ": " +
              std::strerror(errno);
    }
  }
  ::close(fd);
  if (!error.empty()) return fail(std::move(result), std::move(error));
  result.metrics.makespan = result.schedule.makespan();
  return result;
}

}  // namespace slacksched
