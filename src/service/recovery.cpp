#include "service/recovery.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/expects.hpp"
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
                                  bool truncate_file) {
  SLACKSCHED_EXPECTS(scheduler == nullptr ||
                     scheduler->speed_profile() == nullptr ||
                     scheduler->speed_profile()->uniform());
  RecoveryResult result{.busy_until = {},
                        .metrics = {},
                        .records_replayed = 0,
                        .bytes_truncated = 0,
                        .tail_truncated = false,
                        .ok = true,
                        .error = {}};
  if (machines < 1) {
    return fail(std::move(result), "recovery requires machines >= 1");
  }
  result.busy_until.assign(static_cast<std::size_t>(machines), 0.0);

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
        decode_wal_record(record, job, machine, start);
        if (!job.structurally_valid()) {
          // Every scheduler requires a structurally valid job before it
          // can accept one, so no live shard logs such a record: it is
          // corrupt in a way the CRC cannot see.
          return refuse(" (" + job.to_string() + ") is not a valid job");
        }
        const std::string violation = validate_served_commitment(
            result.busy_until, job, Decision::accept(machine, start));
        if (!violation.empty()) {
          return refuse(" (job " + std::to_string(job.id) +
                        ") fails commitment validation: " + violation);
        }
        TimePoint& mark = result.busy_until[static_cast<std::size_t>(machine)];
        mark = std::max(mark, start + job.proc);
        result.metrics.makespan = std::max(result.metrics.makespan, mark);
        ++result.records_replayed;
        ++result.metrics.submitted;
        ++result.metrics.accepted;
        result.metrics.accepted_volume += job.proc;
        return true;
      },
      &error);
  // Every record is validated; the scheduler takes the marks in one step.
  if (error.empty() && scheduler != nullptr && result.records_replayed > 0 &&
      !scheduler->restore_frontiers(result.busy_until)) {
    error = path + ": scheduler '" + scheduler->name() +
            "' cannot restore its state from the busy-until marks; "
            "recovery for it is unsupported";
  }
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
  return result;
}

}  // namespace slacksched
