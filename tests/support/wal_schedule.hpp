// Reads a shard's commit log back into a full Schedule. The service keeps
// only one busy-until mark per machine; the log keeps every placement, so
// the tests that validate a shard's history (validate_schedule) or compare
// it placement by placement with run_online read it here.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <string>

#include "sched/schedule.hpp"
#include "service/commit_log.hpp"

namespace slacksched {

/// Every intact record of the log at `path`, committed in file order to a
/// Schedule over `machines` identical machines. A missing log reads as an
/// empty schedule; a torn tail ends the read at the last whole record.
/// Read-only: the file is never truncated. A record the schedule refuses
/// (an overlap) throws PreconditionError out of Schedule::commit.
inline Schedule schedule_from_wal(const std::string& path, int machines) {
  Schedule schedule(machines);
  std::size_t size = 0;
  std::string error;
  const int fd = open_wal(path, machines, WalMode::kRead, &size, &error);
  if (fd < 0) {
    EXPECT_TRUE(error.empty()) << error;
    return schedule;
  }
  scan_wal(
      fd, size, path,
      [&](const char* record) {
        Job job;
        int machine = 0;
        TimePoint start = 0.0;
        decode_wal_record(record, job, machine, start);
        schedule.commit(job, machine, start);
        return true;
      },
      &error);
  ::close(fd);
  EXPECT_TRUE(error.empty()) << error;
  return schedule;
}

}  // namespace slacksched
