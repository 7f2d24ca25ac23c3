/// \file
/// Crash recovery for a shard's commit log: replays the WAL written by
/// service/commit_log.hpp, truncates a torn tail, and rebuilds the shard's
/// committed Schedule (and, optionally, the scheduler's internal state via
/// OnlineScheduler::restore_commitment). Every replayed record passes
/// through validate_commitment — the same legality path the live engine
/// uses — so a log that decodes cleanly but describes an impossible
/// schedule (overlap, deadline miss) fails recovery outright instead of
/// resurrecting a corrupt state.
#pragma once

#include <cstddef>
#include <string>

#include "sched/metrics.hpp"
#include "sched/online.hpp"
#include "sched/schedule.hpp"

namespace slacksched {

/// What replaying one commit log produced.
struct RecoveryResult {
  /// The committed schedule rebuilt from the log (empty for a fresh or
  /// missing log).
  Schedule schedule;
  /// Engine-equivalent counters for the replayed commitments: every record
  /// is one submitted-and-accepted job.
  RunMetrics metrics;
  std::size_t records_replayed = 0;
  /// Bytes discarded from a torn tail (0 when the log ended cleanly).
  std::size_t bytes_truncated = 0;
  bool tail_truncated = false;
  /// False on a hard failure: I/O error, bad magic/version, machine-count
  /// mismatch, or a CRC-valid record that is not a valid job or fails
  /// commitment validation.
  bool ok = true;
  std::string error;

  [[nodiscard]] bool clean() const { return ok && !tail_truncated; }
};

/// Replays the commit log at `path` and rebuilds the committed state.
///
///  - A missing or empty-but-for-the-header log recovers to a fresh state.
///  - A torn tail (short frame, implausible length, short payload, or CRC
///    mismatch) ends the replay at the last whole record; when
///    `truncate_file` is set (the default) the file is truncated back to
///    that offset so a subsequent CommitLog::open appends from a clean
///    boundary.
///  - Each record is re-validated against the schedule built so far with
///    validate_commitment; a semantic violation is a hard error (ok =
///    false), not a truncation — the log lied, and silently dropping the
///    record would un-commit an accepted job.
///  - When `scheduler` is non-null each valid record is also pushed into
///    OnlineScheduler::restore_commitment so the algorithm's internal
///    state (e.g. machine frontiers) matches the rebuilt schedule; a
///    scheduler that cannot restore (returns false) is a hard error.
///  - Related machines: the rebuilt Schedule carries the speed profile of
///    the recovering scheduler (speed_profile()), or the explicit `speeds`
///    for a scheduler-less replay — so replayed occupancies use the same
///    execution times p_j / s_i the original run committed with. Passing
///    neither replays under the identical-machine model.
///  - A CRC-valid record whose job is not structurally valid
///    (Job::structurally_valid: p > 0, d > r, r >= 0, no NaN) is a hard
///    error too: no scheduler accepts such a job, so the log is corrupt.
///    A job id is an opaque i64; a negative id replays like any other.
///
/// The caller resets the scheduler before invoking recovery.
[[nodiscard]] RecoveryResult recover_commit_log(
    const std::string& path, int machines,
    OnlineScheduler* scheduler = nullptr, bool truncate_file = true,
    const SpeedProfile* speeds = nullptr);

}  // namespace slacksched
