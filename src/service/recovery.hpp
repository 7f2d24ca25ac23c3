/// \file
/// Crash recovery for a shard's commit log: replays the WAL written by
/// service/commit_log.hpp, truncates a torn tail, and rebuilds the shard's
/// live state — one busy-until mark per machine (and, optionally, the
/// scheduler's internal state via OnlineScheduler::restore_frontiers).
/// Every replayed record passes validate_served_commitment, the check the
/// live shard runs on each decision, so a log that decodes cleanly but
/// describes an impossible schedule (overlap, deadline miss) fails
/// recovery outright instead of resurrecting a corrupt state. Recovery
/// holds O(m) state whatever the length of the history.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sched/metrics.hpp"
#include "sched/online.hpp"

namespace slacksched {

/// What replaying one commit log produced.
struct RecoveryResult {
  /// Per machine, the latest completion the log commits to it (0 for a
  /// machine with no record, all 0 for a fresh or missing log); empty only
  /// when `machines` < 1.
  std::vector<TimePoint> busy_until;
  /// Engine-equivalent counters for the replayed commitments: every record
  /// is one submitted-and-accepted job; makespan is the largest mark.
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
///  - Each record is re-validated against the marks built so far with
///    validate_served_commitment; a semantic violation is a hard error (ok
///    = false), not a truncation — the log lied, and silently dropping the
///    record would un-commit an accepted job.
///  - When `scheduler` is non-null and the log holds at least one record,
///    the marks go to OnlineScheduler::restore_frontiers once, after
///    every record has passed the checks above, so the algorithm's
///    internal state (e.g. machine frontiers) matches them; a scheduler
///    that cannot restore (returns false) is a hard error, and the file
///    is then left as it was. An empty or header-only log never asks.
///  - The marks are over `machines` identical machines, the only model
///    the service serves; a `scheduler` with a non-uniform
///    speed_profile() is a PreconditionError. `machines` < 1 is a hard
///    error (ok = false).
///  - A CRC-valid record whose job is not structurally valid
///    (Job::structurally_valid: p > 0, d > r, r >= 0, no NaN) is a hard
///    error too: no scheduler accepts such a job, so the log is corrupt.
///    A job id is an opaque i64; a negative id replays like any other.
///
/// The caller resets the scheduler before invoking recovery: a log with
/// no record leaves it as it was.
[[nodiscard]] RecoveryResult recover_commit_log(
    const std::string& path, int machines,
    OnlineScheduler* scheduler = nullptr, bool truncate_file = true);

}  // namespace slacksched
