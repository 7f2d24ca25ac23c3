// Durable write-ahead log of committed admission decisions — the crash-safe
// half of the paper's immediate-commitment contract. A shard appends each
// accepted (job, machine, start) allocation to its own append-only binary
// log *before* applying the in-memory commit, and tells no client of an
// accept until sync_batch() has made its record durable, so every accept
// that became externally visible is recoverable after a crash; recovery
// (service/recovery.hpp) replays the log, truncating a torn tail, and
// rebuilds the shard's committed schedule and scheduler frontier state.
//
// On-disk format (little-endian, fixed-width):
//
//   header   : magic "SLKWAL03" (8) | u32 version | u32 machines     = 16 B
//   record   : u32 payload_len (=48) | u32 crc32c(payload) | payload = 56 B
//   payload  : i64 job_id | f64 release | f64 proc | f64 deadline
//              | i32 machine | u32 criticality | f64 start           = 48 B
//
// The CRC frames each record independently: a record whose frame or
// payload is short, whose length field is implausible, or whose CRC does
// not match is a *torn tail* — everything from its offset on is discarded
// and the file truncated back to the last whole record. Corruption that
// passes the CRC but describes an illegal commitment (overlap, deadline
// miss) is detected semantically during replay by validate_commitment and
// fails recovery outright.
//
// This file owns the layout: the writer, recovery, the follower's replica
// log and the leader's catch-up open, scan, read, decode and write a log
// only through the functions below; none of them knows an offset.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "job/job.hpp"
#include "service/fault_injection.hpp"

namespace slacksched {

/// When appended records are forced to stable storage. The shard publishes
/// a group's decisions after its sync_batch(), so under kBatch no accept a
/// client was told is lost in a crash.
enum class FsyncPolicy : std::uint8_t {
  kNever,  ///< no fsync: a crash can lose told accepts
  kBatch,  ///< one fsync per shard group (sync_batch()): every batch the
           ///< shard decided since its last publication
};

[[nodiscard]] std::string to_string(FsyncPolicy policy);

/// A new record checksum is a new magic and version: a log in an older
/// format is refused by its header, never read as a torn tail.
inline constexpr char kWalMagic[8] = {'S', 'L', 'K', 'W', 'A', 'L', '0', '3'};
inline constexpr std::uint32_t kWalVersion = 3;
inline constexpr std::size_t kWalHeaderBytes = 16;
inline constexpr std::size_t kWalPayloadBytes = 48;
inline constexpr std::size_t kWalFrameBytes = 8;
inline constexpr std::size_t kWalRecordBytes =
    kWalFrameBytes + kWalPayloadBytes;
/// The writer's flush size, and the leader's flush size for the live
/// records it streams to a follower.
inline constexpr std::size_t kWalFlushBytes = std::size_t{1} << 16;

/// Thrown on I/O failure or header mismatch.
class CommitLogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Observes the write side of one shard's commit log — the hook the
/// replication layer (replication/replicator.hpp) attaches to so every
/// record the leader logs also streams to a follower. Record sequence
/// numbers are global per shard log: record `seq` is the seq-th record in
/// the file since its header, counting the `base_records` that recovery
/// replayed before this writer opened. All calls arrive on the log's
/// single writer thread; on_open may also run on the thread that spawns
/// the shard (construction and supervised restart).
class CommitLogObserver {
 public:
  virtual ~CommitLogObserver() = default;

  /// The log opened for appending with `base_records` records already
  /// durable in the file. May throw to refuse the open (e.g. the follower
  /// holds more records than this log — a stale leader must not serve).
  virtual void on_open(const std::string& path, int machines,
                       std::uint64_t base_records) = 0;

  /// One record was appended: `frame` spans the kWalRecordBytes encoded
  /// bytes (length + CRC + payload), `seq` its global 1-based sequence
  /// number. Must not wait for an acknowledgement: that happens at
  /// on_batch, before the batch is published.
  virtual void on_record(const char* frame, std::size_t size,
                         std::uint64_t seq) = 0;

  /// Batch boundary (sync_batch), after the local fsync and fired whatever
  /// the local FsyncPolicy: replication batching is independent of local
  /// fsync batching. `watermark` is the global record count at the
  /// boundary. The shard publishes the batch's decisions only after this
  /// returns, so an observer that blocks here (ack-on-batch) holds every
  /// reply until the follower has the batch.
  virtual void on_batch(std::uint64_t watermark) = 0;

  /// Clean close (close()), after the local flush+fsync. An observer that
  /// buffers must drain here — destruction without close models a crash
  /// and notifies nothing.
  virtual void on_close(std::uint64_t watermark) = 0;
};

struct CommitLogConfig {
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Records already in the file when this writer opens (what recovery
  /// replayed); the base of the observer's global sequence numbers.
  std::uint64_t base_records = 0;
  /// Optional write-side observer (not owned; must outlive the log).
  CommitLogObserver* observer = nullptr;
};

/// Append-only writer for one shard's commit log. Single-writer (the
/// shard's worker thread: a shard with a WAL never lets a producer decide);
/// not thread-safe by design.
class CommitLog {
 public:
  /// Opens the log at `path` for appending (open_wal's kAppend): an
  /// existing file must carry a valid header with a matching machine
  /// count; a file shorter than the header is reset to a fresh log.
  /// Recovery runs *before* open — open never replays.
  [[nodiscard]] static std::unique_ptr<CommitLog> open(
      const std::string& path, int machines, const CommitLogConfig& config = {},
      FaultInjector* faults = nullptr, int shard = 0);

  /// Closes the file descriptor WITHOUT flushing the user-space buffer —
  /// destruction models a crash; call close() for a durable shutdown.
  ~CommitLog();

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Appends one committed allocation to the user-space buffer, flushing it
  /// to the file at kWalFlushBytes; durability waits for sync_batch().
  /// Throws CommitLogError on I/O failure.
  void append(const Job& job, int machine, TimePoint start);

  /// Batch boundary: under kBatch, flushes and fsyncs everything appended
  /// since the last fsync — skipped when nothing was, except that the first
  /// boundary after open() always fsyncs (a local no-op under the other
  /// policies).
  /// Always notifies the observer's on_batch — replication batch
  /// boundaries exist whatever the local fsync policy.
  void sync_batch();

  /// Flushes (and fsyncs unless kNever) and closes the descriptor. The log
  /// must not be appended to afterwards.
  void close();

  [[nodiscard]] std::uint64_t records_appended() const { return records_; }
  /// Global record count: recovery's base plus this writer's appends.
  [[nodiscard]] std::uint64_t records_total() const {
    return config_.base_records + records_;
  }
  [[nodiscard]] std::uint64_t bytes_appended() const { return bytes_; }
  [[nodiscard]] std::uint64_t fsync_count() const { return fsyncs_; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] FsyncPolicy fsync_policy() const { return config_.fsync; }

 private:
  CommitLog(std::string path, int fd, const CommitLogConfig& config,
            FaultInjector* faults, int shard);

  void flush_buffer();  ///< write_wal the buffer to the fd
  void fsync_now();     ///< fault point + ::fsync

  std::string path_;
  int fd_ = -1;
  CommitLogConfig config_;
  FaultInjector* faults_ = nullptr;
  int shard_ = 0;
  std::vector<char> buffer_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
  /// Something reached this writer since its last fsync. Starts true: the
  /// header and recovery's truncation are not yet known to be durable.
  bool unsynced_ = true;
};

/// How open_wal opens a log file.
enum class WalMode : std::uint8_t {
  /// The writer and the replica: create the file, and reset one shorter
  /// than the header to a fresh header; every write lands at the end.
  kAppend,
  /// A reader: a missing or short file comes back unchanged.
  kRead,
  /// Recovery that may truncate a torn tail: as kRead, but writable.
  kReadWrite,
};

/// The one opener of a log file (always O_CLOEXEC). Returns the descriptor
/// and sets `*size` to the file's length. A whole header must carry the
/// magic, kWalVersion and `machines`. kAppend resets a file shorter than
/// the header by writing a fresh one at offset 0. kRead/kReadWrite hand a
/// short file back unchecked, and return -1 with `*error` empty when there
/// is no file. Any other failure returns -1 with `*error` set.
[[nodiscard]] int open_wal(const std::string& path, int machines,
                           WalMode mode, std::size_t* size,
                           std::string* error);

/// Hands each intact record of the open log `fd` (`path`, `size` bytes) to
/// `visit`, in file order, reading in large chunks. Stops at the first
/// short or non-intact record, or when `visit` returns false. Returns the
/// clean end: the offset just past the last record `visit` accepted, or 0
/// for a file torn inside its header. A read failure sets `*error`.
std::size_t scan_wal(int fd, std::size_t size, const std::string& path,
                     const std::function<bool(const char* record)>& visit,
                     std::string* error);

/// Reads records [first, first + count) — 0-based sequence numbers — of the
/// open log `fd` into `out` (count * kWalRecordBytes bytes). False when the
/// file holds fewer or a read fails.
[[nodiscard]] bool read_wal_records(int fd, std::uint64_t first,
                                    std::uint64_t count, char* out);

/// Writes all `size` bytes at the end of a kAppend log, retrying short
/// writes. False, with errno set, on failure. The one write loop of the
/// writer and the replica.
[[nodiscard]] bool write_wal(int fd, const char* data, std::size_t size);

/// Encodes one record (frame + payload) into `out` — the single encoding
/// path shared by the writer and the tests that forge torn/corrupt logs.
void encode_wal_record(const Job& job, int machine, TimePoint start,
                       std::vector<char>& out);

/// Decodes one intact record into the committed job and its placement.
/// False when its criticality lies outside the class range — corruption
/// the CRC cannot see.
[[nodiscard]] bool decode_wal_record(const char* record, Job& job,
                                     int& machine, TimePoint& start);

/// True iff the kWalRecordBytes bytes at `record` are one intact record:
/// its length field is kWalPayloadBytes and its CRC matches the payload.
/// The framing check of scan_wal and of the replica's APPEND check.
[[nodiscard]] bool wal_record_intact(const char* record);

}  // namespace slacksched
