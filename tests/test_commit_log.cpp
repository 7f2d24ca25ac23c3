// Commit-log (WAL) format, durability policies, and crash recovery.
//
// The torn-tail tests forge log files byte-by-byte through the same
// encode_wal_record/wire::crc32c primitives the writer uses, so every
// framing rule (length plausibility, CRC, short payload) is pinned
// independently of the writer's behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/wire.hpp"
#include "core/threshold.hpp"
#include "sched/validator.hpp"
#include "service/commit_log.hpp"
#include "service/recovery.hpp"

namespace slacksched {
namespace {

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

/// Fresh per-test WAL path under the gtest temp dir; removes leftovers.
std::string wal_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "slacksched_" + name +
                           ".wal";
  std::remove(path.c_str());
  return path;
}

/// Appends raw bytes to an existing file (simulating a torn write).
void append_bytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t file_size(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::size_t>(in.tellg()) : 0;
}

TEST(WalCrc32, SensitiveToEveryByte) {
  std::vector<char> payload(kWalPayloadBytes, 'x');
  const std::uint32_t base = wire::crc32c(payload.data(), payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] ^= 0x01;
    EXPECT_NE(wire::crc32c(payload.data(), payload.size()), base)
        << "flip at byte " << i << " not detected";
    payload[i] ^= 0x01;
  }
}

TEST(WalRecord, EncodesTheDocumentedFixedWidthLayout) {
  std::vector<char> out;
  encode_wal_record(make_job(42, 1.0, 2.0, 8.0), 3, 1.5, out);
  ASSERT_EQ(out.size(), kWalRecordBytes);

  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  std::memcpy(&len, out.data(), 4);
  std::memcpy(&crc, out.data() + 4, 4);
  EXPECT_EQ(len, kWalPayloadBytes);
  EXPECT_EQ(crc,
            wire::crc32c(out.data() + kWalFrameBytes, kWalPayloadBytes));

  std::int64_t id = 0;
  double release = 0.0, proc = 0.0, deadline = 0.0, start = 0.0;
  std::int32_t machine = -1;
  std::uint32_t criticality = 99;
  const char* p = out.data() + kWalFrameBytes;
  std::memcpy(&id, p + 0, 8);
  std::memcpy(&release, p + 8, 8);
  std::memcpy(&proc, p + 16, 8);
  std::memcpy(&deadline, p + 24, 8);
  std::memcpy(&machine, p + 32, 4);
  std::memcpy(&criticality, p + 36, 4);
  std::memcpy(&start, p + 40, 8);
  EXPECT_EQ(id, 42);
  EXPECT_DOUBLE_EQ(release, 1.0);
  EXPECT_DOUBLE_EQ(proc, 2.0);
  EXPECT_DOUBLE_EQ(deadline, 8.0);
  EXPECT_EQ(machine, 3);
  EXPECT_EQ(criticality, 0u);  // make_job defaults to kBackground
  EXPECT_DOUBLE_EQ(start, 1.5);
}

TEST(WalRecord, EncodesTheGoldenRecordByteForByte) {
  // One v3 record pinned byte for byte, CRC-32C included: u32 length 48,
  // u32 crc, i64 id, f64 release/proc/deadline, i32 machine,
  // u32 criticality, f64 start. A change to the encoder or the CRC that
  // moves one bit of the on-disk format fails here.
  const std::vector<unsigned char> golden = {
      0x30, 0x00, 0x00, 0x00, 0xdf, 0x16, 0x99, 0x3d,  //
      0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf4, 0x3f,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x31, 0x40,  //
      0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x40,  //
  };
  ASSERT_EQ(golden.size(), kWalRecordBytes);
  Job job = make_job(0x0123456789ABCDEF, 1.25, 2.5, 17.75);
  job.criticality = Criticality::kElevated;
  std::vector<char> out = {'Z'};  // records append behind existing bytes
  encode_wal_record(job, 5, 3.125, out);
  ASSERT_EQ(out.size(), 1 + kWalRecordBytes);
  EXPECT_EQ(out[0], 'Z');
  EXPECT_EQ(std::vector<unsigned char>(out.begin() + 1, out.end()), golden);
}

TEST(CommitLog, AppendCloseRecoverRoundTrips) {
  const std::string path = wal_path("roundtrip");
  {
    auto log = CommitLog::open(path, 2);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->append(make_job(2, 0.0, 1.0, 4.0), 1, 0.0);
    log->append(make_job(3, 1.0, 1.0, 5.0), 0, 1.0);
    EXPECT_EQ(log->records_appended(), 3u);
    log->close();
  }
  EXPECT_EQ(file_size(path), kWalHeaderBytes + 3 * kWalRecordBytes);

  const RecoveryResult recovered = recover_commit_log(path, 2);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.clean());
  EXPECT_EQ(recovered.records_replayed, 3u);
  EXPECT_EQ(recovered.schedule.job_count(), 3u);
  EXPECT_EQ(recovered.metrics.submitted, 3u);
  EXPECT_EQ(recovered.metrics.accepted, 3u);
  EXPECT_DOUBLE_EQ(recovered.metrics.accepted_volume, 3.0);
  EXPECT_DOUBLE_EQ(recovered.metrics.makespan, 2.0);

  const auto p3 = recovered.schedule.find(3);
  ASSERT_TRUE(p3.has_value());
  EXPECT_EQ(p3->machine, 0);
  EXPECT_DOUBLE_EQ(p3->start, 1.0);
}

TEST(CommitLog, MissingLogRecoversToFreshState) {
  const RecoveryResult recovered =
      recover_commit_log(wal_path("missing"), 4);
  EXPECT_TRUE(recovered.ok);
  EXPECT_TRUE(recovered.clean());
  EXPECT_EQ(recovered.records_replayed, 0u);
  EXPECT_EQ(recovered.schedule.job_count(), 0u);
}

TEST(CommitLog, ReopenAppendsAfterExistingRecords) {
  const std::string path = wal_path("reopen");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->close();
  }
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(2, 1.0, 1.0, 5.0), 0, 1.0);
    log->close();
  }
  const RecoveryResult recovered = recover_commit_log(path, 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_EQ(recovered.records_replayed, 2u);
}

TEST(CommitLog, OpenResetsAFileTornInsideItsHeader) {
  // A crash inside the header write leaves 1..15 stray bytes. The writer
  // must reset them to a fresh header at offset 0, not append after a hole.
  for (const std::size_t stray : {1u, 5u, 15u}) {
    SCOPED_TRACE(std::to_string(stray) + " stray bytes");
    const std::string path = wal_path("torn_header");
    append_bytes(path, std::vector<char>(stray, 'S'));
    {
      auto log = CommitLog::open(path, 2);
      log->append(make_job(1, 0.0, 1.0, 4.0), 1, 0.0);
      log->close();
    }
    EXPECT_EQ(file_size(path), kWalHeaderBytes + kWalRecordBytes);
    const RecoveryResult recovered = recover_commit_log(path, 2);
    ASSERT_TRUE(recovered.ok) << recovered.error;
    EXPECT_TRUE(recovered.clean());
    EXPECT_EQ(recovered.records_replayed, 1u);
  }
}

TEST(CommitLog, DestructionWithoutCloseDropsTheBufferedTail) {
  // ~CommitLog models a crash: under kNever the buffered record must NOT
  // reach the file. (close() would have flushed it.)
  const std::string path = wal_path("crashdtor");
  {
    CommitLogConfig config;
    config.fsync = FsyncPolicy::kNever;
    auto log = CommitLog::open(path, 1, config);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    // destroyed without close(): buffer discarded
  }
  EXPECT_EQ(file_size(path), kWalHeaderBytes);
  const RecoveryResult recovered = recover_commit_log(path, 1);
  EXPECT_TRUE(recovered.ok);
  EXPECT_EQ(recovered.records_replayed, 0u);
}

TEST(CommitLog, FsyncPolicyControlsWhenRecordsAreSynced) {
  CommitLogConfig batch;
  batch.fsync = FsyncPolicy::kBatch;
  {
    auto log = CommitLog::open(wal_path("fsync_batch"), 1, batch);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->append(make_job(2, 1.0, 1.0, 5.0), 0, 1.0);
    EXPECT_EQ(log->fsync_count(), 0u);
    log->sync_batch();
    EXPECT_EQ(log->fsync_count(), 1u);
    log->sync_batch();  // nothing appended since: no second fsync
    EXPECT_EQ(log->fsync_count(), 1u);
    log->append(make_job(3, 2.0, 1.0, 6.0), 0, 2.0);
    log->sync_batch();
    EXPECT_EQ(log->fsync_count(), 2u);
  }
  {
    // The first boundary after open fsyncs even with nothing appended:
    // the header (or recovery's truncation) must reach stable storage.
    auto log = CommitLog::open(wal_path("fsync_batch_empty"), 1, batch);
    log->sync_batch();
    EXPECT_EQ(log->fsync_count(), 1u);
    log->sync_batch();
    EXPECT_EQ(log->fsync_count(), 1u);
  }
  CommitLogConfig never;
  never.fsync = FsyncPolicy::kNever;
  {
    const std::string path = wal_path("fsync_never");
    auto log = CommitLog::open(path, 1, never);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->sync_batch();  // no-op under kNever
    log->close();       // flushes but does not fsync
    EXPECT_EQ(log->fsync_count(), 0u);
    // Still recoverable: the data reached the file, just not fsync'd.
    EXPECT_EQ(recover_commit_log(path, 1).records_replayed, 1u);
  }
}

TEST(CommitLog, ToStringNamesEveryPolicy) {
  EXPECT_EQ(to_string(FsyncPolicy::kNever), "never");
  EXPECT_EQ(to_string(FsyncPolicy::kBatch), "batch");
}

TEST(Recovery, TornPartialRecordIsTruncated) {
  const std::string path = wal_path("torn_partial");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->append(make_job(2, 1.0, 1.0, 5.0), 0, 1.0);
    log->close();
  }
  // A record torn mid-payload: only the first 20 of 56 bytes made it.
  std::vector<char> torn;
  encode_wal_record(make_job(3, 2.0, 1.0, 6.0), 0, 2.0, torn);
  torn.resize(20);
  append_bytes(path, torn);

  const RecoveryResult recovered = recover_commit_log(path, 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(recovered.bytes_truncated, 20u);
  EXPECT_EQ(recovered.records_replayed, 2u);
  EXPECT_FALSE(recovered.clean());

  // The file was truncated back to the last whole record: a second
  // recovery is clean and a reopened log appends from a sound boundary.
  EXPECT_EQ(file_size(path), kWalHeaderBytes + 2 * kWalRecordBytes);
  const RecoveryResult again = recover_commit_log(path, 1);
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.records_replayed, 2u);
}

TEST(Recovery, CorruptCrcEndsTheReplayAtTheLastGoodRecord) {
  const std::string path = wal_path("torn_crc");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->close();
  }
  std::vector<char> record;
  encode_wal_record(make_job(2, 1.0, 1.0, 5.0), 0, 1.0, record);
  record[kWalFrameBytes + 3] ^= 0x40;  // flip one payload bit
  append_bytes(path, record);

  const RecoveryResult recovered = recover_commit_log(path, 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(recovered.records_replayed, 1u);
  EXPECT_EQ(recovered.bytes_truncated, kWalRecordBytes);
}

TEST(Recovery, ImplausibleLengthFieldIsATornTailNotACrash) {
  const std::string path = wal_path("torn_len");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->close();
  }
  // Garbage that decodes to an absurd length field.
  append_bytes(path, std::vector<char>(12, '\xff'));

  const RecoveryResult recovered = recover_commit_log(path, 1);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(recovered.records_replayed, 1u);
}

TEST(Recovery, ReadOnlyModeDetectsButDoesNotTruncate) {
  const std::string path = wal_path("readonly");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->close();
  }
  append_bytes(path, std::vector<char>(7, 'z'));
  const std::size_t size_before = file_size(path);

  const RecoveryResult recovered =
      recover_commit_log(path, 1, nullptr, /*truncate_file=*/false);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(file_size(path), size_before);  // untouched
}

TEST(Recovery, SemanticallyIllegalRecordIsAHardErrorNotATruncation) {
  // Two CRC-valid records that overlap on machine 0: the log lied, and
  // recovery must refuse rather than silently drop an "accepted" job.
  const std::string path = wal_path("overlap");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 2.0, 4.0), 0, 0.0);
    log->close();
  }
  std::vector<char> record;
  encode_wal_record(make_job(2, 0.0, 2.0, 4.0), 0, 1.0, record);  // overlaps
  append_bytes(path, record);

  const RecoveryResult recovered = recover_commit_log(path, 1);
  EXPECT_FALSE(recovered.ok);
  EXPECT_NE(recovered.error.find("record 2"), std::string::npos)
      << recovered.error;
}

TEST(Recovery, MachineCountMismatchIsAHardError) {
  const std::string path = wal_path("mismatch");
  {
    auto log = CommitLog::open(path, 2);
    log->append(make_job(1, 0.0, 1.0, 4.0), 1, 0.0);
    log->close();
  }
  const RecoveryResult recovered = recover_commit_log(path, 3);
  EXPECT_FALSE(recovered.ok);
  EXPECT_NE(recovered.error.find("machine"), std::string::npos)
      << recovered.error;
  // CommitLog::open enforces the same invariant.
  EXPECT_THROW((void)CommitLog::open(path, 3), CommitLogError);
}

TEST(Recovery, BadMagicIsAHardError) {
  const std::string path = wal_path("badmagic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTAWAL0";
    const std::uint32_t version = kWalVersion;
    const std::uint32_t machines = 1;
    out.write(reinterpret_cast<const char*>(&version), 4);
    out.write(reinterpret_cast<const char*>(&machines), 4);
  }
  const RecoveryResult recovered = recover_commit_log(path, 1);
  EXPECT_FALSE(recovered.ok);
  EXPECT_THROW((void)CommitLog::open(path, 1), CommitLogError);
}

/// The textbook bit-at-a-time IEEE CRC-32 (reflected, poly 0xEDB88320):
/// the record checksum of the previous log format, version 2.
std::uint32_t crc32_ieee_bitwise(const char* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Recovery, PreviousFormatLogIsRefusedAndLeftUntouched) {
  // A whole history in the previous format: magic SLKWAL02, version 2,
  // records framed with IEEE CRC-32. Its records fail today's CRC, so
  // without the version bump recovery would read the first one as a torn
  // tail and truncate the whole history. The header refuses it instead.
  const std::string path = wal_path("previous_format");
  const std::uint32_t version = 2;
  const std::uint32_t machines = 2;
  std::vector<char> bytes(kWalHeaderBytes);
  std::memcpy(bytes.data(), "SLKWAL02", 8);
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  std::memcpy(bytes.data() + 12, &machines, sizeof(machines));
  for (int i = 0; i < 3; ++i) {
    const std::size_t record = bytes.size();
    encode_wal_record(make_job(i, 4.0 * i, 1.0, 4.0 * i + 4.0), i % 2,
                      4.0 * i, bytes);
    wire::patch(bytes, record + 4,
                crc32_ieee_bitwise(bytes.data() + record + kWalFrameBytes,
                                   kWalPayloadBytes));
    EXPECT_FALSE(wal_record_intact(bytes.data() + record));
  }
  append_bytes(path, bytes);
  const std::string before = read_file(path);
  ASSERT_EQ(before.size(), kWalHeaderBytes + 3 * kWalRecordBytes);

  const RecoveryResult recovered = recover_commit_log(path, 2);
  EXPECT_FALSE(recovered.ok);
  EXPECT_NE(recovered.error.find("bad magic"), std::string::npos)
      << recovered.error;
  EXPECT_FALSE(recovered.tail_truncated);
  EXPECT_EQ(recovered.records_replayed, 0u);
  EXPECT_THROW((void)CommitLog::open(path, 2), CommitLogError);
  EXPECT_EQ(read_file(path), before);
}

TEST(Recovery, FileShorterThanTheHeaderIsResetToFresh) {
  const std::string path = wal_path("stub");
  append_bytes(path, std::vector<char>(9, 'S'));
  const RecoveryResult recovered = recover_commit_log(path, 1);
  EXPECT_TRUE(recovered.ok);
  EXPECT_TRUE(recovered.tail_truncated);
  EXPECT_EQ(recovered.records_replayed, 0u);
  EXPECT_EQ(file_size(path), 0u);
}

/// Drives a scheduler over a prefix of jobs, logging accepts, then checks
/// that a reset + recovery brings a second instance to a state that
/// decides the *next* jobs identically to the uninterrupted original.
template <typename MakeScheduler>
void expect_restore_equivalence(MakeScheduler make, const std::string& tag) {
  const std::string path = wal_path("restore_" + tag);
  auto original = make();
  auto recovered_instance = make();
  {
    auto log = CommitLog::open(path, original->machines());
    for (int i = 0; i < 40; ++i) {
      const double r = 0.37 * i;
      const Job job = make_job(i, r, 1.0 + 0.13 * (i % 5),
                               r + 2.5 + 0.29 * (i % 7));
      const Decision decision = original->on_arrival(job);
      if (decision.accepted) {
        log->append(job, decision.machine, decision.start);
      }
    }
    log->close();
  }

  recovered_instance->reset();
  const RecoveryResult recovered = recover_commit_log(
      path, recovered_instance->machines(), recovered_instance.get());
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_GT(recovered.records_replayed, 0u);

  // Both instances must now be in identical states: same decisions on a
  // fresh tail of jobs.
  for (int i = 100; i < 130; ++i) {
    const double r = 15.0 + 0.41 * (i - 100);
    const Job job = make_job(i, r, 1.0 + 0.17 * (i % 4),
                             r + 2.0 + 0.31 * (i % 6));
    const Decision a = original->on_arrival(job);
    const Decision b = recovered_instance->on_arrival(job);
    EXPECT_EQ(a.accepted, b.accepted) << tag << " job " << i;
    if (a.accepted && b.accepted) {
      EXPECT_EQ(a.machine, b.machine) << tag << " job " << i;
      EXPECT_DOUBLE_EQ(a.start, b.start) << tag << " job " << i;
    }
  }
}

TEST(Recovery, RestoresThresholdSchedulerStateExactly) {
  expect_restore_equivalence(
      [] { return std::make_unique<ThresholdScheduler>(0.5, 3); },
      "threshold");
}

TEST(Recovery, RestoresGreedySchedulerStateExactly) {
  expect_restore_equivalence(
      [] { return std::make_unique<GreedyScheduler>(3); }, "greedy");
}

TEST(Recovery, SchedulerThatCannotRestoreFailsRecovery) {
  // The OnlineScheduler default is conservative: not restorable.
  class Opaque final : public OnlineScheduler {
   public:
    Decision on_arrival(const Job& job) override {
      return Decision::accept(0, job.release);
    }
    [[nodiscard]] int machines() const override { return 1; }
    void reset() override {}
    [[nodiscard]] std::string name() const override { return "Opaque"; }
  };

  const std::string path = wal_path("opaque");
  {
    auto log = CommitLog::open(path, 1);
    log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
    log->close();
  }
  Opaque opaque;
  const RecoveryResult recovered = recover_commit_log(path, 1, &opaque);
  EXPECT_FALSE(recovered.ok);
  EXPECT_NE(recovered.error.find("Opaque"), std::string::npos)
      << recovered.error;
}

TEST(Recovery, RecordThatIsNotAValidJobIsAHardError) {
  // A CRC-valid record whose job no scheduler would accept is corrupt in a
  // way framing cannot see. The first case carries the exact bytes an
  // older writer used for a machine-pool control record (id -1, r = p = d
  // = start = 0, machine 1): replay must refuse it loudly instead of
  // committing a zero-length job. Each bad record follows one good one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    Job job;
    int machine;
    TimePoint start;
  };
  Job control;
  control.id = -1;
  const std::vector<Case> cases = {
      {"old control record", control, 1, 0.0},
      {"zero processing time", make_job(2, 1.0, 0.0, 5.0), 1, 1.0},
      {"negative processing time", make_job(2, 1.0, -1.0, 5.0), 1, 1.0},
      {"deadline at the release", make_job(2, 1.0, 1.0, 1.0), 1, 1.0},
      {"deadline before the release", make_job(2, 3.0, 1.0, 2.0), 1, 3.0},
      {"negative release", make_job(2, -1.0, 1.0, 5.0), 1, 0.0},
      {"NaN release", make_job(2, nan, 1.0, 5.0), 1, 1.0},
      {"NaN processing time", make_job(2, 1.0, nan, 5.0), 1, 1.0},
      {"NaN deadline", make_job(2, 1.0, 1.0, nan), 1, 1.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = wal_path("invalid_job");
    {
      auto log = CommitLog::open(path, 2);
      log->append(make_job(1, 0.0, 1.0, 4.0), 0, 0.0);
      log->append(c.job, c.machine, c.start);
      log->close();
    }
    for (const bool with_scheduler : {false, true}) {
      SCOPED_TRACE(with_scheduler ? "with a scheduler" : "scheduler-less");
      ThresholdScheduler scheduler(0.5, 2);
      scheduler.reset();
      bool ok = true;
      std::string error;
      EXPECT_NO_THROW({
        const RecoveryResult recovered = recover_commit_log(
            path, 2, with_scheduler ? &scheduler : nullptr,
            /*truncate_file=*/false);
        ok = recovered.ok;
        error = recovered.error;
      });
      EXPECT_FALSE(ok);
      EXPECT_NE(error.find("record 2 (J" + std::to_string(c.job.id) + "("),
                std::string::npos)
          << error;
      EXPECT_NE(error.find("not a valid job"), std::string::npos) << error;
    }
  }
}

TEST(Recovery, RecoveredScheduleValidatesAgainstTheInstance) {
  const std::string path = wal_path("validate");
  std::vector<Job> jobs;
  ThresholdScheduler scheduler(0.5, 2);
  {
    auto log = CommitLog::open(path, 2);
    // Ids start at 1: the Instance builder treats id 0 as unassigned.
    for (int i = 1; i <= 30; ++i) {
      const double r = 0.5 * i;
      const Job job = make_job(i, r, 1.0, r + 3.0);
      jobs.push_back(job);
      const Decision decision = scheduler.on_arrival(job);
      if (decision.accepted) {
        log->append(job, decision.machine, decision.start);
      }
    }
    log->close();
  }
  const RecoveryResult recovered = recover_commit_log(path, 2);
  ASSERT_TRUE(recovered.ok) << recovered.error;
  const Instance instance(jobs);
  const ValidationReport report =
      validate_schedule(instance, recovered.schedule);
  EXPECT_TRUE(report.ok) << report.to_string();
}

}  // namespace
}  // namespace slacksched
