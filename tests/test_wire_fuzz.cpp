// Seeded byte-mutation fuzzing of the one frame decoder (common/wire.hpp)
// and of commit-log recovery. Each case starts from a valid input — one
// frame of every admission type, one of every replication type, or a small
// commit log written by CommitLog — applies 1-4 seeded mutations (bit
// flips, byte sets, truncations, splices, length-field rewrites; in a
// protocol stream, with or without a re-sealed CRC) and feeds the result in
// random chunk sizes. Properties:
//
//   - every frame the decoder yields is exactly the bytes at its stream
//     offset: the protocol's version, a valid type, a length within the
//     cap, and a CRC that matches the payload;
//   - a complete header the decoder waits on is a valid one (the cap is
//     checked before the payload is awaited);
//   - kError is sticky, and its text names the protocol;
//   - the outcome does not depend on how the bytes were chunked, and the
//     unmutated streams, repeated past the decoder's 4096-byte compaction
//     point, yield their frames identically under any chunking;
//   - recover_commit_log on a mutated log either fails with an error or
//     replays a prefix of the original records and truncates the file to
//     that prefix; besides the seeded cases, every bit of the 16-byte
//     header is flipped and the log is cut to every length below it;
//   - CommitLog::open on a mutated log either throws CommitLogError or
//     leaves a log whose header opens;
//   - the budget reaches every decoder rejection (version, type, cap,
//     checksum), a failed recovery and a truncating one, so the checks
//     are not vacuous.
//
// The seeds and the budget are fixed, so every run replays exactly; a
// failure stops its test at the first failing case and names its seed.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/wire.hpp"
#include "net/protocol.hpp"
#include "replication/repl_protocol.hpp"
#include "service/commit_log.hpp"
#include "service/recovery.hpp"

namespace slacksched {
namespace {

using wire::FrameDecoder;
using wire::FrameSpec;
using wire::kFrameHeaderBytes;

constexpr int kStreamCases = 20000;  ///< mutated streams per protocol
constexpr int kChunkings = 300;      ///< random chunkings per clean stream
constexpr int kLogCases = 2000;      ///< mutated commit logs
constexpr int kLogMachines = 2;
constexpr int kLogRecords = 24;

constexpr std::uint64_t kBaseSeed = 0x5EED0014u;

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// One frame of every admission type, back to back.
std::vector<char> admission_stream() {
  using namespace net;
  std::vector<char> out;
  encode_submit(out, SubmitMsg{1, make_job(42, 1.5, 2.25, 10.0)});
  // The third job has no processing time: the decoder must hand it on
  // unchanged, for the gateway to refuse.
  const std::vector<Job> jobs = {make_job(1, 0.0, 1.0, 4.0),
                                 make_job(2, 0.5, 2.0, 8.0),
                                 make_job(3, 0.0, 0.0, 4.0)};
  encode_submit_batch(out, 1000, jobs);
  encode_decision(out, DecisionMsg{9, 1234, Outcome::kAccepted, 3, 17.75});
  encode_reject(out, RejectMsg{5, -1, Outcome::kRejectedRetryAfter, 250});
  encode_drain(out);
  encode_drained(out, DrainedMsg{1000, 900, 100, 1234.5, 99.25, 810.0, 1});
  encode_ping(out, 7);
  encode_pong(out, 7);
  encode_error(out, "bad frame");
  return out;
}

/// One frame of every replication type, back to back.
std::vector<char> replication_stream() {
  using namespace repl;
  std::vector<char> records;
  encode_wal_record(make_job(7, 0.5, 2.0, 9.0), 1, 3.5, records);
  encode_wal_record(make_job(8, 0.0, 1.0, 9.0), 0, 0.0, records);
  std::vector<char> out;
  encode_hello(out, 3, HelloMsg{8, ReplAckMode::kAckOnBatch, 12345});
  encode_welcome(out, 3, 40);
  encode_append(out, 3, 40, 2, records.data(), records.size());
  encode_ack(out, 3, 42);
  encode_heartbeat(out, 3, 42);
  encode_heartbeat_ack(out, 3, 42);
  encode_nack(out, 3, repl::NackReason::kSequenceGap, 17, "expected 17");
  return out;
}

/// Offsets of the u32 length fields of a valid stream's frames.
std::vector<std::size_t> frame_length_fields(const std::vector<char>& s) {
  std::vector<std::size_t> fields;
  for (std::size_t at = 0; at < s.size();
       at += kFrameHeaderBytes + load_u32(s.data() + at + 4)) {
    fields.push_back(at + 4);
  }
  return fields;
}

/// Applies 1-4 seeded mutations. `length_fields` are offsets of u32 length
/// fields in the unmutated input; each is followed by its u32 CRC and then
/// its payload (true of protocol frames and WAL records alike). With
/// `reseal`, half the length rewrites also re-seal the CRC over the new
/// payload span, so the decoder yields frames of the forged length.
void mutate(std::vector<char>& bytes,
            const std::vector<std::size_t>& length_fields,
            const std::vector<char>& splice_source, std::uint32_t cap,
            bool reseal, Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const int count = static_cast<int>(rng.uniform_int(1, 4));
  for (int m = 0; m < count; ++m) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // bit flip
        if (!bytes.empty()) {
          bytes[pick(bytes.size())] ^= static_cast<char>(1 << pick(8));
        }
        break;
      case 1: {  // byte set, biased towards boundary values
        if (bytes.empty()) break;
        static constexpr unsigned char kValues[] = {0x00, 0x01, 0x7F, 0x80,
                                                    0xFF};
        const auto value = rng.bernoulli(0.5)
                               ? kValues[pick(sizeof(kValues))]
                               : static_cast<unsigned char>(pick(256));
        bytes[pick(bytes.size())] = static_cast<char>(value);
        break;
      }
      case 2:  // truncation
        bytes.resize(pick(bytes.size() + 1));
        break;
      case 3: {  // splice: a chunk of the source inserted or overwritten
        const std::size_t from = pick(splice_source.size());
        const std::size_t n =
            1 + pick(std::min<std::size_t>(64, splice_source.size() - from));
        const auto chunk = splice_source.begin() +
                           static_cast<std::ptrdiff_t>(from);
        const std::size_t at = pick(bytes.size() + 1);
        if (rng.bernoulli(0.5)) {
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), chunk,
                       chunk + static_cast<std::ptrdiff_t>(n));
        } else {
          bytes.resize(std::max(bytes.size(), at + n));
          std::copy(chunk, chunk + static_cast<std::ptrdiff_t>(n),
                    bytes.begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
      }
      default: {  // length-field rewrite
        const std::size_t field = length_fields[pick(length_fields.size())];
        if (field + 8 > bytes.size()) break;
        const std::uint32_t old = load_u32(bytes.data() + field);
        const std::uint32_t candidates[] = {
            0u,      old - 1, old + 1, cap, cap + 1, ~0u,
            static_cast<std::uint32_t>(pick(2 * bytes.size()))};
        const std::uint32_t len = candidates[pick(std::size(candidates))];
        std::memcpy(bytes.data() + field, &len, sizeof(len));
        if (reseal && rng.bernoulli(0.5) && field + 8 + len <= bytes.size()) {
          const std::uint32_t crc =
              wire::crc32c(bytes.data() + field + 8, len);
          std::memcpy(bytes.data() + field + 4, &crc, sizeof(crc));
        }
        break;
      }
    }
  }
}

struct DecodedFrame {
  std::uint8_t type = 0;
  std::uint16_t word = 0;
  std::vector<char> payload;
  bool operator==(const DecodedFrame&) const = default;
};

struct Decoded {
  std::vector<DecodedFrame> frames;
  bool failed = false;
  std::string error;
};

/// `header` is one the decoder may accept: the protocol's version, a valid
/// type and a length within the cap.
void expect_valid_header(const FrameSpec& spec, const char* header) {
  EXPECT_EQ(static_cast<std::uint8_t>(header[0]), spec.version);
  const auto type = static_cast<std::uint8_t>(header[1]);
  EXPECT_GE(type, 1);
  EXPECT_LE(type, spec.max_type);
  EXPECT_LE(load_u32(header + 4), spec.max_payload);
}

/// Feeds `bytes` to a fresh decoder in chunks of `next_chunk()` bytes,
/// pulling every frame after each feed, and checks the per-frame, waiting
/// and sticky-error properties along the way.
Decoded decode(const FrameSpec& spec, const std::vector<char>& bytes,
               const std::function<std::size_t()>& next_chunk) {
  FrameDecoder decoder(spec);
  Decoded out;
  std::size_t fed = 0;
  std::size_t consumed = 0;  // stream offset of the next frame
  while (true) {
    DecodedFrame frame;
    const auto status = decoder.next(frame.type, frame.word, frame.payload);
    if (status == FrameDecoder::Status::kFrame) {
      const std::size_t len = frame.payload.size();
      EXPECT_LE(consumed + kFrameHeaderBytes + len, fed);
      const char* header = bytes.data() + consumed;
      expect_valid_header(spec, header);
      EXPECT_EQ(static_cast<std::uint8_t>(header[1]), frame.type);
      std::uint16_t word = 0;
      std::memcpy(&word, header + 2, sizeof(word));
      EXPECT_EQ(word, frame.word);
      EXPECT_EQ(load_u32(header + 4), len);
      EXPECT_EQ(load_u32(header + 8),
                wire::crc32c(frame.payload.data(), len));
      EXPECT_TRUE(std::equal(frame.payload.begin(), frame.payload.end(),
                             header + kFrameHeaderBytes));
      consumed += kFrameHeaderBytes + len;
      out.frames.push_back(std::move(frame));
      continue;
    }
    if (status == FrameDecoder::Status::kError) {
      out.failed = true;
      out.error = decoder.error();
      EXPECT_NE(out.error.find(spec.name), std::string::npos) << out.error;
      // Sticky: neither the rest of the stream nor a valid frame revives it.
      decoder.feed(bytes.data() + fed, bytes.size() - fed);
      std::vector<char> good;
      net::encode_ping(good, 1);
      decoder.feed(good.data(), good.size());
      EXPECT_EQ(decoder.next(frame.type, frame.word, frame.payload),
                FrameDecoder::Status::kError);
      EXPECT_EQ(decoder.error(), out.error);
      return out;
    }
    EXPECT_EQ(decoder.buffered(), fed - consumed);
    if (decoder.buffered() >= kFrameHeaderBytes) {
      // Waiting on a payload: only ever behind a header that passed.
      expect_valid_header(spec, bytes.data() + consumed);
      EXPECT_LT(decoder.buffered(),
                kFrameHeaderBytes + load_u32(bytes.data() + consumed + 4));
    }
    if (fed == bytes.size()) return out;
    const std::size_t chunk = std::min(next_chunk(), bytes.size() - fed);
    decoder.feed(bytes.data() + fed, chunk);
    fed += chunk;
  }
}

std::function<std::size_t()> random_chunks(Rng& rng) {
  return [&rng] {
    return static_cast<std::size_t>(rng.bernoulli(0.05)
                                        ? rng.uniform_int(65, 4096)
                                        : rng.uniform_int(1, 64));
  };
}

std::size_t whole_stream() { return ~std::size_t{0}; }

void expect_same(const Decoded& a, const Decoded& b) {
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.error, b.error);
}

TEST(WireFuzz, UnmutatedStreamsDecodeIdenticallyUnderEveryChunking) {
  // Each frame set 16 times over: past 4096 bytes, so the decoder compacts
  // its buffer mid-stream under most chunkings.
  constexpr int kRepeats = 16;
  struct Case {
    const FrameSpec& spec;
    std::vector<char> frame_set;
    std::size_t frames;  ///< per set, one of each type in order
  };
  const Case cases[] = {{net::kAdmissionFrames, admission_stream(), 9},
                        {repl::kReplicationFrames, replication_stream(), 7}};
  Rng rng(kBaseSeed);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec.name);
    std::vector<char> stream;
    for (int r = 0; r < kRepeats; ++r) {
      stream.insert(stream.end(), c.frame_set.begin(), c.frame_set.end());
    }
    ASSERT_GT(stream.size(), 4096u);
    const Decoded whole = decode(c.spec, stream, whole_stream);
    EXPECT_FALSE(whole.failed) << whole.error;
    ASSERT_EQ(whole.frames.size(), kRepeats * c.frames);
    for (std::size_t i = 0; i < whole.frames.size(); ++i) {
      EXPECT_EQ(whole.frames[i].type, i % c.frames + 1);
    }
    expect_same(decode(c.spec, stream, [] { return std::size_t{1}; }), whole);
    for (int k = 0; k < kChunkings && !HasFailure(); ++k) {
      expect_same(decode(c.spec, stream, random_chunks(rng)), whole);
    }
  }
}

void fuzz_stream(const FrameSpec& spec, const std::vector<char>& stream,
                 const std::vector<char>& other) {
  const std::vector<std::size_t> fields = frame_length_fields(stream);
  std::vector<std::string> unseen = {"version", "frame type", "cap",
                                     "checksum"};
  for (int i = 0; i < kStreamCases; ++i) {
    const std::uint64_t seed = kBaseSeed ^ (std::uint64_t{0x9E37} << 32) ^
                               static_cast<std::uint64_t>(i);
    SCOPED_TRACE("case seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<char> bytes = stream;
    mutate(bytes, fields, rng.bernoulli(0.5) ? stream : other,
           spec.max_payload, /*reseal=*/true, rng);
    const Decoded whole = decode(spec, bytes, whole_stream);
    expect_same(decode(spec, bytes, random_chunks(rng)), whole);
    if (::testing::Test::HasFailure()) return;  // the first failing seed
    std::erase_if(unseen, [&whole](const std::string& kind) {
      return whole.error.find(kind) != std::string::npos;
    });
  }
  EXPECT_TRUE(unseen.empty()) << "never rejected for: " << unseen.front();
}

TEST(WireFuzz, MutatedAdmissionStreams) {
  fuzz_stream(net::kAdmissionFrames, admission_stream(),
              replication_stream());
}

TEST(WireFuzz, MutatedReplicationStreams) {
  fuzz_stream(repl::kReplicationFrames, replication_stream(),
              admission_stream());
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::size_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

TEST(WireFuzz, MutatedCommitLogsRecoverAPrefixOrFail) {
  const std::string path = ::testing::TempDir() + "slacksched_wire_fuzz.wal";
  std::remove(path.c_str());
  // Record i: job i+1 on machine i % 2 at start i / 2, back to back.
  std::vector<Placement> original;
  {
    CommitLogConfig config;
    config.fsync = FsyncPolicy::kNever;
    auto log = CommitLog::open(path, kLogMachines, config);
    for (int i = 0; i < kLogRecords; ++i) {
      const Job job = make_job(i + 1, 0.0, 1.0, 1e6);
      log->append(job, i % kLogMachines, static_cast<double>(i / 2));
      original.push_back(Placement{job, i % kLogMachines,
                                   static_cast<double>(i / 2)});
    }
    log->close();
  }
  const std::vector<char> log_bytes = read_file(path);
  ASSERT_EQ(log_bytes.size(),
            kWalHeaderBytes + kLogRecords * kWalRecordBytes);
  std::vector<std::size_t> fields;
  for (int i = 0; i < kLogRecords; ++i) {
    fields.push_back(kWalHeaderBytes + i * kWalRecordBytes);
  }
  // Nothing here forges an intact record: splices come from a stream
  // without WAL records and no CRC is re-sealed. A copied or re-sealed
  // record is intact and may replay out of place; its defence is
  // commitment validation, not framing.
  const std::vector<char> foreign = admission_stream();

  int failed = 0;
  int truncated = 0;
  const auto check = [&](const std::vector<char>& bytes) {
    write_file(path, bytes);
    const RecoveryResult result = recover_commit_log(path, kLogMachines);
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty());
      ++failed;
    } else {
      truncated += result.tail_truncated ? 1 : 0;
      const std::size_t k = result.records_replayed;
      ASSERT_LE(k, original.size());
      std::vector<Placement> expect(
          original.begin(), original.begin() + static_cast<std::ptrdiff_t>(k));
      std::sort(expect.begin(), expect.end(),
                [](const auto& a, const auto& b) {
                  return a.machine != b.machine ? a.machine < b.machine
                                                : a.start < b.start;
                });
      const std::vector<Placement> got = result.schedule.all_placements();
      ASSERT_EQ(got.size(), k);
      for (std::size_t j = 0; j < k; ++j) {
        EXPECT_EQ(got[j].job, expect[j].job);
        EXPECT_EQ(got[j].machine, expect[j].machine);
        EXPECT_EQ(got[j].start, expect[j].start);
      }
      EXPECT_EQ(file_size(path), bytes.size() < kWalHeaderBytes
                                     ? 0
                                     : kWalHeaderBytes + k * kWalRecordBytes);
    }
    // The writer on the unrecovered bytes: it refuses, or it leaves a
    // header the one opener accepts.
    write_file(path, bytes);
    CommitLogConfig config;
    config.fsync = FsyncPolicy::kNever;
    try {
      CommitLog::open(path, kLogMachines, config)->close();
    } catch (const CommitLogError&) {
      return;
    }
    std::size_t size = 0;
    std::string error;
    const int fd =
        open_wal(path, kLogMachines, WalMode::kRead, &size, &error);
    EXPECT_GE(fd, 0) << error;
    EXPECT_GE(size, kWalHeaderBytes);
    if (fd >= 0) ::close(fd);
  };
  for (int i = 0; i < kLogCases; ++i) {
    const std::uint64_t seed = kBaseSeed ^ (std::uint64_t{0x3A1} << 32) ^
                               static_cast<std::uint64_t>(i);
    SCOPED_TRACE("case seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<char> bytes = log_bytes;
    mutate(bytes, fields, foreign, kWalPayloadBytes, /*reseal=*/false, rng);
    check(bytes);
    if (HasFailure()) return;  // the first failing seed
  }
  // The seeded mutator alone reaches both outcomes.
  EXPECT_GT(failed, 0);
  EXPECT_GT(truncated, 0);
  for (std::size_t at = 0; at < kWalHeaderBytes; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      SCOPED_TRACE("header byte " + std::to_string(at) + " bit " +
                   std::to_string(bit));
      std::vector<char> bytes = log_bytes;
      bytes[at] ^= static_cast<char>(1 << bit);
      check(bytes);
      if (HasFailure()) return;
    }
  }
  for (std::size_t cut = 0; cut < kWalHeaderBytes; ++cut) {
    SCOPED_TRACE("cut to " + std::to_string(cut) + " bytes");
    check(std::vector<char>(log_bytes.begin(),
                            log_bytes.begin() +
                                static_cast<std::ptrdiff_t>(cut)));
    if (HasFailure()) return;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slacksched
