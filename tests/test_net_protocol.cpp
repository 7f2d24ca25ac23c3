// The admission wire protocol in isolation: every frame kind must
// round-trip bit-exactly through the encoder/decoder pair, the decoder
// must survive arbitrary fragmentation, and every corruption class —
// truncation, checksum damage, version skew, hostile length fields —
// must be rejected loudly with the stream marked unrecoverable. The
// Outcome wire values are pinned here as constants: they are frozen by
// the compatibility contract in service/outcome.hpp, and this test is
// the tripwire against accidental renumbering.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/expects.hpp"
#include "common/wire.hpp"
#include "net/protocol.hpp"

namespace slacksched::net {
namespace {

Job make_job(JobId id, double release, double proc, double deadline) {
  Job job;
  job.id = id;
  job.release = release;
  job.proc = proc;
  job.deadline = deadline;
  return job;
}

/// Feeds `bytes` and expects exactly one complete frame.
Frame decode_one(const std::vector<char>& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame)
      << decoder.error();
  Frame none;
  EXPECT_EQ(decoder.next(none), FrameDecoder::Status::kNeedMore);
  return frame;
}

// ---------- wire-value freeze ----------

TEST(OutcomeWire, ValuesArePinned) {
  // Frozen by service/outcome.hpp; the protocol ships these raw bytes.
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kEnqueued), 0);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kAccepted), 1);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejected), 2);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejectedQueueFull), 3);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejectedClosed), 4);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejectedRetryAfter), 5);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kFailover), 6);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejectedCriticality), 7);
  EXPECT_EQ(static_cast<std::uint8_t>(Outcome::kRejectedInvalid), 8);
  EXPECT_EQ(kOutcomeCount, 9);
}

TEST(OutcomeWire, LabelsArePinned) {
  EXPECT_EQ(outcome_label(Outcome::kEnqueued), "enqueued");
  EXPECT_EQ(outcome_label(Outcome::kAccepted), "accepted");
  EXPECT_EQ(outcome_label(Outcome::kRejected), "rejected");
  EXPECT_EQ(outcome_label(Outcome::kRejectedQueueFull), "queue_full");
  EXPECT_EQ(outcome_label(Outcome::kRejectedClosed), "closed");
  EXPECT_EQ(outcome_label(Outcome::kRejectedRetryAfter), "retry_after");
  EXPECT_EQ(outcome_label(Outcome::kFailover), "failover");
  EXPECT_EQ(outcome_label(Outcome::kRejectedCriticality), "criticality");
  EXPECT_EQ(outcome_label(Outcome::kRejectedInvalid), "invalid");
  EXPECT_FALSE(outcome_from_label("shed").has_value());
  EXPECT_FALSE(outcome_from_label("bogus").has_value());
}

TEST(FrameLayout, HeaderIsTwelveLittleEndianBytes) {
  std::vector<char> bytes;
  encode_ping(bytes, 0x1122334455667788ull);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + 8);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[0]), kProtocolVersion);
  EXPECT_EQ(static_cast<std::uint8_t>(bytes[1]),
            static_cast<std::uint8_t>(FrameType::kPing));
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + 4, 4);
  EXPECT_EQ(len, 8u);
  std::uint32_t crc = 0;
  std::memcpy(&crc, bytes.data() + 8, 4);
  EXPECT_EQ(crc, wire::crc32c(bytes.data() + kFrameHeaderSize, 8));
}

// ---------- round trips ----------

TEST(FrameCodec, SubmitRoundTrip) {
  SubmitMsg in;
  in.request_id = 42;
  in.job = make_job(7, 1.25, 3.5, 10.0);
  std::vector<char> bytes;
  encode_submit(bytes, in);
  const Frame frame = decode_one(bytes);
  ASSERT_EQ(frame.type, FrameType::kSubmit);
  SubmitMsg out;
  std::string error;
  ASSERT_TRUE(parse_submit(frame, out, &error)) << error;
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.job, in.job);
}

TEST(FrameCodec, SubmitBatchRoundTrip) {
  std::vector<Job> jobs;
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, 0.5 * i, 1.0 + i, 100.0 + i));
  }
  std::vector<char> bytes;
  encode_submit_batch(bytes, 1000, jobs);
  const Frame frame = decode_one(bytes);
  ASSERT_EQ(frame.type, FrameType::kSubmitBatch);
  std::uint64_t base = 0;
  std::vector<Job> back;
  std::string error;
  ASSERT_TRUE(parse_submit_batch_into(frame, base, back, &error)) << error;
  EXPECT_EQ(base, 1000u);
  EXPECT_EQ(back, jobs);
}

TEST(FrameCodec, SubmitBatchIntoReusesStorageAndMatchesParse) {
  std::vector<Job> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back(make_job(i, 0.25 * i, 1.0 + i, 50.0 + i));
  }
  std::vector<char> bytes;
  encode_submit_batch(bytes, 7, jobs);
  std::uint64_t base = 0;
  std::vector<Job> scratch;
  std::string error;
  ASSERT_TRUE(parse_submit_batch_into(decode_one(bytes), base, scratch,
                                      &error))
      << error;
  EXPECT_EQ(base, 7u);
  EXPECT_EQ(scratch, jobs);

  // A second decode into the same vector drops the stale tail and reuses
  // the allocation — the point of the _into variant.
  const std::vector<Job> small = {make_job(999, 0.0, 2.0, 9.0)};
  bytes.clear();
  encode_submit_batch(bytes, 8, small);
  const std::size_t capacity = scratch.capacity();
  ASSERT_TRUE(parse_submit_batch_into(decode_one(bytes), base, scratch,
                                      &error))
      << error;
  EXPECT_EQ(base, 8u);
  EXPECT_EQ(scratch, small);
  EXPECT_EQ(scratch.capacity(), capacity);
}

TEST(FrameCodec, SubmitBatchIntoHandlesEmptyBatch) {
  std::vector<char> bytes;
  encode_submit_batch(bytes, 3, std::vector<Job>{});
  std::uint64_t base = 0;
  std::vector<Job> scratch = {make_job(1, 0.0, 1.0, 2.0)};  // stale content
  std::string error;
  ASSERT_TRUE(parse_submit_batch_into(decode_one(bytes), base, scratch,
                                      &error))
      << error;
  EXPECT_EQ(base, 3u);
  EXPECT_TRUE(scratch.empty());
}

TEST(FrameCodec, SubmitBatchStopsAtThePayloadCap) {
  // kMaxBatchJobs jobs fill one frame to within 20 bytes of kMaxPayload
  // and decode; one more job would overflow the cap the decoder enforces,
  // so the encoder refuses it rather than emit a frame every peer rejects.
  const std::vector<Job> jobs(kMaxBatchJobs, make_job(1, 0.0, 1.0, 2.0));
  std::vector<char> bytes;
  encode_submit_batch(bytes, 1, jobs);
  EXPECT_LE(bytes.size() - kFrameHeaderSize, kMaxPayload);
  EXPECT_GT(bytes.size() - kFrameHeaderSize + 32, kMaxPayload);
  std::uint64_t base = 0;
  std::vector<Job> back;
  std::string error;
  ASSERT_TRUE(parse_submit_batch_into(decode_one(bytes), base, back, &error))
      << error;
  EXPECT_EQ(back.size(), kMaxBatchJobs);

  const std::vector<Job> over(kMaxBatchJobs + 1, make_job(1, 0.0, 1.0, 2.0));
  bytes.clear();
  EXPECT_THROW(encode_submit_batch(bytes, 1, over), PreconditionError);
}

TEST(FrameCodec, DecisionRoundTrip) {
  DecisionMsg in;
  in.request_id = 9;
  in.job_id = 1234;
  in.outcome = Outcome::kAccepted;
  in.machine = 3;
  in.start = 17.75;
  std::vector<char> bytes;
  encode_decision(bytes, in);
  DecisionMsg out;
  std::string error;
  ASSERT_TRUE(parse_decision(decode_one(bytes), out, &error)) << error;
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.job_id, in.job_id);
  EXPECT_EQ(out.outcome, in.outcome);
  EXPECT_EQ(out.machine, in.machine);
  EXPECT_EQ(out.start, in.start);
}

TEST(FrameCodec, RejectRoundTrip) {
  RejectMsg in;
  in.request_id = 5;
  in.job_id = -1;
  in.outcome = Outcome::kRejectedRetryAfter;
  in.retry_after_ms = 250;
  std::vector<char> bytes;
  encode_reject(bytes, in);
  RejectMsg out;
  std::string error;
  ASSERT_TRUE(parse_reject(decode_one(bytes), out, &error)) << error;
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.job_id, in.job_id);
  EXPECT_EQ(out.outcome, in.outcome);
  EXPECT_EQ(out.retry_after_ms, in.retry_after_ms);
}

TEST(FrameCodec, DrainedRoundTrip) {
  DrainedMsg in;
  in.submitted = 1000;
  in.accepted = 900;
  in.rejected = 100;
  in.accepted_volume = 1234.5;
  in.rejected_volume = 99.25;
  in.makespan = 810.0;
  in.clean = 1;
  std::vector<char> bytes;
  encode_drained(bytes, in);
  DrainedMsg out;
  std::string error;
  ASSERT_TRUE(parse_drained(decode_one(bytes), out, &error)) << error;
  EXPECT_EQ(out.submitted, in.submitted);
  EXPECT_EQ(out.accepted, in.accepted);
  EXPECT_EQ(out.rejected, in.rejected);
  EXPECT_EQ(out.accepted_volume, in.accepted_volume);
  EXPECT_EQ(out.rejected_volume, in.rejected_volume);
  EXPECT_EQ(out.makespan, in.makespan);
  EXPECT_EQ(out.clean, 1);
}

TEST(FrameCodec, PingPongAndErrorRoundTrip) {
  std::vector<char> bytes;
  encode_ping(bytes, 77);
  std::uint64_t token = 0;
  std::string error;
  ASSERT_TRUE(parse_token(decode_one(bytes), token, &error)) << error;
  EXPECT_EQ(token, 77u);

  bytes.clear();
  encode_error(bytes, "you broke it");
  const Frame frame = decode_one(bytes);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(parse_error_message(frame), "you broke it");
}

TEST(FrameCodec, EmptyDrainFrame) {
  std::vector<char> bytes;
  encode_drain(bytes);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize);
  EXPECT_EQ(decode_one(bytes).type, FrameType::kDrain);
}

// ---------- fragmentation ----------

TEST(FrameDecoderTest, ByteAtATimeDelivery) {
  SubmitMsg msg;
  msg.request_id = 1;
  msg.job = make_job(1, 0.0, 1.0, 2.0);
  std::vector<char> bytes;
  encode_submit(bytes, msg);
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  }
  decoder.feed(&bytes.back(), 1);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kSubmit);
}

TEST(FrameDecoderTest, ManyFramesInOneFeed) {
  std::vector<char> bytes;
  for (std::uint64_t t = 0; t < 50; ++t) encode_ping(bytes, t);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  for (std::uint64_t t = 0; t < 50; ++t) {
    ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
    std::uint64_t token = 0;
    std::string error;
    ASSERT_TRUE(parse_token(frame, token, &error));
    EXPECT_EQ(token, t);
  }
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

// ---------- corruption ----------

TEST(FrameDecoderTest, TruncatedFrameNeverPanicsAndNeverYields) {
  SubmitMsg msg;
  msg.request_id = 1;
  msg.job = make_job(1, 0.0, 1.0, 2.0);
  std::vector<char> bytes;
  encode_submit(bytes, msg);
  // Every proper prefix is just an incomplete frame, not an error:
  // truncation is only diagnosable at connection close.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), cut);
    Frame frame;
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameDecoderTest, BadCrcIsRejectedAndSticky) {
  std::vector<char> bytes;
  encode_ping(bytes, 123);
  bytes[kFrameHeaderSize] = static_cast<char>(bytes[kFrameHeaderSize] ^ 0x40);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
  // Sticky: framing is unrecoverable, even if valid bytes follow.
  std::vector<char> good;
  encode_ping(good, 5);
  decoder.feed(good.data(), good.size());
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(FrameDecoderTest, BadVersionIsRejected) {
  std::vector<char> bytes;
  encode_ping(bytes, 1);
  bytes[0] = 99;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("version"), std::string::npos);
}

TEST(FrameDecoderTest, UnknownTypeIsRejected) {
  std::vector<char> bytes;
  encode_ping(bytes, 1);
  bytes[1] = 42;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("frame type"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedLengthIsRejectedWithoutAllocating) {
  std::vector<char> bytes;
  encode_ping(bytes, 1);
  const std::uint32_t huge = kMaxPayload + 1;
  std::memcpy(bytes.data() + 4, &huge, 4);
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  Frame frame;
  // Rejected from the header alone — no waiting for 1MB+ of payload.
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_NE(decoder.error().find("cap"), std::string::npos);
}

// ---------- payload validation ----------

TEST(FrameParsers, ShortPayloadsAreRejected) {
  // A syntactically valid frame whose payload is too small for its type.
  std::vector<char> bytes;
  encode_ping(bytes, 7);  // 8-byte payload
  Frame frame = decode_one(bytes);
  frame.type = FrameType::kDecision;  // DECISION needs 29 bytes
  DecisionMsg decision;
  std::string error;
  EXPECT_FALSE(parse_decision(frame, decision, &error));
  EXPECT_NE(error.find("too short"), std::string::npos);

  frame.type = FrameType::kDrained;
  DrainedMsg drained;
  EXPECT_FALSE(parse_drained(frame, drained, &error));
}

TEST(FrameParsers, BatchCountBeyondPayloadIsRejected) {
  std::vector<Job> jobs = {make_job(1, 0.0, 1.0, 2.0)};
  std::vector<char> bytes;
  encode_submit_batch(bytes, 0, jobs);
  // Lie about the count (offset 12 = header, +8 base id).
  const std::uint32_t lie = 1000;
  std::memcpy(bytes.data() + kFrameHeaderSize + 8, &lie, 4);
  // CRC must match for the frame to reach the parser at all.
  const std::uint32_t crc = wire::crc32c(
      bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize);
  std::memcpy(bytes.data() + 8, &crc, 4);
  std::uint64_t base = 0;
  std::vector<Job> back;
  std::string error;
  EXPECT_FALSE(
      parse_submit_batch_into(decode_one(bytes), base, back, &error));
  EXPECT_NE(error.find("exceeds payload"), std::string::npos);
  // A rejected batch leaves the target untouched.
  std::vector<Job> scratch = {make_job(2, 0.0, 1.0, 2.0)};
  const std::vector<Job> before = scratch;
  EXPECT_FALSE(
      parse_submit_batch_into(decode_one(bytes), base, scratch, &error));
  EXPECT_NE(error.find("exceeds payload"), std::string::npos);
  EXPECT_EQ(scratch, before);
}

TEST(FrameParsers, DecisionRejectsNonDecisionOutcomes) {
  DecisionMsg msg;
  msg.outcome = Outcome::kAccepted;
  std::vector<char> bytes;
  encode_decision(bytes, msg);
  // Patch the outcome byte (offset: header + 8 + 8) to a shed code.
  bytes[kFrameHeaderSize + 16] =
      static_cast<char>(Outcome::kRejectedQueueFull);
  const std::uint32_t crc = wire::crc32c(
      bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize);
  std::memcpy(bytes.data() + 8, &crc, 4);
  DecisionMsg out;
  std::string error;
  EXPECT_FALSE(parse_decision(decode_one(bytes), out, &error));
  EXPECT_NE(error.find("non-decision"), std::string::npos);
}

TEST(FrameParsers, RejectRejectsNonShedOutcomes) {
  RejectMsg msg;
  msg.outcome = Outcome::kRejectedClosed;
  std::vector<char> bytes;
  encode_reject(bytes, msg);
  bytes[kFrameHeaderSize + 16] = static_cast<char>(Outcome::kAccepted);
  const std::uint32_t crc = wire::crc32c(
      bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize);
  std::memcpy(bytes.data() + 8, &crc, 4);
  RejectMsg out;
  std::string error;
  EXPECT_FALSE(parse_reject(decode_one(bytes), out, &error));
  EXPECT_NE(error.find("non-shed"), std::string::npos);
}

}  // namespace
}  // namespace slacksched::net
