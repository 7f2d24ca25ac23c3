#include "net/protocol.hpp"

#include "common/expects.hpp"
#include "common/wire.hpp"

namespace slacksched::net {

namespace {

using wire::get;
using wire::put;

/// Per-job body inside SUBMIT and SUBMIT_BATCH frames.
constexpr std::size_t kJobBytes = 32;  // i64 id + 3 x f64

void put_job(std::vector<char>& out, const Job& job) {
  put<std::int64_t>(out, job.id);
  put<double>(out, job.release);
  put<double>(out, job.proc);
  put<double>(out, job.deadline);
}

Job get_job(const char** cursor) {
  Job job;
  job.id = get<std::int64_t>(cursor);
  job.release = get<double>(cursor);
  job.proc = get<double>(cursor);
  job.deadline = get<double>(cursor);
  return job;
}

}  // namespace

void encode_submit(std::vector<char>& out, const SubmitMsg& msg) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, msg.request_id);
  put_job(out, msg.job);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kSubmit);
}

void encode_submit_batch(std::vector<char>& out,
                         std::uint64_t base_request_id,
                         std::span<const Job> jobs) {
  SLACKSCHED_EXPECTS(12 + jobs.size() * kJobBytes <= kMaxPayload);
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, base_request_id);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(jobs.size()));
  for (const Job& job : jobs) put_job(out, job);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kSubmitBatch);
}

void encode_decision(std::vector<char>& out, const DecisionMsg& msg) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, msg.request_id);
  put<std::int64_t>(out, msg.job_id);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.outcome));
  put<std::int32_t>(out, msg.machine);
  put<double>(out, msg.start);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kDecision);
}

void encode_reject(std::vector<char>& out, const RejectMsg& msg) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, msg.request_id);
  put<std::int64_t>(out, msg.job_id);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(msg.outcome));
  put<std::uint32_t>(out, msg.retry_after_ms);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kReject);
}

void encode_drain(std::vector<char>& out) {
  const std::size_t start = wire::begin_frame(out);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kDrain);
}

void encode_drained(std::vector<char>& out, const DrainedMsg& msg) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, msg.submitted);
  put<std::uint64_t>(out, msg.accepted);
  put<std::uint64_t>(out, msg.rejected);
  put<double>(out, msg.accepted_volume);
  put<double>(out, msg.rejected_volume);
  put<double>(out, msg.makespan);
  put<std::uint8_t>(out, msg.clean);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kDrained);
}

void encode_ping(std::vector<char>& out, std::uint64_t token) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, token);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kPing);
}

void encode_pong(std::vector<char>& out, std::uint64_t token) {
  const std::size_t start = wire::begin_frame(out);
  put<std::uint64_t>(out, token);
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kPong);
}

void encode_error(std::vector<char>& out, std::string_view message) {
  const std::size_t start = wire::begin_frame(out);
  out.insert(out.end(), message.begin(), message.end());
  wire::end_frame(out, start, kAdmissionFrames, FrameType::kError);
}

bool parse_submit(const Frame& frame, SubmitMsg& out, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 8 + kJobBytes, "SUBMIT",
                        error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out.request_id = get<std::uint64_t>(&cursor);
  out.job = get_job(&cursor);
  return true;
}

bool parse_submit_batch_into(const Frame& frame,
                             std::uint64_t& base_request_id,
                             std::vector<Job>& jobs, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 12, "SUBMIT_BATCH", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  base_request_id = get<std::uint64_t>(&cursor);
  const std::uint32_t count = get<std::uint32_t>(&cursor);
  const std::size_t need = 12 + static_cast<std::size_t>(count) * kJobBytes;
  if (frame.payload.size() < need) {
    if (error != nullptr) {
      *error = "SUBMIT_BATCH count " + std::to_string(count) +
               " exceeds payload (" + std::to_string(frame.payload.size()) +
               " bytes)";
    }
    return false;
  }
  jobs.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) jobs[i] = get_job(&cursor);
  return true;
}

bool parse_decision(const Frame& frame, DecisionMsg& out,
                    std::string* error) {
  if (!wire::check_size(frame.payload.size(), 29, "DECISION", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out.request_id = get<std::uint64_t>(&cursor);
  out.job_id = get<std::int64_t>(&cursor);
  const std::uint8_t raw = get<std::uint8_t>(&cursor);
  out.machine = get<std::int32_t>(&cursor);
  out.start = get<double>(&cursor);
  if (!outcome_valid(raw) ||
      !outcome_is_decision(static_cast<Outcome>(raw))) {
    if (error != nullptr) {
      *error = "DECISION carries non-decision outcome code " +
               std::to_string(raw);
    }
    return false;
  }
  out.outcome = static_cast<Outcome>(raw);
  return true;
}

bool parse_reject(const Frame& frame, RejectMsg& out, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 21, "REJECT", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out.request_id = get<std::uint64_t>(&cursor);
  out.job_id = get<std::int64_t>(&cursor);
  const std::uint8_t raw = get<std::uint8_t>(&cursor);
  out.retry_after_ms = get<std::uint32_t>(&cursor);
  if (!outcome_valid(raw) || !outcome_is_shed(static_cast<Outcome>(raw))) {
    if (error != nullptr) {
      *error = "REJECT carries non-shed outcome code " + std::to_string(raw);
    }
    return false;
  }
  out.outcome = static_cast<Outcome>(raw);
  return true;
}

bool parse_drained(const Frame& frame, DrainedMsg& out, std::string* error) {
  if (!wire::check_size(frame.payload.size(), 49, "DRAINED", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  out.submitted = get<std::uint64_t>(&cursor);
  out.accepted = get<std::uint64_t>(&cursor);
  out.rejected = get<std::uint64_t>(&cursor);
  out.accepted_volume = get<double>(&cursor);
  out.rejected_volume = get<double>(&cursor);
  out.makespan = get<double>(&cursor);
  out.clean = get<std::uint8_t>(&cursor);
  return true;
}

bool parse_token(const Frame& frame, std::uint64_t& token,
                 std::string* error) {
  if (!wire::check_size(frame.payload.size(), 8, "PING/PONG", error)) {
    return false;
  }
  const char* cursor = frame.payload.data();
  token = get<std::uint64_t>(&cursor);
  return true;
}

std::string parse_error_message(const Frame& frame) {
  return std::string(frame.payload.begin(), frame.payload.end());
}

}  // namespace slacksched::net
