/// \file
/// The admission wire protocol: a versioned, length-prefixed, CRC-framed
/// binary format spoken between AdmissionClient and AdmissionServer. Its
/// frames use the shared 12-byte header and the one frame codec of
/// common/wire.hpp (little-endian fixed-width fields, CRC-32C over the
/// payload), so one codec and one checksum cover every byte the project
/// puts on a wire or a disk. What is the admission protocol's own:
///
///   version      kProtocolVersion (2); mismatch rejects the frame
///   type         FrameType (1..9); unknown values reject the frame
///   u16 word     reserved: 0 on send, ignored on receive
///   payload cap  kMaxPayload (1 MiB); bigger frames reject loudly
///
/// Versioning rules (see docs/net.md): the header layout itself is frozen
/// forever — every version keeps the 12-byte header so an older decoder
/// can still *reject* a newer frame cleanly. Within a version, payloads
/// may only grow by appending fields; decoders accept payloads longer
/// than they need and reject shorter ones. Outcome codes travel as
/// their frozen `slacksched::Outcome` wire values (service/outcome.hpp).
///
/// Conversation shape: clients send SUBMIT / SUBMIT_BATCH / PING / DRAIN;
/// servers answer every submitted job with exactly one DECISION (the
/// scheduler rendered accept/reject) or REJECT (shed before reaching a
/// scheduler: queue full, closed, retry-after), answer PING with PONG, and
/// answer DRAIN with DRAINED after the gateway quiesced. ERROR is sent by
/// either side before closing on a protocol violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/wire.hpp"
#include "job/job.hpp"
#include "service/outcome.hpp"

namespace slacksched::net {

/// Protocol version this build speaks (header `version` byte). A new
/// checksum is a new version, so a peer that frames with another one is
/// refused by its header, never by a CRC mismatch.
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Size of the fixed frame header in bytes (frozen across versions).
inline constexpr std::size_t kFrameHeaderSize = wire::kFrameHeaderBytes;

/// Largest accepted payload. Bounds decoder memory against hostile or
/// corrupt length fields; also caps SUBMIT_BATCH at kMaxBatchJobs.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// Most jobs one SUBMIT_BATCH frame carries under kMaxPayload: its payload
/// is a 12-byte prefix, then 32 bytes per job. 32,767.
inline constexpr std::size_t kMaxBatchJobs = (kMaxPayload - 12) / 32;

/// Frame type tags. Values are frozen; new types append.
enum class FrameType : std::uint8_t {
  kSubmit = 1,       ///< client -> server: one job
  kSubmitBatch = 2,  ///< client -> server: contiguous run of jobs
  kDecision = 3,     ///< server -> client: rendered accept/reject
  kReject = 4,       ///< server -> client: shed before a decision
  kDrain = 5,        ///< client -> server: quiesce request
  kDrained = 6,      ///< server -> client: final merged counters
  kPing = 7,         ///< client -> server: liveness probe
  kPong = 8,         ///< server -> client: probe echo
  kError = 9,        ///< either side: protocol violation, then close
};

/// The admission protocol as the shared frame codec sees it.
inline constexpr wire::FrameSpec kAdmissionFrames{
    kProtocolVersion, static_cast<std::uint8_t>(FrameType::kError),
    kMaxPayload, "admission"};

/// One decoded frame (the header's u16 word is reserved and ignored).
using Frame = wire::Frame<FrameType>;

/// The shared incremental decoder (common/wire.hpp) bound to this protocol.
using FrameDecoder = wire::ProtocolDecoder<FrameType, kAdmissionFrames>;

/// Thrown by the client on connection failures, peer-reported ERROR
/// frames, and malformed server responses.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// SUBMIT payload: u64 request_id, then the job as
/// (i64 id, f64 release, f64 proc, f64 deadline). 40 bytes.
struct SubmitMsg {
  std::uint64_t request_id = 0;
  Job job;
};

/// DECISION payload: u64 request_id, i64 job_id, u8 outcome
/// (kAccepted/kRejected), i32 machine, f64 start. 29 bytes.
struct DecisionMsg {
  std::uint64_t request_id = 0;
  JobId job_id = 0;
  Outcome outcome = Outcome::kRejected;
  std::int32_t machine = -1;
  double start = 0.0;
};

/// REJECT payload: u64 request_id, i64 job_id, u8 outcome (one of the
/// shed outcomes), u32 retry_after_ms (0 unless kRejectedRetryAfter).
struct RejectMsg {
  std::uint64_t request_id = 0;
  JobId job_id = 0;
  Outcome outcome = Outcome::kRejectedClosed;
  std::uint32_t retry_after_ms = 0;
};

/// DRAINED payload: the gateway's final merged RunMetrics plus a clean
/// flag — byte-for-byte the counters GatewayResult reports.
struct DrainedMsg {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  double accepted_volume = 0.0;
  double rejected_volume = 0.0;
  double makespan = 0.0;
  /// GatewayResult::clean(): 0 iff a shard worker died or attempted an
  /// illegal commitment.
  std::uint8_t clean = 1;
};

// --- encoders: append one complete frame (header + payload) to `out` ---

void encode_submit(std::vector<char>& out, const SubmitMsg& msg);
/// Jobs are assigned request ids base_request_id .. base_request_id+n-1
/// in order; the server answers each as if submitted individually.
/// Requires jobs.size() <= kMaxBatchJobs.
void encode_submit_batch(std::vector<char>& out,
                         std::uint64_t base_request_id,
                         std::span<const Job> jobs);
void encode_decision(std::vector<char>& out, const DecisionMsg& msg);
void encode_reject(std::vector<char>& out, const RejectMsg& msg);
void encode_drain(std::vector<char>& out);
void encode_drained(std::vector<char>& out, const DrainedMsg& msg);
void encode_ping(std::vector<char>& out, std::uint64_t token);
void encode_pong(std::vector<char>& out, std::uint64_t token);
void encode_error(std::vector<char>& out, std::string_view message);

// --- payload parsers: false (with *error set) on malformed payloads ---

[[nodiscard]] bool parse_submit(const Frame& frame, SubmitMsg& out,
                                std::string* error);
/// Decodes a SUBMIT_BATCH payload straight into `jobs`, reusing its
/// storage across calls (resized to the batch's count; capacity is kept),
/// field by field. The server's ingest path calls this with a per-loop
/// scratch vector so a SUBMIT_BATCH reaches the gateway's span ingest with
/// zero per-frame allocations.
[[nodiscard]] bool parse_submit_batch_into(const Frame& frame,
                                           std::uint64_t& base_request_id,
                                           std::vector<Job>& jobs,
                                           std::string* error);
[[nodiscard]] bool parse_decision(const Frame& frame, DecisionMsg& out,
                                  std::string* error);
[[nodiscard]] bool parse_reject(const Frame& frame, RejectMsg& out,
                                std::string* error);
[[nodiscard]] bool parse_drained(const Frame& frame, DrainedMsg& out,
                                 std::string* error);
[[nodiscard]] bool parse_token(const Frame& frame, std::uint64_t& token,
                               std::string* error);
/// ERROR payloads are the raw UTF-8 message (possibly empty).
[[nodiscard]] std::string parse_error_message(const Frame& frame);

}  // namespace slacksched::net
