// slackbench: shared set-up, the sequential-engine oracle, round results and
// the span log every workload records into.
//
// Every workload drives the same deployment (Threshold eps=0.1, 2 shards x
// 8 machines, hash routing) with the same seeded job stream, one *round* at
// a time: a round builds a fresh service, pushes the whole stream through
// it, tears it down and is checked against the sequential reference. A run
// repeats rounds for the requested number of seconds and reports a quantile
// over them (main.cpp), so one slow round (a noisy neighbour, a late timer)
// cannot move a result.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "job/job.hpp"
#include "sched/decision.hpp"
#include "service/gateway.hpp"

namespace slackbench {

using slacksched::Decision;
using slacksched::Job;
using slacksched::JobId;

// --- the deployment every workload measures --------------------------------

inline constexpr double kEps = 0.1;
inline constexpr int kShards = 2;
inline constexpr int kMachinesPerShard = 8;
inline constexpr std::size_t kQueueCapacity = 8192;
inline constexpr std::size_t kConsumerBatch = 512;
/// Jobs per producer call (submit_batch / SUBMIT_BATCH frame).
inline constexpr std::size_t kSubmitBatch = 256;

/// Gateway settings shared by the embedded and the networked service.
[[nodiscard]] slacksched::GatewayConfig gateway_config();
[[nodiscard]] slacksched::ShardSchedulerFactory threshold_factory();

// --- clocks and statistics -------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; the
/// sample is sorted in place. NaN for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Quantile of a histogram given as bin edges (counts.size() + 1 of them)
/// and per-bin counts, interpolated geometrically inside the bin (the
/// gateway's latency bins are log-spaced). Returned in microseconds for
/// edges in seconds.
[[nodiscard]] double log_bins_quantile_us(const std::vector<double>& edges,
                                          const std::vector<double>& counts,
                                          double q);

/// CPU time of the calling thread / the whole process, in microseconds.
[[nodiscard]] double thread_cpu_us();
struct ProcessUsage {
  double cpu_us = 0.0;        ///< user + system, all threads
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  double max_rss_kb = 0.0;
};
[[nodiscard]] ProcessUsage process_usage();

// --- CPU placement -------------------------------------------------------------

/// Pins the calling thread to the last CPU of its affinity mask. Called by
/// main before any thread or fork: every thread and the server process
/// inherit the mask, so the whole benchmark (load generator, service, and
/// the wire server) shares one CPU. Left to the scheduler, placement on a
/// host with two vCPUs changes from round to round and every timing moves
/// with it: a wake-up on the same CPU costs about 2 us, a wake-up of an
/// idle vCPU about 9 us, and throughput flips between 5 M and 9 M jobs/s.
void pin_to_one_cpu() noexcept;

// --- the job stream ----------------------------------------------------------

/// scenario("overload", eps, seed) with n = history + run jobs. The first
/// `history` jobs only exist to leave a commit-log history for `durable`;
/// every round submits jobs [history, history + run).
struct Stream {
  std::vector<Job> jobs;
  std::size_t history = 0;
  /// Home shard of every job (ShardRouter kHash).
  std::vector<std::uint8_t> shard_of;
  double offered_volume = 0.0;  ///< sum of p_j over the run jobs

  [[nodiscard]] std::size_t run_size() const { return jobs.size() - history; }
  [[nodiscard]] const Job* run_begin() const { return jobs.data() + history; }
};
[[nodiscard]] Stream make_stream(std::uint64_t seed, std::size_t history,
                                 std::size_t run);

// --- decision accounting and the oracle --------------------------------------

/// Decisions of one decision stream in the order they were rendered.
/// Volumes are summed in that order, so two tallies of the same per-shard
/// stream are bit-identical; the fingerprint is a commutative hash over
/// (job, accepted, machine, start) that does not depend on the order.
struct Tally {
  std::uint64_t decided = 0;
  std::uint64_t accepted = 0;
  double accepted_volume = 0.0;
  std::uint64_t fingerprint = 0;

  void add(JobId id, double proc, bool accepted_job, int machine,
           double start);
  void add(const Job& job, const Decision& d) {
    add(job.id, job.proc, d.accepted, d.machine, d.start);
  }
};

/// The gateway's merge: counts add, volumes sum shard 0 then shard 1 onto
/// 0.0 (AdmissionGateway::finish() and the DRAINED frame use this order).
[[nodiscard]] Tally merge(const std::array<Tally, kShards>& shards);

/// The sequential reference: each shard's hash-routed subsequence replayed
/// through StreamingRunner (history jobs fed but not tallied).
struct Reference {
  std::array<Tally, kShards> shard;
  Tally merged;
  /// Accepted commitments per shard among the history jobs (the records a
  /// recovered WAL holds before a durable round starts).
  std::array<std::uint64_t, kShards> history_accepted{};
  /// When each shard's replay ran: StreamingRunner::feed over the
  /// subsequence, then ThresholdScheduler::on_arrival alone over it.
  struct Timed {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t jobs = 0;
  };
  std::array<Timed, kShards> feed;
  std::array<Timed, kShards> bare;
  /// Accepted run commitments (job index, machine, start), shard order.
  struct Commit {
    std::uint32_t index;
    std::int32_t machine;
    double start;
  };
  std::array<std::vector<Commit>, kShards> commits;
};
[[nodiscard]] Reference compute_reference(const Stream& stream,
                                          bool keep_commits);

/// What one round observed, checked against the reference after the run.
struct Observed {
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;    ///< submissions with exactly one answer
  std::uint64_t unanswered = 0;  ///< no answer, shed, or answered twice
  bool per_shard = false;        ///< `shard` holds per-shard tallies
  std::array<Tally, kShards> shard;
  Tally merged;
  /// Server-reported totals (DRAINED frame or GatewayResult::merged).
  bool has_server_totals = false;
  std::uint64_t server_submitted = 0;
  std::uint64_t server_accepted = 0;
  double server_accepted_volume = 0.0;
  bool server_clean = true;
  /// durable: follower watermark and leader record count per shard.
  std::vector<std::uint64_t> follower, leader;
  std::string error;  ///< a failure noticed while running
};

/// Empty when the round matches the reference; otherwise the first
/// mismatch in words.
[[nodiscard]] std::string check(const Observed& seen, const Reference& ref,
                                const Stream& stream);

// --- spans -------------------------------------------------------------------

/// One timed call into a layer, recorded from the benchmark's own code.
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   ///< 0 = a root span
  std::uint64_t request = 0;  ///< first job / request id the call carried
  std::uint64_t items = 1;    ///< jobs, records or replies it covered
};

/// Spans of one thread. Kept in memory and written out when the run ends;
/// a disabled log records nothing and costs one branch per call site.
class SpanLog {
 public:
  SpanLog(int tid, bool enabled) : tid_(tid), enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int tid() const { return tid_; }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint32_t add(std::string_view name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request = 0,
                    std::uint64_t items = 1, std::uint32_t parent = 0);

  /// Starts a span that encloses later ones (their `parent`); close()
  /// stamps its end.
  std::uint32_t open(std::string_view name, std::uint64_t request = 0,
                     std::uint64_t items = 1);
  void close(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int tid_;
  bool enabled_;
  std::vector<Span> spans_;
  /// (id, index into spans_) of spans opened and not yet closed.
  std::vector<std::pair<std::uint32_t, std::size_t>> open_;
};

/// Totals of every span with one name across logs.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t items = 0;
  double total_ns = 0.0;
  std::vector<double> durations_ns;

  [[nodiscard]] double ns_per_item() const;
};
[[nodiscard]] SpanTotals totals(const std::vector<const SpanLog*>& logs,
                                std::string_view name);

/// Writes the spans as Chrome trace-event JSON (chrome://tracing,
/// ui.perfetto.dev). At most `limit` spans are written.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t limit);

// --- rounds -----------------------------------------------------------------

/// Named values of one round (end-to-end or per-layer).
using Metrics = std::map<std::string, double>;

struct Round {
  Metrics e2e;
  Metrics layer;
  /// Printed for the reader, not reported (e.g. open-loop sender lateness).
  Metrics notes;
  Observed seen;
  bool traced = false;
};

/// Records in a commit log of fixed-width records (service/commit_log.hpp).
[[nodiscard]] std::uint64_t wal_records(const std::string& path);

/// Directory for this run's logs and replicas (under --work-dir).
struct WorkDir {
  std::string path;
  [[nodiscard]] std::string sub(const std::string& name) const;
};

/// One workload: build the service, push the stream through, tear down.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one round; `log` records spans when tracing.
  virtual Round round(SpanLog& log) = 0;
  /// Extra per-layer values that need the reference (traced runs only).
  virtual void layer_probes(const Reference& ref, Metrics& layer,
                            SpanLog& log) = 0;
  /// Span logs of threads the workload runs besides the caller's.
  [[nodiscard]] virtual std::vector<const SpanLog*> thread_logs() const {
    return {};
  }
};

}  // namespace slackbench
