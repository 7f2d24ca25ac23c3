// The in-process workloads: `inproc` (an embedded gateway) and `durable`
// (the same gateway on a recovered commit-log history, with kBatch fsync
// and ack-on-batch replication to an in-process follower).
//
// Both are closed loops: one producer thread calls submit_batch(256) and
// keeps at most kWindow jobs in flight, counted through on_decision. When
// the window is full the producer sleeps on a futex until room for one
// batch frees up, so no submission is ever refused for a full queue and no
// cycle is spent retrying. The round's last kLoneJobs jobs then go in one
// submit() at a time, each waited for.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>

#include "bench.hpp"
#include "probes.hpp"
#include "replication/replica_server.hpp"
#include "service/metrics_exporter.hpp"
#include "workloads.hpp"

namespace slackbench {

using namespace slacksched;

namespace {

constexpr std::uint32_t kWindow = 8192;
constexpr std::uint32_t kNoWaiter = std::numeric_limits<std::uint32_t>::max();
/// Decisions a shard accumulates before publishing them to the producer
/// during the bulk phase; every lone-phase decision is published at once.
constexpr std::uint32_t kPublishEvery = 32;

/// The on_decision target of one round: per-shard tallies written only by
/// that shard's consumer thread, plus the decided counter the producer
/// sleeps on.
struct DecisionSink {
  DecisionSink(const Stream& stream, std::size_t bulk) {
    for (std::size_t i = stream.history; i < stream.history + bulk; ++i) {
      ++shard[stream.shard_of[i]].bulk;
    }
  }

  void on_decision(int s, const Job& job, const Decision& d) {
    PerShard& p = shard[static_cast<std::size_t>(s)];
    p.tally.add(job, d);
    ++p.local;
    if (p.local == p.bulk) p.bulk_done_ns = now_ns();
    if (p.local - p.published < kPublishEvery && p.local < p.bulk) return;
    const std::uint32_t total =
        decided.fetch_add(p.local - p.published) + (p.local - p.published);
    p.published = p.local;
    if (total >= need.load()) decided.notify_one();
  }

  /// Producer side: sleeps until at least `target` decisions published.
  void wait_for(std::uint32_t target) {
    if (decided.load() >= target) return;
    need.store(target);
    std::uint32_t seen = decided.load();
    while (seen < target) {
      decided.wait(seen);
      seen = decided.load();
    }
    need.store(kNoWaiter);
  }

  struct alignas(64) PerShard {
    Tally tally;
    std::uint32_t local = 0;
    std::uint32_t published = 0;
    std::uint32_t bulk = 0;  ///< this shard's jobs in the bulk phase
    std::int64_t bulk_done_ns = 0;
  };

  std::array<PerShard, kShards> shard;
  alignas(64) std::atomic<std::uint32_t> decided{0};
  alignas(64) std::atomic<std::uint32_t> need{kNoWaiter};
};

/// Pushes jobs [begin, begin + count) through the gateway as a closed
/// loop. Returns the number the gateway refused (0 on a healthy run).
std::uint64_t drive(AdmissionGateway& gateway, const Job* begin,
                    std::size_t count, DecisionSink* sink, SpanLog& log,
                    std::uint32_t round_span) {
  std::uint64_t refused = 0;
  std::uint32_t submitted = 0;
  // Rounds are shorter than a second: the first scrape comes early.
  std::int64_t next_scrape = now_ns() + 50'000'000;
  for (std::size_t i = 0; i < count; i += kSubmitBatch) {
    const std::size_t k = std::min(kSubmitBatch, count - i);
    const auto after = submitted + static_cast<std::uint32_t>(k);
    if (sink != nullptr && after > kWindow) sink->wait_for(after - kWindow);
    const std::int64_t t0 = now_ns();
    const BatchSubmitResult r =
        gateway.submit_batch(std::span<const Job>(begin + i, k));
    if (log.enabled()) {
      const std::int64_t t1 = now_ns();
      log.add("ingest.submit", t0, t1, static_cast<std::uint64_t>(begin[i].id),
              k, round_span);
      // The exporter is read once a second, as a scraper would.
      if (t1 >= next_scrape) {
        const std::int64_t s0 = now_ns();
        const std::string page = render_prometheus(gateway);
        log.add("service.metrics_scrape", s0, now_ns(), page.size(), 1,
                round_span);
        next_scrape = t1 + 1'000'000'000;
      }
    }
    refused += k - r.enqueued;
    submitted = after;
  }
  return refused;
}

/// Prep traffic, unmeasured: chunks of half a shard queue, each decided
/// before the next goes in, so none is refused whatever the routing does.
void drive_untimed(AdmissionGateway& gateway, const Job* begin,
                   std::size_t count) {
  SpanLog off(0, false);
  DecisionSink* none = nullptr;
  std::size_t done = 0;
  while (done < count) {
    const std::size_t k = std::min<std::size_t>(kQueueCapacity / 2, count - done);
    if (drive(gateway, begin + done, k, none, off, 0) != 0) {
      throw std::runtime_error("history prep was refused by the gateway");
    }
    done += k;
    while (gateway.metrics_snapshot().total.submitted < done) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

double admit_quantile_us(const MetricsSnapshot& m, double q) {
  const Histogram& h = m.admit_latency;
  std::vector<double> edges;
  std::vector<double> counts;
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    edges.push_back(h.bin_range(b).first);
    counts.push_back(static_cast<double>(h.count_in_bin(b)));
  }
  edges.push_back(h.bin_range(h.bin_count() - 1).second);
  return log_bins_quantile_us(edges, counts, q);
}

class GatewayLoop final : public Workload {
 public:
  GatewayLoop(const Stream& stream, const WorkDir& work, bool durable)
      : stream_(stream), work_(work), durable_(durable) {
    if (durable_) prepare_history();
  }

  Round round(SpanLog& log) override {
    Round r;
    r.traced = log.enabled();
    const std::size_t n = stream_.run_size();
    const std::size_t bulk = n - kLoneJobs;
    DecisionSink sink(stream_, bulk);
    GatewayConfig config = gateway_config();
    config.on_decision = [&sink](int s, const Job& job, const Decision& d,
                                 std::uint64_t) { sink.on_decision(s, job, d); };

    std::string leader_dir;
    std::string replica_dir;
    if (durable_) {
      leader_dir = work_.sub("leader");
      replica_dir = work_.sub("replica");
      for (int s = 0; s < kShards; ++s) {
        std::filesystem::copy_file(shard_log(history_dir_, s),
                                   shard_log(leader_dir, s));
      }
      config.wal_dir = leader_dir;
      config.wal_fsync = FsyncPolicy::kBatch;
    }

    // Set-up: from constructing the service until it accepts a job. For
    // durable this includes WAL recovery and the follower's catch-up.
    const std::int64_t setup0 = now_ns();
    std::unique_ptr<repl::ReplicaServer> replica;
    if (durable_) {
      repl::ReplicaServerConfig rc;
      rc.dir = replica_dir;
      rc.shards = kShards;
      replica = std::make_unique<repl::ReplicaServer>(rc);
      config.replication.emplace();
      config.replication->port = replica->port();
      config.replication->ack_mode = repl::ReplAckMode::kAckOnBatch;
    }
    auto gateway = std::make_unique<AdmissionGateway>(config, threshold_factory());
    const std::int64_t setup1 = now_ns();
    const auto frames_sent = [&gateway] {
      std::uint64_t frames = 0;
      for (int s = 0; s < kShards; ++s) {
        if (const auto* r = gateway->replicator(s)) frames += r->frames_sent();
      }
      return frames;
    };
    const std::uint64_t frames0 = frames_sent();

    // Bulk phase: the closed loop, which gives throughput and CPU.
    const ProcessUsage usage0 = process_usage();
    const double producer_cpu0 = thread_cpu_us();
    const std::uint32_t round_span = log.open("round", 0, n);
    const std::int64_t t_first = now_ns();
    std::uint64_t refused =
        drive(*gateway, stream_.run_begin(), bulk, &sink, log, round_span);
    sink.wait_for(static_cast<std::uint32_t>(bulk));
    const double producer_cpu = thread_cpu_us() - producer_cpu0;
    const ProcessUsage usage1 = process_usage();
    const MetricsSnapshot m = gateway->metrics_snapshot();
    const std::uint64_t frames1 = frames_sent();
    std::int64_t t_last = 0;
    for (const auto& p : sink.shard) t_last = std::max(t_last, p.bulk_done_ns);

    // Lone phase: one submit() at a time, each waited for.
    std::vector<double> latency;
    for (std::size_t i = bulk; i < n; ++i) {
      const std::int64_t t0 = now_ns();
      if (gateway->submit(stream_.run_begin()[i]) != Outcome::kEnqueued) {
        ++refused;
        break;
      }
      sink.wait_for(static_cast<std::uint32_t>(i + 1));
      latency.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    GatewayResult result = gateway->finish();
    log.close(round_span);
    const auto jobs = static_cast<double>(bulk);

    Observed& seen = r.seen;
    seen.submitted = n;
    seen.per_shard = true;
    for (int s = 0; s < kShards; ++s) {
      seen.shard[static_cast<std::size_t>(s)] =
          sink.shard[static_cast<std::size_t>(s)].tally;
    }
    seen.merged = merge(seen.shard);
    seen.answered = seen.merged.decided;
    seen.unanswered = refused + (n - std::min<std::uint64_t>(n, seen.answered));
    if (!result.clean() || !result.errors.empty()) {
      seen.error = result.errors.empty() ? result.first_violation()
                                         : result.errors.front();
    }
    if (!durable_) {
      seen.has_server_totals = true;
      seen.server_submitted = result.merged.submitted;
      seen.server_accepted = result.merged.accepted;
      seen.server_accepted_volume = result.merged.accepted_volume;
    }

    r.e2e["setup_s"] = static_cast<double>(setup1 - setup0) / 1e9;
    r.e2e["jobs_per_s"] = jobs / (static_cast<double>(t_last - t_first) / 1e9);
    r.e2e["decision_p50_us"] = quantile(latency, 0.50);
    r.e2e["decision_p99_us"] = quantile(latency, 0.99);
    r.e2e["accepted_load_frac"] =
        seen.merged.accepted_volume / stream_.offered_volume;
    r.e2e["server_cpu_us_per_job"] =
        (usage1.cpu_us - usage0.cpu_us - producer_cpu) / jobs;
    r.e2e["peak_rss_mb"] = usage1.max_rss_kb / 1024.0;

    r.layer["service.jobs_per_wake"] =
        static_cast<double>(m.total.enqueued) /
        static_cast<double>(std::max<std::size_t>(1, m.total.batches));
    r.layer["service.admit_p50_us"] = admit_quantile_us(m, 0.50);
    r.layer["service.admit_p99_us"] = admit_quantile_us(m, 0.99);
    r.layer["service.peak_queue_depth"] =
        static_cast<double>(m.total.peak_queue_depth);
    r.layer["process.ctx_switches_per_job"] =
        (usage1.ctx_switches - usage0.ctx_switches) / jobs;
    // No socket in the loop: the net layer does nothing here.
    r.layer["net.replies_per_recv"] = 0.0;
    r.layer["net.wire_bytes_per_job"] = 0.0;

    if (durable_) {
      double grown = 0.0;
      for (int s = 0; s < kShards; ++s) {
        const std::string leader = shard_log(leader_dir, s);
        seen.leader.push_back(wal_records(leader));
        seen.follower.push_back(replica->watermark(s));
        grown += static_cast<double>(std::filesystem::file_size(leader) -
                                     std::filesystem::file_size(
                                         shard_log(history_dir_, s)));
      }
      r.layer["replication.frames_per_batch"] =
          static_cast<double>(frames1 - frames0) /
          static_cast<double>(std::max<std::size_t>(1, m.total.batches));
      r.layer["wal.bytes_per_accepted_job"] =
          grown / static_cast<double>(std::max<std::uint64_t>(
                      1, seen.merged.accepted));
      gateway.reset();
      replica->stop();
      std::filesystem::remove_all(leader_dir);
      std::filesystem::remove_all(replica_dir);
    }
    return r;
  }

  void layer_probes(const Reference& ref, Metrics& layer,
                    SpanLog& log) override {
    probe_net_codec(stream_, ref, log);
    probe_storage(stream_, ref, work_, durable_ ? history_dir_ : std::string(),
                  layer, log);
  }

  [[nodiscard]] double prep_s() const { return prep_s_; }

 private:
  static std::string shard_log(const std::string& dir, int s) {
    return dir + "/shard-" + std::to_string(s) + ".wal";
  }

  /// Untimed: the history jobs go through a kNever gateway, leaving the
  /// commit-log history every durable round recovers from.
  void prepare_history() {
    const std::int64_t t0 = now_ns();
    history_dir_ = work_.sub("history");
    GatewayConfig config = gateway_config();
    config.wal_dir = history_dir_;
    config.wal_fsync = FsyncPolicy::kNever;
    AdmissionGateway gateway(config, threshold_factory());
    drive_untimed(gateway, stream_.jobs.data(), stream_.history);
    const GatewayResult result = gateway.finish();
    if (!result.clean() || !result.errors.empty()) {
      throw std::runtime_error("history prep failed");
    }
    prep_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  const Stream& stream_;
  WorkDir work_;
  bool durable_;
  std::string history_dir_;
  double prep_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_gateway_loop(const Stream& stream,
                                            const WorkDir& work, bool durable,
                                            double* prep_s) {
  auto loop = std::make_unique<GatewayLoop>(stream, work, durable);
  if (prep_s != nullptr) *prep_s = loop->prep_s();
  return loop;
}

}  // namespace slackbench
