// Shared set-up, statistics, the sequential-engine oracle and the span log.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "bench.hpp"
#include "core/threshold.hpp"
#include "sched/engine.hpp"
#include "service/commit_log.hpp"
#include "service/router.hpp"
#include "workload/generators.hpp"

namespace slackbench {

using namespace slacksched;

GatewayConfig gateway_config() {
  GatewayConfig config;
  config.shards = kShards;
  config.queue_capacity = kQueueCapacity;
  config.batch_size = kConsumerBatch;
  config.routing = RoutingPolicy::kHash;
  config.record_decisions = false;
  return config;
}

ShardSchedulerFactory threshold_factory() {
  return [](int) {
    return std::make_unique<ThresholdScheduler>(kEps, kMachinesPerShard);
  };
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double log_bins_quantile_us(const std::vector<double>& edges,
                            const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total <= 0.0) return std::numeric_limits<double>::quiet_NaN();
  const double rank = q * total;
  double below = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] > 0.0 && below + counts[b] >= rank) {
      const double frac = (rank - below) / counts[b];
      return edges[b] * std::pow(edges[b + 1] / edges[b], frac) * 1e6;
    }
    below += counts[b];
  }
  return edges.back() * 1e6;
}

double thread_cpu_us() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

ProcessUsage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  ProcessUsage usage;
  usage.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  usage.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  usage.max_rss_kb = static_cast<double>(ru.ru_maxrss);
  return usage;
}

void pin_to_one_cpu() noexcept {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  int last = -1;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) last = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  if (last >= 0) CPU_SET(last, &one);
  if (last < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    // Placement only steadies the timings; the run stays correct without it.
    std::fprintf(stderr, "slackbench: sched_setaffinity: %s\n",
                 std::strerror(errno));
  }
}

Stream make_stream(std::uint64_t seed, std::size_t history, std::size_t run) {
  WorkloadConfig config = scenario("overload", kEps, seed);
  config.n = history + run;
  Stream stream;
  stream.jobs = generate_workload(config).jobs();
  stream.history = history;
  ShardRouter router(RoutingPolicy::kHash, kShards);
  stream.shard_of.resize(stream.jobs.size());
  for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
    // Workloads find a job's submission slot from its id.
    if (stream.jobs[i].id != static_cast<JobId>(i + 1)) {
      throw std::runtime_error("job ids are not 1..n in submission order");
    }
    stream.shard_of[i] = static_cast<std::uint8_t>(router.route(stream.jobs[i]));
    if (i >= history) stream.offered_volume += stream.jobs[i].proc;
  }
  return stream;
}

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Tally::add(JobId id, double proc, bool accepted_job, int machine,
                double start) {
  ++decided;
  std::uint64_t h = mix64(static_cast<std::uint64_t>(id) * 2 +
                          (accepted_job ? 1 : 0));
  if (accepted_job) {
    ++accepted;
    accepted_volume += proc;
    h = mix64(h ^ std::bit_cast<std::uint64_t>(start) ^
              (static_cast<std::uint64_t>(machine) << 56));
  }
  fingerprint += h;
}

Tally merge(const std::array<Tally, kShards>& shards) {
  Tally merged;
  for (const Tally& t : shards) {
    merged.decided += t.decided;
    merged.accepted += t.accepted;
    merged.accepted_volume += t.accepted_volume;
    merged.fingerprint += t.fingerprint;
  }
  return merged;
}

Reference compute_reference(const Stream& stream, bool keep_commits) {
  Reference ref;
  const auto replay = [&](int s) {
    const auto shard = static_cast<std::size_t>(s);
    std::vector<std::uint32_t> mine;
    for (std::size_t i = 0; i < stream.jobs.size(); ++i) {
      if (stream.shard_of[i] == s) mine.push_back(static_cast<std::uint32_t>(i));
    }
    ThresholdScheduler scheduler(kEps, kMachinesPerShard);
    RunOptions options;
    options.record_decisions = false;
    StreamingRunner runner(scheduler, options);
    const std::int64_t t0 = now_ns();
    for (const std::uint32_t i : mine) {
      const Job& job = stream.jobs[i];
      const FeedOutcome out = runner.feed(job);
      if (!out.decided || !out.legal) {
        ref.shard[shard].decided = std::numeric_limits<std::uint64_t>::max();
        return;
      }
      if (i < stream.history) {
        ref.history_accepted[shard] += out.decision.accepted ? 1 : 0;
        continue;
      }
      ref.shard[shard].add(job, out.decision);
      if (keep_commits && out.decision.accepted) {
        ref.commits[shard].push_back(
            {static_cast<std::uint32_t>(i - stream.history),
             out.decision.machine, out.decision.start});
      }
    }
    ref.feed[shard] = {t0, now_ns(), mine.size()};
    // The bare decision: on_arrival alone (Threshold commits into its own
    // frontier set), no engine validation and no schedule.
    ThresholdScheduler bare(kEps, kMachinesPerShard);
    const std::int64_t t1 = now_ns();
    std::uint64_t accepted = 0;
    for (const std::uint32_t i : mine) {
      accepted += bare.on_arrival(stream.jobs[i]).accepted ? 1 : 0;
    }
    ref.bare[shard] = {t1, now_ns(), mine.size()};
    if (accepted != ref.shard[shard].accepted + ref.history_accepted[shard]) {
      ref.shard[shard].decided = std::numeric_limits<std::uint64_t>::max();
    }
  };
  // One after the other: the run has one CPU, and each replay's wall time
  // is the per-layer reading of that shard.
  replay(0);
  replay(1);
  ref.merged = merge(ref.shard);
  return ref;
}

std::string check(const Observed& seen, const Reference& ref,
                  const Stream& stream) {
  const auto num = [](auto v) { return std::to_string(v); };
  if (!seen.error.empty()) return seen.error;
  for (const Tally& t : ref.shard) {
    if (t.decided == std::numeric_limits<std::uint64_t>::max()) {
      return "the sequential reference itself hit an illegal commitment";
    }
  }
  const std::uint64_t n = stream.run_size();
  if (seen.submitted != n) {
    return "submitted " + num(seen.submitted) + " of " + num(n) + " jobs";
  }
  if (seen.answered != n || seen.unanswered != 0) {
    return num(seen.unanswered) + " submissions without exactly one answer";
  }
  if (seen.per_shard) {
    for (int s = 0; s < kShards; ++s) {
      const Tally& a = seen.shard[static_cast<std::size_t>(s)];
      const Tally& b = ref.shard[static_cast<std::size_t>(s)];
      if (a.decided != b.decided || a.accepted != b.accepted ||
          std::bit_cast<std::uint64_t>(a.accepted_volume) !=
              std::bit_cast<std::uint64_t>(b.accepted_volume) ||
          a.fingerprint != b.fingerprint) {
        return "shard " + num(s) + " decided " + num(a.accepted) + "/" +
               num(a.decided) + " accepted, reference " + num(b.accepted) +
               "/" + num(b.decided) + " (or a different placement)";
      }
    }
  }
  const Tally& m = seen.merged;
  if (m.decided != ref.merged.decided || m.accepted != ref.merged.accepted ||
      m.fingerprint != ref.merged.fingerprint) {
    return "decisions differ from the sequential reference: accepted " +
           num(m.accepted) + "/" + num(m.decided) + ", reference " +
           num(ref.merged.accepted) + "/" + num(ref.merged.decided);
  }
  if (seen.has_server_totals) {
    if (!seen.server_clean) return "the server reported an illegal commitment";
    if (seen.server_submitted != n || seen.server_accepted != m.accepted ||
        std::bit_cast<std::uint64_t>(seen.server_accepted_volume) !=
            std::bit_cast<std::uint64_t>(ref.merged.accepted_volume)) {
      return "server totals (" + num(seen.server_accepted) + " accepted of " +
             num(seen.server_submitted) +
             ") differ from what the client observed or from the reference";
    }
  }
  for (std::size_t s = 0; s < seen.leader.size(); ++s) {
    const std::uint64_t expect = ref.history_accepted[s] + ref.shard[s].accepted;
    if (seen.leader[s] != expect || seen.follower[s] != expect) {
      return "shard " + num(s) + ": leader holds " + num(seen.leader[s]) +
             " records, follower " + num(seen.follower[s]) + ", expected " +
             num(expect);
    }
  }
  return {};
}

std::uint32_t SpanLog::add(std::string_view name, std::int64_t start_ns,
                           std::int64_t end_ns, std::uint64_t request,
                           std::uint64_t items, std::uint32_t parent) {
  if (!enabled_) return 0;
  static std::atomic<std::uint32_t> next_id{1};
  const std::uint32_t id = next_id.fetch_add(1, std::memory_order_relaxed);
  spans_.push_back({name, start_ns, end_ns, id, parent, request, items});
  return id;
}

std::uint32_t SpanLog::open(std::string_view name, std::uint64_t request,
                            std::uint64_t items) {
  const std::int64_t now = now_ns();
  const std::uint32_t id = add(name, now, now, request, items);
  if (id != 0) open_.emplace_back(id, spans_.size() - 1);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (it->first != id) continue;
    spans_[it->second].end_ns = now_ns();
    open_.erase(it);
    return;
  }
}

double SpanTotals::ns_per_item() const {
  return items == 0 ? std::numeric_limits<double>::quiet_NaN()
                    : total_ns / static_cast<double>(items);
}

SpanTotals totals(const std::vector<const SpanLog*>& logs,
                  std::string_view name) {
  SpanTotals t;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name != name) continue;
      ++t.count;
      t.items += s.items;
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      t.total_ns += d;
      t.durations_ns.push_back(d);
    }
  }
  return t;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        std::size_t limit) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  std::size_t written = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (written == limit) break;
      out << (written == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << log->tid()
          << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"items\":" << s.items
          << "}}";
      ++written;
    }
  }
  out << "\n]}\n";
}

std::uint64_t wal_records(const std::string& path) {
  return (std::filesystem::file_size(path) - kWalHeaderBytes) /
         kWalRecordBytes;
}

std::string WorkDir::sub(const std::string& name) const {
  const std::filesystem::path dir = std::filesystem::path(path) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

}  // namespace slackbench
