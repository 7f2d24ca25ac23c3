#include "service/metrics_exporter.hpp"

#include <array>
#include <sstream>

#include "common/csv.hpp"
#include "policy/criticality.hpp"
#include "service/gateway.hpp"
#include "service/outcome.hpp"

namespace slacksched {

namespace {

/// Shortest round-trip decimal rendering (std::to_chars): integral values
/// print without a fractional part, everything else with exactly the
/// digits needed to reparse bit-identically.
std::string fmt(double v) { return CsvWriter::format(v); }

/// Emits one metric family: HELP/TYPE header, then samples.
class FamilyWriter {
 public:
  FamilyWriter(std::ostringstream& os, const std::string& prefix,
               const std::string& name, const std::string& help,
               const std::string& type)
      : os_(os), name_(prefix + "_" + name) {
    os_ << "# HELP " << name_ << ' ' << help << '\n';
    os_ << "# TYPE " << name_ << ' ' << type << '\n';
  }

  void sample(const std::string& labels, const std::string& value,
              const std::string& suffix = "") {
    os_ << name_ << suffix;
    if (!labels.empty()) os_ << '{' << labels << '}';
    os_ << ' ' << value << '\n';
  }

 private:
  std::ostringstream& os_;
  std::string name_;
};

std::string shard_label(std::size_t shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

/// A counter/gauge family mapped onto a ShardMetricsSnapshot field.
template <typename T>
struct Field {
  const char* name;
  const char* help;
  const char* type;
  T ShardMetricsSnapshot::*member;
};

constexpr Field<std::size_t> kCountFields[] = {
    {"enqueued_total", "Jobs accepted into a shard submission queue.",
     "counter", &ShardMetricsSnapshot::enqueued},
    {"submitted_total", "Decisions rendered by the shard engines.",
     "counter", &ShardMetricsSnapshot::submitted},
    {"accepted_total", "Jobs admitted (committed to a machine and start).",
     "counter", &ShardMetricsSnapshot::accepted},
    {"rejected_total", "Jobs declined by the admission policy.", "counter",
     &ShardMetricsSnapshot::rejected},
    {"backpressure_rejected_total",
     "Jobs shed because the routed shard queue was full.", "counter",
     &ShardMetricsSnapshot::backpressure_rejected},
    {"degraded_rejected_total",
     "Jobs refused with retry-after because their shard was unavailable.",
     "counter", &ShardMetricsSnapshot::degraded_rejected},
    {"batches_total", "Consumer pops that found work.", "counter",
     &ShardMetricsSnapshot::batches},
    {"wal_syncs_total",
     "Commit-log syncs (fsync, then the follower ACK), one per group of "
     "batches decided before it publishes.",
     "counter", &ShardMetricsSnapshot::wal_syncs},
    {"recoveries_total", "Completed WAL replays / shard restarts.",
     "counter", &ShardMetricsSnapshot::recoveries},
    {"wal_records_replayed_total",
     "Commit-log records re-applied by recovery.", "counter",
     &ShardMetricsSnapshot::wal_records_replayed},
    {"wal_truncations_total", "Torn commit-log tails truncated.", "counter",
     &ShardMetricsSnapshot::wal_truncations},
    {"schedule_held_placements",
     "Committed placements the shard schedules still hold at their last "
     "batch boundary: the live commitments, the settled past excluded.",
     "gauge", &ShardMetricsSnapshot::schedule_held_placements},
};

constexpr Field<double> kVolumeFields[] = {
    {"accepted_volume_total",
     "Total processing volume of admitted jobs (sum of p_j).", "counter",
     &ShardMetricsSnapshot::accepted_volume},
    {"rejected_volume_total",
     "Total processing volume of declined jobs.", "counter",
     &ShardMetricsSnapshot::rejected_volume},
};

}  // namespace

std::string render_prometheus(const ExporterInput& input,
                              const ExporterOptions& options) {
  const MetricsSnapshot& snap = input.snapshot;
  std::ostringstream os;

  {
    FamilyWriter family(os, options.prefix, "shards",
                        "Number of shards in the gateway.", "gauge");
    family.sample("", std::to_string(snap.shards.size()));
  }

  for (const auto& field : kCountFields) {
    FamilyWriter family(os, options.prefix, field.name, field.help,
                        field.type);
    family.sample("", std::to_string(snap.total.*field.member));
    if (options.per_shard) {
      for (std::size_t s = 0; s < snap.shards.size(); ++s) {
        family.sample(shard_label(s),
                      std::to_string(snap.shards[s].*field.member));
      }
    }
  }

  {
    // One family keyed by the frozen outcome registry (service/outcome.hpp):
    // the label strings here are byte-identical to the trace-CSV `kind`
    // cells and the wire protocol's outcome names. kRejectedClosed is not
    // emitted — refusals after shutdown happen outside the metrics window —
    // nor is kRejectedInvalid, refused before routing gives it a shard; the
    // submitter's BatchSubmitResult counts both. kFailover is retired.
    struct OutcomeField {
      Outcome outcome;
      std::size_t ShardMetricsSnapshot::* member;
    };
    static constexpr OutcomeField kOutcomeFields[] = {
        {Outcome::kEnqueued, &ShardMetricsSnapshot::enqueued},
        {Outcome::kAccepted, &ShardMetricsSnapshot::accepted},
        {Outcome::kRejected, &ShardMetricsSnapshot::rejected},
        {Outcome::kRejectedQueueFull,
         &ShardMetricsSnapshot::backpressure_rejected},
        {Outcome::kRejectedRetryAfter,
         &ShardMetricsSnapshot::degraded_rejected},
        {Outcome::kRejectedCriticality,
         &ShardMetricsSnapshot::criticality_shed},
    };
    FamilyWriter family(
        os, options.prefix, "outcomes_total",
        "Submission outcomes keyed by the wire-stable outcome registry.",
        "counter");
    for (const OutcomeField& field : kOutcomeFields) {
      family.sample("outcome=\"" + std::string(outcome_label(field.outcome)) +
                        "\"",
                    std::to_string(snap.total.*field.member));
    }
  }

  {
    // Per-criticality-class outcome counters. The `class` label values are
    // the frozen criticality_label() registry (policy/criticality.hpp);
    // the `outcome` label values reuse the outcome registry above. The
    // "criticality" outcome counts jobs the class-aware shed policy
    // refused — by construction it is zero for the top class only under
    // correct low-before-high ordering.
    struct ClassOutcomeField {
      Outcome outcome;
      std::array<std::size_t, kCriticalityCount> ShardMetricsSnapshot::*
          member;
    };
    static constexpr ClassOutcomeField kClassOutcomeFields[] = {
        {Outcome::kEnqueued, &ShardMetricsSnapshot::class_enqueued},
        {Outcome::kAccepted, &ShardMetricsSnapshot::class_accepted},
        {Outcome::kRejected, &ShardMetricsSnapshot::class_rejected},
        {Outcome::kRejectedCriticality, &ShardMetricsSnapshot::class_shed},
    };
    FamilyWriter family(
        os, options.prefix, "class_outcomes_total",
        "Submission outcomes keyed by criticality class and outcome.",
        "counter");
    for (std::uint8_t cls = 0; cls < kCriticalityCount; ++cls) {
      const std::string class_label =
          "class=\"" +
          std::string(criticality_label(static_cast<Criticality>(cls))) +
          "\"";
      for (const ClassOutcomeField& field : kClassOutcomeFields) {
        family.sample(class_label + ",outcome=\"" +
                          std::string(outcome_label(field.outcome)) + "\"",
                      std::to_string(
                          (snap.total.*field.member)[cls]));
      }
    }
  }

  for (const auto& field : kVolumeFields) {
    FamilyWriter family(os, options.prefix, field.name, field.help,
                        field.type);
    family.sample("", fmt(snap.total.*field.member));
    if (options.per_shard) {
      for (std::size_t s = 0; s < snap.shards.size(); ++s) {
        family.sample(shard_label(s), fmt(snap.shards[s].*field.member));
      }
    }
  }

  {
    FamilyWriter family(os, options.prefix, "queue_depth",
                        "Jobs waiting in the shard queues right now.",
                        "gauge");
    family.sample("", std::to_string(snap.total.queue_depth));
    if (options.per_shard) {
      for (std::size_t s = 0; s < snap.shards.size(); ++s) {
        family.sample(shard_label(s),
                      std::to_string(snap.shards[s].queue_depth));
      }
    }
  }
  {
    FamilyWriter family(
        os, options.prefix, "queue_depth_peak",
        "High-water mark of queue_depth. The aggregate sample is the MAX "
        "across shards (per-shard peaks happen at different instants), not "
        "the sum of the labelled series.",
        "gauge");
    family.sample("", std::to_string(snap.total.peak_queue_depth));
    if (options.per_shard) {
      for (std::size_t s = 0; s < snap.shards.size(); ++s) {
        family.sample(shard_label(s),
                      std::to_string(snap.shards[s].peak_queue_depth));
      }
    }
  }

  {
    // The merged admit-latency histogram, Prometheus-style: cumulative
    // buckets keyed by upper edge, then +Inf, _sum and _count. Underflow
    // is <= every upper edge so it joins the first bucket; overflow only
    // reaches +Inf. (The registry clamps into the edge bins, so both are
    // zero for gateway snapshots — rendered generically regardless.)
    const Histogram& h = snap.admit_latency;
    FamilyWriter family(os, options.prefix, "admit_latency_seconds",
                        "Queue-entry to decision-rendered wall time.",
                        "histogram");
    std::size_t cumulative = h.underflow_count();
    for (std::size_t bin = 0; bin < h.bin_count(); ++bin) {
      cumulative += h.count_in_bin(bin);
      family.sample("le=\"" + fmt(h.bin_range(bin).second) + "\"",
                    std::to_string(cumulative), "_bucket");
    }
    cumulative += h.overflow_count();
    family.sample("le=\"+Inf\"", std::to_string(cumulative), "_bucket");
    family.sample("", fmt(snap.total.latency_sum_seconds), "_sum");
    family.sample("", std::to_string(cumulative), "_count");
  }

  {
    // Per-class admit-latency histograms: same log-spaced edges as the
    // merged histogram above, one labelled series per criticality class.
    // The registry clamps into the edge bins, so the top bin already plays
    // the +Inf role and the +Inf bucket equals _count exactly.
    const Histogram& edges = snap.admit_latency;
    FamilyWriter family(
        os, options.prefix, "class_admit_latency_seconds",
        "Queue-entry to decision-rendered wall time by criticality class.",
        "histogram");
    for (std::uint8_t cls = 0; cls < kCriticalityCount; ++cls) {
      const std::string class_label =
          "class=\"" +
          std::string(criticality_label(static_cast<Criticality>(cls))) +
          "\"";
      std::uint64_t cumulative = 0;
      for (std::size_t bin = 0; bin < kAdmitLatencyBins; ++bin) {
        cumulative += snap.class_latency_bins[cls][bin];
        family.sample(class_label + ",le=\"" +
                          fmt(edges.bin_range(bin).second) + "\"",
                      std::to_string(cumulative), "_bucket");
      }
      family.sample(class_label + ",le=\"+Inf\"",
                    std::to_string(cumulative), "_bucket");
      family.sample(class_label, fmt(snap.class_latency_sum[cls]), "_sum");
      family.sample(class_label, std::to_string(cumulative), "_count");
    }
  }

  if (!input.health.empty()) {
    {
      FamilyWriter family(
          os, options.prefix, "shard_health",
          "Supervision state of each shard, one-hot over "
          "healthy/degraded/down/recovering.",
          "gauge");
      for (const ShardStatus& row : input.health) {
        for (const Health state : {Health::kHealthy, Health::kDegraded,
                                   Health::kDown, Health::kRecovering}) {
          family.sample(
              shard_label(static_cast<std::size_t>(row.shard)) +
                  ",state=\"" + to_string(state) + "\"",
              row.health == state ? "1" : "0");
        }
      }
    }
    {
      FamilyWriter family(os, options.prefix, "shard_restarts_total",
                          "Completed automatic + forced shard restarts.",
                          "counter");
      for (const ShardStatus& row : input.health) {
        family.sample(shard_label(static_cast<std::size_t>(row.shard)),
                      std::to_string(row.restarts));
      }
    }
    {
      FamilyWriter family(
          os, options.prefix, "shard_circuit_broken",
          "1 once a shard exhausted its automatic restart budget.",
          "gauge");
      for (const ShardStatus& row : input.health) {
        family.sample(shard_label(static_cast<std::size_t>(row.shard)),
                      row.circuit_broken ? "1" : "0");
      }
    }
  }

  if (!input.trace_dropped.empty()) {
    FamilyWriter family(
        os, options.prefix, "trace_dropped_total",
        "Trace events refused because a shard's trace ring was full.",
        "counter");
    std::uint64_t total = 0;
    for (const std::uint64_t d : input.trace_dropped) total += d;
    family.sample("", std::to_string(total));
    if (options.per_shard) {
      for (std::size_t s = 0; s < input.trace_dropped.size(); ++s) {
        family.sample(shard_label(s),
                      std::to_string(input.trace_dropped[s]));
      }
    }
  }

  if (input.connections_reaped) {
    FamilyWriter family(os, options.prefix, "connections_reaped_total",
                        "Connections closed by the idle reaper.", "counter");
    family.sample("", std::to_string(*input.connections_reaped));
  }
  if (input.accept_errors) {
    FamilyWriter family(
        os, options.prefix, "accept_errors_total",
        "accept4 failures (resource exhaustion triggers listener backoff).",
        "counter");
    family.sample("", std::to_string(*input.accept_errors));
  }

  return os.str();
}

std::string render_prometheus(const MetricsSnapshot& snapshot,
                              const ExporterOptions& options) {
  ExporterInput input;
  input.snapshot = snapshot;
  return render_prometheus(input, options);
}

ExporterInput collect_exporter_input(const AdmissionGateway& gateway) {
  ExporterInput input;
  input.snapshot = gateway.metrics_snapshot();
  const ShardSupervisor& supervisor = gateway.supervisor();
  input.health.reserve(static_cast<std::size_t>(gateway.shards()));
  for (int s = 0; s < gateway.shards(); ++s) {
    input.health.push_back(ShardStatus{
        s, supervisor.health(s), supervisor.restarts(s),
        supervisor.circuit_broken(s)});
  }
  if (gateway.config().enable_tracing) {
    input.trace_dropped.reserve(static_cast<std::size_t>(gateway.shards()));
    for (int s = 0; s < gateway.shards(); ++s) {
      input.trace_dropped.push_back(gateway.trace_ring(s)->dropped());
    }
  }
  return input;
}

std::string render_prometheus(const AdmissionGateway& gateway,
                              const ExporterOptions& options) {
  return render_prometheus(collect_exporter_input(gateway), options);
}

}  // namespace slacksched
