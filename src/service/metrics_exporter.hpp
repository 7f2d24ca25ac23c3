// Prometheus text-exposition rendering of the gateway's live metrics:
// MetricsRegistry counters and gauges, the admit-latency histogram with
// cumulative `le` buckets, supervisor health / restart state, WAL
// counters, trace-ring drop counts, and the admission server's
// connection counters. The output follows the
// Prometheus exposition format v0.0.4 (one `# HELP` / `# TYPE` pair per
// family, `\n`-terminated samples), so it can be served by any HTTP
// sidecar or dropped into a node-exporter textfile collector directory by
// the MetricsPublisher (service/metrics_publisher.hpp).
//
// Aggregate samples carry no labels; per-shard samples carry a
// `shard="N"` label in the same family. Sums over the labelled series
// equal the unlabelled sample for every counter family except
// `queue_depth_peak`, whose aggregate is the max across shards (see
// MetricsSnapshot::total).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/metrics_registry.hpp"
#include "service/supervisor.hpp"

namespace slacksched {

class AdmissionGateway;

/// One shard's supervision state as the exporter renders it.
struct ShardStatus {
  int shard = 0;
  Health health = Health::kHealthy;
  int restarts = 0;
  bool circuit_broken = false;
};

/// Rendering knobs.
struct ExporterOptions {
  /// Metric-name prefix (`<prefix>_submitted_total`, ...).
  std::string prefix = "slacksched";
  /// Emit per-shard labelled samples next to the aggregate ones.
  bool per_shard = true;
};

/// Everything one exposition page is rendered from.
struct ExporterInput {
  MetricsSnapshot snapshot;
  /// Supervision rows (empty when the caller has no supervisor).
  std::vector<ShardStatus> health;
  /// Per-shard trace-ring drop counters (empty when tracing is off).
  std::vector<std::uint64_t> trace_dropped;
  /// Admission-server counters, rendered last and only when set: the
  /// connections its idle reaper closed and its accept4 failures.
  std::optional<std::uint64_t> connections_reaped;
  std::optional<std::uint64_t> accept_errors;
};

/// Renders one complete exposition page.
[[nodiscard]] std::string render_prometheus(const ExporterInput& input,
                                            const ExporterOptions& options = {});

/// Convenience: metrics only, no supervision/trace families.
[[nodiscard]] std::string render_prometheus(const MetricsSnapshot& snapshot,
                                            const ExporterOptions& options = {});

/// Snapshots a live gateway into an ExporterInput (lock-free reads; safe
/// from any thread at any time, including while traffic is flowing).
[[nodiscard]] ExporterInput collect_exporter_input(
    const AdmissionGateway& gateway);

/// Convenience: collect + render a live gateway.
[[nodiscard]] std::string render_prometheus(const AdmissionGateway& gateway,
                                            const ExporterOptions& options = {});

}  // namespace slacksched
