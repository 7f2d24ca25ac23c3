// Dinic's max-flow on real-valued capacities. Substrate for the offline
// upper bound: the maximum preemptive-with-migration load of an instance is
// exactly a max flow from jobs to time intervals, and it dominates the
// non-preemptive integral optimum our online algorithms compete against.
// IntervalFlow builds that job -> interval network once for every caller:
// the upper bound, the migration feasibility oracle and the migration
// baseline's fluid execution.
#pragma once

#include <cstddef>
#include <vector>

#include "common/time.hpp"

namespace slacksched {

/// Capacity/flow tolerance: residuals below this count as saturated.
inline constexpr double kFlowEps = 1e-9;

/// Max-flow solver over a fixed node set; edges accumulate via add_edge.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t nodes);

  /// Adds a directed edge u -> v with the given capacity (>= 0).
  /// Returns an edge handle usable with flow_on().
  std::size_t add_edge(std::size_t u, std::size_t v, double capacity);

  /// Computes the maximum s-t flow. May be called once per instance.
  double max_flow(std::size_t s, std::size_t t);

  /// Flow routed over the edge returned by add_edge (after max_flow).
  [[nodiscard]] double flow_on(std::size_t edge_handle) const;

  [[nodiscard]] std::size_t node_count() const { return graph_.size(); }

 private:
  struct Edge {
    std::size_t to;
    double capacity;  ///< residual capacity
    std::size_t reverse;
  };

  bool bfs(std::size_t s, std::size_t t);
  double dfs(std::size_t v, std::size_t t, double pushed);

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
  std::vector<std::pair<std::size_t, std::size_t>> handles_;  // (node, index)
  std::vector<double> original_capacity_;
};

/// Sorts event times and merges approx_eq neighbours (the first of each
/// run stays): the interval grid of an IntervalFlow.
void make_event_grid(std::vector<TimePoint>& events);

/// One job of an IntervalFlow: `demand` units to route into the grid
/// intervals that lie inside [release, deadline].
struct FlowJob {
  Duration demand = 0.0;
  TimePoint release = 0.0;
  TimePoint deadline = 0.0;
};

/// The job -> interval network of P | r_j, d_j, pmtn | over an event grid
/// (make_event_grid, not empty): source -> job (its demand), job
/// -> interval (the interval's length, when the job's window covers it: a
/// job cannot run on two machines at once) and interval -> sink (machines
/// x length). Edges go in interval by interval, the sink edge before the
/// job edges in job order, so every caller routes the same flow.
class IntervalFlow {
 public:
  /// A job -> interval edge and the MaxFlow handle that reads its flow.
  struct JobEdge {
    std::size_t job;
    std::size_t interval;  ///< [grid[interval], grid[interval + 1])
    std::size_t handle;
  };

  IntervalFlow(const std::vector<FlowJob>& jobs,
               const std::vector<TimePoint>& grid, int machines);

  /// Routes the maximum flow and returns its value (call once).
  double max_flow() { return flow_.max_flow(0, sink_); }

  /// Every job -> interval edge in insertion (interval-major) order.
  [[nodiscard]] const std::vector<JobEdge>& job_edges() const {
    return edges_;
  }

  /// Flow routed over a job -> interval edge (after max_flow).
  [[nodiscard]] double flow_on(const JobEdge& edge) const {
    return flow_.flow_on(edge.handle);
  }

 private:
  MaxFlow flow_;
  std::size_t sink_;
  std::vector<JobEdge> edges_;
};

}  // namespace slacksched
