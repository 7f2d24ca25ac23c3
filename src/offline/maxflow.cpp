#include "offline/maxflow.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/expects.hpp"

namespace slacksched {

MaxFlow::MaxFlow(std::size_t nodes) : graph_(nodes) {
  SLACKSCHED_EXPECTS(nodes >= 2);
}

std::size_t MaxFlow::add_edge(std::size_t u, std::size_t v, double capacity) {
  SLACKSCHED_EXPECTS(u < graph_.size() && v < graph_.size());
  SLACKSCHED_EXPECTS(capacity >= 0.0);
  graph_[u].push_back({v, capacity, graph_[v].size()});
  graph_[v].push_back({u, 0.0, graph_[u].size() - 1});
  handles_.emplace_back(u, graph_[u].size() - 1);
  original_capacity_.push_back(capacity);
  return handles_.size() - 1;
}

bool MaxFlow::bfs(std::size_t s, std::size_t t) {
  level_.assign(graph_.size(), -1);
  std::queue<std::size_t> queue;
  level_[s] = 0;
  queue.push(s);
  while (!queue.empty()) {
    const std::size_t v = queue.front();
    queue.pop();
    for (const Edge& e : graph_[v]) {
      if (e.capacity > kFlowEps && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue.push(e.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::dfs(std::size_t v, std::size_t t, double pushed) {
  if (v == t) return pushed;
  for (std::size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.capacity <= kFlowEps || level_[e.to] != level_[v] + 1) continue;
    const double got = dfs(e.to, t, std::min(pushed, e.capacity));
    if (got > kFlowEps) {
      e.capacity -= got;
      graph_[e.to][e.reverse].capacity += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::max_flow(std::size_t s, std::size_t t) {
  SLACKSCHED_EXPECTS(s < graph_.size() && t < graph_.size());
  SLACKSCHED_EXPECTS(s != t);
  double total = 0.0;
  while (bfs(s, t)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const double pushed =
          dfs(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= kFlowEps) break;
      total += pushed;
    }
  }
  return total;
}

double MaxFlow::flow_on(std::size_t edge_handle) const {
  SLACKSCHED_EXPECTS(edge_handle < handles_.size());
  const auto [node, index] = handles_[edge_handle];
  return original_capacity_[edge_handle] - graph_[node][index].capacity;
}

void make_event_grid(std::vector<TimePoint>& events) {
  std::sort(events.begin(), events.end());
  events.erase(
      std::unique(events.begin(), events.end(),
                  [](TimePoint a, TimePoint b) { return approx_eq(a, b); }),
      events.end());
}

IntervalFlow::IntervalFlow(const std::vector<FlowJob>& jobs,
                           const std::vector<TimePoint>& grid, int machines)
    : flow_(jobs.size() + grid.size() + 1), sink_(jobs.size() + grid.size()) {
  SLACKSCHED_EXPECTS(!grid.empty() && machines >= 1);
  // Nodes: source 0, jobs 1..n, intervals n+1..n+|grid|-1, sink.
  const std::size_t n = jobs.size();
  for (std::size_t i = 0; i < n; ++i) flow_.add_edge(0, 1 + i, jobs[i].demand);
  for (std::size_t v = 0; v + 1 < grid.size(); ++v) {
    const Duration length = grid[v + 1] - grid[v];
    flow_.add_edge(1 + n + v, sink_, machines * length);
    for (std::size_t i = 0; i < n; ++i) {
      if (approx_ge(grid[v], jobs[i].release) &&
          approx_le(grid[v + 1], jobs[i].deadline)) {
        edges_.push_back({i, v, flow_.add_edge(1 + i, 1 + n + v, length)});
      }
    }
  }
}

}  // namespace slacksched
