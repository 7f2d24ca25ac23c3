// Uniform execution-environment provenance for every BENCH_*.json
// artifact. A committed bench number is only interpretable alongside the
// machine shape that produced it, so every artifact records the same two
// fields — `producers` and `hardware_concurrency` — and
// scripts/perf_check.py requires them.
#pragma once

#include <sched.h>

#include <algorithm>
#include <string>

namespace slacksched::bench {

/// The CPUs this process may run on: the affinity mask, not the online
/// count std::thread::hardware_concurrency() reports, so a run under
/// `taskset` sizes itself and records the cores it actually had. The only
/// core count in bench/.
inline unsigned usable_cores() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&mask)));
}

/// The provenance fields as JSON object members (two-space indent,
/// trailing comma and newline) — paste into the head of an artifact
/// object. Kept as a fragment so each bench keeps writing its artifact
/// with plain streams.
inline std::string provenance_fields(unsigned producers = 1) {
  // Appended piecewise: `"lit" + std::string&&` trips g++ 12's -Wrestrict.
  std::string out = "  \"producers\": ";
  out += std::to_string(producers);
  out += ",\n  \"hardware_concurrency\": ";
  out += std::to_string(usable_cores());
  out += ",\n";
  return out;
}

}  // namespace slacksched::bench
