#!/usr/bin/env python3
"""Perf-regression gate over the committed/freshly-generated bench JSONs.

Validates the five machine-readable bench artifacts:

  BENCH_threshold.json  (bench/micro_throughput --threshold_jobs=N)
      - every row's decision stream matched the seed implementation
      - the new hot path performed zero steady-state heap allocations
      - speedup at every m >= LARGE_M (256) reaches --min-speedup
  BENCH_recovery.json   (bench/recovery_replay [records])
      - every replay pass was clean (all records recovered + re-validated)
      - the torn-tail log truncated on the first pass, replayed clean on
        the second
      - fsync ordering holds: never >= batch append rate
  BENCH_matrix.json     (bench/model_matrix [jobs-per-row])
      - every (commit model x eps x m x speed profile x workload) row
        finished clean (every decision legal under that model's
        irrevocability contract) and valid (offline schedule validator)
      - the grid covers >= 3 commit models, >= 2 speed profiles,
        >= 3 workloads, >= 2 eps values and >= 2 machine counts
      - the uniform commit-on-arrival Threshold rows stay within noise
        of the committed BENCH_threshold.json trajectory at matching m
        (ratio floor --matrix-min-ratio of the micro-bench rate)
  BENCH_repl.json       (bench/repl_failover [jobs])
      - both modes present (baseline + ack-on-batch) and clean: the drain
        validated and the follower's logs held exactly the leader's
        accepted records
      - both modes accepted the same number of jobs (leader_records): the
        rows decided the same stream, so their rates compare
      - durability ordering holds: ack-on-batch (one follower round trip
        per shard group) must not outrun the unreplicated baseline by more
        than 1.5x — a much faster replicated mode means the ack path is not
        actually waiting
      - the failover drill ran >= 5 iterations with positive, ordered
        detect/serve percentiles (p50 <= p99, detect <= serve at p50), and
        detect p50 >= the drill's down_threshold_ms: the leader is Down only
        once its silence reaches down_threshold
  BENCH_obs.json        (bench/obs_overhead [jobs])
      - every mode finished clean
      - decision tracing costs at most --max-overhead of the baseline
        throughput, and so does tracing + the background publisher
        (i.e. the publisher never blocks ingest)
      - the published textfile reported exactly the final gateway
        counters, and the drained trace accounted for every decision and
        survived a CSV round trip

Every artifact must carry the uniform provenance fields emitted by
bench/bench_env.hpp — producers and hardware_concurrency — so a number
can be read alongside the machine shape that produced it.

Only the Python standard library is used. Exit status 0 iff every check
passes; each failure is printed on its own line.

Usage:
  scripts/perf_check.py [--threshold-json PATH] [--recovery-json PATH]
                        [--obs-json PATH] [--matrix-json PATH]
                        [--repl-json PATH]
                        [--min-speedup X] [--max-overhead F]
                        [--matrix-min-ratio F]

A missing file is an error (reported as "<path>: not found — run
bench/<name> to generate it") unless its path is passed as the empty
string (e.g. --obs-json= to gate only the other benches).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def fail(errors: list[str], message: str) -> None:
    errors.append(message)
    print(f"FAIL: {message}")


PROVENANCE_FIELDS = ("producers", "hardware_concurrency")

# Machine count from which the threshold speedup floor applies.
LARGE_M = 256


def check_provenance(path: Path, data: dict, errors: list[str]) -> None:
    """Every artifact records the environment that produced it."""
    for key in PROVENANCE_FIELDS:
        value = data.get(key)
        if value is None:
            fail(errors, f"{path}: missing provenance field {key!r} "
                         "(emit it via bench/bench_env.hpp)")
        elif isinstance(value, int) and value < 1:
            fail(errors, f"{path}: {key}={value} (must be >= 1)")


def check_threshold(path: Path, min_speedup: float, errors: list[str]) -> None:
    data = json.loads(path.read_text())
    if data.get("bench") != "threshold_scaling":
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return
    check_provenance(path, data, errors)
    runs = data.get("runs", [])
    if not runs:
        fail(errors, f"{path}: no runs recorded")
        return
    machines = sorted(run.get("machines", 0) for run in runs)
    if machines[-1] < LARGE_M:
        fail(errors, f"{path}: largest m is {machines[-1]}, "
                     f"need a run at m >= {LARGE_M}")
    for run in runs:
        m = run.get("machines")
        prefix = f"{path}: m={m}"
        for key in ("old_jobs_per_sec", "new_jobs_per_sec", "speedup",
                    "decisions_identical", "new_heap_allocs_steady_state",
                    "new_allocs_per_arrival"):
            if key not in run:
                fail(errors, f"{prefix}: missing field {key!r}")
        if not run.get("decisions_identical", False):
            fail(errors, f"{prefix}: optimized path diverged from the seed "
                         "decision stream")
        if run.get("new_heap_allocs_steady_state", 1) != 0:
            fail(errors, f"{prefix}: "
                         f"{run.get('new_heap_allocs_steady_state')} heap "
                         "allocations on the steady-state arrival path "
                         "(must be 0)")
        if run.get("new_allocs_per_arrival", 1.0) != 0:
            fail(errors, f"{prefix}: new_allocs_per_arrival is "
                         f"{run.get('new_allocs_per_arrival')} (must be 0)")
        if m is not None and m >= LARGE_M:
            speedup = run.get("speedup", 0.0)
            if speedup < min_speedup:
                fail(errors, f"{prefix}: speedup {speedup:.2f}x below the "
                             f"{min_speedup:.2f}x floor")
    ok_rows = sum(1 for run in runs if run.get("decisions_identical"))
    print(f"ok: {path}: {len(runs)} configurations, {ok_rows} with identical "
          "decision streams")


def check_recovery(path: Path, errors: list[str]) -> None:
    data = json.loads(path.read_text())
    if data.get("bench") != "recovery_replay":
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return
    check_provenance(path, data, errors)
    appends = data.get("append", [])
    replays = data.get("replay", [])
    if not appends or not replays:
        fail(errors, f"{path}: missing append/replay runs")
        return
    if not data.get("clean", False):
        fail(errors, f"{path}: the bench itself reported an unclean pass")

    rate_by_policy: dict[str, float] = {}
    for run in appends:
        policy = run.get("policy")
        rate = run.get("records_per_sec", 0.0)
        if rate <= 0.0:
            fail(errors, f"{path}: append policy={policy} reports "
                         "non-positive throughput")
        rate_by_policy[str(policy)] = rate
    batch = rate_by_policy.get("batch", 0.0)
    never = rate_by_policy.get("never", 0.0)
    # Durability is never free: batch fsync being *faster* than no fsync
    # means the fsync path is not actually syncing.
    if batch > 0.0 and never > 0.0 and batch > never * 1.5:
        fail(errors, f"{path}: fsync=batch outran fsync=never — the sync "
                     "path looks inert")

    for run in replays:
        records = run.get("records")
        if not run.get("clean", False):
            fail(errors, f"{path}: replay of {records} records was not "
                         "clean (lost or invalid records)")
        if run.get("records_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: replay of {records} records reports "
                         "non-positive rate")

    torn = data.get("torn_tail", {})
    if not torn.get("truncated_on_first_pass", False):
        fail(errors, f"{path}: torn tail was not truncated on first "
                     "recovery")
    if not torn.get("clean_on_second_pass", False):
        fail(errors, f"{path}: log not clean after torn-tail truncation")
    print(f"ok: {path}: {len(appends)} fsync policies, {len(replays)} "
          "replay sizes, torn tail handled")


def check_matrix(path: Path, threshold_json: str, min_ratio: float,
                 errors: list[str]) -> None:
    data = json.loads(path.read_text())
    if data.get("bench") != "model_matrix":
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return
    check_provenance(path, data, errors)
    rows = data.get("rows", [])
    if not rows:
        fail(errors, f"{path}: no rows recorded")
        return

    for row in rows:
        label = (f"{row.get('model')} eps={row.get('eps')} "
                 f"m={row.get('machines')} "
                 f"speeds={row.get('speed_profile')} "
                 f"workload={row.get('workload')}")
        if not row.get("clean", False):
            fail(errors, f"{path}: {label}: a decision violated the model's "
                         "commitment contract (or a job went undecided)")
        if not row.get("valid", False):
            fail(errors, f"{path}: {label}: committed schedule failed the "
                         "offline validator")
        if row.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: {label}: non-positive throughput")

    coverage = (("commit_model", 3), ("speed_profile", 2), ("workload", 3),
                ("eps", 2), ("machines", 2))
    for key, minimum in coverage:
        distinct = {row.get(key) for row in rows}
        if len(distinct) < minimum:
            fail(errors, f"{path}: only {len(distinct)} distinct {key} "
                         f"values {sorted(map(str, distinct))}, "
                         f"need >= {minimum}")

    # The uniform commit-on-arrival Threshold rows replay the same
    # algorithm the micro bench measures; their per-arrival rate must stay
    # within noise of the committed trajectory at the same machine count.
    # The matrix rate runs through the full engine (validation + schedule
    # commit), so only a generous floor is meaningful.
    if threshold_json:
        tpath = Path(threshold_json)
        if tpath.is_file():
            tdata = json.loads(tpath.read_text())
            micro = {run.get("machines"): run.get("new_jobs_per_sec", 0.0)
                     for run in tdata.get("runs", [])}
            checked = 0
            for row in rows:
                if (row.get("model") != "on-arrival/threshold"
                        or row.get("speed_profile") != "uniform"
                        or row.get("eps") != tdata.get("eps")):
                    continue
                reference = micro.get(row.get("machines"), 0.0)
                if reference <= 0.0:
                    continue
                checked += 1
                ratio = row.get("jobs_per_sec", 0.0) / reference
                if ratio < min_ratio:
                    fail(errors,
                         f"{path}: uniform Threshold m={row.get('machines')} "
                         f"workload={row.get('workload')} runs at "
                         f"{ratio:.2f}x the committed micro-bench rate "
                         f"(floor {min_ratio:.2f}x)")
            if checked == 0:
                fail(errors, f"{path}: no uniform Threshold row matched a "
                             f"machine count in {tpath} — the regression "
                             "anchor is gone")

    models = len({row.get("commit_model") for row in rows})
    profiles = len({row.get("speed_profile") for row in rows})
    workloads = len({row.get("workload") for row in rows})
    print(f"ok: {path}: {len(rows)} rows over {models} commit models x "
          f"{profiles} speed profiles x {workloads} workloads, all clean "
          "and valid")


def check_repl(path: Path, errors: list[str]) -> None:
    data = json.loads(path.read_text())
    if data.get("bench") != "replication":
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return
    check_provenance(path, data, errors)
    runs = {run.get("mode"): run for run in data.get("runs", [])}
    for mode in ("baseline", "ack-on-batch"):
        run = runs.get(mode)
        if run is None:
            fail(errors, f"{path}: missing mode {mode!r}")
            continue
        if not run.get("clean", False):
            fail(errors, f"{path}: mode={mode} did not finish clean")
        if run.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: mode={mode} reports non-positive "
                         "throughput")
        if mode != "baseline":
            leader = run.get("leader_records", 0)
            follower = run.get("follower_records", -1)
            if leader != follower:
                fail(errors, f"{path}: mode={mode} follower holds "
                             f"{follower} of {leader} leader records — an "
                             "orderly close must drain")

    # Every mode replays the same stream through a closed loop that sheds
    # nothing, so every mode must accept the same jobs; different counts
    # mean the rows decided different problems and their rates don't
    # compare.
    accepted = {mode: run.get("leader_records") for mode, run in runs.items()}
    if len(set(accepted.values())) > 1:
        fail(errors, f"{path}: modes accepted different job counts "
                     f"{accepted} — they decided different streams")

    # Durability is never free: the per-group round-trip mode being much
    # faster than not replicating at all means the ack wait is inert.
    # (1.5x headroom absorbs run-to-run noise.)
    sync = runs.get("ack-on-batch", {}).get("jobs_per_sec", 0.0)
    base = runs.get("baseline", {}).get("jobs_per_sec", 0.0)
    if sync > 0.0 and base > 0.0 and sync > base * 1.5:
        fail(errors, f"{path}: ack-on-batch outran baseline "
                     f"({sync:.0f} vs {base:.0f} jobs/sec) — the "
                     "per-group ack path looks inert")

    failover = data.get("failover", {})
    iterations = failover.get("iterations", 0)
    if iterations < 5:
        fail(errors, f"{path}: failover drill ran {iterations} iterations, "
                     "need >= 5 for stable percentiles")
    d50 = failover.get("detect_ms_p50", 0.0)
    d99 = failover.get("detect_ms_p99", 0.0)
    s50 = failover.get("serve_ms_p50", 0.0)
    s99 = failover.get("serve_ms_p99", 0.0)
    if not (0.0 < d50 <= d99):
        fail(errors, f"{path}: detect percentiles not positive and ordered "
                     f"(p50={d50} p99={d99})")
    if not (0.0 < s50 <= s99):
        fail(errors, f"{path}: serve percentiles not positive and ordered "
                     f"(p50={s50} p99={s99})")
    if 0.0 < s50 < d50:
        fail(errors, f"{path}: serve p50 ({s50}ms) beat detect p50 "
                     f"({d50}ms) — serving cannot precede detection")
    # The one failover rule: Down iff the silence reaches down_threshold.
    # An earlier detection means something other than the silence decided.
    down = failover.get("down_threshold_ms")
    if down is None:
        fail(errors, f"{path}: failover block lacks down_threshold_ms")
    elif d50 < down:
        fail(errors, f"{path}: detect p50 ({d50}ms) is below the drill's "
                     f"down_threshold_ms ({down}) — the leader was declared "
                     "Down before its silence reached the threshold")
    print(f"ok: {path}: 2 replication modes clean, failover over "
          f"{iterations} drills detect p50={d50:.1f}ms serve "
          f"p50={s50:.1f}ms")


def check_obs(path: Path, max_overhead: float, errors: list[str]) -> None:
    data = json.loads(path.read_text())
    if data.get("bench") != "obs_overhead":
        fail(errors, f"{path}: unexpected bench id {data.get('bench')!r}")
        return
    check_provenance(path, data, errors)
    runs = {run.get("mode"): run for run in data.get("runs", [])}
    for mode in ("off", "tracing", "tracing+publisher"):
        run = runs.get(mode)
        if run is None:
            fail(errors, f"{path}: missing mode {mode!r}")
            continue
        if not run.get("clean", False):
            fail(errors, f"{path}: mode={mode} did not finish clean")
        if run.get("jobs_per_sec", 0.0) <= 0.0:
            fail(errors, f"{path}: mode={mode} reports non-positive "
                         "throughput")
    for key, label in (("tracing_overhead", "decision tracing"),
                       ("publisher_overhead", "tracing + publisher")):
        overhead = data.get(key)
        if overhead is None:
            fail(errors, f"{path}: missing field {key!r}")
        elif overhead > max_overhead:
            fail(errors, f"{path}: {label} costs {overhead:.1%} of baseline "
                         f"throughput (ceiling {max_overhead:.1%})")
    for key, message in (
            ("trace_accounted",
             "drained + dropped trace events != rendered decisions"),
            ("trace_csv_round_trip",
             "the drained trace did not survive a CSV round trip"),
            ("textfile_consistent",
             "the published textfile disagrees with the final gateway "
             "counters")):
        if not data.get(key, False):
            fail(errors, f"{path}: {message}")
    print(f"ok: {path}: tracing {data.get('tracing_overhead', 0.0):+.1%}, "
          f"with publisher {data.get('publisher_overhead', 0.0):+.1%} "
          f"(ceiling {max_overhead:.1%}), textfile consistent")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threshold-json", default="BENCH_threshold.json")
    parser.add_argument("--recovery-json", default="BENCH_recovery.json")
    parser.add_argument("--obs-json", default="BENCH_obs.json")
    parser.add_argument("--matrix-json", default="BENCH_matrix.json")
    parser.add_argument("--repl-json", default="BENCH_repl.json")
    parser.add_argument("--matrix-min-ratio", type=float, default=0.15,
                        help="floor for uniform-Threshold matrix rate over "
                             "the committed micro-bench rate (default 0.15; "
                             "the matrix pays full-engine validation per "
                             "arrival)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="jobs/sec floor for new/old at m >= 256 "
                             "(default 3.0; use 1.0 on noisy smoke runners)")
    parser.add_argument("--max-overhead", type=float, default=0.03,
                        help="throughput fraction the observability layer "
                             "may cost (default 0.03; loosen on noisy "
                             "smoke runners)")
    args = parser.parse_args()

    errors: list[str] = []
    generators = {
        args.threshold_json: "bench/micro_throughput",
        args.recovery_json: "bench/recovery_replay",
        args.obs_json: "bench/obs_overhead",
        args.matrix_json: "bench/model_matrix",
        args.repl_json: "bench/repl_failover",
    }
    for raw, checker in ((args.threshold_json,
                          lambda p: check_threshold(p, args.min_speedup,
                                                    errors)),
                         (args.recovery_json,
                          lambda p: check_recovery(p, errors)),
                         (args.obs_json,
                          lambda p: check_obs(p, args.max_overhead,
                                              errors)),
                         (args.matrix_json,
                          lambda p: check_matrix(p, args.threshold_json,
                                                 args.matrix_min_ratio,
                                                 errors)),
                         (args.repl_json,
                          lambda p: check_repl(p, errors))):
        if not raw:
            continue
        path = Path(raw)
        if not path.is_file():
            fail(errors, f"{path}: not found — run {generators[raw]} "
                         "to generate it")
            continue
        try:
            checker(path)
        except (json.JSONDecodeError, OSError) as exc:
            fail(errors, f"{path}: {exc}")

    if errors:
        print(f"perf_check: {len(errors)} failure(s)")
        return 1
    print("perf_check: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
