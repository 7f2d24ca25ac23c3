#!/usr/bin/env python3
"""slackbench runner: builds the program, runs workloads, compares result sets.

One run (the benchmark contract; the last stdout line is the JSON result):
    python3 slackbench/run.py --workload inproc --seed 7 --seconds 30 --trace 0

A suite (every workload, round-robin, N runs each; prints
`workload.metric = median [q1, q3] unit (n=...)` and writes a result file
with provenance; exits non-zero if any run fails a correctness check):
    python3 slackbench/run.py [--runs N] [--seed S] [--seconds S] [--trace]
                              [--out FILE]

Compare two result files (A = parent, B = change) with the bounds from
BENCHMARK.json, one row per workload:
    python3 slackbench/run.py compare A.json B.json

Everything it builds or writes stays under .bench_build/ at the top of the
source tree.
"""

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "slackbench")
BINARY = os.path.join(BUILD, "slackbench")
WORKLOADS = ["inproc", "wire-batch", "wire-open", "durable"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("slackbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds slackbench in Release; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the slacksched sources (src/) are missing next to " + HERE)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "slackbench",
                  "-j", str(max(1, len(os.sched_getaffinity(0))))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs slackbench once; returns (result or None, stdout lines, exit code)."""
    work = os.path.join(BUILD_ROOT, "work")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(
            BUILD_ROOT, "traces", "trace-%s-%s.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        out = ""
        print("slackbench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is not None and set(result) != {"correct", "attempted", "failed",
                                              "metrics"}:
        result = None
    return result, lines, proc.returncode


def contract_run(args):
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                   ", ".join(WORKLOADS)))
    build()
    result, lines, code = run_once(args.workload, args.seed, args.seconds,
                                   args.trace == 1)
    if result is None:
        fail("the run produced no result", 1)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


def provenance():
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True,
                                  cwd=ROOT).stdout.strip()
        except OSError:
            return ""
    commit = cmd(["git", "rev-parse", "HEAD"]) or "unknown"
    dirty = bool(cmd(["git", "status", "--porcelain"])) if commit != "unknown" \
        else None
    compiler = ""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = cmd([line.split("=", 1)[1].strip(),
                                    "--version"]).splitlines()[0]
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": "Release",
        "python": platform.python_version(),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    }


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def summarize(runs, kind):
    """Prints workload.metric = median [q1, q3] unit (n=...) per metric."""
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload
                and r["trace"] == (kind == "trace")]
        if not mine:
            continue
        for name in mine[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            print("%s.%s = %.6g [%.6g, %.6g] %s (n=%d)" % (
                workload, name, med, q1, q3,
                mine[0]["metrics"][name]["unit"], len(values)))


def suite(args):
    build()
    meta = provenance()
    runs = []
    order = 0
    ok = True
    plan = [(w, False) for w in WORKLOADS]
    if args.trace:
        plan += [(w, True) for w in WORKLOADS]
    for index in range(args.runs):
        for workload, trace in plan:
            seconds = args.seconds if not trace else max(1, args.seconds // 3)
            print("== run %d/%d %s%s seed=%d" % (
                index + 1, args.runs, workload, " (traced)" if trace else "",
                args.seed), flush=True)
            result, lines, code = run_once(workload, args.seed, seconds, trace,
                                           echo=False)
            fs = ""
            if lines and " fs=" in lines[0]:
                fs = lines[0].split(" fs=")[1].split()[0]
            if result is None or code != 0 or not result["correct"]:
                ok = False
                print("\n".join(l for l in lines if "FAIL" in l) or
                      "  run failed without a result", flush=True)
            if result is None:
                continue
            result.update({"workload": workload, "seed": args.seed,
                           "trace": trace, "run_index": index,
                           "run_order": order, "seconds": seconds,
                           "wal_filesystem": fs})
            runs.append(result)
            order += 1
    summarize(runs, "e2e")
    if args.trace:
        summarize(runs, "trace")
    out = args.out or os.path.join(
        BUILD_ROOT, "results",
        "slackbench-%s.json" % datetime.datetime.now().strftime("%Y%m%d-%H%M%S"))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"provenance": meta, "runs": runs}, f, indent=1)
        f.write("\n")
    print("results written to " + out)
    if not ok:
        print("FAIL: at least one run failed its correctness checks")
    return 0 if ok else 1


def compare(path_a, path_b):
    """The choosing-metrics rules for a change B against its parent A."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(path_a) as f:
        a = json.load(f)["runs"]
    with open(path_b) as f:
        b = json.load(f)["runs"]
    exit_code = 0
    print("compare %s (A, parent) -> %s (B, change)" % (path_a, path_b))
    for workload in WORKLOADS:
        ra = [r for r in a if r["workload"] == workload and not r["trace"]]
        rb = [r for r in b if r["workload"] == workload and not r["trace"]]
        if not ra or not rb:
            continue
        cells = []
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            q1a, ma, q3a = quartiles(va)
            q1b, mb, q3b = quartiles(vb)
            # Positive = B worse, as a share of A's median.
            change = sign * (mb - ma) / ma
            spread = max((q3a - q1a) / ma, (q3b - q1b) / mb)
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            all_better = max(sign * y for y in vb) < min(sign * x for x in va)
            if wins >= 0.9 * len(pairs) and abs(mb - ma) > (q3a - q1a) \
                    and change < 0:
                verdict = "better"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "same"
            if verdict in ("worse", "unresolved"):
                exit_code = 1
            cells.append("%s=%s(%+.1f%%, spread %.1f%%, bound %.0f%%)" % (
                name, verdict, 100 * change, 100 * spread, 100 * bound))
        print("%-10s %s" % (workload, "  ".join(cells)))
    return exit_code


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.workload is not None:
        return contract_run(args)
    return suite(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
