"""Steadiness of the benchmark: two sets of runs, one process and one seed each.

    python3 perfbench/steady.py                      # 2 sets of seeds 1-10 on every workload
    python3 perfbench/steady.py --workloads cli_r1000 --runs 5
    python3 perfbench/steady.py --runs 0 --traced 2  # two traced runs per workload

Each set runs every workload once per seed, 1 to --runs, for the
`run_seconds` of BENCHMARK.json; the second set starts after the first has
ended on every workload. For every end-to-end metric of every set it
prints the median, the quartiles (as `statistics.quantiles(values, n=4)`
gives them) and their distance as a share of the median, next to the
metric's bound in BENCHMARK.json; a spread under a third of the bound is
marked steady, and one above the bound is a problem. It then compares the two sets' medians: a second median
worse than the first by more than the bound is a problem. It also checks
that the failed share of operations is the same in every run of both
sets and that each run prints exactly the metrics BENCHMARK.json names.
Traced runs all use seed 1, so their counts must repeat exactly; their
per-layer figures are printed, with the tracing overhead on fit_s and
score_s (traced against untraced rounds of the same runs). Raw results go
to .perfbench_out/steady-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    result["summary"] = proc.stderr.strip().splitlines()[-1]
    result["seed"] = seed
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def check_names(spec, result, key):
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        return ["metrics differ from BENCHMARK.json %s: %s" % (key, sorted(set(got) ^ set(want)))]
    return []


def report_untraced(spec, workload, label, results):
    problems = []
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print("\n%s, %s: %d runs, seeds %s, wall %.0f-%.0f s, failed share %s, all correct: %s"
          % (workload, label, len(results), [r["seed"] for r in results],
             min(r["wall_s"] for r in results), max(r["wall_s"] for r in results),
             sorted(str(s) for s in shares), all(r["correct"] for r in results)))
    if not all(r["correct"] for r in results):
        problems.append("%s, %s: a run was not correct" % (workload, label))
    for r in results:
        problems += check_names(spec, r, "end_to_end")
    print("  %-12s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        median, q1, q3, share = spread(values)
        verdict = "steady" if share < metric["bound"] / 3 else "NOT STEADY"
        if share > metric["bound"]:
            problems.append("%s, %s: %s spread %.1f%% is above its bound"
                            % (workload, label, metric["name"], 100 * share))
        print("  %-12s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%  %s"
              % (metric["name"], median, q1, q3, 100 * share, 100 * metric["bound"], verdict))
    return problems


def compare_sets(spec, workload, first, second):
    """Problems where the second set's median is worse than the first's by
    more than the bound, or where the failed share differs between runs."""
    problems = []
    shares = {Fraction(r["failed"], r["attempted"]) for r in first + second}
    if len(shares) != 1:
        problems.append("%s: failed share varies between runs: %s"
                        % (workload, sorted(str(s) for s in shares)))
    print("\n%s: second set against first" % workload)
    print("  %-12s %12s %12s %8s %6s" % ("metric", "median 1", "median 2", "change", "bound"))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        m1, m2 = (statistics.median(r["metrics"][name]["value"] for r in runs)
                  for runs in (first, second))
        change = m2 / m1 - 1
        worse = change if metric["better"] == "lower" else -change
        verdict = "within bound" if worse <= metric["bound"] else "WORSE BEYOND BOUND"
        if worse > metric["bound"]:
            problems.append("%s: %s median moved %+.1f%%" % (workload, name, 100 * change))
        print("  %-12s %12.6g %12.6g %+7.2f%% %5.0f%%  %s"
              % (name, m1, m2, 100 * change, 100 * metric["bound"], verdict))
    return problems


def report_traced(spec, workload, results):
    problems = []
    for r in results:
        problems += check_names(spec, r, "per_layer")
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
              for r in results]
    if any(c != counts[0] for c in counts):
        problems.append("%s: traced counts differ between runs" % workload)
    print("\n%s traced: %d runs of seed %d, counts repeat: %s"
          % (workload, len(results), results[0]["seed"], all(c == counts[0] for c in counts)))
    for name in (m["name"] for m in spec["per_layer"]):
        values = [r["metrics"][name]["value"] for r in results]
        if any(values):
            print("  %-45s %14.6g %s" % (name, statistics.median(values),
                                         results[0]["metrics"][name]["unit"]))
    for name in ("fit_s", "score_s"):
        traced = statistics.median(r["metrics"]["traced." + name]["value"] for r in results)
        plain = statistics.median(r["metrics"]["untraced." + name]["value"] for r in results)
        print("  tracing overhead on %s: %+.2f%% (%.4g s traced, %.4g s untraced rounds)"
              % (name, 100 * (traced / plain - 1), traced, plain))
    return problems


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    parser.add_argument("--traced", type=int, default=0, help="traced runs per workload")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = range(1, args.runs + 1)
    record = {"seconds": spec["run_seconds"], "untraced": [{}, {}], "traced": {}}
    problems = []
    for runs in record["untraced"]:
        for workload in workloads:
            runs[workload] = [run_once(spec, workload, s, 0) for s in seeds]
    for workload in workloads:
        record["traced"][workload] = [run_once(spec, workload, 1, 1) for _ in range(args.traced)]
    for workload in workloads:
        first, second = (runs[workload] for runs in record["untraced"])
        if first:
            problems += report_untraced(spec, workload, "set 1", first)
            problems += report_untraced(spec, workload, "set 2", second)
            problems += compare_sets(spec, workload, first, second)
        if record["traced"][workload]:
            problems += report_traced(spec, workload, record["traced"][workload])

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print("\nraw results: %s" % os.path.relpath(path, ROOT))
    for problem in problems:
        print("PROBLEM: %s" % problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
