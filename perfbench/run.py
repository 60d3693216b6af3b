"""Benchmark of gwgraphon: one workload, one seed, one process.

    python3 perfbench/run.py --workload fit_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from its
`src/` directory. The run times its set-up from the start of the process,
then repeats whole rounds of the workload until the next round would end
after `--seconds`, and at least twice. It checks every round's outputs and
prints, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are end-to-end; with
`--trace 1` every second round runs under the per-module tracer, and the
metrics are per layer.
"""

import os
import time

_START = time.perf_counter()


def _since_process_start():
    """Seconds between the process's start and now, from /proc at 10 ms
    resolution; 0 where /proc is not there."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except OSError:
        return 0.0
    return max(uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"), 0.0)


_BEFORE_START = _since_process_start()

# BLAS runs single-threaded; this must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
MIN_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "score_s": "s",
                    "gw_err": "gw", "peak_rss_mb": "MB"}


def _layer_unit(name):
    if name.endswith("cells_per_s"):
        return "1/s"
    if name.endswith((".calls", ".cells", ".dup_calls")):
        return "count"
    return "s"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import gwgraphon from this tree's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gwgraphon", "__init__.py")):
        sys.exit("perfbench: no gwgraphon package under %s" % SRC)
    sys.path.insert(0, SRC)
    import gwgraphon
    if os.path.dirname(os.path.dirname(os.path.abspath(gwgraphon.__file__))) != SRC:
        sys.exit("perfbench: imported gwgraphon from %s, not %s" % (gwgraphon.__file__, SRC))


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    from workloads import WORKLOADS, Round
    if args.workload not in WORKLOADS:
        sys.exit("perfbench: unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = _BEFORE_START + (time.perf_counter() - _START) - workload.reference_s
        if tracer is not None:
            tracer.uninstall()

        rounds = []
        window = time.perf_counter()
        while True:
            # A traced run alternates untraced and traced rounds, so that the
            # tracing overhead is measured over the same stretch of time.
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.start_round()
                tracer.install()
            rnd = Round()
            started = time.perf_counter()
            try:
                workload.run_round(rnd)
            except Exception as exc:  # a failing program still yields a report
                rnd.op("round", False, "%s: %s" % (type(exc).__name__, exc))
            rnd.wall_s = time.perf_counter() - started
            rnd.traced = traced
            if traced:
                tracer.uninstall()
            # a round cut short by an exception counts its missing operations as failed
            rnd.ops += [("missing", False, "")] * (workload.ops_per_round - len(rnd.ops))
            rounds.append(rnd)
            elapsed = time.perf_counter() - window
            longest = max(r.wall_s for r in rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
                break

        problems = []
        if any(r.digest != rounds[0].digest for r in rounds):
            problems.append("a round's outputs differ from the first round's")
        try:
            problems += workload.final_checks()
        except Exception as exc:
            problems.append("%s: %s" % (type(exc).__name__, exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.ops) for r in rounds)
    failures = [(i, name, detail) for i, r in enumerate(rounds)
                for name, passed, detail in r.ops if not passed]
    for i, name, detail in failures:
        print("round %d: %s failed: %s" % (i, name, detail), file=sys.stderr)
    for note in sorted({n for r in rounds for n in r.notes}):
        print("note: %s" % note, file=sys.stderr)
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print("%s seed=%d rounds=%d fit_s=%s score_s=%s gw_err=%.6g"
          % (args.workload, args.seed, len(rounds),
             ["%.3f" % r.fit_s for r in rounds], ["%.3f" % r.score_s for r in rounds],
             rounds[0].gw_err), file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "fit_s": statistics.median(r.fit_s for r in rounds),
            "score_s": statistics.median(r.score_s for r in rounds),
            "gw_err": rounds[0].gw_err,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        values = tracer.metrics()
        for kind, flag in (("traced", True), ("untraced", False)):
            for name in ("fit_s", "score_s"):
                values["%s.%s" % (kind, name)] = statistics.median(
                    getattr(r, name) for r in rounds if r.traced == flag)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
