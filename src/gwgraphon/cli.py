"""Command-line surface: sample, estimate, cluster, eval, benchmark.

Every command prints one machine-parsable key=value summary line on stdout
and is deterministic under a fixed --seed (byte-identical output files).
Exit status: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import os
import sys
import time
from typing import List, Optional

import numpy as np

from .barycenter import estimate_gwb
from .core import (MIN_NODES, DomainError, GraphonError, ParseError, SolverConfig,
                   ValidationError)
from .evaluation import (clustering_accuracy, gw_error, mse_error,
                         naive_average_estimate, scoring_config,
                         upsample_step_function, usvt_estimate)
from .fileio import (ResultRow, _read_int_lines, _read_text, _text_lines,
                     append_result_row, read_edge_list, read_step_function,
                     read_tu_dataset, write_edge_list, write_heatmap,
                     write_results_csv, write_step_function)
from .graphons import FAMILY_NAMES, HARD_FAMILIES, GraphonSpec
from .gw import proximal_gw_batch
from .mixture import assign_clusters, estimate_mixture
from .sampling import derive_graph_seed, sample_population
from .smoothed import SmoothedSolveMode, estimate_sgwb

METHODS = ("gwb", "sgwb", "usvt", "naive")

MIN_HEATMAP_SIDE = 512


class UsageError(Exception):
    """Bad command-line arguments; reported on stderr with exit status 2."""


def _stable_seed(*parts) -> int:
    """Order-sensitive 64-bit seed derived from string parts; stable across
    runs and platforms so every benchmark cell is independently reproducible."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def _parse_nodes(text):
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            n_min, n_max = int(lo), int(hi)
        else:
            n_min = n_max = int(text)
    except ValueError:
        raise UsageError("--nodes expects N or MIN:MAX, got %r" % text) from None
    if n_min < MIN_NODES or n_max < n_min:
        raise UsageError("--nodes must satisfy %d <= MIN <= MAX (the estimators "
                         "need graphs of at least %d nodes)" % (MIN_NODES, MIN_NODES))
    return n_min, n_max


def _load_grid(path):
    lines = _text_lines(_read_text(path))
    if not any(line.split("#", 1)[0].strip() for _, line in lines):
        raise ParseError("grid file %r has no data" % (path,))
    if lines[0][1].startswith("K "):
        w = read_step_function(path)
        if not np.allclose(w.measure, 1.0 / w.partition_count, atol=1e-9):
            raise UsageError(
                "step-function file %r has a non-uniform measure; only "
                "uniform-measure files can be reused as grids" % (path,))
        return np.asarray(w.values)
    try:
        return np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ParseError("grid file %r: %s" % (path, exc)) from None


def _parse_graphon(text):
    if text.startswith("grid:"):
        return GraphonSpec.from_grid(_load_grid(text[len("grid:"):]))
    if text not in FAMILY_NAMES:
        raise UsageError("unknown graphon %r; choose grid:PATH or one of: %s"
                         % (text, ", ".join(FAMILY_NAMES)))
    return GraphonSpec(text)


def _read_population(directory):
    paths = sorted(glob.glob(os.path.join(directory, "*.txt")))
    graphs = [read_edge_list(p) for p in paths]
    if not graphs:
        raise UsageError("no .txt edge lists under %r" % (directory,))
    return graphs


def _solver_config(make=SolverConfig, **kwargs):
    try:
        return make(**kwargs)
    except ValidationError as exc:
        raise UsageError(str(exc)) from None


def _fit_estimate(graphs, method, cfg, k, mode):
    if method == "gwb":
        return estimate_gwb(graphs, cfg, k=k)
    if method == "sgwb":
        return estimate_sgwb(graphs, cfg, k=k, mode=mode)
    if method == "usvt":
        return usvt_estimate(graphs)
    return naive_average_estimate(graphs)


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    spec = _parse_graphon(args.graphon)
    n_min, n_max = _parse_nodes(args.nodes)
    try:
        # count and nodes are checked above, so what is left to fail is the seed
        graphs = sample_population(spec, args.count, (n_min, n_max), args.seed)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    width = max(3, len(str(args.count - 1)))
    with open(os.path.join(args.out, "manifest.csv"), "w",
              encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("filename", "nodes", "seed"))
        for i, graph in enumerate(graphs):
            name = "graph_%0*d.txt" % (width, i)
            write_edge_list(graph, os.path.join(args.out, name))
            writer.writerow((name, graph.node_count, derive_graph_seed(args.seed, i)))
    print("command=sample graphon=%s count=%d nodes=%s seed=%d out=%s"
          % (args.graphon, args.count, args.nodes, args.seed, args.out))
    return 0


def _cmd_estimate(args) -> int:
    cfg = _solver_config(beta=args.beta, outer_iters=args.outer,
                         sinkhorn_iters=args.sinkhorn, alpha=args.alpha,
                         seed=args.seed)
    graphs = _read_population(args.in_dir)
    k = None
    if args.k != "auto":
        try:
            k = int(args.k)
        except ValueError:
            raise UsageError("--k expects 'auto' or an integer, got %r" % args.k) from None
        if k < 2:
            raise UsageError("--k must be at least 2")
    mode = (SmoothedSolveMode.PAPER_CLOSED_FORM if args.mode == "paper"
            else SmoothedSolveMode.EXACT_ITERATIVE)
    started = time.perf_counter()
    estimate = _fit_estimate(graphs, args.method, cfg, k, mode)
    runtime = time.perf_counter() - started
    solves = proximal_gw_batch(graphs, [estimate] * len(graphs), cfg)
    objective = float(np.mean([res.distance_sq for res in solves]))
    write_step_function(estimate, args.out)
    if args.heatmap is not None:
        side = max(estimate.partition_count, MIN_HEATMAP_SIDE)
        write_heatmap(upsample_step_function(estimate, side), args.heatmap)
    print("command=estimate method=%s k=%d m=%d objective=%.17g "
          "runtime_seconds=%.3f out=%s"
          % (args.method, estimate.partition_count, len(graphs), objective,
             runtime, args.out))
    return 0


def _cmd_cluster(args) -> int:
    truth_labels: Optional[List[int]] = None
    if args.in_path.startswith("tu:"):
        pairs = read_tu_dataset(args.in_path[len("tu:"):])
        graphs = [g for g, _ in pairs]
        truth_labels = [label for _, label in pairs]
    else:
        graphs = _read_population(args.in_path)
    if args.labels is not None:
        truth_labels = _read_int_lines(args.labels, "label")
    if args.limit is not None:
        if args.limit < 1:
            raise UsageError("--limit must be at least 1")
        graphs = graphs[: args.limit]
        if truth_labels is not None:
            truth_labels = truth_labels[: args.limit]
    if args.clusters < 1:
        raise UsageError("--clusters must be at least 1")
    if args.clusters > len(graphs):
        raise UsageError("--clusters %d exceeds the population size %d"
                         % (args.clusters, len(graphs)))
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    if truth_labels is not None and len(truth_labels) != len(graphs):
        raise UsageError("got %d labels for %d graphs"
                         % (len(truth_labels), len(graphs)))
    cfg = _solver_config(seed=args.seed)
    model = estimate_mixture(graphs, args.clusters, cfg, rounds=args.rounds)
    os.makedirs(args.out, exist_ok=True)
    width = max(2, len(str(args.clusters - 1)))
    for ci, component in enumerate(model.components):
        write_step_function(component,
                            os.path.join(args.out, "component_%0*d.txt" % (width, ci)))
    with open(os.path.join(args.out, "assignment.csv"), "w",
              encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in model.assignment.coupling:
            writer.writerow(["%.17g" % v for v in row])
    predicted = assign_clusters(model)
    with open(os.path.join(args.out, "predicted_labels.txt"), "w",
              encoding="utf-8") as handle:
        for label in predicted:
            handle.write("%d\n" % label)
    accuracy = float("nan")
    if truth_labels is not None:
        accuracy = clustering_accuracy(predicted, truth_labels)
    print("command=cluster clusters=%d rounds=%d m=%d accuracy=%.17g out=%s"
          % (args.clusters, args.rounds, len(graphs), accuracy, args.out))
    return 0


def _cmd_eval(args) -> int:
    cfg = _solver_config(scoring_config, seed=args.seed)
    estimate = read_step_function(args.estimate)
    spec = _parse_graphon(args.truth)
    if args.resolution < 1:
        raise UsageError("--resolution must be at least 1")
    if args.metric == "mse":
        value = mse_error(estimate, spec, resolution=args.resolution)
    else:
        value = gw_error(estimate, spec, cfg, resolution=args.resolution)
    print("command=eval metric=%s resolution=%d value=%.17g"
          % (args.metric, args.resolution, value))
    if args.csv is not None:
        append_result_row(
            ResultRow(graphon_family=args.truth, method=args.label, trial=0,
                      M=0, N_min=0, N_max=0, metric_name=args.metric,
                      value=float(value), runtime_seconds=0.0, seed=args.seed),
            args.csv)
    return 0


def _parse_families(text):
    if text in ("all", "all13"):
        return list(FAMILY_NAMES)
    families = [f.strip() for f in text.split(",") if f.strip()]
    if not families:
        raise UsageError("--families must name at least one family")
    for family in families:
        if family not in FAMILY_NAMES:
            raise UsageError("unknown family %r; known: %s"
                             % (family, ", ".join(FAMILY_NAMES)))
    return families


def _parse_methods(text):
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise UsageError("--methods must name at least one method")
    for method in methods:
        if method not in METHODS:
            raise UsageError("unknown method %r; known: %s"
                             % (method, ", ".join(METHODS)))
    return methods


def _benchmark_cell(family, method, trial, args, n_min, n_max) -> ResultRow:
    """One (family, method, trial) measurement. Graphs depend on the family
    and trial only, so competing methods see identical populations."""
    spec = GraphonSpec(family)
    sample_seed = _stable_seed(args.seed, "sample", family, trial)
    fit_seed = _stable_seed(args.seed, "fit", family, method, trial)
    metric = "gw" if family in HARD_FAMILIES else "mse"
    started = time.perf_counter()
    graphs = sample_population(spec, args.count, (n_min, n_max), sample_seed)
    cfg = SolverConfig(seed=fit_seed)
    estimate = _fit_estimate(graphs, method, cfg, None,
                             SmoothedSolveMode.PAPER_CLOSED_FORM)
    if metric == "mse":
        value = mse_error(estimate, spec, resolution=args.resolution)
    else:
        eval_cfg = scoring_config(_stable_seed(args.seed, "eval", family,
                                               method, trial))
        value = gw_error(estimate, spec, eval_cfg, resolution=args.resolution)
    runtime = time.perf_counter() - started if args.timing else 0.0
    return ResultRow(graphon_family=family, method=method, trial=trial,
                     M=args.count, N_min=n_min, N_max=n_max,
                     metric_name=metric, value=float(value),
                     runtime_seconds=runtime, seed=args.seed)


def _cmd_benchmark(args) -> int:
    # the seed domain of every other command: SolverConfig's [0, 2**64)
    _solver_config(seed=args.seed)
    families = _parse_families(args.families)
    methods = _parse_methods(args.methods)
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    if args.resolution < 1:
        raise UsageError("--resolution must be at least 1")
    n_min, n_max = _parse_nodes(args.nodes)
    cells = [(family, method, trial)
             for family in families
             for method in methods
             for trial in range(args.trials)]
    rows = []
    for family, method, trial in cells:
        try:
            rows.append(_benchmark_cell(family, method, trial, args, n_min, n_max))
        except (GraphonError, OSError) as exc:
            print("cell family=%s method=%s trial=%d failed: %s"
                  % (family, method, trial, exc), file=sys.stderr)
            rows.append(ResultRow(graphon_family=family, method=method, trial=trial,
                                  M=args.count, N_min=n_min, N_max=n_max,
                                  metric_name="error", value=float("nan"),
                                  runtime_seconds=0.0, seed=args.seed))
    write_results_csv(rows, args.csv)
    for family in families:
        metric = "gw" if family in HARD_FAMILIES else "mse"
        for method in methods:
            values = [r.value for r in rows
                      if r.graphon_family == family and r.method == method
                      and r.metric_name != "error"]
            errors = args.trials - len(values)
            mean = float(np.mean(values)) if values else float("nan")
            std = float(np.std(values)) if values else float("nan")
            print("family=%s method=%s metric=%s trials=%d mean=%.6g std=%.6g errors=%d"
                  % (family, method, metric, len(values), mean, std, errors))
    print("command=benchmark rows=%d csv=%s" % (len(rows), args.csv))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwgraphon",
        description="Estimate graphons from unaligned graph populations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph population from a graphon")
    p.add_argument("--graphon", required=True, help="family name or grid:PATH")
    p.add_argument("--count", type=int, required=True, help="number of graphs")
    p.add_argument("--nodes", required=True, help="N or MIN:MAX node counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("estimate", help="fit a step function to a population")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of edge lists")
    p.add_argument("--method", choices=METHODS, default="gwb")
    p.add_argument("--beta", type=float, default=0.005)
    p.add_argument("--outer", type=int, default=5)
    p.add_argument("--sinkhorn", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.0002)
    p.add_argument("--k", default="auto", help="partition count, or 'auto'")
    p.add_argument("--mode", choices=("paper", "exact"), default="paper",
                   help="update-equation solver for sgwb")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="step-function output file")
    p.add_argument("--heatmap", default=None,
                   help="also write a PGM heatmap (upsampled to >= %d px)" % MIN_HEATMAP_SIDE)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("cluster", help="fit a mixture and cluster the population")
    p.add_argument("--in", dest="in_path", required=True,
                   help="directory of edge lists, or tu:DIR for a TU-style dataset")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--labels", default=None, help="truth labels, one per line")
    p.add_argument("--limit", type=int, default=None,
                   help="use only the first L graphs and their labels")
    p.set_defaults(handler=_cmd_cluster)

    p = sub.add_parser("eval", help="score an estimate against a ground truth")
    p.add_argument("--estimate", required=True, help="step-function file")
    p.add_argument("--truth", required=True, help="family name or grid:PATH")
    p.add_argument("--metric", choices=("mse", "gw"), required=True)
    p.add_argument("--resolution", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="append the result to this CSV")
    p.add_argument("--label", default="estimate", help="method column for --csv rows")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("benchmark", help="run the (family, method, trial) grid")
    p.add_argument("--families", required=True, help="comma list, or 'all'")
    p.add_argument("--methods", default="gwb,sgwb,usvt,naive")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--nodes", default="200")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="results CSV path")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock runtimes (off by default so reruns "
                        "are byte-identical)")
    p.add_argument("--resolution", type=int, default=1000)
    p.set_defaults(handler=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (GraphonError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
