"""Per-module timing of gwgraphon from outside the package.

The tracer replaces the public functions of the package's modules, every
name bound to them in any gwgraphon module, the `__post_init__` validation
of their dataclasses and the CLI's command handlers with timing wrappers,
and puts the originals back on `uninstall`. Nothing inside the program
changes. A span's self time is its duration minus that of the wrapped
calls it made. Time spent hashing `proximal_gw` inputs to find repeated
solves is taken out of every enclosing span.
"""

import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np
import scipy.sparse as sp

PACKAGE = "gwgraphon"
MODULES = ("core", "graphons", "sampling", "gw", "barycenter", "smoothed",
           "mixture", "evaluation", "fileio", "cli")

# Every function the tracer wraps, named once here so that the metric
# names are fixed: each gets `.s` and `.calls`, and those no workload
# reaches read 0. A public function added to the package later is wrapped
# and counted in its module's self time, but gets no metric of its own
# until it is listed here and in BENCHMARK.json.
REPORTED = (
    "core.StepFunction", "core.ObservedGraph", "core.TransportPlan", "core.SolverConfig",
    "graphons.GraphonSpec", "graphons.evaluate_graphon", "graphons.discretize_graphon",
    "sampling.estimate_node_measure", "sampling.derive_graph_seed", "sampling.sample_graph",
    "sampling.sample_population",
    "gw.GwResult", "gw.gw_cost_offset", "gw.sinkhorn_projection", "gw.proximal_gw",
    "gw.entropic_ot", "gw.gw_distance_exact_small",
    "barycenter.select_partition_count", "barycenter.estimate_barycenter_measure",
    "barycenter.barycenter_update", "barycenter.estimate_gwb",
    "smoothed.build_laplacian_filter", "smoothed.smoothed_barycenter_update",
    "smoothed.estimate_sgwb",
    "mixture.MixtureModel", "mixture.estimate_mixture", "mixture.assign_clusters",
    "evaluation.upsample_step_function", "evaluation.mse_error", "evaluation.scoring_config",
    "evaluation.gw_error", "evaluation.usvt_estimate", "evaluation.naive_average_estimate",
    "evaluation.clustering_accuracy",
    "fileio.read_edge_list", "fileio.write_edge_list", "fileio.read_tu_dataset",
    "fileio.write_step_function", "fileio.read_step_function", "fileio.write_heatmap",
    "fileio.write_results_csv", "fileio.append_result_row",
    "cli.sample", "cli.estimate", "cli.cluster", "cli.eval", "cli.benchmark", "cli.main",
)

# Spans whose self time is reported as well.
SELF_TIMED = ("gw.proximal_gw", "mixture.estimate_mixture",
              "cli.sample", "cli.estimate", "cli.eval")

# Modules whose calls into proximal_gw are told apart.
SOLVE_CALLERS = ("barycenter", "mixture", "evaluation", "cli")

# Round timings of a traced run, measured by the benchmark itself: traced
# against untraced rounds of the same run give the tracing overhead.
ROUND_TIMINGS = ("traced.fit_s", "traced.score_s", "untraced.fit_s", "untraced.score_s")


def metric_names():
    """Every per-layer metric a traced run prints, in order."""
    names = ["%s.self_s" % m for m in MODULES]
    for key in REPORTED:
        names += ["%s.s" % key, "%s.calls" % key]
        if key in SELF_TIMED:
            names.append("%s.self_s" % key)
    names += ["gw.proximal_gw.s.by_%s" % c for c in SOLVE_CALLERS]
    names += ["gw.proximal_gw.cells", "gw.proximal_gw.cells_per_s",
              "gw.proximal_gw.dup_calls"]
    return names + list(ROUND_TIMINGS)


def _digest_array(h, x):
    if sp.issparse(x):
        x = sp.csr_array(x)
        for part in (x.data, x.indices, x.indptr):
            h.update(np.ascontiguousarray(part).tobytes())
        h.update(repr(x.shape).encode())
        return
    arr = np.ascontiguousarray(np.asarray(x, dtype=float))
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())


def _space(obj):
    """(matrix, measure) of a graph, step function or pair, as proximal_gw sees it."""
    for matrix_attr in ("adjacency", "values"):
        if hasattr(obj, matrix_attr):
            return getattr(obj, matrix_attr), obj.measure
    matrix, measure = obj
    return matrix, measure


class Tracer:
    """Timing wrappers around the package, with totals kept apart for
    set-up and for the traced rounds; `metrics` counts set-up once and
    divides the rest by the number of traced rounds.
    """

    def __init__(self):
        self._config_type = importlib.import_module(PACKAGE + ".core").SolverConfig
        self._patches = []   # (owner, attribute, original)
        self._stack = []     # per open span: [child seconds, excluded seconds]
        self._seen = set()
        self._phase = "setup"
        self.rounds = 0
        self.totals = {}     # (phase, key) -> float

    # -- bookkeeping -------------------------------------------------------
    def _add(self, key, value):
        self.totals[(self._phase, key)] = self.totals.get((self._phase, key), 0.0) + value

    def start_round(self):
        """Enter the next traced round; repeated solves are looked for within it."""
        self.rounds += 1
        self._phase = "round"
        self._seen = set()

    def metrics(self):
        """Per-round values of every name in metric_names() but ROUND_TIMINGS."""
        rounds = max(self.rounds, 1)
        out = {}
        for name in metric_names()[:-len(ROUND_TIMINGS)]:
            setup = self.totals.get(("setup", name), 0.0)
            out[name] = setup + self.totals.get(("round", name), 0.0) / rounds
        solve_s = out["gw.proximal_gw.s"]
        out["gw.proximal_gw.cells_per_s"] = out["gw.proximal_gw.cells"] / solve_s if solve_s else 0.0
        return out

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, key, module, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "").rpartition(".")[2]
            if on_call is not None:
                t = time.perf_counter()
                on_call(args, kwargs)
                if tracer._stack:
                    tracer._stack[-1][1] += time.perf_counter() - t
            tracer._stack.append([0.0, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                gross = time.perf_counter() - start
                child, excluded = tracer._stack.pop()
                net = gross - excluded
                tracer._add(key + ".s", net)
                tracer._add(key + ".calls", 1.0)
                tracer._add(key + ".self_s", net - child)
                tracer._add(module + ".self_s", net - child)
                if key == "gw.proximal_gw" and caller in SOLVE_CALLERS:
                    tracer._add("%s.s.by_%s" % (key, caller), net)
                if tracer._stack:
                    tracer._stack[-1][0] += net
                    tracer._stack[-1][1] += excluded

        return traced

    def _on_solve(self, signature):
        def on_call(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            a, w = bound.arguments["a"], bound.arguments["w"]
            cfg = bound.arguments.get("cfg") or self._config_type()
            init_plan = bound.arguments.get("init_plan")
            (mat_a, mu_a), (mat_w, mu_w) = _space(a), _space(w)
            h = hashlib.blake2b(repr(cfg).encode(), digest_size=16)
            for part in (mat_a, mu_a, mat_w, mu_w):
                _digest_array(h, part)
            if init_plan is not None:
                _digest_array(h, getattr(init_plan, "coupling", init_plan))
            digest = h.digest()
            if digest in self._seen:
                self._add("gw.proximal_gw.dup_calls", 1.0)
            self._seen.add(digest)
            cells = np.size(mu_a) * np.size(mu_w) * cfg.restarts * cfg.sinkhorn_iters
            self._add("gw.proximal_gw.cells", float(cells))
        return on_call

    def _targets(self):
        """(key, module name, owner, attribute, original) for everything wrapped."""
        for name in MODULES:
            mod = importlib.import_module("%s.%s" % (PACKAGE, name))
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_"):
                        yield "%s.%s" % (name, attr), name, mod, attr, obj
                    elif name == "cli" and attr.startswith("_cmd_"):
                        yield "cli.%s" % attr[len("_cmd_"):], name, mod, attr, obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and "__post_init__" in vars(obj):
                    yield ("%s.%s" % (name, attr), name, obj, "__post_init__",
                           vars(obj)["__post_init__"])

    def install(self):
        """Wrap every target and rebind the names other modules imported."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrapped = {}
        for key, module, owner, attr, original in self._targets():
            on_call = None
            if key == "gw.proximal_gw":
                on_call = self._on_solve(inspect.signature(original))
            wrapper = self._wrap(key, module, original, on_call)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if owner.__class__.__name__ == "module":
                wrapped[id(original)] = (original, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
