"""The three benchmark workloads.

Each workload draws its graphs from the run's seed in `setup` and then
repeats one round of identical operations. Fits and scores run at the
package's default settings, seed 0 included, as a user would run them:
changing only the solver seed moves the GW error of one sgwb estimate
between 0.074 and 0.103, which would swamp what the seed of the graphs
does. A round reports its fit and scoring times, the GW error of what it
fitted, one pass/fail entry per operation and a digest of everything it
produced. Checks use the plain numpy reference module or a property the
method must have, never a stored copy of earlier output.
"""

import contextlib
import hashlib
import io
import math
import os
import time

import numpy as np

import gwgraphon as gg
from gwgraphon import cli

import reference as ref

SCORE_RESOLUTION = 300
# Criterion 5 of the acceptance suite: the GW error bound on mixed sizes.
MIXED_SIZE_BOUND = 0.15


def derive_seed(seed, *tags):
    """A 63-bit seed for one use, fixed by the run seed and the tags."""
    text = "\x1f".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def partition_count(n_max):
    return max(int(math.floor(n_max / math.log(n_max))), 2)


def sized_population(family, sizes, seed, tag):
    """One graph per listed size, each from its own derived seed. The sizes
    are fixed so that every seed asks for the same amount of work."""
    spec = gg.GraphonSpec(family)
    return [gg.sample_population(spec, 1, (n, n), derive_seed(seed, tag, i))[0]
            for i, n in enumerate(sizes)]


class Round:
    """What one round did: timings, GW error, operations and an output digest."""

    def __init__(self):
        self.fit_s = 0.0
        self.score_s = 0.0
        self.gw_err = float("nan")
        self.ops = []            # (name, passed, detail)
        self.notes = []          # observations that are not pass/fail
        self.wall_s = 0.0
        self.traced = False
        self._digest = hashlib.sha256()

    def op(self, name, passed, detail=""):
        self.ops.append((name, bool(passed), detail))

    def note(self, text):
        self.notes.append(text)

    def record(self, *parts):
        for part in parts:
            if isinstance(part, np.ndarray):
                self._digest.update(np.ascontiguousarray(part).tobytes())
            elif isinstance(part, bytes):
                self._digest.update(part)
            else:
                self._digest.update(repr(part).encode())

    def record_step_function(self, w):
        self.record(w.values, w.measure)

    @property
    def digest(self):
        return self._digest.hexdigest()


class Workload:
    """One workload: `setup` builds the inputs, `run_round` performs one
    round into a Round, `final_checks` returns the problems found once per
    run after the timed rounds. `reference_s` is the time `setup` spent on
    the benchmark's own reference computations, which is not set-up time
    of the program."""

    name = ""
    ops_per_round = 0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir
        self.reference_s = 0.0

    def final_checks(self):
        return []


class FitMixed(Workload):
    """Both barycenter estimators and both baselines on one mixed-size
    population, then GW scoring of all four.

    The paper's main setting (acceptance criteria 5 and 6): 10 abs_diff
    graphs of 100 to 300 nodes; estimate_gwb and estimate_sgwb at default
    settings, usvt_estimate and naive_average_estimate, each scored with
    gw_error at resolution 300. Scoring the baselines in every round keeps
    score_s from resting on about a second of measurement per round.
    """

    name = "fit_mixed"
    ops_per_round = 8
    family = "abs_diff"
    sizes = tuple(int(round(n)) for n in np.linspace(100, 300, 10))

    def setup(self):
        self.graphs = sized_population(self.family, self.sizes, self.seed, "graph")
        self.truth = gg.GraphonSpec(self.family)
        self.cfg = gg.SolverConfig()
        self.score_cfg = gg.scoring_config()
        self.k = partition_count(max(self.sizes))

    def run_round(self, rnd):
        start = time.perf_counter()
        fits = (gg.estimate_gwb(self.graphs, self.cfg),
                gg.estimate_sgwb(self.graphs, self.cfg))
        rnd.fit_s = time.perf_counter() - start
        baselines = (gg.usvt_estimate(self.graphs), gg.naive_average_estimate(self.graphs))
        start = time.perf_counter()
        errs = [gg.gw_error(w, self.truth, self.score_cfg, resolution=SCORE_RESOLUTION)
                for w in fits + baselines]
        rnd.score_s = time.perf_counter() - start
        floor = min(errs[2:])
        for label, w, err in zip(("gwb", "sgwb"), fits, errs):
            rnd.op("estimate_" + label, w.partition_count == self.k,
                   "K=%d, expected %d" % (w.partition_count, self.k))
            rnd.op("gw_error_" + label, err <= MIXED_SIZE_BOUND and err < floor,
                   "gw_error %.6g: bound %.2f, best baseline %.6g" % (err, MIXED_SIZE_BOUND, floor))
        for label, w, err in zip(("usvt", "naive"), baselines, errs[2:]):
            rnd.op("estimate_" + label, w.partition_count == max(self.sizes),
                   "K=%d, expected N_max" % w.partition_count)
            rnd.op("gw_error_" + label, math.isfinite(err), "gw_error %r" % err)
        for w in fits + baselines:
            rnd.record_step_function(w)
        rnd.record(errs)
        rnd.gw_err = float(np.mean(errs[:2]))
        self.fit = fits[0]

    def final_checks(self):
        """Checks made once per run, outside the timed rounds."""
        problems = []
        # One solve checked against the four-index definition of its objective.
        graph = self.graphs[0]
        result = gg.proximal_gw(graph, self.fit, self.cfg)
        plan = result.plan.coupling
        direct = ref.gw_objective(graph.adjacency.toarray(), self.fit.values, plan)
        if not math.isclose(result.distance_sq, direct, rel_tol=1e-9, abs_tol=1e-15):
            problems.append("distance_sq %.17g != four-index sum %.17g"
                            % (result.distance_sq, direct))
        for axis, measure in ((1, graph.measure), (0, self.fit.measure)):
            resid = float(np.abs(plan.sum(axis=axis) - measure).max())
            if resid > 1e-12:
                problems.append("plan marginal (axis %d) off by %.3g" % (axis, resid))
        return problems


class Mixture2Fam(Workload):
    """A two-component mixture fitted to two families, then GW scoring.

    Six xy graphs and six one_minus_abs_diff graphs of 100 to 150 nodes in
    a seeded order, estimate_mixture with c=2 and 3 rounds, then each
    component scored against both truths at resolution 300.
    """

    name = "mixture_2fam"
    ops_per_round = 5
    families = ("xy", "one_minus_abs_diff")
    sizes = (100, 110, 120, 130, 140, 150)
    rounds = 3

    def setup(self):
        graphs, labels = [], []
        for fi, family in enumerate(self.families):
            graphs += sized_population(family, self.sizes, self.seed, family)
            labels += [fi] * len(self.sizes)
        order = np.random.default_rng(derive_seed(self.seed, "order")).permutation(len(graphs))
        self.graphs = [graphs[i] for i in order]
        self.labels = np.array(labels)[order]
        self.truths = [gg.GraphonSpec(f) for f in self.families]
        self.k = partition_count(max(self.sizes))
        self.cfg = gg.SolverConfig()
        self.score_cfg = gg.scoring_config()

    def run_round(self, rnd):
        start = time.perf_counter()
        model = gg.estimate_mixture(self.graphs, 2, self.cfg, rounds=self.rounds)
        predicted = gg.assign_clusters(model)
        mid = time.perf_counter()
        scores = [[gg.gw_error(comp, truth, self.score_cfg, resolution=SCORE_RESOLUTION)
                   for truth in self.truths] for comp in model.components]
        rnd.fit_s = mid - start
        rnd.score_s = time.perf_counter() - mid

        coupling = model.assignment.coupling
        c, m = coupling.shape
        sums_ok = (np.allclose(coupling.sum(axis=1), 1.0 / c, rtol=0, atol=1e-9)
                   and np.allclose(coupling.sum(axis=0), 1.0 / m, rtol=0, atol=1e-9))
        sizes_ok = all(comp.partition_count == self.k for comp in model.components)
        rnd.op("estimate_mixture", sums_ok and sizes_ok,
               "assignment sums to 1/c and 1/m: %s, K=%d: %s" % (sums_ok, self.k, sizes_ok))
        # Whether the labels split exactly by family, and whether each
        # component is closer to its own family's truth than to the other's,
        # depends on the seed (see README). An operation's failure must not
        # vary by seed, so both are reported as notes, not as failures.
        agreement = ref.two_cluster_agreement(predicted, self.labels)
        if agreement < 1.0:
            rnd.note("hard labels agree with the families on %.4g of graphs" % agreement)
        own_errs = []
        for ci, row in enumerate(scores):
            members = self.labels[predicted == ci]
            own = int(np.bincount(members, minlength=2).argmax()) if members.size else ci
            own_errs.append(row[own])
            if not row[own] < row[1 - own]:
                rnd.note("component %d: gw_error %.6g to its own family's truth, %.6g to the other's"
                         % (ci, row[own], row[1 - own]))
            for fi, err in enumerate(row):
                rnd.op("gw_error_%d_%s" % (ci, self.families[fi]),
                       math.isfinite(err) and err >= 0.0, "gw_error %r" % err)
        rnd.gw_err = float(np.mean(own_errs))
        for comp in model.components:
            rnd.record_step_function(comp)
        rnd.record(coupling, predicted, scores)


class CliR1000(Workload):
    """The command line in-process: estimate, then GW scoring at resolution 1000.

    Set-up samples 20 abs_diff graphs of 200 nodes with `sample` and writes
    two 50-block averages of the abs_diff and exp07 truths. Each round runs
    `estimate --method sgwb --heatmap`, `eval --metric gw --resolution 1000`
    on the estimate and on both block averages, and `eval --metric mse`.
    """

    name = "cli_r1000"
    ops_per_round = 5
    family = "abs_diff"
    count, nodes = 20, 200
    resolution = 1000
    blocks = 50
    block_families = ("abs_diff", "exp07")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
        fields = dict(tok.split("=", 1) for tok in out.getvalue().split() if "=" in tok)
        return code, fields, out.getvalue(), err.getvalue()

    def setup(self):
        self.pop = os.path.join(self.dir, "population")
        code, _, _, err = self._cli(["sample", "--graphon", self.family,
                                     "--count", self.count, "--nodes", self.nodes,
                                     "--seed", derive_seed(self.seed, "population"),
                                     "--out", self.pop])
        if code != 0:
            raise RuntimeError("sample exited %d: %s" % (code, err.strip()))
        # The block-average files and their aligned-coupling objectives are
        # the benchmark's own work, kept out of set-up time.
        start = time.perf_counter()
        self.blocks_files = []
        for family in self.block_families:
            grid = ref.truth_grid(family, self.resolution)
            values = ref.block_average(grid, self.blocks)
            path = os.path.join(self.dir, "block_%s.txt" % family)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ref.format_step_function(values, np.full(self.blocks, 1.0 / self.blocks)))
            with open(path, encoding="utf-8") as handle:
                written, _ = ref.parse_step_function(handle.read())
            bound = math.sqrt(ref.aligned_block_objective(grid, written))
            self.blocks_files.append((family, path, bound))
        self.reference_s = time.perf_counter() - start
        self.est = os.path.join(self.dir, "estimate.txt")
        self.pgm = os.path.join(self.dir, "estimate.pgm")

    def _eval_gw(self, path, family):
        return self._cli(["eval", "--estimate", path, "--truth", family, "--metric", "gw",
                          "--resolution", self.resolution])

    def run_round(self, rnd):
        start = time.perf_counter()
        est = self._cli(["estimate", "--in", self.pop, "--method", "sgwb",
                         "--out", self.est, "--heatmap", self.pgm])
        mid = time.perf_counter()
        evals = [self._eval_gw(self.est, self.family)]
        evals += [self._eval_gw(path, family) for family, path, _ in self.blocks_files]
        rnd.fit_s = mid - start
        rnd.score_s = time.perf_counter() - mid
        mse = self._cli(["eval", "--estimate", self.est, "--truth", self.family,
                         "--metric", "mse", "--resolution", self.resolution])

        with open(self.est, "rb") as handle:
            est_bytes = handle.read()
        with open(self.pgm, "rb") as handle:
            pgm_bytes = handle.read()
        values, measure = ref.parse_step_function(est_bytes.decode())
        problems = self._estimate_problems(values, measure, pgm_bytes)
        rnd.op("estimate", est[0] == 0 and not problems,
               "exit %d: %s %s" % (est[0], est[3].strip(), problems))
        code, fields, _, err = evals[0]
        rnd.gw_err = float(fields.get("value", "nan"))
        rnd.op("eval_gw_estimate", code == 0 and math.isfinite(rnd.gw_err),
               "exit %d: %s" % (code, err.strip()))
        for (family, path, bound), (code, fields, _, err) in zip(self.blocks_files, evals[1:]):
            value = float(fields.get("value", "nan"))
            # a few ulps of rounding in gw_error's offset form are not a fault
            rnd.op("eval_gw_block_" + family, code == 0 and value <= bound * (1 + 1e-9),
                   "exit %d, gw %.17g above the aligned-coupling objective %.17g %s"
                   % (code, value, bound, err.strip()))
        code, fields, _, err = mse
        value = float(fields.get("value", "nan"))
        expect = ref.pixel_mse(values, self.family, self.resolution)
        rnd.op("eval_mse", code == 0 and math.isclose(value, expect, rel_tol=1e-12),
               "exit %d, mse %.17g, reference %.17g %s" % (code, value, expect, err.strip()))

        rnd.record(est_bytes, pgm_bytes)
        for code, _, out, _ in (est, *evals, mse):
            # the estimate line carries its own wall time, which is not output
            rnd.record(code, [t for t in out.split() if not t.startswith("runtime_seconds=")])

    def _estimate_problems(self, values, measure, pgm_bytes):
        problems = []
        k = partition_count(self.nodes)
        if values.shape != (k, k):
            problems.append("K=%d, expected %d" % (values.shape[0], k))
        if np.abs(values - values.T).max() > 1e-12:
            problems.append("values not symmetric")
        if values.min() < 0.0 or values.max() > 1.0:
            problems.append("values outside [0, 1]")
        if measure.min() <= 0.0 or np.any(np.diff(measure) > 0.0) \
                or abs(measure.sum() - 1.0) > 1e-12:
            problems.append("measure not positive, nonincreasing and summing to 1")
        pixels = ref.parse_pgm(pgm_bytes)
        side = max(values.shape[0], 512)
        if pixels.shape != (side, side) or np.any(pixels != ref.heatmap_pixels(values, side)):
            problems.append("heatmap differs from the estimate file")
        return problems


WORKLOADS = {w.name: w for w in (FitMixed, Mixture2Fam, CliR1000)}
