"""Error metrics and reference baselines for benchmarking estimates."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .core import DomainError, ObservedGraph, SolverConfig, StepFunction, _dense
from .graphons import GraphonSpec, discretize_graphon
from .gw import proximal_gw


def upsample_step_function(w: StepFunction, resolution) -> np.ndarray:
    """Piecewise-constant expansion of a step function onto an R x R grid.

    Pixel (i, j) copies block (floor(i*K/R), floor(j*K/R)); with R = K the
    result is an identity copy of the values.

    :param w: step function with K <= R blocks.
    :param resolution: pixel count R per axis.
    """
    r = int(resolution)
    k = w.partition_count
    if r < k:
        raise DomainError("resolution %d is below the partition count %d" % (r, k))
    idx = (np.arange(r) * k) // r
    return w.values[np.ix_(idx, idx)]


def mse_error(estimate: StepFunction, truth: GraphonSpec, resolution=1000) -> float:
    """Mean squared pixel difference between the upsampled estimate and the
    midpoint-discretized truth."""
    ref = discretize_graphon(truth, resolution)
    up = upsample_step_function(estimate, resolution)
    diff = up - ref
    return float(np.mean(diff * diff))


def scoring_config(seed=0) -> SolverConfig:
    """Solver settings for scoring an estimate against a reference: extra
    proximal steps and restarts, so the reported value reflects the distance
    rather than solver slack, which dominates at metric scale under the
    plain single-start iteration. restarts=4 is an upper bound: against an
    estimate with equal block masses the antitone start equals the
    monotone one and is solved once, leaving 3 starts.
    """
    return SolverConfig(sinkhorn_iters=30, restarts=4, seed=int(seed))


def gw_error(estimate: StepFunction, truth: GraphonSpec,
             cfg: Optional[SolverConfig] = None, resolution=1000) -> float:
    """Alignment-free error: GW distance (not squared) between the estimate
    and the truth discretized at `resolution` under the uniform measure.

    The estimate keeps its own block measure. When no solver settings are
    given, the transport solve runs with scoring_config(). Lowering the
    resolution to 300 trades about 0.01 of accuracy for a large speedup.
    """
    if cfg is None:
        cfg = scoring_config()
    r = int(resolution)
    ref = discretize_graphon(truth, r)
    uniform = np.full(r, 1.0 / r)
    result = proximal_gw((ref, uniform), estimate, cfg)
    return float(np.sqrt(result.distance_sq))


def _padded_average(graphs):
    graphs = list(graphs)
    if not graphs:
        raise DomainError("need at least one graph")
    n_max = max(g.node_count for g in graphs)
    acc = np.zeros((n_max, n_max))
    for g in graphs:
        n = g.node_count
        acc[:n, :n] += _dense(g)
    return acc / len(graphs)


def usvt_estimate(graphs: Sequence[ObservedGraph]) -> StepFunction:
    """Spectral baseline: average the zero-padded adjacencies, then drop
    every eigenvalue with magnitude below 2.02 * sqrt(N_max / M).

    :param graphs: at least one observed graph.
    :return: StepFunction at K = N_max with the uniform measure.
    """
    graphs = list(graphs)
    avg = _padded_average(graphs)
    n_max = avg.shape[0]
    lam, vec = np.linalg.eigh(avg)
    threshold = 2.02 * np.sqrt(n_max / len(graphs))
    lam = np.where(np.abs(lam) < threshold, 0.0, lam)
    values = (vec * lam) @ vec.T
    values = np.clip(0.5 * (values + values.T), 0.0, 1.0)
    return StepFunction(values, np.full(n_max, 1.0 / n_max))


def naive_average_estimate(graphs: Sequence[ObservedGraph]) -> StepFunction:
    """Zero-pad, average, clamp. The no-alignment foil for ranking checks:
    its bottom-right block collects only padding zeros on mixed sizes."""
    avg = _padded_average(graphs)
    n_max = avg.shape[0]
    return StepFunction(np.clip(avg, 0.0, 1.0), np.full(n_max, 1.0 / n_max))


def clustering_accuracy(predicted, truth) -> float:
    """Best label-matching agreement rate between two clusterings.

    Labels may come from arbitrary alphabets; the matching maximizes the
    confusion-matrix diagonal over label pairings (assignment problem), so
    the result never depends on how either side names its clusters.

    :param predicted: length-M label vector.
    :param truth: length-M label vector.
    :return: fraction of agreeing positions under the best pairing, in [0, 1].
    """
    # imported here, its only user, so importing the package does not pay for it
    from scipy.optimize import linear_sum_assignment

    predicted = np.asarray(predicted).ravel()
    truth = np.asarray(truth).ravel()
    if predicted.size != truth.size:
        raise DomainError("label vectors differ in length (%d vs %d)"
                          % (predicted.size, truth.size))
    if predicted.size == 0:
        raise DomainError("label vectors must be nonempty")
    _, p_idx = np.unique(predicted, return_inverse=True)
    _, t_idx = np.unique(truth, return_inverse=True)
    confusion = np.zeros((int(p_idx.max()) + 1, int(t_idx.max()) + 1))
    np.add.at(confusion, (p_idx, t_idx), 1.0)
    rows, cols = linear_sum_assignment(confusion, maximize=True)
    return float(confusion[rows, cols].sum() / predicted.size)
