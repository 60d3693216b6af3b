"""Graphon estimation as a Gromov-Wasserstein barycenter of observed graphs."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from .core import MIN_NODES, DomainError, ObservedGraph, SolverConfig, StepFunction, _dense
from .gw import proximal_gw_batch


def select_partition_count(sizes: Sequence[int]) -> int:
    """Barycenter partition count: floor(N_max / ln N_max), clamped to >= 2."""
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise DomainError("sizes must be nonempty")
    if min(sizes) < MIN_NODES:
        raise DomainError("graph sizes must be at least %d" % MIN_NODES)
    n_max = max(sizes)
    return max(int(np.floor(n_max / np.log(n_max))), 2)


def _interp_sorted_measure(measure, k):
    """Sample a graph's descending measure at k midpoint abscissae."""
    measure = np.asarray(measure, dtype=float)
    n = measure.size
    src = (np.arange(n) + 0.5) / n
    dst = (np.arange(k) + 0.5) / k
    desc = -np.sort(-measure, kind="stable")
    return np.interp(dst, src, desc)


def _graph_weights(weights, m):
    """Per-graph weights as floats; all ones when weights is None."""
    if weights is None:
        return np.ones(m)
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size != m:
        raise DomainError("got %d weights for %d graphs" % (weights.size, m))
    if not (np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
            and float(weights.sum()) > 0.0):
        raise DomainError("weights must be finite and nonnegative with a positive sum")
    return weights


def estimate_barycenter_measure(graphs: Sequence[ObservedGraph], k,
                                weights=None) -> np.ndarray:
    """Barycenter block measure: weighted average of the graphs' sorted node
    measures, each linearly interpolated onto a common k-point midpoint grid,
    then renormalized. The result is strictly positive and nonincreasing.

    :param weights: optional nonnegative per-graph weights with a positive
        sum; the plain average when omitted.
    """
    graphs = list(graphs)
    if not graphs:
        raise DomainError("graphs must be nonempty")
    k = int(k)
    if k < 2:
        raise DomainError("k must be at least 2")
    for g in graphs:
        if g.node_count < MIN_NODES:
            raise DomainError("every graph needs at least %d nodes" % MIN_NODES)
    weights = _graph_weights(weights, len(graphs))
    acc = np.zeros(k)
    for g, weight in zip(graphs, weights):
        acc += weight * _interp_sorted_measure(g.measure, k)
    acc /= weights.sum()
    return acc / acc.sum()


def _coupling(plan):
    return np.asarray(getattr(plan, "coupling", plan), dtype=float)


def _average_pushforward(graphs, plans, mu_w, weights=None):
    """mu_w as a float vector, and the weighted average Σ w·Tᵀ·A·T / Σ w over
    the population (w = 1 when weights is None). mu_w must be nonempty,
    finite and strictly positive, and every plan must map its graph's nodes
    onto len(mu_w) blocks."""
    mu_w = np.asarray(mu_w, dtype=float).ravel()
    if not (mu_w.size > 0 and np.all(np.isfinite(mu_w)) and np.all(mu_w > 0.0)):
        raise DomainError("mu_w entries must be finite and strictly positive")
    graphs = list(graphs)
    plans = list(plans)
    if not graphs:
        raise DomainError("graphs must be nonempty")
    if len(graphs) != len(plans):
        raise DomainError("got %d graphs but %d plans" % (len(graphs), len(plans)))
    weights = _graph_weights(weights, len(graphs))
    total = None
    for g, p, weight in zip(graphs, plans, weights):
        t = _coupling(p)
        if t.shape != (g.node_count, mu_w.size):
            raise DomainError("plan shape %s is not (%d, %d)" % (t.shape, g.node_count, mu_w.size))
        piece = weight * (t.T @ (_dense(g) @ t))
        total = piece if total is None else total + piece
    return mu_w, total / weights.sum()


def barycenter_update(graphs, plans, mu_w, weights=None) -> np.ndarray:
    """Closed-form barycenter values for fixed plans: the averaged plan
    pushforward of the adjacencies, divided elementwise by mu_w·mu_wᵀ,
    then symmetrized and clamped to [0, 1].

    :param weights: optional nonnegative per-graph weights with a positive
        sum; the plain average when omitted.
    """
    mu_w, b = _average_pushforward(graphs, plans, mu_w, weights)
    w = b / np.outer(mu_w, mu_w)
    w = 0.5 * (w + w.T)
    return np.clip(w, 0.0, 1.0)


def _alternate(problems, cfg, k, update: Callable) -> List[StepFunction]:
    """Shared alternating loop over (graphs, seed) problems, fitted in
    lockstep: each round solves every graph of every problem against its
    problem's current values in one batched transport solve, then applies
    the update per problem. A problem's seed draws its starting values and
    its solves' random anchors, so each fit equals the fit of its problem
    alone; estimate_gwb is the problem of one."""
    problems = [(list(graphs), seed) for graphs, seed in problems]
    measures, values = [], []
    for graphs, seed in problems:
        if not graphs:
            raise DomainError("need at least one graph")
        k_fit = select_partition_count([g.node_count for g in graphs]) if k is None else int(k)
        measures.append(estimate_barycenter_measure(graphs, k_fit))
        start = np.random.default_rng(seed).random((k_fit, k_fit))
        values.append(0.5 * (start + start.T))
    owners = [p for p, (graphs, _) in enumerate(problems) for _ in graphs]
    spaces = [g for graphs, _ in problems for g in graphs]
    seeds = [problems[p][1] for p in owners]
    for _ in range(cfg.outer_iters):
        targets = [(v, mu_w) for v, mu_w in zip(values, measures)]
        results = iter(proximal_gw_batch(spaces, [targets[p] for p in owners], cfg, seeds))
        values = [update(graphs, [next(results).plan.coupling for _ in graphs], mu_w)
                  for (graphs, _), mu_w in zip(problems, measures)]
    return [StepFunction(v, mu_w) for v, mu_w in zip(values, measures)]


def estimate_gwb(graphs: Sequence[ObservedGraph], cfg: Optional[SolverConfig] = None,
                 k=None) -> StepFunction:
    """Estimate a graphon as the GW barycenter of the observed graphs.

    The partition count defaults to select_partition_count over the graph
    sizes; the block measure is estimated once up front and held fixed. The
    values start as symmetrized uniform noise drawn from cfg.seed, and each
    of the cfg.outer_iters rounds alternates one batched proximal transport
    solve of every graph with the closed-form update. Deterministic given
    the seed.
    """
    if cfg is None:
        cfg = SolverConfig()
    return _alternate([(graphs, cfg.seed)], cfg, k, barycenter_update)[0]
