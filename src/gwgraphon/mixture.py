"""Mixtures of barycenters for heterogeneous populations, with soft assignment."""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .barycenter import (
    _alternate,
    _coupling,
    barycenter_update,
    estimate_barycenter_measure,
    estimate_gwb,
    select_partition_count,
)
from .core import DomainError, ObservedGraph, SolverConfig, StepFunction, TransportPlan
from .gw import entropic_ot, proximal_gw_batch


@dataclasses.dataclass(frozen=True, eq=False)
class MixtureModel:
    """A set of component step functions plus a soft graph-to-component assignment.

    :param components: one StepFunction per mixture component.
    :param assignment: C x M transport plan with uniform marginals; entry
        (c, m) is the mass of graph m assigned to component c.
    :param objective_trace: optional per-round transport objective values.
    """

    components: Tuple[StepFunction, ...]
    assignment: TransportPlan
    objective_trace: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise DomainError("mixture needs at least one component")
        object.__setattr__(self, "components", components)
        if self.assignment.coupling.shape[0] != len(components):
            raise DomainError("assignment rows must match the component count")
        c, m = self.assignment.coupling.shape
        if not np.allclose(self.assignment.row_marginal, 1.0 / c, atol=1e-9):
            raise DomainError("assignment row marginal must be uniform")
        if not np.allclose(self.assignment.col_marginal, 1.0 / m, atol=1e-9):
            raise DomainError("assignment column marginal must be uniform")
        if self.objective_trace is not None:
            object.__setattr__(self, "objective_trace",
                               tuple(float(v) for v in self.objective_trace))

    @property
    def component_count(self) -> int:
        return len(self.components)


def _derived_seed(seed: int, tag: int, index: int) -> int:
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return int(seq.generate_state(1, np.uint64)[0])


def estimate_mixture(graphs: Sequence[ObservedGraph], c: int,
                     cfg: Optional[SolverConfig] = None, rounds: int = 5,
                     track_objective: bool = False) -> MixtureModel:
    """Fit c component step functions and a soft assignment to a graph population.

    Components start as the barycenters of a seeded round-robin sharding
    of the population, each fitted under its own derived seed; the shards
    are fitted in lockstep, one batched transport solve per outer round,
    and each equals estimate_gwb of its shard alone. Every (graph,
    component) pair is then solved once against them, all c·M pairs in one
    batched transport solve. Each round re-estimates each component as the
    assignment-weighted barycenter of the population from the plans it
    already holds, solves every pair once against the new components, again
    in one batch, and refreshes the assignment as the entropic optimal
    transport plan, at entropic weight cfg.beta and between uniform
    marginals over components and graphs, of those solves' distances. The
    same solves give the plans of the next round's update, so a fit makes
    (rounds + 1)·c·M transport solves in rounds + 1 batches.

    :param graphs: observed population, at least c graphs.
    :param c: number of components, >= 1.
    :param cfg: solver configuration; defaults apply when omitted.
    :param rounds: alternation rounds, >= 1.
    :param track_objective: record the transport objective after each round.
    :return: fitted MixtureModel.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    graphs = list(graphs)
    m = len(graphs)
    c = int(c)
    rounds = int(rounds)
    if c < 1:
        raise DomainError("component count must be >= 1")
    if m < 1:
        raise DomainError("population must be nonempty")
    if c > m:
        raise DomainError("cannot fit more components than graphs")
    if rounds < 1:
        raise DomainError("rounds must be >= 1")

    if c == 1:
        component = estimate_gwb(graphs, cfg)
        coupling = np.full((1, m), 1.0 / m)
        plan = TransportPlan(coupling, np.array([1.0]), np.full(m, 1.0 / m))
        trace = None
        if track_objective:
            dists = np.array([[res.distance_sq
                               for res in proximal_gw_batch(graphs, [component] * m, cfg)]])
            trace = (float(np.sum(coupling * dists)),)
        return MixtureModel((component,), plan, trace)

    k = select_partition_count([g.node_count for g in graphs])
    shuffle = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(2,)))
    order = shuffle.permutation(m)
    shards = [([graphs[gi] for gi in order[ci::c]], _derived_seed(cfg.seed, 3, ci))
              for ci in range(c)]
    comps = [(seeded.values, seeded.measure)
             for seeded in _alternate(shards, cfg, k, barycenter_update)]

    def solve_all():
        results = proximal_gw_batch(graphs * c, [comp for comp in comps for _ in graphs], cfg)
        return [results[ci * m:(ci + 1) * m] for ci in range(c)]

    solves = solve_all()
    p = np.full((c, m), 1.0 / (c * m))
    trace: List[float] = []
    for _ in range(rounds):
        for ci in range(c):
            wts = p[ci] / p[ci].sum()
            mu_c = estimate_barycenter_measure(graphs, k, wts)
            plans = [res.plan for res in solves[ci]]
            comps[ci] = (barycenter_update(graphs, plans, mu_c, wts), mu_c)
        solves = solve_all()
        dists = np.array([[res.distance_sq for res in row] for row in solves])
        p = _coupling(entropic_ot(dists, np.full(c, 1.0 / c), np.full(m, 1.0 / m),
                                  cfg.beta))
        if track_objective:
            trace.append(float(np.sum(p * dists)))

    components = tuple(StepFunction(values, mu) for values, mu in comps)
    plan = TransportPlan(p, np.full(c, 1.0 / c), np.full(m, 1.0 / m))
    return MixtureModel(components, plan, tuple(trace) if track_objective else None)


def assign_clusters(model: MixtureModel) -> np.ndarray:
    """Hard cluster labels: the most-weighted component per graph."""
    return np.argmax(model.assignment.coupling, axis=0)
