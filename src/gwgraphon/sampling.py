"""Random graph generation from a graphon."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .core import MIN_NODES, DomainError, ObservedGraph, _degree_measure, _dense
from .graphons import GraphonSpec, _evaluate_array


def estimate_node_measure(adjacency):
    """Degree-proportional node measure of a symmetric binary adjacency.

    Degrees are floored at 1e-8 before normalization, so isolated nodes keep
    a tiny positive mass and an edgeless graph gets the uniform measure.
    """
    adj = _dense(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DomainError("adjacency must be square")
    if np.any((adj != 0.0) & (adj != 1.0)):
        raise DomainError("adjacency entries must be 0 or 1")
    if np.any(adj != adj.T):
        raise DomainError("adjacency must be symmetric")
    return _degree_measure(adj)


def _seed(seed):
    """seed as an int, checked to lie in SolverConfig.seed's domain [0, 2**64)."""
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must fit in an unsigned 64-bit integer, got %d" % seed)
    return seed


def derive_graph_seed(seed, index):
    """Per-graph seed for population sampling, independent of sampling order."""
    ss = np.random.SeedSequence(entropy=_seed(seed), spawn_key=(1, int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def sample_graph(spec: GraphonSpec, n, seed) -> ObservedGraph:
    """Sample an n-node graph: latent positions uniform on [0, 1], then one
    Bernoulli draw per unordered pair with probability W(v_i, v_j).

    The diagonal is zero and the adjacency is mirrored from the upper
    triangle. Identical (spec, n, seed) inputs give bit-identical graphs.
    """
    n = int(n)
    if n < MIN_NODES:
        raise DomainError("need at least %d nodes, got %d" % (MIN_NODES, n))
    rng = np.random.default_rng(_seed(seed))
    positions = rng.random(n)
    iu, ju = np.triu_indices(n, k=1)
    probs = _evaluate_array(spec, positions[iu], positions[ju])
    hits = rng.random(iu.size) < probs
    adj = np.zeros((n, n))
    adj[iu[hits], ju[hits]] = 1.0
    adj += adj.T
    return ObservedGraph.from_dense(adj)


def sample_population(spec: GraphonSpec, count, size_range: Sequence[int], seed) -> List[ObservedGraph]:
    """Sample `count` graphs with sizes uniform on {n_min, ..., n_max}.

    Sizes come from one dedicated stream and each graph gets its own derived
    seed, so populations are reproducible regardless of evaluation order.
    """
    count = int(count)
    if count < 1:
        raise DomainError("count must be at least 1")
    n_min, n_max = (int(size_range[0]), int(size_range[1]))
    if n_min < MIN_NODES or n_max < n_min:
        raise DomainError("size range must satisfy %d <= n_min <= n_max, got [%d, %d]"
                          % (MIN_NODES, n_min, n_max))
    size_rng = np.random.default_rng(np.random.SeedSequence(entropy=_seed(seed), spawn_key=(0,)))
    sizes = size_rng.integers(n_min, n_max + 1, size=count)
    return [sample_graph(spec, int(sz), derive_graph_seed(seed, i)) for i, sz in enumerate(sizes)]
