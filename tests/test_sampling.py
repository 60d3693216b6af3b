import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwgraphon.core import DomainError, ObservedGraph, ValidationError
from gwgraphon.graphons import GraphonSpec
from gwgraphon.sampling import (derive_graph_seed, estimate_node_measure,
                                sample_graph, sample_population)


def test_sample_graph_is_deterministic():
    spec = GraphonSpec("xy")
    a = sample_graph(spec, 40, seed=7)
    b = sample_graph(spec, 40, seed=7)
    assert (a.adjacency != b.adjacency).nnz == 0
    np.testing.assert_array_equal(a.measure, b.measure)
    c = sample_graph(spec, 40, seed=8)
    assert (a.adjacency != c.adjacency).nnz > 0


def test_sample_graph_simple_and_symmetric():
    g = sample_graph(GraphonSpec("mean"), 60, seed=3)
    dense = g.adjacency.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert float(np.abs(np.diag(dense)).max()) == 0.0
    assert set(np.unique(dense)) <= {0.0, 1.0}


def test_sample_graph_extreme_probabilities():
    full = sample_graph(GraphonSpec.from_grid(np.array([[1.0]])), 5, seed=0)
    assert full.edge_count == 10
    empty = sample_graph(GraphonSpec.from_grid(np.array([[0.0]])), 5, seed=0)
    assert empty.edge_count == 0
    np.testing.assert_allclose(empty.measure, np.full(5, 0.2))


def test_sample_graph_needs_two_nodes():
    for n in (1, 2):
        with pytest.raises(DomainError):
            sample_graph(GraphonSpec("xy"), n, seed=0)


def test_edge_density_concentrates():
    """Bernoulli(0.3) pair draws: density within 3 sigma of 0.3 at n=200."""
    n = 200
    g = sample_graph(GraphonSpec.from_grid(np.array([[0.3]])), n, seed=1)
    pairs = n * (n - 1) / 2
    density = g.edge_count / pairs
    assert abs(density - 0.3) <= 3.0 * np.sqrt(0.3 * 0.7 / pairs)


def test_edge_density_law_of_large_numbers():
    """Mean density over 50 samples converges to p (4 sigma band)."""
    p, n, m = 0.4, 50, 50
    spec = GraphonSpec.from_grid(np.array([[p]]))
    pairs = n * (n - 1) / 2
    densities = [sample_graph(spec, n, seed=s).edge_count / pairs for s in range(m)]
    sigma = np.sqrt(p * (1 - p) / (pairs * m))
    assert abs(float(np.mean(densities)) - p) <= 4.0 * sigma


def test_node_measure_path_graph():
    dense = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    np.testing.assert_allclose(estimate_node_measure(dense), [0.25, 0.5, 0.25])


def test_node_measure_floors_isolated_nodes():
    dense = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
    mu = estimate_node_measure(dense)
    assert float(mu.min()) > 0.0
    np.testing.assert_allclose(mu[:2], 0.5, atol=1e-8)
    assert mu[2] == pytest.approx(1e-8 / (2 + 1e-8))


def test_node_measure_validation():
    with pytest.raises(DomainError):
        estimate_node_measure(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        estimate_node_measure(np.array([[0, 2], [2, 0]], dtype=float))
    with pytest.raises(DomainError):
        estimate_node_measure(np.array([[0, 1], [0, 0]], dtype=float))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 5), data=st.data())
def test_node_measure_takes_the_adjacencies_a_graph_takes(n, data):
    """estimate_node_measure accepts exactly the adjacencies ObservedGraph
    accepts, the simple undirected graphs, and rejects the rest, self-loops
    included, without a RuntimeWarning."""
    cells = data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(cells, dtype=bool).reshape(n, n), k=1)
    dense = (upper | upper.T).astype(float)
    fault = data.draw(st.sampled_from((None, "self_loop", "asymmetric", 2.0, 0.5, np.nan, np.inf)))
    if fault is not None and n:
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if fault == "self_loop":
            dense[i, i] = 1.0
        elif fault == "asymmetric" and i != j:
            dense[i, j] = 1.0 - dense[i, j]
        elif fault != "asymmetric":
            dense[i, j] = dense[j, i] = fault
    valid = bool(n and np.all((dense == 0.0) | (dense == 1.0)) and not dense.diagonal().any()
                 and np.array_equal(dense, dense.T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ObservedGraph(dense, np.full(n, 1.0 / max(n, 1)))
            graph_takes = True
        except ValidationError:
            graph_takes = False
        try:
            estimate_node_measure(dense)
            measure_takes = True
        except DomainError:
            measure_takes = False
    assert graph_takes == measure_takes == valid


def test_derive_graph_seed_is_stable():
    assert derive_graph_seed(42, 3) == derive_graph_seed(42, 3)
    assert derive_graph_seed(42, 3) != derive_graph_seed(42, 4)
    assert derive_graph_seed(41, 3) != derive_graph_seed(42, 3)


def test_sample_population_sizes_and_determinism():
    spec = GraphonSpec("poly")
    pop = sample_population(spec, 8, [30, 60], seed=11)
    assert len(pop) == 8
    assert all(30 <= g.node_count <= 60 for g in pop)
    again = sample_population(spec, 8, [30, 60], seed=11)
    for a, b in zip(pop, again):
        assert (a.adjacency != b.adjacency).nnz == 0


def test_sample_population_validation():
    spec = GraphonSpec("xy")
    with pytest.raises(DomainError):
        sample_population(spec, 0, [10, 20], seed=0)
    with pytest.raises(DomainError):
        sample_population(spec, 3, [1, 20], seed=0)
    with pytest.raises(DomainError):
        sample_population(spec, 3, [2, 20], seed=0)
    with pytest.raises(DomainError):
        sample_population(spec, 3, [20, 10], seed=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_the_solver_seed_domain_is_a_domain_error(seed):
    """Sampling takes the seeds SolverConfig.seed takes, [0, 2**64), and
    rejects others with DomainError rather than numpy's ValueError."""
    spec = GraphonSpec("xy")
    with pytest.raises(DomainError):
        sample_graph(spec, 5, seed)
    with pytest.raises(DomainError):
        sample_population(spec, 2, [5, 6], seed)
    with pytest.raises(DomainError):
        derive_graph_seed(seed, 0)
    assert sample_graph(spec, 5, 2 ** 64 - 1).node_count == 5
