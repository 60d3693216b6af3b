import numpy as np
import pytest

from conftest import random_graph
from gwgraphon.barycenter import (barycenter_update, estimate_barycenter_measure,
                                  estimate_gwb, select_partition_count)
from gwgraphon.core import DomainError, ObservedGraph, SolverConfig
from gwgraphon.graphons import GraphonSpec
from gwgraphon.sampling import sample_population


def test_partition_count_examples():
    assert select_partition_count([200]) == 37
    assert select_partition_count([500]) == 80
    assert select_partition_count([1000]) == 144
    assert select_partition_count([120, 200, 150]) == 37
    assert select_partition_count([3]) == 2


def test_partition_count_validation():
    with pytest.raises(DomainError):
        select_partition_count([])
    with pytest.raises(DomainError):
        select_partition_count([200, 2])


def test_barycenter_measure_of_regular_graphs_is_uniform():
    cycle = ObservedGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    mu = estimate_barycenter_measure([cycle, cycle], 4)
    np.testing.assert_allclose(mu, 0.25)


def test_barycenter_measure_matches_nodes_at_equal_size():
    path = ObservedGraph.from_edges(3, [(0, 1), (1, 2)])
    mu = estimate_barycenter_measure([path], 3)
    np.testing.assert_allclose(mu, [0.5, 0.25, 0.25])


def test_barycenter_measure_averages_two_graphs():
    path = ObservedGraph.from_edges(3, [(0, 1), (1, 2)])
    triangle = ObservedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    mu = estimate_barycenter_measure([path, triangle], 3)
    np.testing.assert_allclose(mu, [(0.5 + 1 / 3) / 2, (0.25 + 1 / 3) / 2, (0.25 + 1 / 3) / 2])
    assert mu.sum() == pytest.approx(1.0)
    assert np.all(np.diff(mu) <= 1e-15)


BAD_WEIGHTS = ([1.0], [1.0, -0.5], [0.0, 0.0])


def test_barycenter_measure_validation(rng):
    with pytest.raises(DomainError):
        estimate_barycenter_measure([], 4)
    with pytest.raises(DomainError):
        estimate_barycenter_measure([random_graph(rng, 10)], 1)
    with pytest.raises(DomainError):
        estimate_barycenter_measure([random_graph(rng, 10), random_graph(rng, 2)], 4)
    pair = [random_graph(rng, 10), random_graph(rng, 12)]
    for weights in BAD_WEIGHTS:
        with pytest.raises(DomainError):
            estimate_barycenter_measure(pair, 4, weights)


def test_weights_generalize_the_plain_average(rng):
    """All-ones weights reproduce the unweighted results bit for bit, and a
    one-hot weight vector reproduces the result of its graph alone."""
    graphs = [random_graph(rng, 6), random_graph(rng, 9), random_graph(rng, 7)]
    mu_w = np.array([0.5, 0.3, 0.2])
    plans = [np.outer(g.measure, mu_w) for g in graphs]
    ones = np.ones(len(graphs))
    np.testing.assert_array_equal(estimate_barycenter_measure(graphs, 3, ones),
                                  estimate_barycenter_measure(graphs, 3))
    np.testing.assert_array_equal(barycenter_update(graphs, plans, mu_w, ones),
                                  barycenter_update(graphs, plans, mu_w))
    for i in range(len(graphs)):
        one_hot = np.eye(len(graphs))[i]
        np.testing.assert_array_equal(
            estimate_barycenter_measure(graphs, 3, one_hot),
            estimate_barycenter_measure(graphs[i:i + 1], 3))
        np.testing.assert_array_equal(
            barycenter_update(graphs, plans, mu_w, one_hot),
            barycenter_update(graphs[i:i + 1], plans[i:i + 1], mu_w))


def test_update_recovers_adjacency_under_identity_plans(rng):
    """Scaled-identity plans push A onto A/16; dividing by the uniform outer
    product undoes the scaling exactly."""
    g = random_graph(rng, 4)
    plan = 0.25 * np.eye(4)
    values = barycenter_update([g], [plan], np.full(4, 0.25))
    np.testing.assert_allclose(values, g.adjacency.toarray(), atol=1e-12)


def test_update_collapses_to_scalar_density(rng):
    g = random_graph(rng, 6)
    plan = g.measure[:, None].copy()
    values = barycenter_update([g], [plan], np.array([1.0]))
    expected = float(g.measure @ g.adjacency.toarray() @ g.measure)
    assert values.shape == (1, 1)
    assert values[0, 0] == pytest.approx(min(expected, 1.0), abs=1e-12)


def test_update_of_empty_graph_is_zero(rng):
    g = ObservedGraph.from_dense(np.zeros((4, 4)))
    plan = np.outer(g.measure, [0.5, 0.5])
    np.testing.assert_array_equal(barycenter_update([g], [plan], [0.5, 0.5]), np.zeros((2, 2)))


def test_update_validation(rng):
    g = random_graph(rng, 4)
    plan = np.outer(g.measure, [0.5, 0.5])
    with pytest.raises(DomainError):
        barycenter_update([g], [plan], [0.5, 0.0])
    with pytest.raises(DomainError):
        barycenter_update([g, g], [plan], [0.5, 0.5])
    with pytest.raises(DomainError):
        barycenter_update([], [], [0.5, 0.5])
    for weights in BAD_WEIGHTS:
        with pytest.raises(DomainError):
            barycenter_update([g, g], [plan, plan], [0.5, 0.5], weights)


def test_estimate_is_deterministic_and_well_formed(rng):
    graphs = sample_population(GraphonSpec("xy"), 4, [20, 30], seed=5)
    first = estimate_gwb(graphs, k=6)
    second = estimate_gwb(graphs, k=6)
    np.testing.assert_array_equal(first.values, second.values)
    np.testing.assert_array_equal(first.measure, second.measure)
    assert first.values.shape == (6, 6)
    assert 0.0 <= float(first.values.min()) and float(first.values.max()) <= 1.0


def test_estimate_ignores_duplicated_graphs(rng):
    graphs = sample_population(GraphonSpec("mean"), 3, [15, 25], seed=9)
    base = estimate_gwb(graphs, k=5)
    doubled = estimate_gwb(list(graphs) + list(graphs), k=5)
    np.testing.assert_allclose(doubled.values, base.values, atol=1e-9)
    np.testing.assert_allclose(doubled.measure, base.measure, atol=1e-12)


def test_estimate_ignores_node_relabeling(rng):
    graphs = list(sample_population(GraphonSpec("poly"), 3, [15, 20], seed=2))
    base = estimate_gwb(graphs, k=4)
    perm = rng.permutation(graphs[0].node_count)
    dense = graphs[0].adjacency.toarray()[np.ix_(perm, perm)]
    graphs[0] = ObservedGraph.from_dense(dense)
    shuffled = estimate_gwb(graphs, k=4)
    np.testing.assert_allclose(shuffled.values, base.values, atol=1e-6)


def test_each_update_step_descends(rng):
    """The closed-form update never increases the summed transport objective
    at fixed plans."""
    from gwgraphon.gw import gw_cost_offset, proximal_gw

    graphs = sample_population(GraphonSpec("xy"), 3, [15, 20], seed=1)
    cfg = SolverConfig(outer_iters=1)
    mu_w = estimate_barycenter_measure(graphs, 5)
    est = estimate_gwb(graphs, cfg, k=5)
    plans = [proximal_gw(g, est, cfg).plan.coupling for g in graphs]

    def objective(values):
        total = 0.0
        for g, p in zip(graphs, plans):
            off = gw_cost_offset(g.adjacency, g.measure, values, mu_w)
            total += float(np.sum((off - 2.0 * (g.adjacency @ p @ values.T)) * p))
        return total

    updated = barycenter_update(graphs, plans, mu_w)
    assert objective(updated) <= objective(est.values) + 1e-9


def test_constant_graphon_is_recovered():
    """Flat populations admit a flat barycenter under conservative alignment."""
    graphs = sample_population(GraphonSpec.from_grid(np.array([[0.5]])), 10,
                               [200, 200], seed=77)
    est = estimate_gwb(graphs, SolverConfig(beta=0.05))
    assert float(np.abs(est.values - 0.5).max()) <= 0.08


def test_k_override_and_default(rng):
    graphs = sample_population(GraphonSpec("xy"), 3, [40, 50], seed=3)
    assert estimate_gwb(graphs, k=4).values.shape == (4, 4)
    n_max = max(g.node_count for g in graphs)
    default = estimate_gwb(graphs, SolverConfig(outer_iters=1)).values.shape[0]
    assert default == select_partition_count([n_max])


def test_estimate_needs_graphs():
    with pytest.raises(DomainError):
        estimate_gwb([])
