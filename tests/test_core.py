import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gwgraphon.core import (ObservedGraph, SolverConfig, StepFunction,
                            TransportPlan, ValidationError)
from gwgraphon.gw import proximal_gw
from gwgraphon.sampling import estimate_node_measure
from gwgraphon.graphons import (FAMILY_NAMES, GraphonSpec, discretize_graphon,
                                evaluate_graphon)
from gwgraphon.core import DomainError

from conftest import random_graph, random_step_function


# ---------------------------------------------------------------------------
# StepFunction
# ---------------------------------------------------------------------------

def test_step_function_freezes_arrays():
    sf = StepFunction(np.array([[0.2, 0.4], [0.4, 0.9]]), np.array([0.6, 0.4]))
    assert sf.partition_count == 2
    with pytest.raises(ValueError):
        sf.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        sf.measure[0] = 1.0


def test_step_function_rejects_asymmetry():
    with pytest.raises(ValidationError):
        StepFunction(np.array([[0.2, 0.4], [0.5, 0.9]]), np.array([0.6, 0.4]))


def test_step_function_rejects_out_of_range_values():
    with pytest.raises(ValidationError):
        StepFunction(np.array([[0.2, 1.4], [1.4, 0.9]]), np.array([0.6, 0.4]))
    with pytest.raises(ValidationError):
        StepFunction(np.array([[-0.2, 0.4], [0.4, 0.9]]), np.array([0.6, 0.4]))


def test_step_function_rejects_bad_measure():
    values = np.full((2, 2), 0.5)
    with pytest.raises(ValidationError):
        StepFunction(values, np.array([0.6, 0.3]))  # does not sum to 1
    with pytest.raises(ValidationError):
        StepFunction(values, np.array([0.4, 0.6]))  # increasing
    with pytest.raises(ValidationError):
        StepFunction(values, np.array([1.2, -0.2]))  # negative entry
    with pytest.raises(ValidationError):
        StepFunction(values, np.array([0.5, 0.3, 0.2]))  # K mismatch


def test_step_function_shape_validation():
    with pytest.raises(ValidationError):
        StepFunction(np.zeros((2, 3)), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        StepFunction(np.array([[np.nan, 0.0], [0.0, 0.0]]), np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# ObservedGraph
# ---------------------------------------------------------------------------

def test_observed_graph_from_dense_counts():
    dense = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
    g = ObservedGraph.from_dense(dense)
    assert g.node_count == 3
    assert g.edge_count == 2
    np.testing.assert_allclose(g.measure, [0.5, 0.25, 0.25])


def test_observed_graph_rejects_self_loops():
    dense = np.array([[1, 0], [0, 0]], dtype=float)
    with pytest.raises(ValidationError):
        ObservedGraph.from_dense(dense)


def test_observed_graph_rejects_asymmetry_and_weights():
    with pytest.raises(ValidationError):
        ObservedGraph.from_dense(np.array([[0, 1], [0, 0]], dtype=float))
    with pytest.raises(ValidationError):
        ObservedGraph.from_dense(np.array([[0, 2], [2, 0]], dtype=float))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.inf, np.nan, -np.inf])
def test_graph_builders_check_the_adjacency_before_the_degree_measure(entry):
    """from_dense checks the matrix before it takes the degree measure, so
    a non-finite entry is a ValidationError and no RuntimeWarning from
    dividing inf by inf; from_edges checks its matrix first as well."""
    with pytest.raises(ValidationError):
        ObservedGraph.from_dense([[0.0, entry], [entry, 0.0]])
    with pytest.raises(ValidationError):
        ObservedGraph.from_edges(0, [])


def test_observed_graph_from_edges_collapses_duplicates():
    g = ObservedGraph.from_edges(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.edge_count == 2
    dense = g.adjacency.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert float(dense.max()) == 1.0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
def test_observed_graph_from_edges_takes_an_integer_array(rng, dtype):
    pairs = [tuple(e) for e in rng.integers(0, 9, (30, 2)).tolist() if e[0] != e[1]]
    g = ObservedGraph.from_edges(9, pairs)
    h = ObservedGraph.from_edges(9, np.array(pairs, dtype=dtype))
    for x, y in ((g.adjacency.data, h.adjacency.data), (g.adjacency.indices, h.adjacency.indices),
                 (g.adjacency.indptr, h.adjacency.indptr), (g.measure, h.measure)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    empty = ObservedGraph.from_edges(4, np.empty((0, 2), dtype=dtype))
    assert empty.edge_count == 0


_GRAPH_FAULTS = (None, "asymmetric", "weighted", "self_loop", "nan", "inf", "non_square", "one_dim")


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                                           max_size=40),
       coo=st.booleans(), fault=st.sampled_from(_GRAPH_FAULTS), seed=st.integers(0, 2 ** 16))
def test_graph_is_the_same_from_dense_sparse_and_edges(n, pairs, coo, fault, seed):
    """One graph built from a dense 0/1 array, a scipy CSR or COO matrix
    (its entries in a shuffled order) and from_edges (the drawn pairs, with
    their duplicates and both orientations) is the same graph: equal CSR
    view arrays, measure, node and edge counts, and proximal_gw result.
    Isolated nodes and edgeless graphs are drawn. An asymmetric,
    non-binary, self-looped or non-finite matrix, dense or sparse, a
    non-square one and a 1-D array raise ValidationError, and so does a
    self-loop among the edges."""
    edges = [(u % n, v % n) for u, v in pairs if u % n != v % n]
    dense = np.zeros((n, n))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    rows, cols = np.nonzero(dense)
    order = np.random.default_rng(seed).permutation(rows.size)
    to_sparse = sp.coo_matrix if coo else sp.csr_matrix
    if fault is None:
        sparse = to_sparse((np.ones(rows.size), (rows[order], cols[order])), shape=(n, n))
        graphs = [ObservedGraph.from_dense(dense),
                  ObservedGraph(sparse, estimate_node_measure(sparse)),
                  ObservedGraph.from_edges(n, edges)]
        target = StepFunction(np.array([[0.7, 0.2], [0.2, 0.5]]), np.array([0.6, 0.4]))
        first = graphs[0]
        solved = proximal_gw(first, target)
        for g in graphs[1:]:
            for name in ("data", "indices", "indptr"):
                x, y = getattr(first.adjacency, name), getattr(g.adjacency, name)
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(g.measure, first.measure)
            assert (g.node_count, g.edge_count) == (n, len(set(map(frozenset, edges))))
            res = proximal_gw(g, target)
            assert res.distance_sq == solved.distance_sq
            np.testing.assert_array_equal(res.plan.coupling, solved.plan.coupling)
        return
    if fault in ("non_square", "one_dim"):
        bad = np.zeros((n, n + 1)) if fault == "non_square" else np.zeros(n)
        forms = [bad] + ([to_sparse(bad)] if bad.ndim == 2 else [])
    else:
        assume(n >= 2 or fault != "asymmetric")
        bad = dense.copy()
        i, j = (0, n - 1) if fault in ("asymmetric", "weighted") else (n - 1, n - 1)
        bad[i, j] = {"asymmetric": 1.0 - bad[i, j], "weighted": 2.0, "self_loop": 1.0,
                     "nan": np.nan, "inf": np.inf}[fault]
        if fault == "weighted":
            bad[j, i] = 2.0
        forms = [bad, to_sparse(bad)]
    for form in forms:
        with pytest.raises(ValidationError):
            ObservedGraph(form, np.full(n, 1.0 / n))
    if fault == "self_loop":
        with pytest.raises(ValidationError):
            ObservedGraph.from_edges(n, edges + [(n - 1, n - 1)])


def test_observed_graph_measure_length_check():
    with pytest.raises(ValidationError):
        ObservedGraph.from_dense(np.zeros((2, 2)), measure=np.array([1.0]))


# ---------------------------------------------------------------------------
# TransportPlan
# ---------------------------------------------------------------------------

def test_transport_plan_accepts_product_coupling(rng):
    mu_a = np.array([0.5, 0.3, 0.2])
    mu_b = np.array([0.7, 0.3])
    plan = TransportPlan(np.outer(mu_a, mu_b), mu_a, mu_b)
    assert plan.shape == (3, 2)


def test_transport_plan_rejects_marginal_violation():
    mu = np.array([0.5, 0.5])
    bad = np.array([[0.5, 0.0], [0.2, 0.3]])  # row sums [0.5, 0.5] ok, cols [0.7, 0.3] bad
    with pytest.raises(ValidationError):
        TransportPlan(bad, mu, np.array([0.5, 0.5]))


def test_transport_plan_rejects_negative_mass():
    mu = np.array([0.5, 0.5])
    bad = np.array([[0.6, -0.1], [0.0, 0.5]])
    with pytest.raises(ValidationError):
        TransportPlan(bad, mu, mu)


# ---------------------------------------------------------------------------
# SolverConfig
# ---------------------------------------------------------------------------

def test_solver_config_defaults():
    cfg = SolverConfig()
    assert cfg.beta == 0.005
    assert cfg.outer_iters == 5
    assert cfg.sinkhorn_iters == 10
    assert cfg.alpha == 0.0002
    assert cfg.seed == 0
    assert cfg.restarts == 1
    assert cfg.polish_iters == 0


@pytest.mark.parametrize("kwargs", [
    dict(beta=0.0),
    dict(beta=-1.0),
    dict(alpha=-0.1),
    dict(outer_iters=0),
    dict(sinkhorn_iters=0),
    dict(beta=float("nan")),
    dict(restarts=0),
    dict(polish_iters=-1),
    dict(seed=2 ** 64),
    dict(seed=-1),
    dict(beta=float("inf")),
    dict(alpha=float("nan")),
    dict(alpha=float("inf")),
    dict(beta=5e-324),
])
def test_solver_config_validation(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# Graphon families
# ---------------------------------------------------------------------------

def test_family_table_is_complete():
    assert len(FAMILY_NAMES) == 13
    assert "xy" in FAMILY_NAMES and "bipartite" in FAMILY_NAMES


def test_evaluate_xy_midpoint():
    assert evaluate_graphon(GraphonSpec("xy"), 0.5, 0.5) == pytest.approx(0.25)


def test_evaluate_rejects_out_of_domain():
    with pytest.raises(DomainError):
        evaluate_graphon(GraphonSpec("xy"), 1.5, 0.0)


def test_discretize_constant_grid():
    spec = GraphonSpec.from_grid(np.full((3, 3), 0.7))
    np.testing.assert_allclose(discretize_graphon(spec, 4), np.full((4, 4), 0.7))


def test_discretize_uses_cell_midpoints():
    grid = discretize_graphon(GraphonSpec("xy"), 5)
    mids = (np.arange(5) + 0.5) / 5
    np.testing.assert_allclose(grid, np.outer(mids, mids), atol=1e-15)


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GraphonSpec.from_grid(np.array([[0.2, 0.5], [0.4, 0.2]]))  # asymmetric
    with pytest.raises(ValidationError):
        GraphonSpec.from_grid(np.array([[1.5]]))  # out of range
    with pytest.raises(ValidationError):
        GraphonSpec("no_such_family")
    with pytest.raises(ValidationError):
        GraphonSpec("xy", grid=np.array([[0.5]]))  # grid only valid with grid family


def test_all_families_stay_in_unit_interval(rng):
    xs = rng.random(200)
    ys = rng.random(200)
    for family in FAMILY_NAMES:
        spec = GraphonSpec(family)
        vals = np.array([evaluate_graphon(spec, x, y) for x, y in zip(xs, ys)])
        assert float(vals.min()) >= 0.0 and float(vals.max()) <= 1.0, family
        # symmetry in the arguments
        swapped = np.array([evaluate_graphon(spec, y, x) for x, y in zip(xs, ys)])
        np.testing.assert_allclose(vals, swapped, atol=1e-12)


def test_helpers_round_trip(rng):
    sf = random_step_function(rng, 5)
    assert sf.partition_count == 5
    g = random_graph(rng, 12)
    assert g.node_count == 12
