import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_measure, random_space, random_step_function
from gwgraphon.core import (PLAN_MARGINAL_TOL, DomainError, NumericError,
                            ObservedGraph, SolverConfig, StepFunction,
                            TransportPlan, ValidationError)
from gwgraphon import gw
from gwgraphon.barycenter import estimate_gwb
from gwgraphon.evaluation import gw_error, scoring_config
from gwgraphon.graphons import FAMILY_NAMES, GraphonSpec, discretize_graphon
from gwgraphon.gw import (SCALING_TOL, GwResult, _scale, entropic_ot,
                          gw_cost_offset, proximal_gw, proximal_gw_batch)
from gwgraphon.oracle import gw_distance_exact_small
from gwgraphon.sampling import sample_graph, sample_population

STRONG = SolverConfig(sinkhorn_iters=10, restarts=8, polish_iters=80)


def test_cost_offset_single_edge_example():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    offset = gw_cost_offset(a, [0.5, 0.5], np.array([[1.0]]), [1.0])
    np.testing.assert_allclose(offset, [[1.5], [1.5]])


def test_cost_offset_matches_quadratic_expansion(rng):
    a, mu_a = random_space(rng, 5)
    w, mu_w = random_space(rng, 3)
    offset = gw_cost_offset(a, mu_a, w, mu_w)
    expected = (a * a) @ mu_a
    np.testing.assert_allclose(offset - expected[:, None], np.tile(mu_w @ (w * w), (5, 1)))


def test_cost_offset_validation(rng):
    with pytest.raises(DomainError):
        gw_cost_offset(np.zeros((2, 3)), [0.5, 0.5], np.zeros((2, 2)), [0.5, 0.5])
    with pytest.raises(DomainError):
        gw_cost_offset(np.zeros((2, 2)), [1.0], np.zeros((2, 2)), [0.5, 0.5])


def test_edge_against_empty_graph_costs_half():
    """With one side all zeros the objective is plan-independent: 0.5 exactly."""
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.zeros((2, 2))
    mu = np.array([0.5, 0.5])
    res = proximal_gw((a, mu), (w, mu))
    assert res.distance_sq == pytest.approx(0.5, abs=1e-12)
    assert gw_distance_exact_small(a, w, mu, mu) == pytest.approx(0.5, abs=1e-9)


def test_proximal_gw_plans_are_feasible(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(2, 8))
        res = proximal_gw(random_space(rng, n), random_step_function(rng, k))
        plan = res.plan
        assert float(np.abs(plan.coupling.sum(axis=1) - plan.row_marginal).max()) <= 1e-6
        assert float(np.abs(plan.coupling.sum(axis=0) - plan.col_marginal).max()) <= 1e-6
        assert float(plan.coupling.min()) >= 0.0


def test_self_distance_is_tiny(rng):
    for _ in range(5):
        x = random_step_function(rng, int(rng.integers(2, 8)))
        assert proximal_gw(x, x).distance_sq <= 1e-3


def test_objective_matches_returned_plan(rng):
    a, mu_a = random_space(rng, 6)
    w, mu_w = random_space(rng, 4)
    res = proximal_gw((a, mu_a), (w, mu_w))
    t = res.plan.coupling
    offset = gw_cost_offset(a, mu_a, w, mu_w)
    value = float(np.sum((offset - 2.0 * (a @ t @ w.T)) * t))
    assert res.distance_sq == pytest.approx(max(value, 0.0), abs=1e-12)


def test_relabeling_does_not_change_distance(rng):
    a, mu_a = random_space(rng, 7)
    w, mu_w = random_space(rng, 4)
    base = proximal_gw((a, mu_a), (w, mu_w)).distance_sq
    perm = rng.permutation(7)
    shuffled = proximal_gw((a[np.ix_(perm, perm)], mu_a[perm]), (w, mu_w)).distance_sq
    assert shuffled == pytest.approx(base, abs=1e-6)


def test_restarts_and_polish_never_hurt(rng):
    for _ in range(5):
        a = random_space(rng, int(rng.integers(2, 6)))
        w = random_space(rng, int(rng.integers(2, 6)))
        plain = proximal_gw(a, w).distance_sq
        strong = proximal_gw(a, w, STRONG).distance_sq
        assert strong <= plain + 1e-9


def test_gw_result_rejects_bad_distance(rng):
    mu = np.array([0.5, 0.5])
    plan = TransportPlan(np.outer(mu, mu), mu, mu)
    with pytest.raises(ValidationError):
        GwResult(plan, -1.0)
    with pytest.raises(ValidationError):
        GwResult(plan, float("nan"))


def test_solver_tracks_exact_oracle(rng):
    """On tiny instances the proximal solver lands in the oracle's envelope."""
    for _ in range(30):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        a, mu_a = random_space(rng, n)
        b, mu_b = random_space(rng, m)
        truth = gw_distance_exact_small(a, b, mu_a, mu_b)
        got = proximal_gw((a, mu_a), (b, mu_b), STRONG).distance_sq
        assert truth - 1e-3 <= got <= 1.10 * truth + 1e-3


def test_exact_oracle_basics(rng):
    a, mu_a = random_space(rng, 3)
    assert gw_distance_exact_small(a, a, mu_a, mu_a) == pytest.approx(0.0, abs=1e-9)
    b, mu_b = random_space(rng, 4)
    fwd = gw_distance_exact_small(a, b, mu_a, mu_b)
    rev = gw_distance_exact_small(b, a, mu_b, mu_a)
    assert fwd == pytest.approx(rev, abs=1e-9)
    # a CSR input is read through its toarray() and gives the dense answer
    a2, mu2 = random_space(rng, 2)
    b2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    dense = gw_distance_exact_small(a2, b2, mu2, mu2)
    assert gw_distance_exact_small(sp.csr_matrix(a2), sp.csr_matrix(b2), mu2, mu2) == dense


def test_exact_oracle_validation(rng):
    mu5 = random_measure(rng, 5)
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.zeros((5, 5)), np.zeros((5, 5)), mu5, mu5)
    mu2 = np.array([0.5, 0.5])
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), mu2, mu2)
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.zeros((2, 2)), np.zeros((2, 2)), [0.5, 0.6], mu2)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
@example(n=4, m=3, seed=269)
def test_exact_oracle_is_symmetric_and_relabelling_invariant(n, m, seed):
    """The oracle's value does not depend on which space comes first, nor
    on the order of either space's nodes when their measure moves with
    them."""
    rng = np.random.default_rng(seed)
    a, mu_a = random_space(rng, n)
    b, mu_b = random_space(rng, m)
    base = gw_distance_exact_small(a, b, mu_a, mu_b)
    assert gw_distance_exact_small(b, a, mu_b, mu_a) == pytest.approx(base, abs=1e-9)
    pa, pb = rng.permutation(n), rng.permutation(m)
    moved = gw_distance_exact_small(a[np.ix_(pa, pa)], b[np.ix_(pb, pb)], mu_a[pa], mu_b[pb])
    assert moved == pytest.approx(base, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4),
       kind=st.sampled_from(["random", "uniform", "graph"]), seed=st.integers(0, 2 ** 16))
@example(n=4, m=4, kind="graph", seed=103)
def test_exact_oracle_is_a_lower_bound(n, m, kind, seed):
    """The oracle's value is at most the objective of every feasible plan
    drawn: northwest-corner vertices in random row and column orders,
    random positive matrices rounded onto the marginals, and the plan of
    proximal_gw under STRONG. The first space is a random one, the same
    with uniform measures on both sides, which makes the marginals
    degenerate, or a 0/1 graph with its degree measure."""
    rng = np.random.default_rng(seed)
    if kind == "graph":
        graph = random_graph(rng, n)
        a, mu_a = graph.adjacency.toarray(), graph.measure
    else:
        a, mu_a = random_space(rng, n)
    b, mu_b = random_space(rng, m)
    if kind == "uniform":
        mu_a, mu_b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    corners = np.zeros((8, n, m))
    for corner in corners:
        rows, cols = rng.permutation(n), rng.permutation(m)
        corner[np.ix_(rows, cols)] = gw._northwest_corner(mu_a[rows], mu_b[cols])
    rounded = gw._round_feasible(rng.random((8, n, m)) + 1e-3, mu_a[None], mu_b[None])
    solved = proximal_gw((a, mu_a), (b, mu_b), STRONG).plan.coupling
    plans = np.concatenate([corners, rounded, solved[None]])
    values = gw._objective(a, b.T, gw_cost_offset(a, mu_a, b, mu_b), plans)
    assert gw_distance_exact_small(a, b, mu_a, mu_b) <= float(values.min()) + 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2 ** 16), equal=st.booleans())
def test_exact_oracle_is_the_closed_form_minimum_on_two_by_two(seed, equal):
    """On 2 x 2 instances the plans are T0 + t·D on a segment of t, with
    T0 = [[0, p], [q, 1 - p - q]] and D = [[1, -1], [-1, 1]], and the
    objective is a quadratic in t: its minimum is at an end or at the
    vertex of the parabola. The oracle equals it from both sides; equal
    marginals make one end a rank-deficient vertex."""
    rng = np.random.default_rng(seed)
    a, mu_a = random_space(rng, 2)
    b, mu_b = random_space(rng, 2)
    if equal:
        mu_b = mu_a.copy()
    p, q = mu_a[0], mu_b[0]
    offset = gw_cost_offset(a, mu_a, b, mu_b)
    base = np.array([[0.0, p], [q, 1.0 - p - q]])
    step = np.array([[1.0, -1.0], [-1.0, 1.0]])
    slope = float(((offset - 4.0 * (a @ base @ b)) * step).sum())
    curvature = float(-2.0 * ((a @ step @ b) * step).sum())
    ends = [max(0.0, p + q - 1.0), min(p, q)]
    ts = ends + [t for t in [-slope / (2.0 * curvature)] if curvature > 0 and ends[0] < t < ends[1]]
    values = gw._objective(a, b.T, offset, np.stack([base + t * step for t in ts]))
    expected = max(float(values.min()), 0.0)
    assert gw_distance_exact_small(a, b, mu_a, mu_b) == pytest.approx(expected, abs=1e-12)


def _feasible_plans(rng, mu_row, mu_col, count):
    """count random couplings of the two marginals: convex combinations of
    the product coupling and two northwest-corner couplings taken in random
    row and column orders."""
    plans = []
    for _ in range(count):
        weights = rng.dirichlet(np.ones(3))
        plan = weights[0] * np.outer(mu_row, mu_col)
        for weight in weights[1:]:
            rows, cols = rng.permutation(mu_row.size), rng.permutation(mu_col.size)
            corner = np.zeros_like(plan)
            corner[np.ix_(rows, cols)] = gw._northwest_corner(mu_row[rows], mu_col[cols])
            plan += weight * corner
        plans.append(plan)
    return np.stack(plans)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 7), k=st.integers(1, 6), count=st.integers(1, 4),
       sparse=st.booleans(), restarts=st.sampled_from([1, 4]), seed=st.integers(0, 2 ** 16))
def test_objective_is_the_four_index_sum(n, k, count, sparse, restarts, seed):
    """On feasible plans the solver's objective is the GW sum
    sum_ijkl (a_ik - w_jl)^2 T_ij T_kl, for a dense or CSR space and a
    target, neither of them symmetric, so that the sum tells W from its
    transpose; proximal_gw reports it, floored at zero, for the plan it
    returns."""
    rng = np.random.default_rng(seed)
    a, mu_a = rng.random((n, n)) * (rng.random((n, n)) < 0.5), random_measure(rng, n)
    w, mu_w = rng.random((k, k)), random_measure(rng, k)
    mat_a = sp.csr_matrix(a) if sparse else a
    w_t = np.ascontiguousarray(w.T)
    offset = gw_cost_offset(mat_a, mu_a, w, mu_w)
    plans = _feasible_plans(rng, mu_a, mu_w, count)
    diff = a[:, None, :, None] - w[None, :, None, :]
    for value, plan in zip(gw._objective(a, w_t, offset, plans), plans):
        assert value == pytest.approx(np.einsum("ijkl,ij,kl->", diff ** 2, plan, plan), rel=1e-12)
    res = proximal_gw((mat_a, mu_a), (w, mu_w), SolverConfig(restarts=restarts))
    plan = res.plan.coupling
    assert res.distance_sq == max(float(gw._objective(a, w_t, offset, plan[None])[0]), 0.0)


def _costs_per_start(mats, w_t, offset, plans):
    """The cost build of a size class with one product per member and
    start, as the solver built it before the class GEMM; mats holds each
    member's A, dense or CSR."""
    return np.stack([off[None] - 2.0 * (np.stack([mat @ plan for plan in member]) @ wt)
                     for mat, wt, off, member in zip(mats, w_t, offset, plans)])


def _cost_inputs(rng, n, k, count, density=1.0, members=1):
    a = rng.random((members, n, n)) * (rng.random((members, n, n)) < density)
    w = rng.random((members, k, k))
    offset = np.stack([gw_cost_offset(a_i, random_measure(rng, n), w_i, random_measure(rng, k))
                       for a_i, w_i in zip(a, w)])
    return a, np.ascontiguousarray(w.transpose(0, 2, 1)), offset, rng.random((members, count, n, k))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 400), k=st.integers(1, 60), count=st.integers(1, 4),
       members=st.integers(1, 3), density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 16))
@example(n=200, k=37, count=1, members=3, density=0.4, seed=1)
@example(n=150, k=29, count=1, members=2, density=0.5, seed=2)
@example(n=100, k=52, count=1, members=1, density=0.5, seed=3)
def test_stacked_cost_build_is_exact_on_sparse_sides(n, k, count, members, density, seed):
    """On graph sides (symmetric 0/1 adjacencies) the class GEMM equals the
    per-start CSR products the fits used before it, bit for bit where the
    dense product sums each entry in CSR's order, and within 1e-14 of the
    largest cost elsewhere. Products by 0 and 1 are exact, so only the
    order of the sums can differ. On this OpenBLAS (0.3.31, Haswell
    kernels) it is CSR's order when N is at most 384, one block of the
    inner dimension, and the width S·K is a multiple of 8 or is below 80
    and leaves 5 to 7 over (checked at every N up to 384 for those
    widths up to 240). That holds the fits' classes at N = 200, K = 37
    and N = 100-150, K = 29, but not K = 52, where an ulp can differ."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((members, n, n)) < density, k=1)
    adj = (upper | upper.transpose(0, 2, 1)).astype(float)
    _, w_t, offset, plans = _cost_inputs(rng, n, k, count, members=members)
    got = gw._costs(adj, w_t, offset, plans)
    expected = _costs_per_start([sp.csr_matrix(a) for a in adj], w_t, offset, plans)
    width = count * k
    if n <= 384 and (width % 8 == 0 or (width < 80 and width % 8 >= 5)):
        np.testing.assert_array_equal(got, expected)
    else:
        assert float(np.abs(got - expected).max()) <= 1e-14 * float(np.abs(expected).max())


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(300, 29), (300, 52), (1000, 37), (1000, 50)]),
       count=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_stacked_cost_build_is_exact_at_the_scoring_shapes(shape, count, seed):
    """On the dense references of the scorings (resolution 300 against 29
    or 52 blocks, 1000 against 37 or 50) with up to 4 starts, the one
    product equals the per-start products bit for bit, which keeps the
    scores of these estimates what they were. This is a property of the
    BLAS build: at other dense shapes it may differ by an ulp."""
    a, w_t, offset, plans = _cost_inputs(np.random.default_rng(seed), *shape, count)
    np.testing.assert_array_equal(gw._costs(a, w_t, offset, plans),
                                  _costs_per_start(a, w_t, offset, plans))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 300), k=st.one_of(st.integers(1, 60), st.just(300)),
       count=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_stacked_cost_build_is_close_on_dense_sides(n, k, count, seed):
    """On any dense side, K = 300 included, the one product differs from
    the per-start products by at most 1e-14 of the largest cost."""
    a, w_t, offset, plans = _cost_inputs(np.random.default_rng(seed), n, k, count)
    expected = _costs_per_start(a, w_t, offset, plans)
    got = gw._costs(a, w_t, offset, plans)
    assert float(np.abs(got - expected).max()) <= 1e-14 * float(np.abs(expected).max())


def _round_per_plan(plan, mu_row, mu_col):
    """_round_feasible of one plan, as it was written before it took stacks."""
    plan = plan * np.minimum(1.0, mu_row / plan.sum(axis=1))[:, None]
    plan = plan * np.minimum(1.0, mu_col / plan.sum(axis=0))[None, :]
    r_err = np.maximum(mu_row - plan.sum(axis=1), 0.0)
    c_err = np.maximum(mu_col - plan.sum(axis=0), 0.0)
    total = float(r_err.sum())
    if total > 0.0:
        plan = plan + np.outer(r_err, c_err) / total
    return plan


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 40),
       feasible=st.lists(st.booleans(), min_size=1, max_size=6), seed=st.integers(0, 2 ** 16))
def test_stacked_rounding_equals_the_per_plan_form(n, k, feasible, seed):
    """_round_feasible of a stack equals the per-plan rounding of each
    member bit for bit, with one marginal pair per plan or one pair for
    all. A plan given its own row and column sums as marginals is exactly
    feasible: its residual sums to 0 and it passes through unchanged,
    next to plans that need both the scaling and the correction."""
    rng = np.random.default_rng(seed)
    plans = rng.random((len(feasible), n, k)) * (rng.random((len(feasible), n, k)) < 0.8)
    plans += 1e-3
    mu_rows = np.stack([random_measure(rng, n) for _ in feasible])
    mu_cols = np.stack([random_measure(rng, k) for _ in feasible])
    for s in np.flatnonzero(feasible):
        mu_rows[s], mu_cols[s] = plans[s].sum(axis=1), plans[s].sum(axis=0)
    got = gw._round_feasible(plans, mu_rows, mu_cols)
    for plan, mu_row, mu_col, exact, out in zip(plans, mu_rows, mu_cols, feasible, got):
        np.testing.assert_array_equal(out, _round_per_plan(plan, mu_row, mu_col))
        if exact:
            np.testing.assert_array_equal(out, plan)
    shared = gw._round_feasible(plans, mu_rows[-1:], mu_cols[-1:])
    for plan, out in zip(plans, shared):
        np.testing.assert_array_equal(out, _round_per_plan(plan, mu_rows[-1], mu_cols[-1]))


def _space_with(value, sparse, n=4):
    matrix = np.full((n, n), 0.3)
    matrix[0, 1] = matrix[1, 0] = value
    return sp.csr_matrix(matrix) if sparse else matrix, np.full(n, 1.0 / n)


def _solve_paths(bad, good):
    """Every entry point that takes the pair: both solvers, with the pair
    as the space and as the target, and the cost offset both ways."""
    return [lambda: proximal_gw(bad, good), lambda: proximal_gw(good, bad),
            lambda: proximal_gw_batch([good, bad], [good, good]),
            lambda: proximal_gw_batch([good, good], [good, bad]),
            lambda: gw_cost_offset(*bad, *good), lambda: gw_cost_offset(*good, *bad)]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_a_domain_error(sparse, value):
    """A nan or infinite matrix entry, dense or stored in a CSR matrix, or
    a non-finite measure entry is a DomainError on either side, before any
    arithmetic can warn."""
    good = _space_with(0.5, False, 3)
    matrix, mu = _space_with(value, sparse)
    bad_measure = _space_with(0.5, sparse)[0], np.array([0.25, 0.25, 0.25, value])
    for bad in ((matrix, mu), bad_measure):
        for solve in _solve_paths(bad, good):
            with pytest.raises(DomainError):
                solve()


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("value", [1e160, 1e200, -1e200])
def test_overflowing_offset_is_a_numeric_error(sparse, value):
    """Finite entries whose squares overflow the cost offset raise
    NumericError on either side, with no RuntimeWarning on the way; large
    entries that leave it finite solve as before."""
    good = _space_with(0.5, False, 3)
    for solve in _solve_paths(_space_with(value, sparse), good):
        with pytest.raises(NumericError):
            solve()
    large = _space_with(1e100, sparse)
    results = [proximal_gw(large, good), proximal_gw(good, large)]
    results += proximal_gw_batch([good, large], [large, good])
    assert all(np.isfinite(res.distance_sq) for res in results)


def test_overflowing_log_kernel_is_a_numeric_error():
    """A cost/beta past the largest float, where the cost offset is still
    finite, raises NumericError from proximal_gw and entropic_ot, not a
    numpy warning or a nan plan."""
    good = _space_with(0.5, False)
    with pytest.raises(NumericError):
        proximal_gw(_space_with(1e154, False), good)
    with pytest.raises(NumericError):
        proximal_gw(_space_with(1e10, False), good, SolverConfig(beta=1e-300))
    mu = np.full(3, 1.0 / 3)
    with pytest.raises(NumericError):
        entropic_ot(np.full((3, 3), 1e10), mu, mu, beta=1e-300)


def test_entropic_ot_constant_cost_gives_product(rng):
    mu_row = random_measure(rng, 5)
    mu_col = random_measure(rng, 3)
    plan = entropic_ot(np.full((5, 3), 2.0), mu_row, mu_col, beta=0.1)
    np.testing.assert_allclose(plan.coupling, np.outer(mu_row, mu_col), atol=1e-12)


def test_entropic_ot_near_linear_program(rng):
    """At small beta the transport cost sits just above the LP optimum."""
    n, m = 5, 4
    cost = rng.random((n, m))
    mu_row = random_measure(rng, n)
    mu_col = random_measure(rng, m)
    plan = entropic_ot(cost, mu_row, mu_col, beta=1e-3)
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    lp = scipy.optimize.linprog(cost.ravel(), A_eq=a_eq[:-1],
                                b_eq=np.concatenate([mu_row, mu_col[:-1]]),
                                bounds=(0, None), method="highs")
    assert lp.status == 0
    got = float(np.sum(cost * plan.coupling))
    assert lp.fun - 1e-9 <= got <= lp.fun + 1e-2


def test_entropic_ot_validation(rng):
    mu = random_measure(rng, 3)
    cost = rng.random((3, 3))
    with pytest.raises(DomainError):
        entropic_ot(cost, mu, mu, beta=0.0)
    # SolverConfig's domain: finite and at least the smallest normal float
    for beta in (float("nan"), float("inf"), 5e-324):
        with pytest.raises(DomainError):
            entropic_ot(cost, mu, mu, beta=beta)
    with pytest.raises(DomainError):
        entropic_ot(np.full((3, 3), np.nan), mu, mu, beta=0.1)
    with pytest.raises(DomainError):
        entropic_ot(rng.random((2, 3)), mu, mu, beta=0.1)
    with pytest.raises(DomainError):
        entropic_ot(cost, np.array([0.5, 0.5, 0.0]), mu, beta=0.1)


def _truth(family, k):
    return StepFunction(discretize_graphon(GraphonSpec(family), k), np.full(k, 1.0 / k))


@pytest.mark.parametrize("restarts", [1, 4])
def test_equal_size_batch_is_bit_identical_to_single_solves(restarts):
    """Graphs of one size share a stack and get exactly the one-at-a-time
    results, also the edgeless graph, whose scaling converges at the first
    check while the others scale on."""
    graphs = [sample_graph(GraphonSpec("abs_diff"), 30, seed=s) for s in range(3)]
    graphs.append(ObservedGraph.from_dense(np.zeros((30, 30))))
    target = _truth("abs_diff", 6)
    cfg = SolverConfig(restarts=restarts)
    batch = proximal_gw_batch(graphs, [target] * len(graphs), cfg)
    assert len(batch) == len(graphs)
    for g, res in zip(graphs, batch):
        alone = proximal_gw(g, target, cfg)
        np.testing.assert_array_equal(res.plan.coupling, alone.plan.coupling)
        assert res.distance_sq == alone.distance_sq


def test_converged_group_stops_at_its_own_pair(rng):
    """Kernels that converge at the first check are stored there with the
    plans they get alone; the slow kernels stacked with them, with other
    column marginals, scale on to their own end."""
    n, k = 9, 5
    fast = [np.outer(rng.random(n) + 0.5, rng.random(k) + 0.5) for _ in range(2)]
    slow = [np.exp(-rng.random((n, k)) / 0.02) for _ in range(2)]
    kernels = np.stack(fast + slow)
    mu_rows = np.stack([random_measure(rng, n) for _ in range(4)])
    mu_cols = np.repeat(np.stack([random_measure(rng, k) for _ in range(2)]), 2, axis=0)
    assert not np.array_equal(mu_cols[0], mu_cols[2])
    batch = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    alone_fast = _scale(kernels[:2], mu_rows[:2], mu_cols[:2], 500, SCALING_TOL)[0]
    alone_slow = _scale(kernels[2:], mu_rows[2:], mu_cols[2:], 500, SCALING_TOL)[0]
    np.testing.assert_array_equal(batch[:2], alone_fast)
    np.testing.assert_array_equal(batch[2:], alone_slow)
    assert float(np.abs(batch[:2].sum(axis=1) - mu_cols[:2]).max()) <= SCALING_TOL
    # the first check comes after pair 4: the fast kernels stopped there
    np.testing.assert_array_equal(alone_fast, gw._sinkhorn(kernels[:2], mu_rows[:2], mu_cols[:2],
                                                           5, SCALING_TOL)[0])
    assert not np.array_equal(alone_slow, gw._sinkhorn(kernels[2:], mu_rows[2:], mu_cols[2:], 5,
                                                       SCALING_TOL)[0])


def _reference_scale(kernels, mu_rows, mu_cols, max_iters, tol):
    """The Sinkhorn loop written out on its own: every half pair is one pass
    over the live stack into fresh arrays, checked every 4th pair, where
    each kernel within tol is stored and leaves the stack. gw._sinkhorn
    must match it bit for bit at any cap."""
    plans = np.empty_like(kernels)
    live = np.arange(kernels.shape[0])
    a = np.array(mu_rows, dtype=float)
    b = None
    kernels_t = kernels.transpose(0, 2, 1)
    for it in range(int(max_iters)):
        ka = (kernels_t @ a[:, :, None])[..., 0]
        if b is not None and it % 4 == 0:
            done = np.abs(b * ka - mu_cols).max(axis=1) <= tol
            plans[live[done]] = (a[done, :, None] * kernels[done]) * b[done, None, :]
            keep = ~done
            live, kernels = live[keep], kernels[keep]
            mu_rows, mu_cols = mu_rows[keep], mu_cols[keep]
            a, b, ka = a[keep], b[keep], ka[keep]
            kernels_t = kernels.transpose(0, 2, 1)
            if live.size == 0:
                return plans
        b = mu_cols / ka
        a = mu_rows / ((kernels @ b[:, :, None])[..., 0])
    if b is None:
        b = mu_cols / ((kernels_t @ a[:, :, None])[..., 0])
        a = mu_rows / ((kernels @ b[:, :, None])[..., 0])
    plans[live] = (a[:, :, None] * kernels) * b[:, None, :]
    return plans


def _scaling_stack(rng, count, n, k):
    """count random kernels of n x k with widths 0.02, 0.2 or 1.0, about a
    third of them replaced by rank-one kernels, and random marginals.
    Returns the stack, its marginals and the rank-one mask."""
    kernels = np.exp(-rng.random((count, n, k)) / rng.choice([0.02, 0.2, 1.0], (count, 1, 1)))
    rank_one = rng.random(count) < 0.3
    for s in np.flatnonzero(rank_one):
        kernels[s] = np.outer(rng.random(n) + 0.5, rng.random(k) + 0.5)
    mu_rows = np.stack([random_measure(rng, n) for _ in range(count)])
    mu_cols = np.stack([random_measure(rng, k) for _ in range(count)])
    return kernels, mu_rows, mu_cols, rank_one


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 8), n=st.integers(1, 40), k=st.integers(1, 30),
       cap=st.integers(1, 60), tol=st.sampled_from([SCALING_TOL, -1.0]),
       seed=st.integers(0, 2 ** 16))
def test_sinkhorn_matches_the_reference_loop(count, n, k, cap, tol, seed):
    """Whatever the stack and cap, gw._sinkhorn returns the plans of the
    reference loop bit for bit. Rank-one kernels converge at the first
    check and leave the stack while the others scale on; at tol = -1 none
    converges and every kernel scales to the cap."""
    rng = np.random.default_rng(seed)
    kernels, mu_rows, mu_cols, _ = _scaling_stack(rng, count, n, k)
    expected = _reference_scale(kernels, mu_rows, mu_cols, cap, tol)
    got = gw._sinkhorn(kernels, mu_rows, mu_cols, cap, tol)[0]
    np.testing.assert_array_equal(got, expected)


@settings(max_examples=100, deadline=None)
@given(count=st.integers(1, 8), n=st.integers(1, 40), k=st.integers(1, 30),
       cap=st.one_of(st.integers(1, 40), st.just(500)),
       newton_iters=st.sampled_from([0, 2, gw.NEWTON_ITERS]), seed=st.integers(0, 2 ** 16))
def test_every_kernel_scales_as_it_does_alone(count, n, k, cap, newton_iters, seed):
    """Every kernel of a stack with mixed widths gets, bit for bit, the plan
    and the log column potentials it gets scaled alone: from _scale past
    the warm-up, whether Newton converges or gives up on some kernels
    (NEWTON_ITERS patched to 0 or 2) and they fall back to Sinkhorn, and
    from gw._sinkhorn at caps up to the warm-up. A rank-one kernel is
    stored at the first check, after pair 4, however slow the others are,
    and never enters Newton."""
    rng = np.random.default_rng(seed)
    kernels, mu_rows, mu_cols, rank_one = _scaling_stack(rng, count, n, k)
    scale = _scale if cap > gw.SINKHORN_WARMUP else gw._sinkhorn
    with mock.patch.object(gw, "NEWTON_ITERS", newton_iters):
        plans, pots = scale(kernels, mu_rows, mu_cols, cap, SCALING_TOL)
        for s in range(count):
            alone = scale(kernels[s:s + 1], mu_rows[s:s + 1], mu_cols[s:s + 1], cap, SCALING_TOL)
            np.testing.assert_array_equal(plans[s], alone[0][0])
            np.testing.assert_array_equal(pots[s], alone[1][0])
    for s in np.flatnonzero(rank_one):
        first = gw._sinkhorn(kernels[s:s + 1], mu_rows[s:s + 1], mu_cols[s:s + 1], min(cap, 5),
                             SCALING_TOL)
        np.testing.assert_array_equal(plans[s], first[0][0])
        np.testing.assert_array_equal(pots[s], first[1][0])


def _round_stack(rng, widest=0.2):
    """Criterion 08's round stack: 80 Gaussian kernels of 200 x 29 with
    widths beta from 0.002 to `widest`, floored as the solver floors them,
    and random marginals."""
    cost = (np.linspace(0.0, 1.0, 200)[:, None] - np.linspace(0.0, 1.0, 29)[None, :]) ** 2
    kernels = np.exp(-cost[None] / np.geomspace(0.002, widest, 80)[:, None, None])
    np.maximum(kernels, gw.KERNEL_FLOOR, out=kernels)
    mu_rows = np.stack([random_measure(rng, 200) for _ in range(80)])
    mu_cols = np.stack([random_measure(rng, 29) for _ in range(80)])
    return kernels, mu_rows, mu_cols


def test_round_stack_sinkhorn_matches_the_reference_loop(rng):
    """Criterion 08's round stack scales up to the cap of 500 pairs exactly
    as the reference loop does. The kernels' widths spread their Sinkhorn
    stops from pair 24 to the cap, so kernels leave the stack at many
    checks."""
    kernels, mu_rows, mu_cols = _round_stack(rng)
    got = gw._sinkhorn(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    expected = _reference_scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)
    assert np.array_equal(got, expected)


def test_newton_tail_converges_where_sinkhorn_stops_at_the_cap(rng):
    """Sinkhorn alone leaves most of criterion 08's round stack at the cap
    of 500 pairs once its widths stop at beta = 0.01. With the Newton tail
    every kernel converges without falling back to Sinkhorn, every column
    residual is within SCALING_TOL, the rows stay on their marginal to
    float precision, and each run of 4 kernels gets the plans it gets
    scaled alone."""
    kernels, mu_rows, mu_cols = _round_stack(rng, widest=0.01)
    sinkhorn = gw._sinkhorn(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    assert np.mean(np.abs(sinkhorn.sum(axis=1) - mu_cols).max(axis=1) > SCALING_TOL) > 0.5
    real_newton, fallbacks = gw._newton, []

    def recording_newton(*args):
        plans, pots, failed = real_newton(*args)
        fallbacks.append(int(failed.sum()))
        return plans, pots, failed

    with mock.patch.object(gw, "_newton", recording_newton):
        plans = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    assert fallbacks == [0]
    assert float(np.abs(plans.sum(axis=1) - mu_cols).max()) <= SCALING_TOL
    np.testing.assert_allclose(plans.sum(axis=2), mu_rows, rtol=1e-14, atol=0.0)
    for lo in range(0, 80, 4):
        alone = _scale(kernels[lo:lo + 4], mu_rows[lo:lo + 4], mu_cols[lo:lo + 4], 500,
                       SCALING_TOL)[0]
        np.testing.assert_array_equal(plans[lo:lo + 4], alone)


def test_converged_kernel_never_enters_newton(rng):
    """A rank-one kernel is within SCALING_TOL after the first Sinkhorn
    pair. Stacked with a kernel that needs Newton steps, it is stored at
    the first check and never enters Newton, so it takes no step on a
    rounding-level direction, whose line search would fail and send it
    back to Sinkhorn; only the slow kernel enters, and converges."""
    kernels, mu_rows, mu_cols = (s[:2].copy() for s in _round_stack(rng, widest=0.01))
    kernels[0] = np.outer(rng.random(200) + 0.5, rng.random(29) + 0.5)
    real_newton, entered, fallbacks = gw._newton, [], []

    def recording_newton(plans, *args):
        entered.append(plans.copy())
        out, pots, failed = real_newton(plans, *args)
        fallbacks.append(int(failed.sum()))
        return out, pots, failed

    with mock.patch.object(gw, "_newton", recording_newton):
        plans = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    warm = gw._sinkhorn(kernels, mu_rows, mu_cols, gw.SINKHORN_WARMUP, SCALING_TOL)[0]
    assert len(entered) == 1 and entered[0].shape[0] == 1
    np.testing.assert_array_equal(entered[0][0], warm[1])
    assert fallbacks == [0]
    np.testing.assert_array_equal(plans[0], warm[0])
    assert float(np.abs(plans.sum(axis=1) - mu_cols).max()) <= SCALING_TOL


def test_newton_fallback_goes_on_with_sinkhorn(rng):
    """A kernel that Newton gives up on (here every kernel, with
    NEWTON_ITERS = 0) goes on with Sinkhorn from the plan Newton left for
    the rest of the pair cap, so it ends where the uninterrupted Sinkhorn
    loop ends, up to rounding and the stopping tolerance; each pair of
    kernels still gets the plans it gets alone."""
    kernels, mu_rows, mu_cols = (s[::8] for s in _round_stack(rng, widest=0.01))
    with mock.patch.object(gw, "NEWTON_ITERS", 0):
        plans = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
        for lo in range(0, 10, 2):
            alone = _scale(kernels[lo:lo + 2], mu_rows[lo:lo + 2], mu_cols[lo:lo + 2], 500,
                           SCALING_TOL)[0]
            np.testing.assert_array_equal(plans[lo:lo + 2], alone)
    sinkhorn = gw._sinkhorn(kernels, mu_rows, mu_cols, 500, SCALING_TOL)[0]
    np.testing.assert_allclose(plans, sinkhorn, rtol=0.0, atol=1e-9)


def _record_newton(flags):
    """A wrapper of gw._newton that appends each call's fallback flags."""
    real_newton = gw._newton

    def recording_newton(*args):
        plans, pots, failed = real_newton(*args)
        flags.append(failed)
        return plans, pots, failed

    return recording_newton


@pytest.mark.parametrize("path", ["sinkhorn", "newton", "fallback"])
def test_potentials_reproduce_each_plan(rng, path):
    """The log column potentials v that _scale returns give each plan as
    diag(r)·K·diag(exp(v)): P / (K·exp(v)) has constant rows, to 1e-12
    relative, whether the scaling ends in Sinkhorn (the warm-up alone, where
    the widest kernels are stored at checks before its last pair), in
    Newton steps, or in the Sinkhorn fallback after Newton gives up
    (NEWTON_ITERS = 0)."""
    kernels, mu_rows, mu_cols = _round_stack(rng, widest=0.2 if path == "sinkhorn" else 0.01)
    flags = []
    with mock.patch.object(gw, "_newton", _record_newton(flags)), \
            mock.patch.object(gw, "NEWTON_ITERS", 0 if path == "fallback" else gw.NEWTON_ITERS):
        if path == "sinkhorn":
            plans, pots = gw._sinkhorn(kernels, mu_rows, mu_cols, gw.SINKHORN_WARMUP,
                                       SCALING_TOL)
        else:
            kernels, mu_rows, mu_cols = kernels[::4], mu_rows[::4], mu_cols[::4]
            plans, pots = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)
    if path == "newton":
        assert len(flags) == 1 and not flags[0].any()
        assert float(np.abs(plans.sum(axis=1) - mu_cols).max()) <= SCALING_TOL
    elif path == "fallback":
        assert len(flags) == 1 and flags[0].all()
    rows = plans / (kernels * np.exp(pots)[:, None, :])
    np.testing.assert_allclose(rows, np.repeat(rows[:, :, :1], rows.shape[2], axis=2),
                               rtol=1e-12, atol=0.0)


def test_kernels_in_one_group_get_their_solo_plans_from_newton(rng):
    """Kernels of criterion 08's round stack that all enter Newton together
    leave its stack each at its own step, so each gets the plan and the
    potentials it gets scaled alone, bit for bit."""
    kernels, mu_rows, mu_cols = _round_stack(rng)
    warm = gw._sinkhorn(kernels, mu_rows, mu_cols, gw.SINKHORN_WARMUP, SCALING_TOL)[0]
    pick = np.flatnonzero(np.abs(warm.sum(axis=1) - mu_cols).max(axis=1) > SCALING_TOL)[::3]
    assert pick.size >= 4
    kernels, mu_rows, mu_cols = kernels[pick], mu_rows[pick], mu_cols[pick]
    flags = []
    with mock.patch.object(gw, "_newton", _record_newton(flags)):
        plans, pots = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL)
        alone = [_scale(kernels[s:s + 1], mu_rows[s:s + 1], mu_cols[s:s + 1], 500, SCALING_TOL)
                 for s in range(pick.size)]
    assert [f.size for f in flags] == [pick.size] + [1] * pick.size
    assert not any(f.any() for f in flags)
    for s, (plan, pot) in enumerate(alone):
        np.testing.assert_array_equal(plans[s], plan[0])
        np.testing.assert_array_equal(pots[s], pot[0])


def test_newton_float_fault_is_a_numeric_error():
    """A floating-point fault inside the Newton tail reaches the caller as
    NumericError, not as a numpy warning."""
    plans = np.full((1, 3, 2), 1e308)
    with pytest.raises(NumericError):
        gw._newton(plans, np.full((1, 3), 1.0 / 3), np.full((1, 2), 0.5), SCALING_TOL)


def _isolated_graph(rng, n, isolated):
    """A random graph on n nodes whose last `isolated` nodes have no edge:
    their degree floor gives the measure mass ratios near 1e8."""
    upper = np.triu(rng.random((n, n)) < 0.4, k=1)
    upper[:, n - isolated:] = False
    upper[0, 1] = True
    return ObservedGraph.from_dense((upper | upper.T).astype(float))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(3, 40), k=st.integers(3, 20), isolated=st.integers(1, 3),
       beta=st.sampled_from([0.005, 0.05, 1.0]), seed=st.integers(0, 2 ** 16))
def test_plans_are_feasible_on_degree_floored_measures(n, k, isolated, beta, seed):
    """Isolated nodes keep the degree floor of 1e-8, so both marginals
    span mass ratios near 1e8 and the Newton Hessian is nearly singular.
    proximal_gw at the default and the scoring settings, and entropic_ot on
    the same marginals, still return finite plans on both marginals."""
    rng = np.random.default_rng(seed)
    graph = _isolated_graph(rng, n, min(isolated, n - 2))
    target = _isolated_graph(rng, k, min(isolated, k - 2))
    assert graph.measure.max() / graph.measure.min() > 1e6
    plans = [proximal_gw(graph, target, cfg).plan.coupling
             for cfg in (SolverConfig(), scoring_config(seed))]
    plans.append(entropic_ot(rng.random((n, k)), graph.measure, target.measure, beta).coupling)
    for plan in plans:
        assert np.all(np.isfinite(plan)) and float(plan.min()) >= 0.0
        assert float(np.abs(plan.sum(axis=1) - graph.measure).max()) <= PLAN_MARGINAL_TOL
        assert float(np.abs(plan.sum(axis=0) - target.measure).max()) <= PLAN_MARGINAL_TOL


def test_every_scaling_converges_in_a_fit_and_its_score():
    """In a default estimate_gwb on 10 abs_diff graphs of 200 nodes and in
    a gw_error of the estimate at resolution 300, every scaling ends with
    its column residual within SCALING_TOL, so no proximal step leans on
    the rounding."""
    graphs = sample_population(GraphonSpec("abs_diff"), 10, (200, 200), seed=1)
    residuals = []

    def recording_scale(kernels, mu_rows, mu_cols, max_iters, tol):
        plans, pots = _scale(kernels, mu_rows, mu_cols, max_iters, tol)
        residuals.append(float(np.abs(plans.sum(axis=1) - mu_cols).max()))
        return plans, pots

    with mock.patch("gwgraphon.gw._scale", recording_scale):
        estimate = estimate_gwb(graphs)
        fit_scalings = len(residuals)
        gw_error(estimate, GraphonSpec("abs_diff"), resolution=300)
    assert 0 < fit_scalings < len(residuals)
    assert max(residuals) <= SCALING_TOL


def _starts(target, restarts):
    """Distinct restart starts against a target: the antitone start equals
    the monotone one on equal column masses and is solved once."""
    equal = np.all(target.measure == target.measure[0])
    return restarts - 1 if restarts >= 3 and equal else restarts


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(FAMILY_NAMES),
       sizes=st.lists(st.integers(3, 40), min_size=1, max_size=4), odd=st.integers(0, 9),
       ks=st.lists(st.integers(2, 8), min_size=2, max_size=2), targets=st.integers(1, 3),
       pick=st.lists(st.integers(0, 2), min_size=4, max_size=4), uniform=st.booleans(),
       restarts=st.sampled_from([1, 4]), polish=st.sampled_from([0, 5]),
       seed=st.integers(0, 2 ** 16))
def test_mixed_size_batch_matches_single_solves(family, sizes, odd, ks, targets, pick, uniform,
                                                restarts, polish, seed):
    """Each space of a batch with mixed sizes, up to 3 targets and its own
    anchor seed gets exactly the plan and value it gets alone, on both
    marginals. The first target has equal block masses, so with 4 restarts
    it has 3 distinct starts; the second shares its size but not its
    measure and has 4; the third has another size and either measure. The
    last four graphs share a size of 3 (mod 4), the tail of a blocked
    matvec; two of them take the first target, one the second and one the
    last, so one batch holds spaces of equal node count and target size
    with 3 and 4 starts, and one stack holds kernels of several graphs and
    column marginals. Every distinct start is scaled once per step."""
    rng = np.random.default_rng(seed)
    truth = _truth(family, ks[0])
    third = _truth(family, ks[1])
    pool = [truth, StepFunction(truth.values, np.sort(random_measure(rng, ks[0]))[::-1]),
            third if uniform else
            StepFunction(third.values, np.sort(random_measure(rng, ks[1]))[::-1])]
    pool = pool[:targets]
    sizes = sizes + [4 * odd + 3] * 4
    graphs = [sample_graph(GraphonSpec(family), n, seed=seed + i) for i, n in enumerate(sizes)]
    owners = [p % targets for p in pick[:len(sizes) - 4]] + [0, 0, min(1, targets - 1),
                                                             targets - 1]
    seeds = [seed + 7 * i for i in range(len(graphs))]
    cfg = SolverConfig(restarts=restarts, polish_iters=polish)
    scaled = []

    def recording_scale(kernels, *args, **kwargs):
        scaled.append(kernels.shape[0])
        return _scale(kernels, *args, **kwargs)

    with mock.patch("gwgraphon.gw._scale", recording_scale):
        batch = proximal_gw_batch(graphs, [pool[o] for o in owners], cfg, seeds)
    assert sum(scaled) == cfg.sinkhorn_iters * sum(_starts(pool[o], restarts) for o in owners)
    for g, o, s, res in zip(graphs, owners, seeds, batch):
        target = pool[o]
        alone = proximal_gw(g, target, dataclasses.replace(cfg, seed=s))
        np.testing.assert_array_equal(res.plan.coupling, alone.plan.coupling)
        assert res.distance_sq == alone.distance_sq
        t = res.plan.coupling
        assert t.shape == (g.node_count, target.partition_count)
        assert float(np.abs(t.sum(axis=1) - g.measure).max()) <= PLAN_MARGINAL_TOL
        assert float(np.abs(t.sum(axis=0) - target.measure).max()) <= PLAN_MARGINAL_TOL


def test_batch_needs_one_target_and_seed_per_space():
    graphs = [sample_graph(GraphonSpec("xy"), 10, seed=s) for s in range(2)]
    target = _truth("xy", 3)
    with pytest.raises(DomainError):
        proximal_gw_batch(graphs, [target], SolverConfig())
    with pytest.raises(DomainError):
        proximal_gw_batch(graphs, [target] * 2, SolverConfig(), seeds=[0])
