import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph
from gwgraphon.barycenter import barycenter_update, estimate_gwb
from gwgraphon.core import DomainError, NumericError, SolverConfig
from gwgraphon.graphons import GraphonSpec
from gwgraphon.sampling import sample_population
from gwgraphon.smoothed import (SmoothedSolveMode, _solve_closed_form,
                                _solve_iterative, build_laplacian_filter,
                                estimate_sgwb, smoothed_barycenter_update)


def _operator(w, x, mu_w, alpha):
    d = np.diag(mu_w)
    return 2.0 * alpha * (x @ w @ x) + d @ w @ d


def test_filter_three_points():
    expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    np.testing.assert_array_equal(build_laplacian_filter(3), expected)


def test_filter_annihilates_constants():
    lap = build_laplacian_filter(7)
    np.testing.assert_allclose(lap @ np.ones(7), 0.0, atol=1e-15)
    np.testing.assert_array_equal(lap, lap.T)
    assert float(np.linalg.eigvalsh(lap).min()) >= -1e-12


def test_filter_needs_two_points():
    with pytest.raises(DomainError):
        build_laplacian_filter(1)


def test_zero_alpha_matches_plain_barycenter():
    graphs = sample_population(GraphonSpec("xy"), 3, [20, 30], seed=4)
    cfg = SolverConfig(alpha=0.0)
    plain = estimate_gwb(graphs, cfg, k=5)
    for mode in SmoothedSolveMode:
        smoothed = estimate_sgwb(graphs, cfg, k=5, mode=mode)
        np.testing.assert_array_equal(smoothed.values, plain.values)
        np.testing.assert_array_equal(smoothed.measure, plain.measure)


def test_single_block_reduces_to_density(rng):
    g = random_graph(rng, 6)
    plan = g.measure[:, None].copy()
    expected = min(float(g.measure @ g.adjacency.toarray() @ g.measure), 1.0)
    for mode in SmoothedSolveMode:
        values = smoothed_barycenter_update([g], [plan], [1.0], 0.7, mode)
        assert values.shape == (1, 1)
        assert values[0, 0] == pytest.approx(expected, abs=1e-10)


def test_iterative_solver_meets_residual_contract(rng):
    for k in (4, 9, 32):
        x = build_laplacian_filter(k)
        x = x.T @ x
        b = rng.random((k, k))
        b = 0.5 * (b + b.T)
        mu = rng.random(k) + 0.2
        mu /= mu.sum()
        alpha = float(rng.random()) * 0.1 + 1e-4
        w = _solve_iterative(b, x, mu, alpha)
        resid = np.linalg.norm(_operator(w, x, mu, alpha) - b)
        assert resid <= 1e-8 * max(np.linalg.norm(b), 1e-30)


def test_solvers_agree_on_shared_eigenbasis(rng):
    """With uniform measure and B polynomial in the filter, the complex-shift
    factorization is exact, so both solvers return the same matrix."""
    k = 8
    x = build_laplacian_filter(k)
    x = x.T @ x
    b = 0.3 * np.eye(k) + 0.2 * x + 0.05 * (x @ x)
    mu = np.full(k, 1.0 / k)
    for alpha in (1e-4, 1e-2, 0.5):
        closed = _solve_closed_form(b, x, mu, alpha)
        exact = _solve_iterative(b, x, mu, alpha)
        np.testing.assert_allclose(closed, exact, atol=1e-8)


def test_closed_form_converges_to_exact_at_small_alpha(rng):
    """On generic inputs the factorization gap vanishes linearly in alpha."""
    k = 6
    x = build_laplacian_filter(k)
    x = x.T @ x
    b = rng.random((k, k))
    b = 0.5 * (b + b.T)
    mu = rng.random(k) + 0.5
    mu /= mu.sum()

    def gap(alpha):
        exact = _solve_iterative(b, x, mu, alpha)
        closed = _solve_closed_form(b, x, mu, alpha)
        return float(np.linalg.norm(closed - exact) / np.linalg.norm(exact))

    assert gap(1e-8) <= 1e-3
    assert gap(1e-10) <= 1e-5


def test_penalty_reduces_total_variation():
    """The curvature penalty yields a smoother surface than the plain update."""

    def variation(values):
        return float(np.abs(np.diff(values, axis=0)).sum()
                     + np.abs(np.diff(values, axis=1)).sum())

    graphs = sample_population(GraphonSpec("abs_diff"), 10, [80, 160], seed=8800)
    plain = estimate_gwb(graphs)
    smoothed = estimate_sgwb(graphs)
    assert variation(smoothed.values) < variation(plain.values)


def test_iterative_failure_is_reported(rng):
    """The equation has a unique solution, but with a vanishing measure and a
    singular filter that solution lies past the largest float; the solver
    must say so instead of returning garbage."""
    k = 5
    x = build_laplacian_filter(k)
    x = x.T @ x
    b = rng.random((k, k))
    b = 0.5 * (b + b.T)
    with pytest.raises(NumericError):
        _solve_iterative(b, x, np.full(k, 1e-170), 1.0)


def test_mode_strings_are_accepted(rng):
    g = random_graph(rng, 5)
    plan = np.outer(g.measure, [0.5, 0.5])
    by_enum = smoothed_barycenter_update([g], [plan], [0.5, 0.5], 0.01,
                                         SmoothedSolveMode.EXACT_ITERATIVE)
    by_name = smoothed_barycenter_update([g], [plan], [0.5, 0.5], 0.01,
                                         "exact_iterative")
    np.testing.assert_array_equal(by_enum, by_name)
    with pytest.raises(DomainError):
        smoothed_barycenter_update([g], [plan], [0.5, 0.5], 0.01, "newton")


def test_update_validation(rng):
    g = random_graph(rng, 5)
    plan = np.outer(g.measure, [0.5, 0.5])
    with pytest.raises(DomainError):
        smoothed_barycenter_update([g], [plan], [0.5, 0.5], -0.1)
    with pytest.raises(DomainError):
        smoothed_barycenter_update([g], [plan], [0.5, -0.5], 0.1)


def test_update_output_is_well_formed(rng):
    graphs = [random_graph(rng, 8) for _ in range(3)]
    mu_w = np.array([0.4, 0.35, 0.25])
    plans = [np.outer(g.measure, mu_w) for g in graphs]
    for mode in SmoothedSolveMode:
        values = smoothed_barycenter_update(graphs, plans, mu_w, 0.05, mode)
        np.testing.assert_array_equal(values, values.T)
        assert float(values.min()) >= 0.0 and float(values.max()) <= 1.0


def _kernel_projection(b, mu):
    """The limit of the exact solve as alpha grows: W = 1·aᵀ + c·1ᵀ with
    diag(mu)·W·diag(mu) - B orthogonal to that family, i.e. with the row
    and column sums of diag(mu)·W·diag(mu) equal to those of B, as a
    least-squares solve in the 2K unknowns (a, c)."""
    k = mu.size
    total = mu.sum()
    rows = np.block([[np.outer(mu, mu), total * np.diag(mu)],
                     [total * np.diag(mu), np.outer(mu, mu)]])
    ac = np.linalg.lstsq(rows, np.concatenate([b.sum(axis=1), b.sum(axis=0)]), rcond=None)[0]
    return ac[None, :k] + ac[k:, None]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 60), spread=st.floats(0.0, 3.0), small=st.floats(-8.0, -2.0),
       seed=st.integers(0, 2 ** 16))
def test_spectral_solve_meets_the_equation_and_its_large_alpha_limits(k, spread, small, seed):
    """Exact mode meets the update equation to 1e-8 relative at small
    weights. At the largest weights it is the projection of B onto the
    kernel of the penalty, and paper mode is the constant ΣB (mu sums to
    1). Both stay finite and symmetric at every weight, the largest float
    included."""
    rng = np.random.default_rng(seed)
    mu = 10.0 ** rng.uniform(0.0, spread, k)
    mu /= mu.sum()
    b = rng.random((k, k))
    b = 0.5 * (b + b.T)
    x = build_laplacian_filter(k) if k >= 2 else np.zeros((1, 1))
    x = x.T @ x
    alpha = 10.0 ** small
    w = _solve_iterative(b, x, mu, alpha)
    assert np.linalg.norm(_operator(w, x, mu, alpha) - b) <= 1e-8 * np.linalg.norm(b)
    limit = _kernel_projection(b, mu)
    largest = np.finfo(float).max
    for alpha in (alpha, 0.5, 1e6, 1e200, 1e300, 1e308, largest / 2.0, largest):
        for solve in (_solve_iterative, _solve_closed_form):
            w = solve(b, x, mu, alpha)
            assert np.all(np.isfinite(w))
            np.testing.assert_allclose(w, w.T, rtol=1e-12, atol=1e-12 * np.abs(w).max())
        if alpha >= 1e200:
            np.testing.assert_allclose(_solve_iterative(b, x, mu, alpha), limit,
                                       rtol=0.0, atol=1e-12 * np.abs(limit).max())
            np.testing.assert_allclose(_solve_closed_form(b, x, mu, alpha), b.sum(),
                                       rtol=1e-12)


def _update_inputs(rng):
    g = random_graph(rng, 5)
    return g, np.outer(g.measure, [0.5, 0.5])


UPDATES = [
    barycenter_update,
    lambda graphs, plans, mu_w: smoothed_barycenter_update(graphs, plans, mu_w, 0.0),
    lambda graphs, plans, mu_w: smoothed_barycenter_update(graphs, plans, mu_w, 0.1),
    lambda graphs, plans, mu_w: smoothed_barycenter_update(graphs, plans, mu_w, 0.1,
                                                           "exact_iterative"),
]


@pytest.mark.parametrize("update", UPDATES, ids=["plain", "smoothed_zero", "paper", "exact"])
@pytest.mark.parametrize("mu_w, rows", [
    ([0.5, np.nan], 5),
    ([0.5, np.inf], 5),
    ([], 5),
    ([1 / 3, 1 / 3, 1 / 3], 5),
    ([1.0], 5),
    ([0.5, 0.5], 4),
    ([0.5, 0.5], 6),
])
def test_updates_share_one_domain(rng, update, mu_w, rows):
    """Both updates take a finite, strictly positive mu_w and plans that map
    each graph's nodes onto len(mu_w) blocks, and raise DomainError
    otherwise."""
    g, plan = _update_inputs(rng)
    plan = np.resize(plan, (rows, 2))
    with pytest.raises(DomainError):
        update([g], [plan], mu_w)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_smoothed_update_rejects_weights_outside_its_domain(rng, alpha):
    g, plan = _update_inputs(rng)
    for mode in SmoothedSolveMode:
        with pytest.raises(DomainError):
            smoothed_barycenter_update([g], [plan], [0.5, 0.5], alpha, mode)
