import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_space, random_step_function
from gwgraphon.core import (PLAN_MARGINAL_TOL, DomainError, NumericError,
                            ObservedGraph, SolverConfig, StepFunction,
                            TransportPlan, ValidationError)
from gwgraphon import gw
from gwgraphon.graphons import FAMILY_NAMES, GraphonSpec, discretize_graphon
from gwgraphon.gw import (SCALING_TOL, GwResult, _scale, entropic_ot,
                          gw_cost_offset, proximal_gw, proximal_gw_batch,
                          sinkhorn_projection)
from gwgraphon.oracle import gw_distance_exact_small
from gwgraphon.sampling import sample_graph

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
    assert fwd == pytest.approx(rev, abs=1e-8)


def test_exact_oracle_validation(rng):
    mu5 = random_measure(rng, 5)
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.zeros((5, 5)), np.zeros((5, 5)), mu5, mu5)
    mu2 = np.array([0.5, 0.5])
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), mu2, mu2)
    with pytest.raises(DomainError):
        gw_distance_exact_small(np.zeros((2, 2)), np.zeros((2, 2)), [0.5, 0.6], mu2)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
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
    for value, plan in zip(gw._objective(mat_a, w_t, offset, plans), plans):
        assert value == pytest.approx(np.einsum("ijkl,ij,kl->", diff ** 2, plan, plan), rel=1e-12)
    res = proximal_gw((mat_a, mu_a), (w, mu_w), SolverConfig(restarts=restarts))
    plan = res.plan.coupling
    assert res.distance_sq == max(float(gw._objective(mat_a, w_t, offset, plan[None])[0]), 0.0)


def test_sinkhorn_projection_hits_marginals(rng):
    kernel = rng.random((6, 4)) + 0.05
    mu_row = random_measure(rng, 6)
    mu_col = random_measure(rng, 4)
    plan = sinkhorn_projection(kernel, mu_row, mu_col, 500)
    assert float(np.abs(plan.coupling.sum(axis=1) - mu_row).max()) <= 1e-6
    assert float(np.abs(plan.coupling.sum(axis=0) - mu_col).max()) <= 1e-6


def test_sinkhorn_projection_validation(rng):
    mu = random_measure(rng, 3)
    with pytest.raises(DomainError):
        sinkhorn_projection(np.zeros((3, 3)), mu, mu, 10)
    with pytest.raises(DomainError):
        sinkhorn_projection(np.ones((2, 3)), mu, mu, 10)
    with pytest.raises(DomainError):
        sinkhorn_projection(np.ones((3, 3)), mu, mu, 0)
    with pytest.raises(NumericError):
        sinkhorn_projection(np.full((3, 3), np.inf), mu, mu, 10)


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
    """A group of kernels that converges at the first check is stored there
    with the plan it gets alone; the other group, with other column
    marginals, scales on to its own end."""
    n, k = 9, 5
    fast = [np.outer(rng.random(n) + 0.5, rng.random(k) + 0.5) for _ in range(2)]
    slow = [np.exp(-rng.random((n, k)) / 0.02) for _ in range(2)]
    kernels = np.stack(fast + slow)
    mu_rows = np.stack([random_measure(rng, n) for _ in range(4)])
    mu_cols = np.repeat(np.stack([random_measure(rng, k) for _ in range(2)]), 2, axis=0)
    assert not np.array_equal(mu_cols[0], mu_cols[2])
    batch = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL, groups=2)
    alone_fast = _scale(kernels[:2], mu_rows[:2], mu_cols[:2], 500, SCALING_TOL)
    alone_slow = _scale(kernels[2:], mu_rows[2:], mu_cols[2:], 500, SCALING_TOL)
    np.testing.assert_array_equal(batch[:2], alone_fast)
    np.testing.assert_array_equal(batch[2:], alone_slow)
    assert float(np.abs(batch[:2].sum(axis=1) - mu_cols[0]).max()) <= SCALING_TOL
    # the first check comes after pair 4: the fast group stopped there
    np.testing.assert_array_equal(alone_fast, _scale(kernels[:2], mu_rows[:2], mu_cols[:2], 5,
                                                     SCALING_TOL))
    assert not np.array_equal(alone_slow, _scale(kernels[2:], mu_rows[2:], mu_cols[2:], 5,
                                                 SCALING_TOL))


def _reference_scale(kernels, mu_rows, mu_cols, max_iters, tol, groups=1):
    """The scaling loop without slices or buffers: every half pair is one
    pass over the whole stack into fresh arrays. _scale must match it bit
    for bit."""
    size = kernels.shape[0] // groups
    plans = np.empty_like(kernels) if groups > 1 else None
    live = np.arange(kernels.shape[0])
    a = np.array(mu_rows, dtype=float)
    b = None
    kernels_t = kernels.transpose(0, 2, 1)
    for it in range(int(max_iters)):
        ka = (kernels_t @ a[:, :, None])[..., 0]
        if b is not None and it % 4 == 0:
            res = np.abs(b * ka - mu_cols)
            if float(res.max()) <= tol:
                break
            if plans is not None:
                done = np.repeat(res.reshape(-1, size * res.shape[1]).max(axis=1) <= tol, size)
                if done.any():
                    plans[live[done]] = (a[done, :, None] * kernels[done]) * b[done, None, :]
                    keep = ~done
                    live, kernels = live[keep], kernels[keep]
                    mu_rows, mu_cols = mu_rows[keep], mu_cols[keep]
                    a, b, ka = a[keep], b[keep], ka[keep]
                    kernels_t = kernels.transpose(0, 2, 1)
        b = mu_cols / ka
        a = mu_rows / ((kernels @ b[:, :, None])[..., 0])
    if b is None:
        b = mu_cols / ((kernels_t @ a[:, :, None])[..., 0])
        a = mu_rows / ((kernels @ b[:, :, None])[..., 0])
    final = (a[:, :, None] * kernels) * b[:, None, :]
    if plans is None:
        return final
    plans[live] = final
    return plans


@settings(max_examples=60, deadline=None)
@given(data=st.data(), count=st.integers(1, 8), n=st.integers(1, 40), k=st.integers(1, 30),
       cap=st.integers(1, 37), tol=st.sampled_from([SCALING_TOL, -1.0]),
       slice_kernels=st.integers(1, 9), seed=st.integers(0, 2 ** 16))
def test_sliced_scaling_matches_the_reference_loop(data, count, n, k, cap, tol, slice_kernels,
                                                   seed):
    """Whatever the slice size (one kernel, part of a group, several groups
    or the whole stack), groups and cap, _scale returns the plans of the
    plain loop bit for bit. Rank-one groups converge at the first check and
    leave the stack while the others scale on."""
    groups = data.draw(st.sampled_from([g for g in range(1, count + 1) if count % g == 0]))
    rng = np.random.default_rng(seed)
    kernels = np.exp(-rng.random((count, n, k)) / rng.choice([0.02, 0.2, 1.0], (count, 1, 1)))
    size = count // groups
    for g in np.flatnonzero(rng.random(groups) < 0.3):
        for s in range(g * size, (g + 1) * size):
            kernels[s] = np.outer(rng.random(n) + 0.5, rng.random(k) + 0.5)
    mu_rows = np.stack([random_measure(rng, n) for _ in range(count)])
    mu_cols = np.stack([random_measure(rng, k) for _ in range(count)])
    expected = _reference_scale(kernels, mu_rows, mu_cols, cap, tol, groups)
    with mock.patch.object(gw, "SLICE_BYTES", slice_kernels * kernels[0].nbytes):
        got = _scale(kernels, mu_rows, mu_cols, cap, tol, groups)
    np.testing.assert_array_equal(got, expected)


def test_stack_past_the_cache_equals_its_one_slice_run(rng):
    """Criterion 08's round stack, 80 kernels of 200 x 29 with one group
    each, is cut into slices, and scales exactly as one slice would. The
    kernels' widths spread their stops from pair 24 to the cap of 500, so
    the slices are rebuilt many times."""
    cost = (np.linspace(0.0, 1.0, 200)[:, None] - np.linspace(0.0, 1.0, 29)[None, :]) ** 2
    kernels = np.exp(-cost[None] / np.geomspace(0.002, 0.2, 80)[:, None, None])
    np.maximum(kernels, gw.KERNEL_FLOOR, out=kernels)
    mu_rows = np.stack([random_measure(rng, 200) for _ in range(80)])
    mu_cols = np.stack([random_measure(rng, 29) for _ in range(80)])
    assert kernels.nbytes > gw.SLICE_BYTES
    sliced = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL, groups=80)
    with mock.patch.object(gw, "SLICE_BYTES", kernels.nbytes + 1):
        whole = _scale(kernels, mu_rows, mu_cols, 500, SCALING_TOL, groups=80)
    assert np.array_equal(sliced, whole)


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
