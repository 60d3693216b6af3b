import numpy as np
import pytest

from gwgraphon import gw
from gwgraphon.core import DomainError, SolverConfig, StepFunction
from gwgraphon.evaluation import (clustering_accuracy, gw_error, mse_error,
                                  naive_average_estimate, scoring_config,
                                  upsample_step_function, usvt_estimate)
from gwgraphon.graphons import GraphonSpec, discretize_graphon
from gwgraphon.sampling import sample_population


def test_upsample_copies_blocks():
    values = np.array([[0.1, 0.2], [0.2, 0.9]])
    w = StepFunction(values, [0.5, 0.5])
    up = upsample_step_function(w, 4)
    expected = np.repeat(np.repeat(values, 2, axis=0), 2, axis=1)
    np.testing.assert_array_equal(up, expected)
    np.testing.assert_array_equal(upsample_step_function(w, 2), values)


def test_upsample_uneven_resolution():
    values = np.array([[0.1, 0.2], [0.2, 0.9]])
    w = StepFunction(values, [0.5, 0.5])
    up = upsample_step_function(w, 3)
    idx = np.array([0, 0, 1])
    np.testing.assert_array_equal(up, values[np.ix_(idx, idx)])


def test_upsample_rejects_low_resolution():
    w = StepFunction(np.full((3, 3), 0.5), np.full(3, 1 / 3))
    with pytest.raises(DomainError):
        upsample_step_function(w, 2)


def test_mse_against_known_integral():
    """Constant 1/2 against W(x, y) = xy: the squared-difference integral is
    1/9 - 2·(1/2)(1/4) + 1/4 = 1/9."""
    flat = StepFunction(np.full((2, 2), 0.5), [0.5, 0.5])
    got = mse_error(flat, GraphonSpec("xy"), resolution=500)
    assert got == pytest.approx(1.0 / 9.0, abs=1e-3)


def test_mse_of_matching_grid_is_zero():
    grid = discretize_graphon(GraphonSpec("mean"), 10)
    w = StepFunction(grid, np.full(10, 0.1))
    assert mse_error(w, GraphonSpec("mean"), resolution=10) == 0.0


def test_scoring_config_strengthens_the_solve():
    cfg = scoring_config(seed=3)
    assert isinstance(cfg, SolverConfig)
    assert cfg.sinkhorn_iters > SolverConfig().sinkhorn_iters
    assert cfg.restarts > 1
    assert cfg.seed == 3


def test_gw_error_of_discretized_truth_is_small():
    grid = discretize_graphon(GraphonSpec("xy"), 37)
    w = StepFunction(grid, np.full(37, 1 / 37))
    assert gw_error(w, GraphonSpec("xy")) <= 1e-2


def test_gw_error_resolution_tradeoff():
    grid = discretize_graphon(GraphonSpec("abs_diff"), 20)
    w = StepFunction(grid, np.full(20, 0.05))
    coarse = gw_error(w, GraphonSpec("abs_diff"), resolution=300)
    fine = gw_error(w, GraphonSpec("abs_diff"), resolution=1000)
    assert abs(coarse - fine) <= 0.01


@pytest.mark.parametrize("family", ["exp07", "abs_diff"])
def test_gw_error_never_exceeds_the_aligned_block_coupling(family):
    """A 10-block average of the truth at resolution 100: mapping each pixel
    to its own block is a feasible coupling whose objective is the pixel
    MSE, so the reported distance may not exceed its square root."""
    grid = discretize_graphon(GraphonSpec(family), 100)
    values = grid.reshape(10, 10, 10, 10).mean(axis=(1, 3))
    w = StepFunction(0.5 * (values + values.T), np.full(10, 0.1))
    aligned = np.sqrt(np.mean((grid - upsample_step_function(w, 100)) ** 2))
    assert gw_error(w, GraphonSpec(family), resolution=100) <= aligned * (1 + 1e-9)


@pytest.mark.parametrize("measure, starts", [(np.full(5, 0.2), 3),
                                              (np.array([0.3, 0.25, 0.2, 0.15, 0.1]), 4)])
def test_gw_error_scales_each_distinct_start_once(monkeypatch, measure, starts):
    """On equal block masses the antitone start is the monotone one, so
    each proximal step of the scoring solve scales 3 kernels instead of 4;
    an estimate with unequal masses keeps all 4 starts."""
    real_scale = gw._scale
    sizes = []

    def recording_scale(kernels, *args, **kwargs):
        sizes.append(kernels.shape[0])
        return real_scale(kernels, *args, **kwargs)

    monkeypatch.setattr(gw, "_scale", recording_scale)
    w = StepFunction(discretize_graphon(GraphonSpec("abs_diff"), 5), measure)
    gw_error(w, GraphonSpec("abs_diff"), resolution=40)
    assert sizes == [starts] * scoring_config().sinkhorn_iters


def test_usvt_recovers_constant_density():
    graphs = sample_population(GraphonSpec.from_grid(np.array([[0.35]])), 20,
                               [200, 200], seed=13)
    est = usvt_estimate(graphs)
    assert est.partition_count == 200
    off_diag = est.values[~np.eye(200, dtype=bool)]
    assert abs(float(off_diag.mean()) - 0.35) <= 0.1


def test_naive_average_pads_with_zeros():
    graphs = sample_population(GraphonSpec("xy"), 5, [50, 100], seed=3)
    est = naive_average_estimate(graphs)
    n_max = max(g.node_count for g in graphs)
    n_min = min(g.node_count for g in graphs)
    assert est.partition_count == n_max
    assert n_min < n_max
    tail = est.values[n_max - 1, n_max - 1]
    assert tail < 1.0 / len(graphs) + 1e-12
    np.testing.assert_allclose(est.measure, 1.0 / n_max)


def test_baselines_reject_empty_input():
    with pytest.raises(DomainError):
        usvt_estimate([])
    with pytest.raises(DomainError):
        naive_average_estimate([])


def test_clustering_accuracy_examples():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    assert clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert clustering_accuracy(["a", "a", "b"], [5, 5, 9]) == 1.0
    assert clustering_accuracy([0, 1, 2], [0, 0, 0]) == pytest.approx(1 / 3)


def test_clustering_accuracy_validation():
    with pytest.raises(DomainError):
        clustering_accuracy([0, 1], [0, 1, 1])
    with pytest.raises(DomainError):
        clustering_accuracy([], [])
