import dataclasses

import numpy as np
import pytest

from gwgraphon import mixture
from gwgraphon.barycenter import estimate_gwb, select_partition_count
from gwgraphon.core import DomainError, SolverConfig, TransportPlan
from gwgraphon.evaluation import clustering_accuracy
from gwgraphon.graphons import GraphonSpec
from gwgraphon.mixture import MixtureModel, assign_clusters, estimate_mixture
from gwgraphon.sampling import sample_population


def _two_family_population(m_per, seed):
    left = sample_population(GraphonSpec("blocks"), m_per, [30, 40], seed=seed)
    right = sample_population(GraphonSpec("bipartite"), m_per, [30, 40], seed=seed + 1)
    return list(left) + list(right), [0] * m_per + [1] * m_per


def test_single_component_is_the_barycenter():
    graphs = sample_population(GraphonSpec("xy"), 4, [20, 30], seed=6)
    cfg = SolverConfig(outer_iters=2)
    model = estimate_mixture(graphs, 1, cfg)
    plain = estimate_gwb(graphs, cfg)
    assert model.component_count == 1
    np.testing.assert_allclose(model.components[0].values, plain.values, atol=1e-9)
    np.testing.assert_allclose(model.components[0].measure, plain.measure, atol=1e-12)
    np.testing.assert_allclose(model.assignment.coupling, 0.25)


def test_model_validation():
    graphs = sample_population(GraphonSpec("xy"), 3, [20, 25], seed=1)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=2)
    model = estimate_mixture(graphs, 2, cfg, rounds=1)
    with pytest.raises(DomainError):
        MixtureModel((), model.assignment)
    with pytest.raises(DomainError):
        MixtureModel(model.components[:1], model.assignment)
    skewed = TransportPlan(np.array([[1 / 3, 4 / 15, 0.0], [0.0, 1 / 15, 1 / 3]]),
                           np.array([0.6, 0.4]), np.full(3, 1 / 3))
    with pytest.raises(DomainError):
        MixtureModel(model.components, skewed)


def test_estimate_mixture_validation():
    graphs = sample_population(GraphonSpec("xy"), 3, [20, 25], seed=1)
    with pytest.raises(DomainError):
        estimate_mixture(graphs, 0)
    with pytest.raises(DomainError):
        estimate_mixture(graphs, 4)
    with pytest.raises(DomainError):
        estimate_mixture([], 1)
    with pytest.raises(DomainError):
        estimate_mixture(graphs, 2, rounds=0)


def test_assignment_marginals_are_uniform():
    graphs, _ = _two_family_population(3, seed=21)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=3)
    model = estimate_mixture(graphs, 2, cfg, rounds=1)
    coupling = model.assignment.coupling
    np.testing.assert_allclose(coupling.sum(axis=1), 0.5, atol=1e-6)
    np.testing.assert_allclose(coupling.sum(axis=0), 1.0 / len(graphs), atol=1e-6)
    assert float(coupling.min()) >= 0.0


def test_fit_is_deterministic():
    graphs, _ = _two_family_population(3, seed=33)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=3, seed=12)
    a = estimate_mixture(graphs, 2, cfg, rounds=2)
    b = estimate_mixture(graphs, 2, cfg, rounds=2)
    np.testing.assert_array_equal(a.assignment.coupling, b.assignment.coupling)
    for ca, cb in zip(a.components, b.components):
        np.testing.assert_array_equal(ca.values, cb.values)


def test_objective_trace_length():
    graphs, _ = _two_family_population(2, seed=40)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=2)
    model = estimate_mixture(graphs, 2, cfg, rounds=3, track_objective=True)
    assert model.objective_trace is not None
    assert len(model.objective_trace) == 3
    assert all(np.isfinite(v) for v in model.objective_trace)
    untracked = estimate_mixture(graphs, 2, cfg, rounds=1)
    assert untracked.objective_trace is None


def test_each_pair_is_solved_once_per_round(monkeypatch):
    """One solve per (graph, component) against the seeded components, then
    one per pair per round: the update reuses the previous solve's plans.
    Counts the pairs handed to the batched solver and its calls: every pair
    of a round goes into one batch."""
    graphs, _ = _two_family_population(2, seed=40)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=2)
    calls = []
    solve = mixture.proximal_gw_batch

    def counted(spaces, *args, **kwargs):
        spaces = list(spaces)
        calls.append(len(spaces))
        return solve(spaces, *args, **kwargs)

    monkeypatch.setattr(mixture, "proximal_gw_batch", counted)
    for rounds in (1, 3):
        calls.clear()
        estimate_mixture(graphs, 2, cfg, rounds=rounds)
        assert sum(calls) == (rounds + 1) * 2 * len(graphs)
        assert len(calls) == rounds + 1


@pytest.mark.parametrize("restarts", [1, 4])
def test_lockstep_seeding_equals_separate_shard_fits(monkeypatch, restarts):
    """The seeding shards are fitted in lockstep, one batch per outer round,
    and each seeded component is bit-identical to the barycenter of its
    shard fitted alone under the shard's derived seed. With two sizes among
    six graphs, graphs of different shards share kernel stacks."""
    graphs = (list(sample_population(GraphonSpec("blocks"), 3, [30, 31], seed=8))
              + list(sample_population(GraphonSpec("bipartite"), 3, [30, 31], seed=9)))
    cfg = SolverConfig(outer_iters=2, sinkhorn_iters=3, restarts=restarts)
    fits = []
    alternate = mixture._alternate

    def recorded(problems, *args, **kwargs):
        problems = list(problems)
        fits.append((problems, alternate(problems, *args, **kwargs)))
        return fits[-1][1]

    monkeypatch.setattr(mixture, "_alternate", recorded)
    estimate_mixture(graphs, 3, cfg, rounds=1)
    [(shards, seeded)] = fits
    assert len(shards) == 3
    assert sorted(id(g) for shard, _ in shards for g in shard) == sorted(id(g) for g in graphs)
    k = select_partition_count([g.node_count for g in graphs])
    for ci, ((shard, _), got) in enumerate(zip(shards, seeded)):
        shard_cfg = dataclasses.replace(cfg, seed=mixture._derived_seed(cfg.seed, 3, ci))
        alone = estimate_gwb(shard, shard_cfg, k=k)
        np.testing.assert_array_equal(got.values, alone.values)
        np.testing.assert_array_equal(got.measure, alone.measure)


def test_assign_clusters_picks_heaviest_component():
    graphs = sample_population(GraphonSpec("xy"), 4, [20, 25], seed=2)
    cfg = SolverConfig(outer_iters=1, sinkhorn_iters=2)
    model = estimate_mixture(graphs, 2, cfg, rounds=1)
    labels = assign_clusters(model)
    np.testing.assert_array_equal(labels, np.argmax(model.assignment.coupling, axis=0))
    assert labels.shape == (4,)


def test_separated_families_are_clustered():
    """Block and bipartite populations are far apart in transport distance,
    so even a short fit separates them."""
    graphs, truth = _two_family_population(6, seed=55)
    model = estimate_mixture(graphs, 2, rounds=3)
    accuracy = clustering_accuracy(assign_clusters(model), truth)
    assert accuracy >= 0.9
