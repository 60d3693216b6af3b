"""Brute-force ground truth for the GW solver on tiny instances.

gw_distance_exact_small finds the global minimum of the squared 2-order GW
objective where the transport polytope has few enough vertices to list:
vertex enumeration, multi-start projected gradient descent and exact
active-set descent on the best faces. It scores plans with the solver's own
objective and reuses its anchors, projection and descent, so it imports
from gw.py; gw.py does not import it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .core import DomainError
from .gw import (_as_space, _descend_plans, _objective, _project_plans, _restart_anchors,
                 _round_feasible, gw_cost_offset)


@lru_cache(maxsize=None)
def _constraints(n, m):
    """Row-sum and column-sum constraints on a row-major flattened n x m
    plan, without the last column sum, which the others imply."""
    return np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])[:-1]


@lru_cache(maxsize=None)
def _tree_bases(n, m):
    """Inverse basis matrices for every vertex basis of the transport polytope.

    Vertices of the polytope are basic feasible solutions of the flow problem
    on the complete bipartite graph; the bases are exactly its spanning trees.
    The constraint matrix is totally unimodular, so the columns of a spanning
    tree have determinant ±1 and any other choice of n + m - 1 columns has 0,
    and elimination on them is exact.
    """
    subsets = np.array(list(itertools.combinations(range(n * m), n + m - 1)), dtype=np.int64)
    bases = _constraints(n, m)[:, subsets].transpose(1, 0, 2)
    trees = np.abs(np.linalg.det(bases)) > 0.5
    return subsets[trees], np.linalg.inv(bases[trees])


def _polytope_vertices(n, m, mu_a, mu_b):
    trees, inverses = _tree_bases(n, m)
    demand = np.concatenate([mu_a, mu_b[:-1]])
    flows = inverses @ demand
    feasible = flows.min(axis=1) >= -1e-10
    flows = np.maximum(flows[feasible], 0.0)
    trees = trees[feasible]
    verts = np.zeros((trees.shape[0], n * m))
    rows = np.repeat(np.arange(trees.shape[0]), n + m - 1)
    verts[rows, trees.ravel()] = flows.ravel()
    # degenerate bases repeat vertices; keep one copy of each
    verts = np.unique(np.round(verts, 12), axis=0)
    return verts.reshape(-1, n, m)


def _face_minimum(plan, a, b, mu_a, mu_b, offset, support_tol):
    """Objective value reached by an exact active-set descent from the plan,
    or None when the starting support cannot carry the marginals.

    Within the face spanned by the current support the marginal constraints
    are affine, so the stationary point is a small linear solve; a ratio
    test toward it either lands on it exactly or hits the boundary, where
    the vanishing entry leaves the support and the solve repeats. This
    finishes the tail that projected gradient descent only crawls along.
    """
    # imported here, its only user, so importing the package does not pay for it
    import scipy.linalg

    n, m = plan.shape
    nm = n * m
    kron = np.kron(a, b)
    lin = offset.ravel()
    cons = _constraints(n, m)
    rhs_eq = np.concatenate([mu_a, mu_b[:-1]])
    idx = np.flatnonzero(plan.ravel() > support_tol)
    x = plan.ravel()[idx]
    best_flat = None
    best_val = np.inf
    for _ in range(2 * nm + 2):
        eq = cons[:, idx]
        x = x + np.linalg.lstsq(eq, rhs_eq - eq @ x, rcond=None)[0]
        if float(np.abs(eq @ x - rhs_eq).max()) > 1e-9 or np.any(x < -1e-9):
            break
        quad = kron[np.ix_(idx, idx)]
        val = float(lin[idx] @ x - 2.0 * (x @ quad @ x))
        if val < best_val:
            best_val = val
            best_flat = (idx, np.maximum(x, 0.0))
        null = scipy.linalg.null_space(eq)
        if null.shape[1] == 0:
            break
        grad = lin[idx] - 4.0 * (quad @ x)
        u = np.linalg.lstsq(4.0 * (null.T @ quad @ null), null.T @ grad, rcond=None)[0]
        d = null @ u
        if float(np.abs(d).max()) < 1e-13:
            break
        slope = float(grad @ d)
        curv = float(-2.0 * (d @ quad @ d))
        falling = d < -1e-16
        if not falling.any():
            break
        steps = [float((x[falling] / -d[falling]).min())]
        if curv > 1e-18:
            t_int = -slope / (2.0 * curv)
            if 0.0 < t_int < steps[0]:
                steps.append(t_int)
        gains = [slope * t + curv * t * t for t in steps]
        pick = int(np.argmin(gains))
        if gains[pick] >= -1e-15:
            break
        x = np.maximum(x + steps[pick] * d, 0.0)
        keep = x > 1e-12
        if not keep.all():
            idx = idx[keep]
            x = x[keep]
            if idx.size == 0:
                break
    if best_flat is None:
        return None
    flat = np.zeros(nm)
    flat[best_flat[0]] = best_flat[1]
    candidate = _round_feasible(flat.reshape(1, n, m), mu_a[None], mu_b[None])
    return float(_objective(a, b.T, offset, candidate)[0])


def gw_distance_exact_small(a, b, mu_a, mu_b):
    """Global minimum of the squared 2-order GW objective on a tiny instance.

    Enumerates every vertex of the transport polytope, refines with
    multi-start projected gradient descent under exact line search, and
    polishes the best candidates by solving the stationarity system on
    their active faces. Meant as a test oracle; requires n·m <= 16 and
    symmetric inputs.
    """
    a, mu_a = _as_space((a, mu_a))
    b, mu_b = _as_space((b, mu_b))
    n, m = a.shape[0], b.shape[0]
    if n * m > 16:
        raise DomainError("instance too large for exact search (n*m = %d > 16)" % (n * m))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-9 or float(np.abs(b - b.T).max(initial=0.0)) > 1e-9:
        raise DomainError("inputs must be symmetric")
    if abs(float(mu_a.sum()) - 1.0) > 1e-9 or abs(float(mu_b.sum()) - 1.0) > 1e-9:
        raise DomainError("measures must sum to 1")

    offset = gw_cost_offset(a, mu_a, b, mu_b)
    verts = _polytope_vertices(n, m, mu_a, mu_b)
    best = float(_objective(a, b.T, offset, verts).min())

    rng = np.random.default_rng(0)
    anchors = np.stack(_restart_anchors(mu_a, mu_b, 3, 0)[0])
    seeds = [anchors, verts, rng.random((33, n, m))]
    plans = _project_plans(np.concatenate(seeds, axis=0), mu_a, mu_b, 60)
    seen = set()
    for block in range(4):
        plans = _descend_plans(plans, a, b, mu_a, mu_b, 40)
        rounded = np.maximum(_project_plans(plans, mu_a, mu_b, 30), 0.0)
        vals = _objective(a, b.T, offset, rounded)
        order = np.argsort(vals)
        top = _round_feasible(rounded[order[0]][None], mu_a[None], mu_b[None])
        best = min(best, float(_objective(a, b.T, offset, top)[0]))
        for p in order[:8]:
            key = rounded[p].round(7).tobytes()
            if key in seen:
                continue
            seen.add(key)
            candidate = _round_feasible(rounded[p][None], mu_a[None], mu_b[None])[0]
            supports = set()
            for tol in (1e-3, 1e-8):
                support = np.flatnonzero(candidate.ravel() > tol).tobytes()
                if support in supports:
                    continue
                supports.add(support)
                val = _face_minimum(candidate, a, b, mu_a, mu_b, offset, tol)
                if val is not None:
                    best = min(best, val)
        if block == 0 and plans.shape[0] > 128:
            plans = plans[order[:128]]
    return max(best, 0.0)
