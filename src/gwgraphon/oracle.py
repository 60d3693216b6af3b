"""Exact ground truth for the GW solver on tiny instances.

gw_distance_exact_small minimises the squared 2-order GW objective
linᵀx − 2·xᵀ·kron(A, B)·x over the transport polytope exactly. A global
minimum is the stationary point of a face whose reduced Hessian is positive
definite, or has the value of one on a smaller face, so the oracle solves
the stationarity system of every face, batched by support size and rank,
and keeps the least feasible value. It imports only the input checks and
the cost offset from gw.py; gw.py does not import it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DomainError
from .gw import _as_space, gw_cost_offset


@lru_cache(maxsize=None)
def _faces(n, m):
    """Every face of the n x m transport polytope that strictly positive
    marginals can make nonempty, as groups of supports of one size and one
    rank of their row-and-column-sum block.

    A support must touch every row and every column. Each group is
    (indices, pinv, null): the supports' flat indices (F, s) into the
    row-major plan, the pseudo-inverses (F, s, n + m) of their blocks and
    orthonormal bases (F, s, s - rank) of the blocks' null spaces. The
    rank-deficient supports stay: degenerate marginals can make them
    feasible.
    """
    nm = n * m
    cells = ((np.arange(1, 2 ** nm)[:, None] >> np.arange(nm)) & 1).astype(bool)
    grid = cells.reshape(-1, n, m)
    cells = cells[grid.any(axis=2).all(axis=1) & grid.any(axis=1).all(axis=1)]
    block = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    sizes = cells.sum(axis=1)
    groups = []
    for s in np.unique(sizes):
        idx = np.nonzero(cells[sizes == s])[1].reshape(-1, s)
        u, sv, vt = np.linalg.svd(block[:, idx].transpose(1, 0, 2))
        ranks = (sv > 1e-9).sum(axis=1)
        for r in np.unique(ranks):
            pick = ranks == r
            left, right = u[pick, :, :r], vt[pick, :r].transpose(0, 2, 1)
            pinv = (right / sv[pick, None, :r]) @ left.transpose(0, 2, 1)
            groups.append((idx[pick].astype(np.uint8), pinv, vt[pick, r:].transpose(0, 2, 1)))
    return groups


def gw_distance_exact_small(a, b, mu_a, mu_b):
    """Global minimum of the squared 2-order GW objective on a tiny instance.

    A global minimum is a stationary point of the smallest face that holds
    it, where the face's reduced Hessian is positive semidefinite; if that
    Hessian is singular, the objective is constant along a flat direction
    that leads to a smaller face at the same value. So the minimum is the
    least objective among the feasible stationary points of the faces with
    a positive definite reduced Hessian, the vertices included. Meant as a
    test oracle; requires n·m <= 16 and symmetric inputs.
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

    lin = gw_cost_offset(a, mu_a, b, mu_b).ravel()
    quad = np.kron(a, b)
    flat = 1e-12 * float(np.abs(quad).max())
    demand = np.concatenate([mu_a, mu_b])
    best = np.inf
    for idx, pinv, null in _faces(n, m):
        x = pinv @ demand
        plans = np.zeros((idx.shape[0], n * m))
        np.put_along_axis(plans, idx, x, axis=1)
        plans = plans.reshape(-1, n, m)
        sums = np.concatenate([plans.sum(axis=2), plans.sum(axis=1)], axis=1)
        keep = np.abs(sums - demand).max(axis=1) <= 1e-12
        idx, x, null = idx[keep], x[keep], null[keep]
        q = quad[idx[:, :, None], idx[:, None, :]]
        if null.shape[2]:
            # the stationary point x + null·u of the face's affine hull
            hess = -4.0 * (null.transpose(0, 2, 1) @ q @ null)
            keep = np.linalg.eigvalsh(hess)[:, 0] > flat
            idx, x, null, q, hess = idx[keep], x[keep], null[keep], q[keep], hess[keep]
            grad = lin[idx] - 4.0 * (q @ x[:, :, None])[:, :, 0]
            step = np.linalg.solve(hess, null.transpose(0, 2, 1) @ grad[:, :, None])
            x = x - (null @ step)[:, :, 0]
        ok = x.min(axis=1) >= -1e-12
        vals = (lin[idx] * x).sum(axis=1) - 2.0 * np.einsum("fi,fij,fj->f", x, q, x)
        best = min(best, float(vals[ok].min(initial=np.inf)))
    return max(best, 0.0)
