"""Exact ground truth for the GW solver on tiny instances.

gw_distance_exact_small minimises the squared 2-order GW objective
linᵀx − 2·xᵀ·kron(A, B)·x over the transport polytope exactly. A global
minimum is the stationary point of a face whose reduced Hessian is positive
definite, or has the value of one on a smaller face, so the oracle solves
the stationarity system of every face with a connected support, batched
by support size, and keeps the least feasible value. It imports only the
input checks and the cost offset from gw.py; gw.py does not import it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import DomainError
from .gw import _as_space, gw_cost_offset


@lru_cache(maxsize=None)
def _faces(n, m):
    """The faces of the n x m transport polytope whose support is a
    connected bipartite graph on the rows and columns, grouped by support
    size.

    Its row-and-column-sum block has rank n + m - 1 exactly when a support
    is connected, and these full-rank supports are the only ones needed. A
    disconnected support is feasible only where the row and column masses
    of each of its components agree. Join its components by bridge cells
    into a connected support. Each bridge is then a cut edge, so the
    marginals force its flow to the row mass minus the column mass on one
    side of it, which is 0. The bridges thus carry no flow anywhere on the
    larger face's affine hull and no null vector uses them, so the larger
    face has the same stationary point, reduced Hessian and value as the
    smaller one.

    Each group is (indices, pinv, null): the supports' flat indices (F, s)
    into the row-major plan, the pseudo-inverses (F, s, n + m) of their
    blocks and orthonormal bases (F, s, s - n - m + 1) of the blocks' null
    spaces.
    """
    nm, rank = n * m, n + m - 1
    cells = ((np.arange(1, 2 ** nm)[:, None] >> np.arange(nm)) & 1).astype(bool)
    grid = cells.reshape(-1, n, m)
    cells = cells[grid.any(axis=2).all(axis=1) & grid.any(axis=1).all(axis=1)]
    block = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    sizes = cells.sum(axis=1)
    groups = []
    for s in range(rank, nm + 1):
        idx = np.nonzero(cells[sizes == s])[1].reshape(-1, s)
        u, sv, vt = np.linalg.svd(block[:, idx].transpose(1, 0, 2))
        full = (sv > 1e-9).sum(axis=1) == rank
        left, right = u[full, :, :rank], vt[full, :rank].transpose(0, 2, 1)
        pinv = (right / sv[full, None, :rank]) @ left.transpose(0, 2, 1)
        groups.append((idx[full].astype(np.uint8), pinv, vt[full, rank:].transpose(0, 2, 1)))
    return groups


def gw_distance_exact_small(a, b, mu_a, mu_b):
    """Global minimum of the squared 2-order GW objective on a tiny instance.

    A global minimum is a stationary point of the smallest face that holds
    it, where the face's reduced Hessian is positive semidefinite; if that
    Hessian is singular, the objective is constant along a flat direction
    that leads to a smaller face at the same value. So the minimum is the
    least objective among the feasible stationary points of the faces with
    a positive definite reduced Hessian, the vertices included. Meant as a
    test oracle; requires n·m <= 16, symmetric inputs and measures checked
    as in gw._as_space.
    """
    a, mu_a = _as_space((a, mu_a))
    b, mu_b = _as_space((b, mu_b))
    n, m = a.shape[0], b.shape[0]
    if n * m > 16:
        raise DomainError("instance too large for exact search (n*m = %d > 16)" % (n * m))
    if float(np.abs(a - a.T).max(initial=0.0)) > 1e-9 or float(np.abs(b - b.T).max(initial=0.0)) > 1e-9:
        raise DomainError("inputs must be symmetric")

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
