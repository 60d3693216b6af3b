"""Smoothness-regularized barycenter estimation (curvature penalty on the values)."""

from __future__ import annotations

import enum
from typing import Optional, Sequence

import numpy as np

from .barycenter import _alternate, _average_pushforward, barycenter_update
from .core import DomainError, NumericError, ObservedGraph, SolverConfig, StepFunction


class SmoothedSolveMode(enum.Enum):
    """How the regularized update equation is solved.

    PAPER_CLOSED_FORM factorizes through a complex shift of the filter; it
    is exact when the filter, the measure, and the averaged pushforward
    share an eigenbasis, and its gap to the exact solution vanishes
    linearly as alpha shrinks. At larger weights on generic inputs the two
    modes genuinely differ: the factorization then acts as its own
    smoothing of the pushforward rather than solving the update equation.
    EXACT_ITERATIVE solves the update equation itself by conjugate
    gradient and serves as the reference.
    """

    PAPER_CLOSED_FORM = "paper_closed_form"
    EXACT_ITERATIVE = "exact_iterative"


def _as_mode(mode):
    if isinstance(mode, SmoothedSolveMode):
        return mode
    try:
        return SmoothedSolveMode(str(mode))
    except ValueError:
        raise DomainError("unknown solve mode %r" % (mode,)) from None


def build_laplacian_filter(k) -> np.ndarray:
    """Second-difference filter on k points with replicated (Neumann) ends.

    Interior rows carry the (-1, 2, -1) stencil; the boundary rows reduce to
    (1, -1) and (-1, 1), so constants are in the null space. The matrix is
    symmetric positive semidefinite.
    """
    k = int(k)
    if k < 2:
        raise DomainError("filter needs k >= 2")
    lap = np.zeros((k, k))
    idx = np.arange(k)
    lap[idx, idx] = 2.0
    lap[0, 0] = 1.0
    lap[-1, -1] = 1.0
    lap[idx[:-1], idx[:-1] + 1] = -1.0
    lap[idx[1:], idx[1:] - 1] = -1.0
    return lap


def _solve_closed_form(b, x, mu_w, alpha):
    """Complex-shift factorization of the update equation (real part taken).

    With H = sqrt(2·alpha)·X + i·diag(mu), the product H·W·conj(H) equals
    the left side of the update equation plus an imaginary commutator term,
    so W = Re(H⁻¹·B·H⁻ᴴ) is exact whenever X, diag(mu) and B share an
    eigenbasis; on other inputs the commutator gap grows linearly with
    alpha. At alpha = 0 the formula collapses to the plain division by the
    measure outer product.
    """
    # 2·alpha overflows above half the largest float, where the root is
    # taken as √2·√alpha instead
    if alpha <= np.finfo(float).max / 2.0:
        root = np.sqrt(2.0 * alpha)
    else:
        root = np.sqrt(2.0) * np.sqrt(alpha)
    h = root * x + 1j * np.diag(mu_w)
    y = np.linalg.solve(h, b)
    w = np.linalg.solve(np.conj(h), y.T).T
    return np.real(w)


def _solve_iterative(b, x, mu_w, alpha):
    """Preconditioned CG on W -> 2·alpha·X·W·X + diag(mu)·W·diag(mu) = B.

    Failure (divergence or hitting the iteration cap) is reported as a
    NumericError, so numpy's own chatter on the way there is silenced.
    """
    scale = np.outer(mu_w, mu_w)
    diag = 2.0 * alpha * np.outer(np.diag(x), np.diag(x)) + scale

    def apply(wm):
        return 2.0 * alpha * (x @ wm @ x) + scale * wm

    tol = 1e-10 * max(float(np.linalg.norm(b)), 1e-30)
    limit = 10 * b.shape[0] ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = b / scale  # unregularized solution as the starting point
        r = b - apply(w)
        z = r / diag
        p = z.copy()
        rz = float(np.vdot(r, z))
        for _ in range(limit):
            res = float(np.linalg.norm(r))
            if not np.isfinite(res):
                raise NumericError("conjugate gradient diverged (non-finite residual)")
            if res <= tol:
                break
            ap = apply(p)
            step = rz / float(np.vdot(p, ap))
            w = w + step * p
            r = r - step * ap
            z = r / diag
            rz_next = float(np.vdot(r, z))
            p = z + (rz_next / rz) * p
            rz = rz_next
        else:
            # NaN must fail this comparison, hence the negated form
            if not (float(np.linalg.norm(r)) <= tol):
                raise NumericError("conjugate gradient failed to converge within %d iterations" % limit)
    return w


def smoothed_barycenter_update(graphs, plans, mu_w, alpha,
                               mode=SmoothedSolveMode.PAPER_CLOSED_FORM) -> np.ndarray:
    """Barycenter values under a curvature penalty of weight alpha.

    Solves 2·alpha·(LᵀL)·W·(LᵀL) + diag(mu_w)·W·diag(mu_w) = B for the
    averaged pushforward B, with L the second-difference filter, then
    symmetrizes and clamps. With alpha = 0 this is exactly the plain
    barycenter update, whichever mode is requested.
    """
    mode = _as_mode(mode)
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError("alpha must be nonnegative")
    mu_w = np.asarray(mu_w, dtype=float).ravel()
    if np.any(mu_w <= 0.0):
        raise DomainError("mu_w entries must be strictly positive")
    if alpha == 0.0:
        return barycenter_update(graphs, plans, mu_w)
    b = _average_pushforward(graphs, plans)
    k = mu_w.size
    if k >= 2:
        lap = build_laplacian_filter(k)
        x = lap.T @ lap
    else:
        x = np.zeros((1, 1))
    solver = _solve_closed_form if mode is SmoothedSolveMode.PAPER_CLOSED_FORM else _solve_iterative
    w = solver(b, x, mu_w, alpha)
    w = 0.5 * (w + w.T)
    return np.clip(w, 0.0, 1.0)


def estimate_sgwb(graphs: Sequence[ObservedGraph], cfg: Optional[SolverConfig] = None,
                  k=None, mode=SmoothedSolveMode.PAPER_CLOSED_FORM) -> StepFunction:
    """As estimate_gwb, with the smoothness-regularized update (weight cfg.alpha).

    With cfg.alpha = 0 the output matches estimate_gwb bit for bit given
    equal seeds.
    """
    if cfg is None:
        cfg = SolverConfig()
    mode = _as_mode(mode)

    def update(graphs_, plans_, mu_w_):
        return smoothed_barycenter_update(graphs_, plans_, mu_w_, cfg.alpha, mode)

    return _alternate([(graphs, cfg.seed)], cfg, k, update)[0]
