"""Smoothness-regularized barycenter estimation (curvature penalty on the values)."""

from __future__ import annotations

import enum
from typing import Optional, Sequence

import numpy as np

from .barycenter import _alternate, _average_pushforward, barycenter_update
from .core import (DomainError, NumericError, ObservedGraph, SolverConfig, StepFunction,
                   _check_alpha)


class SmoothedSolveMode(enum.Enum):
    """How the regularized update equation is solved.

    Both modes diagonalise the filter in the measure's metric once and
    apply one elementwise response to the averaged pushforward in that
    basis. PAPER_CLOSED_FORM is the paper's complex-shift factorization; it
    is exact when the filter, the measure, and the averaged pushforward
    share an eigenbasis, and its gap to the exact solution vanishes
    linearly as alpha shrinks. At larger weights on generic inputs the two
    modes genuinely differ: the factorization then acts as its own
    smoothing of the pushforward rather than solving the update equation.
    EXACT_ITERATIVE solves the update equation itself and serves as the
    reference.
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


def _spectral_solve(b, x, mu_w, alpha, response):
    """D^-½·U·[C ⊙ response(t)]·Uᵀ·D^-½ for the eigenbasis of the filter.

    G = D^-½·X·D^-½ = U·diag(λ)·Uᵀ with D = diag(mu_w), C = Uᵀ·D^-½·B·D^-½·U
    and t = √(2·alpha)·λ. X·1 = 0, so √mu spans G's null space; it is split
    off exactly as the first column of U, because a λ₀ left at rounding
    level would break the large-alpha limits. The root is taken as
    √2·√alpha so that 2·alpha cannot overflow. Only the response may
    overflow, to the infinite denominators of its vanishing entries; any
    other overflow, as for a solution past the largest float, is a
    NumericError.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            s = 1.0 / np.sqrt(mu_w)
            q = np.linalg.qr(np.sqrt(mu_w)[:, None], mode="complete")[0]
            rest = q[:, 1:]
            lam, v = np.linalg.eigh(rest.T @ (s[:, None] * x * s) @ rest)
            u = np.hstack([q[:, :1], rest @ v])
            t = np.sqrt(2.0) * np.sqrt(alpha) * np.concatenate(([0.0], lam))
            c = u.T @ (s[:, None] * b * s) @ u
            with np.errstate(over="ignore"):
                f = c * response(t)
            m = s[:, None] * u
            return m @ f @ m.T
    except FloatingPointError as exc:
        raise NumericError("smoothing solve overflows: %s" % exc) from exc


def _solve_closed_form(b, x, mu_w, alpha):
    """The paper's complex-shift factorization of the update equation.

    H = √(2·alpha)·X + i·D factors as D^½·(√(2·alpha)·G + i·I)·D^½, so
    W = Re(H⁻¹·B·H⁻ᴴ) = Re(M·C·Mᴴ) with M = D^-½·U·diag(1/(t + i)). H·W·Hᴴ
    is the left side of the update equation plus an imaginary commutator
    term, so W is exact whenever X, D and B share an eigenbasis; on other
    inputs the gap grows linearly with alpha. At alpha = 0 it is the plain
    division by the measure outer product, and as alpha grows it tends to
    the constant ΣB/(Σmu)².
    """
    return _spectral_solve(b, x, mu_w, alpha,
                           lambda t: np.real(np.outer(1.0 / (t + 1j), 1.0 / (t - 1j))))


def _solve_iterative(b, x, mu_w, alpha):
    """The exact solution of 2·alpha·X·W·X + D·W·D = B by diagonalisation.

    In the eigenbasis of G the equation is diagonal: each entry of C is
    divided by 1 + tᵢ·tⱼ (the symmetric case of Bartels and Stewart, CACM
    1972). As alpha grows, W tends to the D-weighted projection of B onto
    {1·aᵀ + a·1ᵀ}, the kernel of W -> X·W·X, whose modes the penalty leaves
    alone.
    """
    return _spectral_solve(b, x, mu_w, alpha, lambda t: 1.0 / (1.0 + np.outer(t, t)))


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
    _check_alpha(alpha, DomainError)
    if alpha == 0.0:
        return barycenter_update(graphs, plans, mu_w)
    mu_w, b = _average_pushforward(graphs, plans, mu_w)
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
