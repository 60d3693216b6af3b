"""Gromov-Wasserstein transport machinery.

Cost offsets, the proximal-point solver for the squared 2-order GW distance
with its restart anchors and descent polish, the objective every plan is
scored by, and plain entropic optimal transport. The brute-force oracle
for tiny instances lives in oracle.py, which builds on this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .core import (DomainError, NumericError, ObservedGraph, SolverConfig,
                   StepFunction, TransportPlan, ValidationError)

KERNEL_FLOOR = 1e-300
# column-marginal residual at which the proximal steps and entropic_ot stop scaling
SCALING_TOL = 1e-9
# kernel bytes of one cache-resident slice of a scaling stack: 3/4 of a 2 MiB L2
SLICE_BYTES = 3 << 19
# Sinkhorn pairs before a scaling turns to Newton steps
SINKHORN_WARMUP = 32
# Newton steps before an unconverged group falls back to Sinkhorn
NEWTON_ITERS = 100
# step halvings tried by one Newton line search
ARMIJO_TRIALS = 30

SpaceLike = Union[ObservedGraph, StepFunction, Tuple]


@dataclass(frozen=True)
class GwResult:
    """A transport plan and the quadratic objective value it attains."""

    plan: TransportPlan
    distance_sq: float

    def __post_init__(self):
        d = float(self.distance_sq)
        if not np.isfinite(d) or d < 0.0:
            raise ValidationError("distance_sq must be finite and nonnegative, got %r" % d)
        object.__setattr__(self, "distance_sq", d)


def _as_space(obj):
    """Matrix-plus-measure view of a graph, step function, or (matrix, measure) pair."""
    if isinstance(obj, ObservedGraph):
        return obj.adjacency, obj.measure
    if isinstance(obj, StepFunction):
        return obj.values, obj.measure
    try:
        matrix, measure = obj
    except Exception as exc:
        raise DomainError("expected ObservedGraph, StepFunction, or (matrix, measure) pair") from exc
    if not sp.issparse(matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise DomainError("matrix must be 2-dimensional")
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError("matrix must be square, got shape %s" % (matrix.shape,))
    measure = np.asarray(measure, dtype=float).ravel()
    if measure.size != matrix.shape[0]:
        raise DomainError("measure length %d does not match matrix size %d"
                          % (measure.size, matrix.shape[0]))
    if np.any(measure <= 0.0):
        raise DomainError("measure entries must be strictly positive")
    return matrix, measure


def _squared(matrix):
    # matrix ⊙ matrix, for dense or sparse input
    return matrix.multiply(matrix) if sp.issparse(matrix) else matrix * matrix


def gw_cost_offset(a, mu_a, w, mu_w):
    """Plan-independent part of the squared-difference transport cost.

    Returns the N x K matrix (a ⊙ a)·mu_a·1ᵀ + 1·(mu_wᵀ·(w ⊙ w)); subtracting
    2·a·T·wᵀ from it gives the full cost matrix at plan T.
    """
    if not sp.issparse(a):
        a = np.asarray(a, dtype=float)
    if not sp.issparse(w):
        w = np.asarray(w, dtype=float)
    mu_a = np.asarray(mu_a, dtype=float).ravel()
    mu_w = np.asarray(mu_w, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != a.shape[1] or w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise DomainError("cost offset needs square matrices")
    if mu_a.size != a.shape[0] or mu_w.size != w.shape[0]:
        raise DomainError("measure lengths do not match matrix sizes")
    return (_squared(a) @ mu_a)[:, None] + (_squared(w).T @ mu_w)[None, :]


def _slices(kernels, *stacks):
    """The kernels, their transposes and each of stacks cut into the same
    runs of consecutive kernels: near-equal runs of at most SLICE_BYTES of
    kernels, and at least one kernel each."""
    count = len(kernels)
    parts = -(-count // max(SLICE_BYTES // kernels[0].nbytes, 1))
    bounds = [count * i // parts for i in range(parts + 1)]
    return [(kernels[lo:hi], kernels[lo:hi].transpose(0, 2, 1)) + tuple(s[lo:hi] for s in stacks)
            for lo, hi in zip(bounds, bounds[1:])]


def _scale(kernels, mu_rows, mu_cols, max_iters, tol, groups=1):
    """Scale a batch of positive kernels onto their marginals.

    kernels has shape (S, N, K), mu_rows (S, N) and mu_cols (S, K): each
    kernel has its own row and column marginal. The stack is split into
    `groups` equal runs of consecutive kernels, and a group stops as soon
    as all its column residuals are within tol, so every group gets the
    plans it would get alone, bit for bit. Row sums are exact to float
    precision. A single kernel is passed as kernel[None] with its marginals
    as mu[None], and its plan read back as [0].

    With more than SINKHORN_WARMUP pairs allowed, the stack runs
    SINKHORN_WARMUP Sinkhorn pairs (_sinkhorn) and then semi-dual Newton
    steps (_newton) on the groups still above tol. A group that Newton
    gives up on, at the latest after NEWTON_ITERS steps, goes on with
    Sinkhorn from its current plan for the rest of the max_iters pairs.
    With at most SINKHORN_WARMUP pairs allowed it runs Sinkhorn alone.
    """
    max_iters = max(int(max_iters), 1)
    if max_iters <= SINKHORN_WARMUP:
        return _sinkhorn(kernels, mu_rows, mu_cols, max_iters, tol, groups)
    plans = _sinkhorn(kernels, mu_rows, mu_cols, SINKHORN_WARMUP, tol, groups)
    mu_rows = np.asarray(mu_rows, dtype=float)
    mu_cols = np.asarray(mu_cols, dtype=float)
    size = kernels.shape[0] // groups
    res = np.abs(plans.sum(axis=1) - mu_cols).reshape(groups, -1).max(axis=1)
    todo = np.repeat(res > tol, size)
    if not todo.any():
        return plans
    mu_rows, mu_cols = mu_rows[todo], mu_cols[todo]
    tail, failed = _newton(plans[todo], mu_rows, mu_cols, tol, size)
    if failed.any():
        # go on from the current plan: kernel P/mu with row scaling mu is P
        restart = np.maximum(tail[failed] / mu_rows[failed][:, :, None], KERNEL_FLOOR)
        tail[failed] = _sinkhorn(restart, mu_rows[failed], mu_cols[failed],
                                 max_iters - SINKHORN_WARMUP, tol, int(failed.sum()) // size)
    plans[todo] = tail
    return plans


def _newton(plans, mu_rows, mu_cols, tol, size):
    """Damped Newton on the column log-potentials of the entropic semi-dual.

    plans (S, N, K) have rows on mu_rows; each step takes a direction d of
    the potentials, absorbs it into the plan as P·diag(exp(t·d)) and puts
    the rows back onto mu_rows, so the row potentials are eliminated
    exactly and no scaling vector can under- or overflow. The Hessian
    diag(colsum P) - Pᵀ·diag(1/mu)·P has the null direction 1, fixed by
    adding mean(colsum)·11ᵀ and a ridge. The step length t starts where
    |t·d| <= 30 and is halved until Armijo holds for the gain
    t·νᵀd - muᵀ·log1p(Q·expm1(t·d)), Q = P/mu, which costs one matvec per
    trial and keeps its precision near the optimum.

    As in _sinkhorn, consecutive runs of `size` kernels form a group that
    is stored once all its column residuals are within tol; its kernels
    that are within tol wait without stepping. A group with a kernel whose
    direction is non-finite or no ascent, or whose line search fails, or
    a group still above tol after NEWTON_ITERS steps, is stored as it
    stands and flagged. Any floating-point fault raises NumericError.
    Returns the plans and the per-kernel flags.
    """
    out = np.empty_like(plans)
    failed = np.zeros(plans.shape[0], dtype=bool)
    live = np.arange(plans.shape[0])
    diag = np.arange(plans.shape[2])
    stuck = np.zeros(plans.shape[0], dtype=bool)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for step in range(NEWTON_ITERS + 1):
                col = plans.sum(axis=1)
                grad = mu_cols - col
                res = np.abs(grad).reshape(-1, size * grad.shape[1]).max(axis=1)
                bad = np.repeat(stuck.reshape(-1, size).any(axis=1), size)
                done = np.repeat(res <= tol, size) & ~bad
                if step == NEWTON_ITERS:
                    bad = ~done
                stop = done | bad
                if stop.any():
                    out[live[stop]] = plans[stop]
                    failed[live[bad]] = True
                    live, plans, col, grad = live[~stop], plans[~stop], col[~stop], grad[~stop]
                    mu_rows, mu_cols = mu_rows[~stop], mu_cols[~stop]
                if live.size == 0:
                    break
                q = plans / mu_rows[:, :, None]
                hess = -(q.transpose(0, 2, 1) @ plans)
                hess[:, diag, diag] += col + 1e-12 * col.max(axis=1, keepdims=True)
                hess += col.mean(axis=1)[:, None, None]
                d = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
                finite = np.all(np.isfinite(d), axis=1)
                d[~finite] = 0.0
                slope = (grad * d).sum(axis=1)
                lin = (mu_cols * d).sum(axis=1)
                # kernels already within tol wait for their group without stepping
                active = np.abs(grad).max(axis=1) > tol
                stuck = active & ~(finite & (slope > 0.0))
                pending = active & ~stuck
                t = np.where(pending, 30.0 / np.maximum(np.abs(d).max(axis=1), 30.0), 0.0)
                for _ in range(ARMIJO_TRIALS):
                    x = (q @ np.expm1(t[:, None] * d)[:, :, None])[:, :, 0]
                    gain = t * lin - (mu_rows * np.log1p(x)).sum(axis=1)
                    pending &= gain < 1e-4 * t * slope
                    if not pending.any():
                        break
                    t[pending] *= 0.5
                stuck |= pending
                t[pending] = 0.0
                plans = plans * np.exp(t[:, None] * d)[:, None, :]
                plans *= (mu_rows / plans.sum(axis=2))[:, :, None]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericError("newton scaling step failed: %s" % exc) from exc
    return out, failed


def _sinkhorn(kernels, mu_rows, mu_cols, max_iters, tol, groups=1):
    """Alternating Sinkhorn scalings of a batch of positive kernels.

    Arguments as in _scale. Runs at most max_iters scaling pairs. Row sums
    are exact because the row scaling runs last. Every 4th pair the column
    residuals are checked: a group whose residuals are all within tol is
    stored and dropped from the scaling, so it stops at the same pair as
    it would alone.

    The stack is cut into slices of at most SLICE_BYTES of kernels, and
    each slice runs all its pairs from one check up to the column products
    of the next check back to back, while its kernels stay in cache; the
    check then reads the column products of the whole stack. A stack
    larger than the cache would otherwise be read from memory twice per
    pair. SLICE_BYTES is 3/4 of a 2 MiB per-core L2, so a slice leaves room
    for its scaling vectors and the rest of the working set. Each kernel
    still goes through the same matrix-vector products and divisions in
    the same order, into buffers allocated once, so the plans do not
    depend on the slicing, bit for bit.
    """
    size = kernels.shape[0] // groups
    plans = np.empty_like(kernels) if groups > 1 else None
    live = np.arange(kernels.shape[0])
    max_iters = max(int(max_iters), 1)
    mu_rows = np.asarray(mu_rows, dtype=float)[:, :, None]
    mu_cols = np.asarray(mu_cols, dtype=float)[:, :, None]
    a, kb = mu_rows.copy(), np.empty_like(mu_rows)
    b, ka = np.empty_like(mu_cols), np.empty_like(mu_cols)
    np.matmul(kernels.transpose(0, 2, 1), a, out=ka)
    slices = _slices(kernels, mu_rows, mu_cols, a, b, ka, kb)
    done_pairs = 0
    while True:
        # pairs up to the next check, whose column products end the run
        stop = min(done_pairs + 4, max_iters)
        for k, k_t, mu_r, mu_c, a_s, b_s, ka_s, kb_s in slices:
            for pair in range(done_pairs, stop):
                np.divide(mu_c, ka_s, out=b_s)
                np.matmul(k, b_s, out=kb_s)
                np.divide(mu_r, kb_s, out=a_s)
                if pair + 1 < max_iters:
                    np.matmul(k_t, a_s, out=ka_s)
        done_pairs = stop
        if done_pairs == max_iters:
            break
        res = np.abs(b * ka - mu_cols)
        if float(res.max()) <= tol:
            break
        if plans is not None:
            done = np.repeat(res.reshape(-1, size * res.shape[1]).max(axis=1) <= tol, size)
            if done.any():
                plans[live[done]] = (a[done] * kernels[done]) * b[done].transpose(0, 2, 1)
                keep = ~done
                live, kernels = live[keep], kernels[keep]
                mu_rows, mu_cols = mu_rows[keep], mu_cols[keep]
                a, b, ka, kb = a[keep], b[keep], ka[keep], kb[keep]
                slices = _slices(kernels, mu_rows, mu_cols, a, b, ka, kb)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericError("sinkhorn scalings diverged (non-finite scaling vector)")
    final = (a * kernels) * b.transpose(0, 2, 1)
    if plans is None:
        return final
    plans[live] = final
    return plans


def _round_feasible(plan, mu_row, mu_col):
    """Round a nearly feasible nonnegative plan onto the marginal polytope.

    Overshooting rows and columns are scaled down, then the missing mass is
    restored by a nonnegative rank-one correction. The output has exact
    marginals up to float precision and differs from the input by at most
    the original residual in L1, so a converged plan passes through intact.
    """
    plan = plan * np.minimum(1.0, mu_row / plan.sum(axis=1))[:, None]
    plan = plan * np.minimum(1.0, mu_col / plan.sum(axis=0))[None, :]
    r_err = np.maximum(mu_row - plan.sum(axis=1), 0.0)
    c_err = np.maximum(mu_col - plan.sum(axis=0), 0.0)
    total = float(r_err.sum())
    if total > 0.0:
        plan = plan + np.outer(r_err, c_err) / total
    return plan


def _marginals(shape, mu_row, mu_col):
    """mu_row and mu_col flattened to float vectors, checked to be strictly
    positive and to match the (rows, columns) shape of a plan."""
    mu_row = np.asarray(mu_row, dtype=float).ravel()
    mu_col = np.asarray(mu_col, dtype=float).ravel()
    if shape != (mu_row.size, mu_col.size):
        raise DomainError("shape %s does not match marginal lengths (%d, %d)"
                          % (shape, mu_row.size, mu_col.size))
    if np.any(mu_row <= 0.0) or np.any(mu_col <= 0.0):
        raise DomainError("marginals must be strictly positive")
    return mu_row, mu_col


def sinkhorn_projection(kernel, mu_row, mu_col, inner_iters):
    """Scale a strictly positive kernel onto the prescribed marginals.

    Runs the shared scaling routine (_scale) to a column residual of
    1e-12: Sinkhorn pairs, then Newton steps after the first
    SINKHORN_WARMUP pairs when inner_iters exceeds SINKHORN_WARMUP.
    inner_iters caps the Sinkhorn pairs, those of a Newton fallback
    included.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 2:
        raise DomainError("kernel must be 2-dimensional")
    if not np.all(np.isfinite(kernel)):
        raise NumericError("kernel contains non-finite entries")
    if kernel.size == 0 or float(kernel.min()) <= 0.0:
        raise DomainError("kernel entries must be strictly positive")
    mu_row, mu_col = _marginals(kernel.shape, mu_row, mu_col)
    if int(inner_iters) < 1:
        raise DomainError("inner_iters must be at least 1")
    plan = _scale(kernel[None], mu_row[None], mu_col[None], int(inner_iters), 1e-12)[0]
    return TransportPlan(plan, mu_row, mu_col)


def _northwest_corner(mu_row, mu_col):
    """The classic greedy coupling: sweep both marginals front to back."""
    n, m = mu_row.size, mu_col.size
    plan = np.zeros((n, m))
    row_left = np.array(mu_row, dtype=float)
    col_left = np.array(mu_col, dtype=float)
    i = j = 0
    while i < n and j < m:
        move = min(row_left[i], col_left[j])
        plan[i, j] = move
        row_left[i] -= move
        col_left[j] -= move
        if row_left[i] <= col_left[j]:
            i += 1
        else:
            j += 1
    return plan


def _restart_anchors(mu_row, mu_col, restarts, seed):
    """Initial plans for the proximal loop: the product coupling first, then
    the mass-sorted monotone and antitone couplings (blended with the product
    coupling so the kernel anchor keeps full support), then seeded random
    anchors, at most restarts plans in all. A sorted coupling equal to the
    one before it is left out and no random anchor takes its slot: on equal
    column masses the stable ascending sort gives the descending order, so
    the antitone coupling is the monotone one. Returns the anchors and the
    unblended sorted couplings, which are exactly feasible."""
    product = np.outer(mu_row, mu_col)
    anchors, raw = [product], []
    if restarts <= 1:
        return anchors, raw
    order_r = np.argsort(-mu_row, kind="stable")
    for ascending in (False, True)[:restarts - 1]:
        order_c = np.argsort(mu_col if ascending else -mu_col, kind="stable")
        nw = _northwest_corner(mu_row[order_r], mu_col[order_c])
        anchor = np.zeros_like(product)
        anchor[np.ix_(order_r, order_c)] = nw
        if raw and np.array_equal(anchor, raw[-1]):
            continue
        raw.append(anchor)
        anchors.append(0.9 * anchor + 0.1 * product)
    rng = np.random.default_rng(seed)
    for _ in range(restarts - 3):
        anchors.append(rng.random(product.shape) + 0.1)
    return anchors, raw


def proximal_gw(a: SpaceLike, w: SpaceLike, cfg: Optional[SolverConfig] = None) -> GwResult:
    """Proximal-point solver for the squared 2-order GW distance.

    The batch of one: proximal_gw_batch([a], [w], cfg)[0]. Starting from the
    product coupling, each of the cfg.sinkhorn_iters proximal steps builds
    the kernel exp(-(cost)/beta) ⊙ T, rescales it onto the marginals to a
    column residual of SCALING_TOL, and rounds the result exactly feasible.
    The rescaling is SINKHORN_WARMUP Sinkhorn pairs and then semi-dual
    Newton steps; a solve that Newton leaves above SCALING_TOL after
    NEWTON_ITERS steps goes on with Sinkhorn, up to 500 pairs in all.
    The cost rows are shifted by their minimum in log space before
    exponentiation and the kernel is floored at 1e-300, so beta as small
    as the default never overflows.

    With cfg.restarts > 1 the loop also runs from the mass-sorted monotone
    and antitone couplings and then seeded random anchors, and keeps the
    best plan; the unblended monotone and antitone couplings themselves
    also compete, since any feasible coupling bounds the minimum from above.
    cfg.restarts is an upper bound: equal starts are solved once, so when
    w's block masses are all equal the antitone coupling, which is then the
    monotone one, is left out and no random anchor is drawn in its place.
    With cfg.polish_iters > 0 every proximal candidate is additionally
    refined by projected gradient descent on the true (unregularized)
    objective, which removes the entropic bias of the fixed point, and
    competes against its unpolished form. Both default off, leaving the
    literal single-start iteration.

    Returns the final plan together with the quadratic objective
    <offset - 2·a·T·wᵀ, T> evaluated at it, floored at zero.
    """
    return proximal_gw_batch([a], [w], cfg)[0]


def proximal_gw_batch(spaces: Sequence[SpaceLike], targets: Sequence[SpaceLike],
                      cfg: Optional[SolverConfig] = None,
                      seeds: Optional[Sequence[int]] = None) -> List[GwResult]:
    """proximal_gw of every space against its own target, in one solve.

    targets holds one target per space. seeds, when given, holds one anchor
    seed per space in place of cfg.seed (the seed only draws the random
    anchors of cfg.restarts >= 4). Each distinct start is solved once, so a
    space against a target with equal block masses has one start fewer than
    cfg.restarts >= 3 asks for. Spaces that share their start count, node
    count and target size share one stack of (space, restart) kernels in
    each proximal step, whichever targets they have. Nothing is padded:
    the scaling costs what the solves need, and each space's restarts leave
    the stack at the check where they would stop scaling alone. Every
    result is therefore bit-identical to proximal_gw of that space and
    target alone, whatever else is in the batch. Cost build, rounding,
    polishing and the choice of the best candidate run per space.
    """
    if cfg is None:
        cfg = SolverConfig()
    sides = [_as_space(space) for space in spaces]
    if not sides:
        raise DomainError("need at least one space to solve")
    targets = list(targets)
    seeds = [cfg.seed] * len(sides) if seeds is None else list(seeds)
    if len(targets) != len(sides) or len(seeds) != len(sides):
        raise DomainError("got %d spaces, %d targets and %d seeds"
                          % (len(sides), len(targets), len(seeds)))
    cols = []
    for target in targets:
        mat_w, mu_w = _as_space(target)
        if sp.issparse(mat_w):
            mat_w = mat_w.toarray()
        cols.append((mat_w, mu_w, np.ascontiguousarray(mat_w.T)))
    inv_beta = 1.0 / cfg.beta
    offsets = [gw_cost_offset(mat_a, mu_a, mat_w, mu_w)
               for (mat_a, mu_a), (mat_w, mu_w, _) in zip(sides, cols)]
    starts = [_restart_anchors(mu_a, mu_w, cfg.restarts, seed)
              for (_, mu_a), (_, mu_w, _), seed in zip(sides, cols, seeds)]
    plans = [np.stack(anchors) for anchors, _ in starts]
    by_shape = {}
    for g, plan in enumerate(plans):
        by_shape.setdefault(plan.shape, []).append(g)
    classes = [(members, shape,
                np.repeat(np.stack([sides[g][1] for g in members]), shape[0], axis=0),
                np.repeat(np.stack([cols[g][1] for g in members]), shape[0], axis=0))
               for shape, members in by_shape.items()]
    for _ in range(cfg.sinkhorn_iters):
        for members, shape, mu_rows, mu_cols in classes:
            kernels = np.empty((len(members),) + shape)
            for g, out in zip(members, kernels):
                logk = (-inv_beta) * _costs(sides[g][0], cols[g][2], offsets[g], plans[g])
                logk -= logk.max(axis=2, keepdims=True)
                np.exp(logk, out=out)
                out *= plans[g]
                np.maximum(out, KERNEL_FLOOR, out=out)
            batch = _scale(kernels.reshape((-1,) + kernels.shape[2:]), mu_rows, mu_cols, 500,
                           SCALING_TOL, groups=len(members)).reshape(kernels.shape)
            for g, runs_g in zip(members, batch):
                plans[g] = np.stack([_round_feasible(q, sides[g][1], cols[g][1])
                                     for q in runs_g])
    return [_best_candidate(mat_a, mu_a, mat_w, mu_w, w_t, offset, p, raw, cfg.polish_iters)
            for (mat_a, mu_a), (mat_w, mu_w, w_t), offset, p, (_, raw)
            in zip(sides, cols, offsets, plans, starts)]


def _best_candidate(mat_a, mu_a, mat_w, mu_w, w_t, offset, plans, raw, polish_iters):
    """The lowest-objective plan among the proximal candidates, their
    polished forms and the raw anchors, as a GwResult."""
    if polish_iters > 0:
        dense_a = mat_a.toarray() if sp.issparse(mat_a) else mat_a
        batch = _descend_plans(plans, dense_a, mat_w, mu_a, mu_w, polish_iters)
        batch = np.maximum(batch, 0.0)
        polished = [_round_feasible(p, mu_a, mu_w) for p in batch]
        # rounding back onto the polytope can cost more than the descent
        # gained, so the unpolished candidates stay in the pool
        plans = np.concatenate([plans, np.stack(polished)])
    if raw:
        plans = np.concatenate([plans, np.stack(raw)])
    vals = _objective(mat_a, w_t, offset, plans)
    if not np.all(np.isfinite(vals)):
        raise NumericError("objective evaluated to a non-finite value")
    pick = int(np.argmin(vals))
    return GwResult(TransportPlan(plans[pick], mu_a, mu_w), max(float(vals[pick]), 0.0))


def _costs(mat_a, w_t, offset, plans):
    """The cost matrix offset - 2·A·T·Wᵀ at each plan T of a stack, with
    w_t = Wᵀ and offset from gw_cost_offset; mat_a may be sparse."""
    return offset[None] - 2.0 * (np.stack([mat_a @ plan for plan in plans]) @ w_t)


def _objective(mat_a, w_t, offset, plans):
    """The quadratic objective <cost at T, T> of each plan T in a stack."""
    return (_costs(mat_a, w_t, offset, plans) * plans).sum(axis=(1, 2))


def _descend_plans(plans, a, b, mu_row, mu_col, iters, stop_tol=1e-13):
    """Batched projected gradient descent with exact line search on the
    quadratic transport objective; a and b must be dense. Stops early once
    no plan in the batch moves by more than stop_tol."""
    step = 1.0 / (4.0 * (np.linalg.norm(a, 2) + np.linalg.norm(b, 2) + 1.0) ** 2)
    for _ in range(int(iters)):
        atb = (a @ plans) @ b.T
        grad = _batch_gradient(plans, a, b, atb)
        target = _project_plans(plans - step * grad, mu_row, mu_col, 10)
        delta = target - plans
        slope = (grad * delta).sum(axis=(1, 2))
        curv = _quadratic_term(delta, a, b)
        safe = np.where(curv > 1e-18, curv, 1.0)
        t = np.where(curv > 1e-18, np.clip(-slope / (2.0 * safe), 0.0, 1.0), 1.0)
        move = t[:, None, None] * delta
        plans = plans + move
        if float(np.abs(move).max()) <= stop_tol:
            break
    return plans


def _batch_gradient(plans, a, b, atb):
    row = plans.sum(axis=2) @ (a * a)
    col = plans.sum(axis=1) @ (b * b)
    return 2.0 * (row[:, :, None] + col[:, None, :]) - 4.0 * atb


def _project_plans(plans, mu_a, mu_b, iters):
    """Batched Dykstra projection onto the transport polytope."""
    n, m = plans.shape[1], plans.shape[2]
    row_t = mu_a[None, :, None]
    col_t = mu_b[None, None, :]
    x = np.array(plans, dtype=float)
    corr = np.zeros_like(x)
    for _ in range(int(iters)):
        x += (row_t - x.sum(axis=2, keepdims=True)) / m
        x += (col_t - x.sum(axis=1, keepdims=True)) / n
        z = x + corr
        np.maximum(z, 0.0, out=x)
        np.subtract(z, x, out=corr)
    x += (row_t - x.sum(axis=2, keepdims=True)) / m
    x += (col_t - x.sum(axis=1, keepdims=True)) / n
    return x


def _quadratic_term(deltas, a, b):
    # homogeneous quadratic part of the objective along a direction
    dr = deltas.sum(axis=2)
    dc = deltas.sum(axis=1)
    adb = (a @ deltas) @ b.T
    term = (dr * (dr @ (a * a))).sum(axis=1)
    term += (dc * (dc @ (b * b))).sum(axis=1)
    term -= 2.0 * (deltas * adb).sum(axis=(1, 2))
    return term


def entropic_ot(cost, mu_row, mu_col, beta) -> TransportPlan:
    """Entropically regularized optimal transport: exp(-cost/beta) scaled onto the marginals.

    Scales until the column residual drops below SCALING_TOL, then rounds
    the plan exactly feasible; raises NumericError if the scalings diverge.
    The scaling turns to Newton steps after SINKHORN_WARMUP Sinkhorn
    pairs; a Newton fallback goes on with Sinkhorn, up to 10000 pairs in
    all.
    """
    if float(beta) <= 0.0:
        raise DomainError("beta must be positive")
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise DomainError("cost must be a nonempty 2-dimensional matrix")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost must be finite")
    mu_row, mu_col = _marginals(cost.shape, mu_row, mu_col)
    logk = cost * (-1.0 / float(beta))
    logk -= logk.max(axis=1, keepdims=True)
    kernel = np.exp(logk)
    np.maximum(kernel, KERNEL_FLOOR, out=kernel)
    plan = _scale(kernel[None], mu_row[None], mu_col[None], 10000, SCALING_TOL)[0]
    plan = _round_feasible(plan, mu_row, mu_col)
    return TransportPlan(plan, mu_row, mu_col)
