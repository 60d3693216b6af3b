"""Gromov-Wasserstein transport machinery.

Cost offsets, the proximal-point solver for the squared 2-order GW distance
with its restart anchors and descent polish, the objective every plan is
scored by, and plain entropic optimal transport. The exact oracle for
tiny instances lives in oracle.py, which takes only the input checks and
the cost offset from this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (DomainError, NumericError, ObservedGraph, SolverConfig,
                   StepFunction, TransportPlan, ValidationError, _dense)

KERNEL_FLOOR = 1e-300
# column-marginal residual at which the proximal steps and entropic_ot stop scaling
SCALING_TOL = 1e-9
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
    """Dense matrix-plus-measure view of a graph, step function, or checked
    (matrix, measure) pair; a matrix with a toarray() method, such as a
    scipy sparse matrix, is read through it."""
    if isinstance(obj, ObservedGraph):
        return _dense(obj), obj.measure
    if isinstance(obj, StepFunction):
        return obj.values, obj.measure
    try:
        matrix, measure = obj
    except Exception as exc:
        raise DomainError("expected ObservedGraph, StepFunction, or (matrix, measure) pair") from exc
    matrix = _dense(matrix)
    if matrix.ndim != 2:
        raise DomainError("matrix must be 2-dimensional")
    if matrix.shape[0] != matrix.shape[1]:
        raise DomainError("matrix must be square, got shape %s" % (matrix.shape,))
    if not np.all(np.isfinite(matrix)):
        raise DomainError("matrix entries must be finite")
    measure = np.asarray(measure, dtype=float).ravel()
    if measure.size != matrix.shape[0]:
        raise DomainError("measure length %d does not match matrix size %d"
                          % (measure.size, matrix.shape[0]))
    if not np.all((measure > 0.0) & np.isfinite(measure)):
        raise DomainError("measure entries must be finite and strictly positive")
    return matrix, measure


def gw_cost_offset(a, mu_a, w, mu_w):
    """Plan-independent part of the squared-difference transport cost.

    Returns the N x K matrix (a ⊙ a)·mu_a·1ᵀ + 1·(mu_wᵀ·(w ⊙ w)); subtracting
    2·a·T·wᵀ from it gives the full cost matrix at plan T. Both sides are
    checked as in _as_space, and an offset that overflows raises NumericError.
    """
    (a, mu_a), (w, mu_w) = _as_space((a, mu_a)), _as_space((w, mu_w))
    with np.errstate(over="ignore"):
        offset = ((a * a) @ mu_a)[:, None] + ((w * w).T @ mu_w)[None, :]
    if not np.all(np.isfinite(offset)):
        raise NumericError("cost offset overflows: matrix entries too large")
    return offset


def _scale(kernels, mu_rows, mu_cols, max_iters, tol):
    """Scale a batch of positive kernels onto their marginals.

    kernels has shape (S, N, K), mu_rows (S, N) and mu_cols (S, K): each
    kernel has its own row and column marginal, and each stops as soon as
    its own column residual is within tol, so every kernel of any stack
    gets the plan and potentials it gets scaled alone, bit for bit. Row
    sums are exact to float precision. A single kernel is passed as
    kernel[None] with its marginals as mu[None], and its plan read back as
    plans[0].

    The stack runs SINKHORN_WARMUP Sinkhorn pairs (_sinkhorn) and then
    semi-dual Newton steps (_newton) on the kernels still above tol. A
    kernel that Newton gives up on, at the latest after NEWTON_ITERS steps,
    goes on with Sinkhorn from its current plan; max_iters caps the pairs
    of the warm-up and that fallback together.

    Returns the plans and, shape (S, K), the log column potentials v of
    each kernel: every plan is diag(r)·kernel·diag(exp(v)) for some row
    scaling r. The proximal steps add v to the next step's log kernel, so
    the next scaling starts where this one ended.
    """
    plans, pots = _sinkhorn(kernels, mu_rows, mu_cols, SINKHORN_WARMUP, tol)
    mu_rows = np.asarray(mu_rows, dtype=float)
    mu_cols = np.asarray(mu_cols, dtype=float)
    todo = np.abs(plans.sum(axis=1) - mu_cols).max(axis=1) > tol
    if not todo.any():
        return plans, pots
    mu_rows, mu_cols = mu_rows[todo], mu_cols[todo]
    tail, steps, failed = _newton(plans[todo], mu_rows, mu_cols, tol)
    if failed.any():
        # go on from the current plan: kernel P/mu with row scaling mu is P
        restart = np.maximum(tail[failed] / mu_rows[failed][:, :, None], KERNEL_FLOOR)
        tail[failed], more = _sinkhorn(restart, mu_rows[failed], mu_cols[failed],
                                       max_iters - SINKHORN_WARMUP, tol)
        steps[failed] += more
    plans[todo] = tail
    pots[todo] += steps
    return plans, pots


def _newton(plans, mu_rows, mu_cols, tol):
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

    A kernel whose column residual is within tol is stored and leaves the
    stack at that step, so no further Hessian is built or solved for it,
    and it gets the plan it gets alone. A kernel whose direction is
    non-finite or no ascent, or whose line search fails, or that is still
    above tol after NEWTON_ITERS steps, is stored as it stands and flagged.
    Any floating-point fault raises NumericError. Returns the plans, the
    sum of the steps t·d of each kernel (its log column potentials
    relative to the input plans) and the per-kernel flags.
    """
    out = np.empty_like(plans)
    pots = np.empty(mu_cols.shape)
    failed = np.zeros(plans.shape[0], dtype=bool)
    live = np.arange(plans.shape[0])
    diag = np.arange(plans.shape[2])
    stuck = np.zeros(plans.shape[0], dtype=bool)
    v = np.zeros(mu_cols.shape)
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for step in range(NEWTON_ITERS + 1):
                col = plans.sum(axis=1)
                grad = mu_cols - col
                done = np.abs(grad).max(axis=1) <= tol
                if step == NEWTON_ITERS:
                    stuck = stuck | ~done
                failed[live[stuck]] = True
                stop = done | stuck
                if stop.any():
                    out[live[stop]] = plans[stop]
                    pots[live[stop]] = v[stop]
                    keep = ~stop
                    live, plans, col, grad = live[keep], plans[keep], col[keep], grad[keep]
                    mu_rows, mu_cols, v = mu_rows[keep], mu_cols[keep], v[keep]
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
                stuck = ~(finite & (slope > 0.0))
                pending = ~stuck
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
                d *= t[:, None]
                v += d
                plans = plans * np.exp(d)[:, None, :]
                plans *= (mu_rows / plans.sum(axis=2))[:, :, None]
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericError("newton scaling step failed: %s" % exc) from exc
    return out, pots, failed


def _sinkhorn(kernels, mu_rows, mu_cols, max_iters, tol):
    """Alternating Sinkhorn scalings of a batch of positive kernels.

    Arguments and return values as in _scale. Runs at most max_iters
    scaling pairs, each half pair one batched matmul and one division over
    the live kernels. Row sums are exact because the row scaling runs
    last. Every 4th pair the column residuals are checked: a kernel whose
    residual is within tol is stored and dropped from the scaling, so it
    stops at the same pair as it would alone, and the loop ends once every
    kernel is done. The log column potentials are the logarithm of the
    final column scaling.
    """
    plans = np.empty_like(kernels)
    pots = np.empty((kernels.shape[0], kernels.shape[2]))
    live = np.arange(kernels.shape[0])
    mu_rows = np.asarray(mu_rows, dtype=float)
    mu_cols = np.asarray(mu_cols, dtype=float)
    a = mu_rows
    for pair in range(max(int(max_iters), 1)):
        ka = (kernels.transpose(0, 2, 1) @ a[:, :, None])[..., 0]
        if pair and pair % 4 == 0:
            done = np.abs(b * ka - mu_cols).max(axis=1) <= tol
            if done.all():
                break
            if done.any():
                plans[live[done]] = (a[done, :, None] * kernels[done]) * b[done, None, :]
                pots[live[done]] = np.log(b[done])
                keep = ~done
                live, kernels = live[keep], kernels[keep]
                mu_rows, mu_cols = mu_rows[keep], mu_cols[keep]
                a, b, ka = a[keep], b[keep], ka[keep]
        b = mu_cols / ka
        a = mu_rows / (kernels @ b[:, :, None])[..., 0]
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericError("sinkhorn scalings diverged (non-finite scaling vector)")
    plans[live] = (a[:, :, None] * kernels) * b[:, None, :]
    pots[live] = np.log(b)
    return plans, pots


def _round_feasible(plans, mu_rows, mu_cols):
    """Round a stack (S, N, K) of nearly feasible nonnegative plans onto
    their marginals mu_rows (S or 1, N) and mu_cols (S or 1, K); a single
    plan is passed as plan[None] with its marginals as mu[None].

    Overshooting rows and columns are scaled down, then the missing mass is
    restored by a nonnegative rank-one correction. Each output has exact
    marginals up to float precision and differs from its input by at most
    the original residual in L1, so a converged plan passes through intact.
    """
    plans = plans * np.minimum(1.0, mu_rows / plans.sum(axis=2))[:, :, None]
    plans *= np.minimum(1.0, mu_cols / plans.sum(axis=1))[:, None, :]
    r_err = np.maximum(mu_rows - plans.sum(axis=2), 0.0)
    c_err = np.maximum(mu_cols - plans.sum(axis=1), 0.0)
    total = r_err.sum(axis=1)
    total[total == 0.0] = 1.0  # nothing missing: the correction is 0
    plans += (r_err[:, :, None] * c_err[:, None, :]) / total[:, None, None]
    return plans


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
    Newton steps; a kernel that Newton leaves above SCALING_TOL after
    NEWTON_ITERS steps goes on with Sinkhorn, up to 500 pairs in all.
    Each start's kernel carries its log column potentials from one
    proximal step to the next: they are added to the log kernel before its
    rows are shifted, so each scaling after the first starts where the
    previous one ended, which near the proximal fixed point is close to
    where it ends.
    The cost rows are shifted by their minimum in log space before
    exponentiation and the kernel is floored at 1e-300, so beta as small
    as the default never overflows; a cost/beta past the largest float
    raises NumericError.

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
    count and target size form a size class, whichever targets they have:
    its dense adjacencies, targets and cost offsets are stacked once per
    call, and its (space, restart) kernels share one stack in each
    proximal step. Nothing is padded: the scaling costs what the solves
    need, and each (space, restart) kernel leaves the stack at the check
    where it would stop scaling alone. Every result is therefore bit-identical
    to proximal_gw of that space and target alone, whatever else is in the
    batch. Each proximal step builds the costs of a whole class in two
    batched products (_costs), and the kernels and their rounding in one
    pass over its stack. Polishing and the choice of the best candidate run
    per space.
    """
    if cfg is None:
        cfg = SolverConfig()
    # a graph's dense adjacency is made only when its size class is stacked
    sides = [(space, space.measure) if isinstance(space, ObservedGraph) else _as_space(space)
             for space in spaces]
    if not sides:
        raise DomainError("need at least one space to solve")
    targets = list(targets)
    seeds = [cfg.seed] * len(sides) if seeds is None else list(seeds)
    if len(targets) != len(sides) or len(seeds) != len(sides):
        raise DomainError("got %d spaces, %d targets and %d seeds"
                          % (len(sides), len(targets), len(seeds)))
    cols = [_as_space(target) for target in targets]
    inv_beta = 1.0 / cfg.beta
    starts = [_restart_anchors(mu_a, mu_w, cfg.restarts, seed)
              for (_, mu_a), (_, mu_w), seed in zip(sides, cols, seeds)]
    by_shape = {}
    for g, (anchors, _) in enumerate(starts):
        by_shape.setdefault((len(anchors),) + anchors[0].shape, []).append(g)
    results = [None] * len(sides)
    for (count, n, k), members in by_shape.items():
        # a class of one views its matrix, so a dense reference is not copied
        if len(members) == 1:
            adj = _dense(sides[members[0]][0])[None]
        else:
            adj = np.stack([_dense(sides[g][0]) for g in members])
        w_t = np.ascontiguousarray(np.stack([cols[g][0] for g in members]).transpose(0, 2, 1))
        offset = np.stack([gw_cost_offset(a, sides[g][1], *cols[g]) for a, g in zip(adj, members)])
        # one (members, S, N, K) stack of plans; each kernel carries its log
        # column potentials from one proximal step to the next, starting at
        # 0, so the first step is cold
        stack = np.stack([starts[g][0] for g in members])
        mu_rows = np.repeat(np.stack([sides[g][1] for g in members]), count, axis=0)
        mu_cols = np.repeat(np.stack([cols[g][1] for g in members]), count, axis=0)
        pots = np.zeros((len(members), count, k))
        for _ in range(cfg.sinkhorn_iters):
            kernels = _log_kernel(_costs(adj, w_t, offset, stack), inv_beta)
            kernels += pots[:, :, None, :]
            kernels -= kernels.max(axis=3, keepdims=True)
            np.exp(kernels, out=kernels)
            kernels *= stack
            np.maximum(kernels, KERNEL_FLOOR, out=kernels)
            batch, steps = _scale(kernels.reshape(-1, n, k), mu_rows, mu_cols, 500, SCALING_TOL)
            pots += steps.reshape(pots.shape)
            stack = _round_feasible(batch, mu_rows, mu_cols).reshape(stack.shape)
        for i, g in enumerate(members):
            results[g] = _best_candidate(adj[i], sides[g][1], cols[g][0], cols[g][1], w_t[i],
                                         offset[i], stack[i], starts[g][1], cfg.polish_iters)
    return results


def _log_kernel(costs, inv_beta):
    """Scale costs by -inv_beta in place, the log kernel before its row
    shift; a product past the largest float raises NumericError."""
    try:
        with np.errstate(over="raise"):
            costs *= -inv_beta
    except FloatingPointError as exc:
        raise NumericError("log kernel overflows: cost/beta passes the largest float") from exc
    return costs


def _best_candidate(mat_a, mu_a, mat_w, mu_w, w_t, offset, plans, raw, polish_iters):
    """The lowest-objective plan among the proximal candidates, their
    polished forms and the raw anchors, as a GwResult."""
    if polish_iters > 0:
        batch = _descend_plans(plans, mat_a, mat_w, mu_a, mu_w, polish_iters)
        batch = np.maximum(batch, 0.0)
        polished = _round_feasible(batch, mu_a[None], mu_w[None])
        # rounding back onto the polytope can cost more than the descent
        # gained, so the unpolished candidates stay in the pool
        plans = np.concatenate([plans, polished])
    if raw:
        plans = np.concatenate([plans, np.stack(raw)])
    vals = _objective(mat_a, w_t, offset, plans)
    if not np.all(np.isfinite(vals)):
        raise NumericError("objective evaluated to a non-finite value")
    pick = int(np.argmin(vals))
    # the reported value is the chosen plan's objective alone: the BLAS can
    # sum a product with all the candidates side by side in another order
    value = float(_objective(mat_a, w_t, offset, plans[pick][None])[0])
    return GwResult(TransportPlan(plans[pick], mu_a, mu_w), max(value, 0.0))


def _costs(adj, w_t, offset, plans):
    """The cost matrices offset - 2·A·T·Wᵀ of a size class at each plan T of
    a stack (m, S, N, K): adj (m, N, N) holds the dense A, w_t (m, K, K) the
    Wᵀ and offset (m, N, K) the gw_cost_offset of each member. One batched
    product multiplies each A by its S plans laid side by side as N x S·K,
    a second applies each Wᵀ to the (S, N, K) result."""
    m, count, n, k = plans.shape
    side = adj @ plans.transpose(0, 2, 1, 3).reshape(m, n, count * k)
    costs = side.reshape(m, n, count, k).transpose(0, 2, 1, 3) @ w_t[:, None]
    costs *= -2.0
    costs += offset[:, None]
    return costs


def _objective(mat_a, w_t, offset, plans):
    """The quadratic objective <cost at T, T> of each plan T in a stack
    (S, N, K), for one dense space."""
    return (_costs(mat_a[None], w_t[None], offset[None], plans[None])[0] * plans).sum(axis=(1, 2))


def _descend_plans(plans, a, b, mu_row, mu_col, iters):
    """Batched projected gradient descent with exact line search on the
    quadratic transport objective; a and b must be dense. Stops early once
    no plan in the batch moves by more than 1e-13."""
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
        if float(np.abs(move).max()) <= 1e-13:
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
    the plan exactly feasible; raises NumericError if cost/beta passes the
    largest float or the scalings diverge.
    The scaling turns to Newton steps after SINKHORN_WARMUP Sinkhorn
    pairs; a Newton fallback goes on with Sinkhorn, up to 10000 pairs in
    all.
    """
    # SolverConfig's domain: below the smallest normal float, cost/beta overflows
    beta = float(beta)
    if not (beta >= np.finfo(float).tiny and np.isfinite(beta)):
        raise DomainError("beta must be finite and at least %.17g" % np.finfo(float).tiny)
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.size == 0:
        raise DomainError("cost must be a nonempty 2-dimensional matrix")
    if not np.all(np.isfinite(cost)):
        raise DomainError("cost must be finite")
    mu_row, mu_col = _marginals(cost.shape, mu_row, mu_col)
    logk = _log_kernel(cost.copy(), 1.0 / beta)
    logk -= logk.max(axis=1, keepdims=True)
    kernel = np.exp(logk)
    np.maximum(kernel, KERNEL_FLOOR, out=kernel)
    plans = _scale(kernel[None], mu_row[None], mu_col[None], 10000, SCALING_TOL)[0]
    return TransportPlan(_round_feasible(plans, mu_row[None], mu_col[None])[0], mu_row, mu_col)
