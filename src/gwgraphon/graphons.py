"""The synthetic graphon families and their evaluation on the unit square."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DomainError, ValidationError, _check_values, _frozen

GRID_FAMILY = "grid"


def _xy(x, y):
    return x * y


def _exp07(x, y):
    return np.exp(-(x ** 0.7 + y ** 0.7))


def _poly(x, y):
    return 0.25 * (x ** 2 + y ** 2 + np.sqrt(x) + np.sqrt(y))


def _mean(x, y):
    return 0.5 * (x + y)


def _sigmoid_sum(x, y):
    return 1.0 / (1.0 + np.exp(-10.0 * (x ** 2 + y ** 2)))


def _sigmoid_max(x, y):
    hi = np.maximum(x, y)
    lo = np.minimum(x, y)
    return 1.0 / (1.0 + np.exp(-(hi ** 2 + lo ** 4)))


def _exp_max(x, y):
    return np.exp(-np.maximum(x, y) ** 0.75)


def _exp_min(x, y):
    return np.exp(-0.5 * (np.minimum(x, y) + np.sqrt(x) + np.sqrt(y)))


def _log_max(x, y):
    return np.log1p(np.maximum(x, y))


def _abs_diff(x, y):
    return np.abs(x - y)


def _one_minus_abs_diff(x, y):
    return 1.0 - np.abs(x - y)


def _blocks(x, y):
    return np.where((x < 0.5) == (y < 0.5), 0.8, 0.0)


def _bipartite(x, y):
    return np.where((x < 0.5) != (y < 0.5), 0.8, 0.0)


_FAMILIES = {
    "xy": _xy,
    "exp07": _exp07,
    "poly": _poly,
    "mean": _mean,
    "sigmoid_sum": _sigmoid_sum,
    "sigmoid_max": _sigmoid_max,
    "exp_max": _exp_max,
    "exp_min": _exp_min,
    "log_max": _log_max,
    "abs_diff": _abs_diff,
    "one_minus_abs_diff": _one_minus_abs_diff,
    "blocks": _blocks,
    "bipartite": _bipartite,
}

FAMILY_NAMES = tuple(_FAMILIES)
EASY_FAMILIES = FAMILY_NAMES[:9]
HARD_FAMILIES = FAMILY_NAMES[9:]


@dataclass(frozen=True, eq=False)
class GraphonSpec:
    """A ground-truth graphon: a named analytic family, or an arbitrary
    symmetric grid of cell values evaluated by nearest cell.

    :param family: one of FAMILY_NAMES, or "grid".
    :param grid: square matrix with entries in [0, 1]; required exactly when
        family is "grid".
    """

    family: str
    grid: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.family == GRID_FAMILY:
            if self.grid is None:
                raise ValidationError("grid graphon requires a matrix")
            object.__setattr__(self, "grid", _frozen(_check_values(self.grid, "grid")))
        else:
            if self.family not in _FAMILIES:
                raise ValidationError(
                    "unknown graphon family %r; known families: %s"
                    % (self.family, ", ".join(FAMILY_NAMES)))
            if self.grid is not None:
                raise ValidationError("grid is only valid with the grid family")

    @classmethod
    def from_grid(cls, matrix):
        return cls(GRID_FAMILY, matrix)


def _evaluate_array(spec, x, y):
    # no domain checks: callers guarantee x, y within [0, 1]
    if spec.family == GRID_FAMILY:
        g = spec.grid
        r = g.shape[0]
        i = np.minimum((np.asarray(x, dtype=float) * r).astype(np.int64), r - 1)
        j = np.minimum((np.asarray(y, dtype=float) * r).astype(np.int64), r - 1)
        return g[i, j]
    return _FAMILIES[spec.family](np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def evaluate_graphon(spec, x, y):
    """Evaluate the graphon at one point of the unit square.

    :raises DomainError: if x or y falls outside [0, 1].
    """
    x = float(x)
    y = float(y)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise DomainError("graphon arguments must lie in [0, 1], got (%g, %g)" % (x, y))
    return float(_evaluate_array(spec, x, y))


def discretize_graphon(spec, resolution):
    """Evaluate on the R x R grid of cell midpoints ((i+0.5)/R, (j+0.5)/R)."""
    r = int(resolution)
    if r < 1:
        raise DomainError("resolution must be at least 1")
    mids = (np.arange(r) + 0.5) / r
    values = _evaluate_array(spec, mids[:, None], mids[None, :])
    return np.ascontiguousarray(np.broadcast_to(values, (r, r)), dtype=float)
