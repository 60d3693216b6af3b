"""Core domain types: step functions, observed graphs, transport plans, solver settings."""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
MEASURE_SUM_TOL = 1e-12
PLAN_MARGINAL_TOL = 1e-6
DEGREE_FLOOR = 1e-8
# Smallest graph that sampling, the estimators and the CLI accept.
MIN_NODES = 3


class GraphonError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GraphonError, ValueError):
    """An argument lies outside the operation's domain."""


class ValidationError(GraphonError, ValueError):
    """A constructed or parsed object violates a type invariant."""


class ParseError(GraphonError, ValueError):
    """A text input could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class RangeError(GraphonError, ValueError):
    """An index or endpoint is out of range."""


class NumericError(GraphonError, ArithmeticError):
    """A numerical routine failed to produce a usable result."""


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError("%s must be %d-dimensional, got shape %s" % (name, ndim, arr.shape))
    if arr.size == 0:
        raise ValidationError("%s must be nonempty" % name)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("%s contains non-finite entries" % name)
    return arr


def _frozen(arr):
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


def _check_measure(measure, name="measure", tol=MEASURE_SUM_TOL):
    if np.any(measure <= 0.0):
        raise ValidationError("%s entries must be strictly positive" % name)
    total = float(measure.sum())
    if abs(total - 1.0) > tol:
        raise ValidationError("%s must sum to 1, got %.17g" % (name, total))


def _degree_measure(adjacency):
    """Degree-proportional measure of a dense adjacency, with a 1e-8 floor
    so entries stay positive."""
    degrees = np.maximum(np.asarray(adjacency, dtype=float).sum(axis=1), DEGREE_FLOOR)
    return degrees / degrees.sum()


def _dense(matrix):
    """A dense float N x N array of a graph's adjacency, of a matrix with a
    toarray() method, such as any scipy sparse matrix, or of an array-like.

    The one place outside ObservedGraph that reads a graph's edge storage:
    every other module takes its adjacency through here. A graph's array
    is new on every call and costs 8·N² bytes.
    """
    if isinstance(matrix, ObservedGraph):
        n = matrix.node_count
        dense = np.zeros((n, n))
        dense[np.repeat(np.arange(n), np.diff(matrix._indptr)), matrix._indices] = 1.0
        return dense
    if hasattr(matrix, "toarray"):
        matrix = matrix.toarray()
    return np.asarray(matrix, dtype=float)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """A piecewise-constant graphon: K x K symmetric values plus a partition measure.

    :param values: K x K matrix with entries in [0, 1]; values[k][l] is the
        edge probability between blocks k and l.
    :param measure: length-K vector of block masses, strictly positive,
        summing to 1, sorted nonincreasing.
    """

    values: np.ndarray
    measure: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "values", 2)
        measure = _as_float_array(self.measure, "measure", 1)
        if values.shape[0] != values.shape[1]:
            raise ValidationError("values must be square, got shape %s" % (values.shape,))
        if values.shape[0] != measure.size:
            raise ValidationError(
                "values and measure disagree on K (%d vs %d)" % (values.shape[0], measure.size))
        if float(np.abs(values - values.T).max()) > SYMMETRY_TOL:
            raise ValidationError("values must be symmetric")
        if float(values.min()) < 0.0 or float(values.max()) > 1.0:
            raise ValidationError("values must lie in [0, 1]")
        _check_measure(measure)
        if np.any(np.diff(measure) > SYMMETRY_TOL):
            raise ValidationError("measure must be sorted nonincreasing")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "measure", _frozen(measure))

    @property
    def partition_count(self):
        return int(self.measure.size)


@dataclass(frozen=True, eq=False)
class ObservedGraph:
    """An undirected simple graph together with a node probability measure.

    The edges are held in plain numpy as the index arrays of the canonical
    CSR form, both orientations of each edge with the columns of a row
    sorted, in O(E) memory. `adjacency` is a scipy.sparse.csr_array view
    of them, built on first access and kept; it is the only place a graph
    imports scipy.

    :param adjacency: symmetric binary matrix with zero diagonal, a dense
        array or a matrix with a toarray() method such as any scipy sparse
        matrix (duplicate entries of a sparse matrix add up).
    :param measure: length-N strictly positive vector summing to 1
        (conventionally the floored normalized degrees).
    """

    adjacency: InitVar[object]
    measure: np.ndarray

    def __post_init__(self, adjacency):
        dense = _dense(adjacency)
        if dense.ndim != 2:
            raise ValidationError("adjacency must be 2-dimensional")
        if dense.shape[0] != dense.shape[1]:
            raise ValidationError("adjacency must be square, got shape %s" % (dense.shape,))
        if dense.shape[0] == 0:
            raise ValidationError("adjacency must be nonempty")
        if not np.all(np.isfinite(dense)):
            raise ValidationError("adjacency contains non-finite entries")
        if np.any((dense != 0.0) & (dense != 1.0)):
            raise ValidationError("adjacency entries must be 0 or 1")
        if np.any(dense.diagonal() != 0.0):
            raise ValidationError("adjacency diagonal must be zero")
        if np.any(dense != dense.T):
            raise ValidationError("adjacency must be symmetric")
        measure = _as_float_array(self.measure, "measure", 1)
        if measure.size != dense.shape[0]:
            raise ValidationError(
                "measure length %d does not match node count %d" % (measure.size, dense.shape[0]))
        _check_measure(measure)
        # np.nonzero lists the cells row by row, each row's columns ascending:
        # the canonical CSR order. The index type is scipy's own choice, 32
        # bits while the counts fit.
        _, indices = np.nonzero(dense)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(dense, axis=1))])
        index_type = np.int32 if max(indices.size, dense.shape[0]) < 2 ** 31 else np.int64
        for name, arr in (("_indices", indices), ("_indptr", indptr)):
            arr = arr.astype(index_type)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "measure", _frozen(measure))

    def __getattr__(self, name):
        # only reached for attributes the instance lacks: `adjacency` is the
        # constructor's argument, not stored, so its view is made here once
        if name != "adjacency":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        import scipy.sparse as sp
        n = self.node_count
        view = sp.csr_array((np.ones(self._indices.size), self._indices, self._indptr),
                            shape=(n, n))
        object.__setattr__(self, "adjacency", view)
        return view

    @property
    def node_count(self):
        return int(self._indptr.size - 1)

    @property
    def edge_count(self):
        return int(self._indices.size) // 2

    @classmethod
    def from_dense(cls, dense, measure=None):
        """Build from a dense 0/1 matrix; measure defaults to floored degrees."""
        dense = np.asarray(dense, dtype=float)
        if measure is None:
            measure = _degree_measure(dense)
        return cls(dense, measure)

    @classmethod
    def from_edges(cls, node_count, edges, measure=None):
        """Build from an (E, 2) integer array or an iterable of (u, v)
        pairs; both orientations and duplicates collapse to single
        undirected edges.

        :raises ValidationError: an endpoint outside [0, node_count), or
            what the constructor rejects, such as a self-loop.
        """
        n = int(node_count)
        if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "iu"):
            edges = [(int(u), int(v)) for u, v in edges]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and not (edges.min() >= 0 and edges.max() < n):
            raise ValidationError("edge endpoint outside [0, %d)" % n)
        dense = np.zeros((max(n, 0), max(n, 0)))
        dense[edges[:, 0], edges[:, 1]] = 1.0
        dense[edges[:, 1], edges[:, 0]] = 1.0
        if measure is None:
            measure = _degree_measure(dense)
        return cls(dense, measure)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A nonnegative coupling with prescribed row and column marginals.

    Row/column sums must match the marginals within 1e-6.
    """

    coupling: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        coupling = _as_float_array(self.coupling, "coupling", 2)
        row = _as_float_array(self.row_marginal, "row_marginal", 1)
        col = _as_float_array(self.col_marginal, "col_marginal", 1)
        if coupling.shape != (row.size, col.size):
            raise ValidationError(
                "coupling shape %s does not match marginals (%d, %d)"
                % (coupling.shape, row.size, col.size))
        _check_measure(row, "row_marginal", tol=1e-9)
        _check_measure(col, "col_marginal", tol=1e-9)
        if float(coupling.min()) < 0.0:
            raise ValidationError("coupling entries must be nonnegative")
        row_resid = float(np.abs(coupling.sum(axis=1) - row).max())
        if row_resid > PLAN_MARGINAL_TOL:
            raise ValidationError("row marginal residual %.3g exceeds %g" % (row_resid, PLAN_MARGINAL_TOL))
        col_resid = float(np.abs(coupling.sum(axis=0) - col).max())
        if col_resid > PLAN_MARGINAL_TOL:
            raise ValidationError("column marginal residual %.3g exceeds %g" % (col_resid, PLAN_MARGINAL_TOL))
        object.__setattr__(self, "coupling", _frozen(coupling))
        object.__setattr__(self, "row_marginal", _frozen(row))
        object.__setattr__(self, "col_marginal", _frozen(col))

    @property
    def shape(self):
        return self.coupling.shape


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by the transport solver and the estimators.

    :param beta: proximal / entropic weight (must be finite and at least the
        smallest normal float, about 2.2e-308).
    :param outer_iters: alternating rounds of the barycenter estimators.
    :param sinkhorn_iters: proximal steps per transport solve.
    :param alpha: smoothness weight used by the smoothed estimator (must be
        nonnegative and finite).
    :param seed: seed for every randomized initialization.
    :param restarts: upper bound on the initializations tried per
        transport solve; the best objective wins.  Equal starts are solved
        once, so on a target with equal block masses the antitone start,
        which equals the monotone one, is left out.  1 keeps the plain
        product-coupling start.
    :param polish_iters: projected-gradient steps applied to the candidate
        plans after the proximal loop.  0 disables polishing.
    """

    beta: float = 0.005
    outer_iters: int = 5
    sinkhorn_iters: int = 10
    alpha: float = 0.0002
    seed: int = 0
    restarts: int = 1
    polish_iters: int = 0

    def __post_init__(self):
        # below the smallest normal float, cost/beta overflows
        if not (self.beta >= np.finfo(float).tiny and np.isfinite(self.beta)):
            raise ValidationError("beta must be finite and at least %.17g"
                                  % np.finfo(float).tiny)
        if not (self.alpha >= 0.0 and np.isfinite(self.alpha)):
            raise ValidationError("alpha must be nonnegative and finite")
        for name in ("outer_iters", "sinkhorn_iters", "restarts"):
            if int(getattr(self, name)) < 1:
                raise ValidationError("%s must be a positive integer" % name)
        if int(self.polish_iters) < 0:
            raise ValidationError("polish_iters must be nonnegative")
        if not 0 <= int(self.seed) < 2 ** 64:
            raise ValidationError("seed must fit in an unsigned 64-bit integer")
