"""Deterministic text and image formats: edge lists, TU-style datasets,
step functions, PGM heatmaps, and benchmark result CSVs."""

from __future__ import annotations

import csv
import glob
import os
import re
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .core import (DomainError, ObservedGraph, ParseError, RangeError,
                   StepFunction, ValidationError, _dense)


def _read_text(path):
    """The text of a UTF-8 file, with every line break that text mode
    splits at turned into a newline.

    :raises ParseError: a byte sequence that is not UTF-8, with the line it
        is on.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text (byte 0x%02x)"
                         % (os.path.basename(path), data[exc.start]),
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _text_lines(text):
    """(1-based line number, stripped text) of every non-blank line."""
    return [(lineno, line) for lineno, line in enumerate(map(str.strip, text.split("\n")), start=1)
            if line]


# the edge lines after the header as write_edge_list writes them: two ASCII
# integers of at most 18 digits, which fit int64, separated by blanks, one
# pair a line, with no blank line and nothing around the pair
_EDGE_LINES = re.compile(r"(?:[0-9]{1,18}[ \t]+[0-9]{1,18}(?:\n|\Z))*")


def _edge_from_line(lineno, line, count):
    parts = line.split()
    if len(parts) != 2:
        raise ParseError("expected an edge 'u v'", line=lineno)
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("edge endpoints are not integers", line=lineno) from None
    if not (0 <= u < count and 0 <= v < count):
        raise RangeError("line %d: endpoint outside [0, %d)" % (lineno, count))
    if u == v:
        raise ParseError("self-loops are not allowed", line=lineno)
    return u, v


def _node_count(header, lineno):
    parts = header.split()
    if len(parts) != 2 or parts[0] != "N":
        raise ParseError("expected header 'N <count>'", line=lineno)
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError("node count is not an integer", line=lineno) from None
    if count < 1:
        raise ParseError("node count must be positive", line=lineno)
    return count


def read_edge_list(path) -> ObservedGraph:
    """Read a graph from text: header "N <count>", then one "u v" edge per
    line with 0-based endpoints.

    Blank lines are skipped; duplicate edges and both orientations collapse;
    the node measure is the floored degree measure. A file laid out as
    write_edge_list writes it, the header on line 1 and edge lines of plain
    digits, is parsed and checked in bulk; any other file, and one that
    fails the checks, is read line by line, which finds the first bad edge.

    :raises ParseError: malformed header/edge or a self-loop, with the
        1-based line number.
    :raises RangeError: an endpoint outside [0, count).
    """
    text = _read_text(path)
    head, _, body = text.partition("\n")
    if head.strip() and _EDGE_LINES.fullmatch(body):
        count = _node_count(head, 1)
        edges = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
        if not (np.any(edges >= count) or np.any(edges[:, 0] == edges[:, 1])):
            return ObservedGraph.from_edges(count, edges)
    lines = _text_lines(text)
    if not lines:
        raise ParseError("missing header 'N <count>'", line=1)
    count = _node_count(lines[0][1], lines[0][0])
    return ObservedGraph.from_edges(
        count, [_edge_from_line(lineno, line, count) for lineno, line in lines[1:]])


def write_edge_list(graph: ObservedGraph, path):
    """Write the edge-list text format: "N <count>" then each edge once as
    "u v" with u < v, sorted."""
    # np.nonzero lists the upper triangle's cells in row-major order
    us, vs = np.nonzero(np.triu(_dense(graph), k=1))
    pairs = zip(us.tolist(), vs.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("N %d\n" % graph.node_count)
        for u, v in pairs:
            handle.write("%d %d\n" % (u, v))


def _read_int_lines(path, what):
    values = []
    for lineno, line in _text_lines(_read_text(path)):
        try:
            values.append(int(line))
        except ValueError:
            raise ParseError("%s: %s is not an integer" % (os.path.basename(path), what),
                             line=lineno) from None
    return values


def read_tu_dataset(directory) -> List[Tuple[ObservedGraph, int]]:
    """Load a TU-style dataset directory into (graph, label) pairs.

    Expects <name>_A.txt (comma-separated 1-based global edge pairs),
    <name>_graph_indicator.txt (1-based graph id per node) and
    <name>_graph_labels.txt (one label per graph). The global edge list is
    split into per-graph adjacencies with local 0-based indices; labels are
    remapped to contiguous 0-based integers.

    :raises FileNotFoundError: a required file is missing.
    :raises ParseError: malformed line, cross-graph edge, self-loop, an
        inconsistent indicator, or a label-count mismatch.
    :raises RangeError: a node id outside the indicator's range.
    """
    matches = sorted(glob.glob(os.path.join(directory, "*_A.txt")))
    if not matches:
        raise FileNotFoundError("no *_A.txt edge file under %r" % (directory,))
    edge_path = matches[0]
    prefix = edge_path[: -len("_A.txt")]
    indicator = _read_int_lines(prefix + "_graph_indicator.txt", "graph indicator")
    if not indicator:
        raise ParseError("graph indicator file is empty", line=1)
    graph_count = max(indicator)
    if min(indicator) < 1:
        raise ParseError("graph indicator ids must be 1-based", line=1)
    node_count = len(indicator)

    # global 1-based node id -> (graph index, local 0-based index)
    local_index = np.zeros(node_count, dtype=np.int64)
    sizes = np.zeros(graph_count, dtype=np.int64)
    owner = np.asarray(indicator, dtype=np.int64) - 1
    for node, g in enumerate(owner):
        local_index[node] = sizes[g]
        sizes[g] += 1
    if np.any(sizes == 0):
        raise ParseError("graph indicator skips a graph id (no nodes assigned)", line=1)

    pairs: List[Tuple[int, int]] = []
    for lineno, line in _text_lines(_read_text(edge_path)):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError("expected an edge 'u, v'", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints are not integers", line=lineno) from None
        if not (1 <= u <= node_count and 1 <= v <= node_count):
            raise RangeError("line %d: node id outside [1, %d]" % (lineno, node_count))
        if u == v:
            raise ParseError("self-loops are not allowed", line=lineno)
        gu, gv = owner[u - 1], owner[v - 1]
        if gu != gv:
            raise ParseError("edge joins graphs %d and %d" % (gu + 1, gv + 1), line=lineno)
        pairs.append((u - 1, v - 1))

    labels = _read_int_lines(prefix + "_graph_labels.txt", "graph label")
    if len(labels) != graph_count:
        raise ParseError("expected %d graph labels, found %d" % (graph_count, len(labels)), line=1)
    _, normalized = np.unique(np.asarray(labels), return_inverse=True)

    # each graph's edges in file order, in local indices
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    graph_of = owner[ends[:, 0]]
    per_graph = np.split(local_index[ends[np.argsort(graph_of, kind="stable")]],
                         np.cumsum(np.bincount(graph_of, minlength=graph_count))[:-1])
    return [(ObservedGraph.from_edges(int(sizes[g]), per_graph[g]), int(normalized[g]))
            for g in range(graph_count)]


def write_step_function(w: StepFunction, path):
    """Write the step-function text format: "K <k>", the measure line, then
    K value rows, all at 17 significant digits so reads are bit-faithful."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("K %d\n" % w.partition_count)
        handle.write(" ".join("%.17g" % v for v in w.measure) + "\n")
        for row in w.values:
            handle.write(" ".join("%.17g" % v for v in row) + "\n")


def _parse_float_row(text, expect, lineno):
    parts = text.split()
    if len(parts) != expect:
        raise ValidationError("line %d: expected %d values, found %d"
                              % (lineno, expect, len(parts)))
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError("could not parse a number", line=lineno) from None


def read_step_function(path) -> StepFunction:
    """Read the step-function text format back into a StepFunction.

    :raises ParseError: malformed header or non-numeric value.
    :raises ValidationError: row/column count mismatch, a measure not summing
        to 1 within 1e-9, or any other step-function invariant violation.
    """
    lines = _text_lines(_read_text(path))
    if not lines:
        raise ParseError("empty step-function file", line=1)
    head_no, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "K":
        raise ParseError("expected header 'K <count>'", line=head_no)
    try:
        k = int(parts[1])
    except ValueError:
        raise ParseError("partition count is not an integer", line=head_no) from None
    if k < 1:
        raise ParseError("partition count must be positive", line=head_no)
    if len(lines) != k + 2:
        raise ValidationError("expected %d value rows after the measure, found %d"
                              % (k, len(lines) - 2))
    measure = _parse_float_row(lines[1][1], k, lines[1][0])
    if abs(float(measure.sum()) - 1.0) > 1e-9:
        raise ValidationError("measure must sum to 1 within 1e-9, got %.17g"
                              % float(measure.sum()))
    values = np.stack([_parse_float_row(text, k, lineno) for lineno, text in lines[2:]])
    return StepFunction(values, measure)


def write_heatmap(matrix, path):
    """Write a matrix with entries in [0, 1] as a binary 8-bit grayscale PGM.

    Pixel value is 255 - round(255 * entry) with halves rounding away from
    zero (entry 0.5 -> byte 127), so dense regions render dark.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise DomainError("matrix must be a nonempty 2-dimensional array")
    if not np.all(np.isfinite(mat)):
        raise DomainError("matrix contains non-finite entries")
    if float(mat.min()) < 0.0 or float(mat.max()) > 1.0:
        raise DomainError("matrix entries must lie in [0, 1]")
    pixels = (255.0 - np.floor(255.0 * mat + 0.5)).astype(np.uint8)
    rows, cols = mat.shape
    with open(path, "wb") as handle:
        handle.write(b"P5\n%d %d\n255\n" % (cols, rows))
        handle.write(pixels.tobytes(order="C"))


RESULT_COLUMNS = ("graphon_family", "method", "trial", "M", "N_min", "N_max",
                  "metric_name", "value", "runtime_seconds", "seed")


@dataclass(frozen=True)
class ResultRow:
    """One benchmark measurement; field names mirror the CSV header."""

    graphon_family: str
    method: str
    trial: int
    M: int
    N_min: int
    N_max: int
    metric_name: str
    value: float
    runtime_seconds: float
    seed: int


def _format_field(value):
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _row_record(row):
    return [_format_field(getattr(row, col)) for col in RESULT_COLUMNS]


def _sort_key(row):
    # the formatted value stands in for the float so NaN cannot poison sorting
    return (row.graphon_family, row.method, int(row.trial), int(row.M),
            int(row.N_min), int(row.N_max), row.metric_name, int(row.seed),
            _format_field(row.value))


def write_results_csv(rows, path):
    """Write benchmark rows as CSV: header plus one line per row, sorted by
    every key column so equal inputs always produce byte-identical files."""
    ordered = sorted(rows, key=_sort_key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for row in ordered:
            writer.writerow(_row_record(row))


def append_result_row(row: ResultRow, path):
    """Append one row to a results CSV, writing the header first when the
    file does not exist yet or is empty."""
    fresh = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if fresh:
            writer.writerow(RESULT_COLUMNS)
        writer.writerow(_row_record(row))
