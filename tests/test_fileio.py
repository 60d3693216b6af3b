import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_graph, random_step_function
from gwgraphon.core import (DomainError, ObservedGraph, ParseError, RangeError,
                            StepFunction, ValidationError)
from gwgraphon.fileio import (ResultRow, append_result_row, read_edge_list,
                              read_step_function, read_tu_dataset,
                              write_edge_list, write_heatmap,
                              write_results_csv, write_step_function)


def test_edge_list_round_trip(rng, tmp_path):
    graph = random_graph(rng, 12, p=0.4)
    path = tmp_path / "g.txt"
    write_edge_list(graph, path)
    back = read_edge_list(path)
    assert back.node_count == graph.node_count
    assert (back.adjacency != graph.adjacency).nnz == 0
    np.testing.assert_allclose(back.measure, graph.measure)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), ends=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                                           max_size=80))
def test_edge_list_round_trip_is_bit_exact(n, ends):
    """Any simple graph, isolated nodes and repeated or reversed edges
    included, reads back with the same adjacency and degree measure."""
    graph = ObservedGraph.from_edges(n, [(u % n, v % n) for u, v in ends if u % n != v % n])
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "g.txt")
        write_edge_list(graph, path)
        back = read_edge_list(path)
    assert back.node_count == graph.node_count
    assert (back.adjacency != graph.adjacency).nnz == 0
    np.testing.assert_array_equal(back.measure, graph.measure)


def test_edge_list_reader_tolerates_blanks_and_duplicates(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("\nN 3\n0 1\n\n1 0\n1 2\n1 2\n")
    graph = read_edge_list(path)
    assert graph.node_count == 3
    assert graph.edge_count == 2


def test_edge_list_reader_errors_carry_line_numbers(tmp_path):
    loop = tmp_path / "loop.txt"
    loop.write_text("N 3\n0 1\n2 2\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(loop)
    assert err.value.line == 3
    assert "line 3" in str(err.value)

    broken = tmp_path / "broken.txt"
    broken.write_text("N 3\n0 1 2\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(broken)
    assert err.value.line == 2

    out = tmp_path / "range.txt"
    out.write_text("N 3\n0 5\n")
    with pytest.raises(RangeError, match="line 2"):
        read_edge_list(out)

    headerless = tmp_path / "empty.txt"
    headerless.write_text("\n\n")
    with pytest.raises(ParseError):
        read_edge_list(headerless)

    badcount = tmp_path / "count.txt"
    badcount.write_text("N zero\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(badcount)
    assert err.value.line == 1


def _same_graph(g, h):
    for x, y in ((g.adjacency.data, h.adjacency.data), (g.adjacency.indices, h.adjacency.indices),
                 (g.adjacency.indptr, h.adjacency.indptr), (g.measure, h.measure)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def test_edge_list_reader_takes_any_whitespace_and_integer_form(tmp_path):
    """Lines the bulk parser does not take (signs, leading zeros past 18
    digits, form feeds) are read line by line into the same graph."""
    plain = tmp_path / "plain.txt"
    plain.write_text("N 4\n0 1\n1\t2\n3 0\n")
    other = tmp_path / "other.txt"
    other.write_text("N 4\n+0 1\n1\x0c2\n%s3 0\n" % ("0" * 20))
    _same_graph(read_edge_list(other), read_edge_list(plain))
    _same_graph(read_edge_list(plain), ObservedGraph.from_edges(4, [(0, 1), (1, 2), (3, 0)]))


def test_edge_list_reader_reports_the_first_bad_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("N 3\n0 1\n1 3\n2 2\n0 1 2\n")
    with pytest.raises(RangeError, match="line 3: endpoint outside"):
        read_edge_list(path)
    path.write_text("N 3\n0 1\n1 1\n0 7\n")
    with pytest.raises(ParseError, match="line 3: self-loops"):
        read_edge_list(path)
    path.write_text("N 3\n0 1\n1 x\n0 7\n")
    with pytest.raises(ParseError, match="line 3: edge endpoints are not integers"):
        read_edge_list(path)


def test_step_function_round_trip_is_bit_faithful(rng, tmp_path):
    w = random_step_function(rng, 7)
    path = tmp_path / "w.txt"
    write_step_function(w, path)
    back = read_step_function(path)
    np.testing.assert_array_equal(back.values, w.values)
    np.testing.assert_array_equal(back.measure, w.measure)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), k=st.integers(1, 8))
def test_step_function_round_trip_is_bit_exact(data, k):
    """Any step function, subnormal values and masses spread over six
    orders of magnitude included, reads back bit for bit."""
    upper = data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    values = np.triu(np.reshape(upper, (k, k)))
    values = values + np.triu(values, 1).T
    masses = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)))
    w = StepFunction(values, np.sort(masses / masses.sum())[::-1])
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "w.txt")
        write_step_function(w, path)
        back = read_step_function(path)
    np.testing.assert_array_equal(back.values, w.values)
    np.testing.assert_array_equal(back.measure, w.measure)


def test_readers_reject_bytes_that_are_not_utf8(tmp_path):
    """Every text reader turns undecodable input into a ParseError that
    names the line of the first bad byte."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"N 3\n0 1\n\xff 2\n")
    with pytest.raises(ParseError) as err:
        read_edge_list(bad)
    assert err.value.line == 3
    bad.write_bytes(b"\xffK 2\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_step_function(bad)
    _write_tu_fixture(tmp_path / "tiny")
    (tmp_path / "tiny" / "tiny_graph_labels.txt").write_bytes(b"7\n\xfe\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_tu_dataset(tmp_path / "tiny")
    _write_tu_fixture(tmp_path / "tiny")
    (tmp_path / "tiny" / "tiny_A.txt").write_bytes(b"1, 2\n\x80\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        read_tu_dataset(tmp_path / "tiny")


def test_step_function_reader_rejects_bad_measure(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("K 2\n0.6 0.6\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ValidationError):
        read_step_function(path)


def test_step_function_reader_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("K 2\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ValidationError):
        read_step_function(path)
    path.write_text("K 2\n0.5 0.5\n0.5 0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ValidationError):
        read_step_function(path)


def test_step_function_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("J 2\n0.5 0.5\n0.5 0.5\n0.5 0.5\n")
    with pytest.raises(ParseError):
        read_step_function(path)
    path.write_text("")
    with pytest.raises(ParseError):
        read_step_function(path)
    path.write_text("K 1\nx\n0.5\n")
    with pytest.raises(ParseError) as err:
        read_step_function(path)
    assert err.value.line == 2


def test_heatmap_bytes(tmp_path):
    path = tmp_path / "w.pgm"
    write_heatmap(np.array([[0.0, 0.5], [1.0, 0.25]]), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert data[len(b"P5\n2 2\n255\n"):] == bytes([255, 127, 0, 191])


def test_heatmap_rectangular_dimensions(tmp_path):
    path = tmp_path / "w.pgm"
    write_heatmap(np.zeros((2, 3)), path)
    assert path.read_bytes().startswith(b"P5\n3 2\n255\n")


def test_heatmap_validation(tmp_path):
    path = tmp_path / "w.pgm"
    with pytest.raises(DomainError):
        write_heatmap(np.array([[1.5]]), path)
    with pytest.raises(DomainError):
        write_heatmap(np.array([[np.nan]]), path)
    with pytest.raises(DomainError):
        write_heatmap(np.zeros((0, 2)), path)


def _rows():
    return [
        ResultRow("xy", "gwb", 1, 10, 200, 200, "mse", 0.01, 1.5, 42),
        ResultRow("xy", "gwb", 0, 10, 200, 200, "mse", 0.02, 1.25, 42),
        ResultRow("abs_diff", "usvt", 0, 10, 100, 300, "gw", 0.27, 0.5, 7),
    ]


def test_results_csv_is_sorted_and_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_results_csv(_rows(), first)
    write_results_csv(list(reversed(_rows())), second)
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == ("graphon_family,method,trial,M,N_min,N_max,"
                        "metric_name,value,runtime_seconds,seed")
    assert lines[1].startswith("abs_diff,usvt,0,")
    assert lines[2].startswith("xy,gwb,0,")
    assert len(lines) == 4


def test_append_writes_header_exactly_once(tmp_path):
    path = tmp_path / "out.csv"
    for row in _rows():
        append_result_row(row, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert sum(1 for ln in lines if ln.startswith("graphon_family")) == 1


def _write_tu_fixture(root, edges_text=None, labels_text="7\n3\n"):
    root.mkdir(exist_ok=True)
    if edges_text is None:
        edges_text = "1, 2\n2, 1\n2, 3\n4, 5\n5, 6\n4, 6\n"
    (root / "tiny_A.txt").write_text(edges_text)
    (root / "tiny_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
    (root / "tiny_graph_labels.txt").write_text(labels_text)


def test_tu_reader_splits_and_remaps(tmp_path):
    _write_tu_fixture(tmp_path / "tiny")
    pairs = read_tu_dataset(tmp_path / "tiny")
    assert len(pairs) == 2
    (g0, l0), (g1, l1) = pairs
    assert g0.node_count == 3 and g0.edge_count == 2
    assert g1.node_count == 3 and g1.edge_count == 3
    # labels 7 and 3 remap to 1 and 0 in sorted order
    assert (l0, l1) == (1, 0)
    _same_graph(g0, ObservedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)]))
    _same_graph(g1, ObservedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))


def test_tu_reader_rejects_cross_graph_edges(tmp_path):
    _write_tu_fixture(tmp_path / "tiny", edges_text="1, 2\n3, 4\n")
    with pytest.raises(ParseError, match="joins graphs"):
        read_tu_dataset(tmp_path / "tiny")


def test_tu_reader_rejects_out_of_range_nodes(tmp_path):
    _write_tu_fixture(tmp_path / "tiny", edges_text="1, 9\n")
    with pytest.raises(RangeError):
        read_tu_dataset(tmp_path / "tiny")


def test_tu_reader_rejects_label_count_mismatch(tmp_path):
    _write_tu_fixture(tmp_path / "tiny", labels_text="7\n")
    with pytest.raises(ParseError):
        read_tu_dataset(tmp_path / "tiny")


def test_tu_reader_requires_edge_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_tu_dataset(tmp_path)
