import contextlib
import io
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwgraphon
from gwgraphon.cli import main
from gwgraphon.core import StepFunction
from gwgraphon.fileio import (read_step_function, write_edge_list,
                              write_step_function)
from gwgraphon.graphons import GraphonSpec, discretize_graphon
from gwgraphon.sampling import sample_population


def _last_fields(capsys):
    """key=value fields of the last stdout line, as a dict."""
    line = capsys.readouterr().out.strip().splitlines()[-1]
    return dict(field.partition("=")[::2] for field in line.split())


def _sample_dir(tmp_path, name, seed=1):
    out = str(tmp_path / name)
    code = main(["sample", "--graphon", "xy", "--count", "3",
                 "--nodes", "15:20", "--seed", str(seed), "--out", out])
    assert code == 0
    return out


def test_sample_writes_population_and_manifest(tmp_path, capsys):
    out = _sample_dir(tmp_path, "pop")
    names = sorted(os.listdir(out))
    assert names == ["graph_000.txt", "graph_001.txt", "graph_002.txt",
                     "manifest.csv"]
    manifest = (tmp_path / "pop" / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "filename,nodes,seed"
    assert len(manifest) == 4
    assert _last_fields(capsys)["command"] == "sample"


def test_sample_is_byte_deterministic(tmp_path):
    first = _sample_dir(tmp_path, "a", seed=9)
    second = _sample_dir(tmp_path, "b", seed=9)
    for name in sorted(os.listdir(first)):
        with open(os.path.join(first, name), "rb") as fh:
            left = fh.read()
        with open(os.path.join(second, name), "rb") as fh:
            right = fh.read()
        assert left == right, name


def test_estimate_writes_step_function_and_heatmap(tmp_path, capsys):
    pop = _sample_dir(tmp_path, "pop")
    out = str(tmp_path / "w.txt")
    pgm = str(tmp_path / "w.pgm")
    code = main(["estimate", "--in", pop, "--outer", "2", "--k", "4",
                 "--out", out, "--heatmap", pgm])
    assert code == 0
    w = read_step_function(out)
    assert w.partition_count == 4
    with open(pgm, "rb") as fh:
        assert fh.read(11) == b"P5\n512 512\n"
    fields = _last_fields(capsys)
    assert fields["k"] == "4"
    assert float(fields["objective"]) >= 0.0


def test_estimate_smoothed_exact_mode(tmp_path):
    pop = _sample_dir(tmp_path, "pop")
    out = str(tmp_path / "w.txt")
    code = main(["estimate", "--in", pop, "--method", "sgwb", "--mode", "exact",
                 "--outer", "1", "--k", "3", "--out", out])
    assert code == 0
    assert read_step_function(out).partition_count == 3


def test_estimate_smoothed_at_the_largest_alphas(tmp_path):
    """alpha = 1e308 is finite, so sgwb takes it like any other weight in
    either mode; 2·alpha overflows there, and the estimate must still come
    out."""
    pop = _sample_dir(tmp_path, "pop")
    for mode in ("paper", "exact"):
        for alpha in ("1e6", "1e300", "1e308"):
            out = str(tmp_path / ("w%s%s.txt" % (mode, alpha)))
            code = main(["estimate", "--in", pop, "--method", "sgwb", "--alpha=" + alpha,
                         "--mode", mode, "--outer", "1", "--k", "3", "--out", out])
            assert code == 0
            assert np.all(np.isfinite(read_step_function(out).values))


def test_eval_mse_and_csv_append(tmp_path, capsys):
    pop = _sample_dir(tmp_path, "pop")
    est = str(tmp_path / "w.txt")
    assert main(["estimate", "--in", pop, "--outer", "1", "--k", "3",
                 "--out", est]) == 0
    capsys.readouterr()
    csv_path = str(tmp_path / "scores.csv")
    for _ in range(2):
        code = main(["eval", "--estimate", est, "--truth", "xy",
                     "--metric", "mse", "--resolution", "200",
                     "--csv", csv_path])
        assert code == 0
        value = float(_last_fields(capsys)["value"])
        assert 0.0 <= value <= 1.0
    lines = (tmp_path / "scores.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("graphon_family,")
    assert lines[1] == lines[2]


def test_eval_gw_metric(tmp_path, capsys):
    est = str(tmp_path / "w.txt")
    grid = discretize_graphon(GraphonSpec("xy"), 12)
    write_step_function(StepFunction(grid, np.full(12, 1 / 12)), est)
    code = main(["eval", "--estimate", est, "--truth", "xy", "--metric", "gw",
                 "--resolution", "300"])
    assert code == 0
    assert float(_last_fields(capsys)["value"]) <= 0.05


def test_eval_grid_truth(tmp_path, capsys):
    est = str(tmp_path / "w.txt")
    write_step_function(StepFunction(np.full((2, 2), 0.5), [0.5, 0.5]), est)
    grid_path = str(tmp_path / "grid.txt")
    np.savetxt(grid_path, np.full((2, 2), 0.5))
    code = main(["eval", "--estimate", est, "--truth", "grid:" + grid_path,
                 "--metric", "mse", "--resolution", "50"])
    assert code == 0
    assert float(_last_fields(capsys)["value"]) == 0.0


@pytest.mark.parametrize("text", ["", "\n \n", "# no data\n"], ids=["empty", "blank", "comment"])
def test_eval_empty_grid_is_a_parse_error(tmp_path, capsys, text):
    """A grid file without data lines exits 1 with one error line and no
    numpy warning."""
    est = str(tmp_path / "w.txt")
    write_step_function(StepFunction(np.full((2, 2), 0.5), [0.5, 0.5]), est)
    grid_path = tmp_path / "grid.txt"
    grid_path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--estimate", est, "--truth", "grid:%s" % grid_path,
                     "--metric", "mse"])
    assert code == 1
    assert capsys.readouterr().err == "error: grid file %r has no data\n" % str(grid_path)


def _mixed_population_dir(tmp_path):
    pop = tmp_path / "mixed"
    pop.mkdir()
    left = sample_population(GraphonSpec("blocks"), 3, [25, 30], seed=3)
    right = sample_population(GraphonSpec("bipartite"), 3, [25, 30], seed=4)
    for i, g in enumerate(list(left) + list(right)):
        write_edge_list(g, pop / ("graph_%03d.txt" % i))
    (tmp_path / "labels.txt").write_text("0\n0\n0\n1\n1\n1\n")
    return str(pop), str(tmp_path / "labels.txt")


def test_cluster_outputs_and_accuracy(tmp_path, capsys):
    pop, labels = _mixed_population_dir(tmp_path)
    out = str(tmp_path / "fit")
    code = main(["cluster", "--in", pop, "--clusters", "2", "--rounds", "2",
                 "--labels", labels, "--out", out])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["assignment.csv", "component_00.txt", "component_01.txt",
                     "predicted_labels.txt"]
    predicted = (tmp_path / "fit" / "predicted_labels.txt").read_text().split()
    assert len(predicted) == 6
    accuracy = float(_last_fields(capsys)["accuracy"])
    assert 0.0 <= accuracy <= 1.0


def test_cluster_reads_tu_datasets(tmp_path, capsys):
    root = tmp_path / "tiny"
    root.mkdir()
    (root / "tiny_A.txt").write_text("1, 2\n2, 3\n4, 5\n5, 6\n4, 6\n")
    (root / "tiny_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n2\n")
    (root / "tiny_graph_labels.txt").write_text("7\n3\n")
    out = str(tmp_path / "fit")
    code = main(["cluster", "--in", "tu:" + str(root), "--clusters", "1",
                 "--rounds", "1", "--out", out])
    assert code == 0
    # with one cluster only one of the two truth labels can be matched
    assert float(_last_fields(capsys)["accuracy"]) == 0.5
    assert sorted(os.listdir(out)) == ["assignment.csv", "component_00.txt",
                                       "predicted_labels.txt"]


def test_cluster_limit_cuts_file_labels_too(tmp_path, capsys):
    """--limit L keeps the first L lines of a --labels file, as it keeps the
    first L labels of a tu: dataset; a file with fewer labels than the
    limited population is still a usage error."""
    pop = str(tmp_path / "pop")
    assert main(["sample", "--graphon", "xy", "--count", "6", "--nodes", "12",
                 "--seed", "2", "--out", pop]) == 0
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n1\n0\n1\n0\n1\n")
    argv = ["cluster", "--in", pop, "--clusters", "2", "--rounds", "1",
            "--labels", str(labels), "--out", str(tmp_path / "fit")]
    assert main(argv + ["--limit", "4"]) == 0
    fields = _last_fields(capsys)
    assert fields["m"] == "4"
    assert 0.5 <= float(fields["accuracy"]) <= 1.0
    assert len((tmp_path / "fit" / "predicted_labels.txt").read_text().split()) == 4
    labels.write_text("0\n1\n0\n")
    assert main(argv + ["--limit", "4"]) == 2
    assert "got 3 labels for 4 graphs" in capsys.readouterr().err


def test_benchmark_grid_and_determinism(tmp_path, capsys):
    args = ["benchmark", "--families", "xy", "--methods", "usvt,naive",
            "--trials", "3", "--count", "3", "--nodes", "30:40",
            "--resolution", "200", "--seed", "5"]
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    assert main(args + ["--csv", first]) == 0
    out = capsys.readouterr().out
    assert "family=xy method=usvt metric=mse trials=3" in out
    assert main(args + ["--csv", second]) == 0
    with open(first, "rb") as fh:
        left = fh.read()
    with open(second, "rb") as fh:
        right = fh.read()
    assert left == right
    lines = left.decode().splitlines()
    assert len(lines) == 7
    assert all(",error," not in ln for ln in lines)


def test_benchmark_uses_alignment_metric_on_hard_families(tmp_path, capsys):
    csv_path = str(tmp_path / "hard.csv")
    code = main(["benchmark", "--families", "abs_diff", "--methods", "naive",
                 "--trials", "1", "--count", "2", "--nodes", "20:25",
                 "--resolution", "300", "--csv", csv_path])
    assert code == 0
    body = (tmp_path / "hard.csv").read_text().splitlines()[1]
    assert body.split(",")[6] == "gw"


@pytest.mark.parametrize("argv", [
    ["sample", "--graphon", "nope", "--count", "2", "--nodes", "10",
     "--out", "ignored"],
    ["sample", "--graphon", "xy", "--count", "2", "--nodes", "10-20",
     "--out", "ignored"],
    ["sample", "--graphon", "xy", "--count", "0", "--nodes", "10",
     "--out", "ignored"],
    ["benchmark", "--families", "xy", "--methods", "magic", "--csv", "x.csv"],
    ["benchmark", "--families", "xy", "--trials", "0", "--csv", "x.csv"],
    ["sample", "--graphon", "xy", "--count", "2", "--nodes", "2",
     "--out", "ignored"],
    ["sample", "--graphon", "xy", "--count", "2", "--nodes", "10", "--seed", "-1",
     "--out", "ignored"],
    ["eval", "--estimate", "ignored", "--truth", "xy", "--metric", "gw", "--seed", "-1"],
    ["estimate", "--in", "ignored", "--alpha", "nan", "--out", "ignored"],
    ["estimate", "--in", "ignored", "--beta", "inf", "--out", "ignored"],
    ["benchmark", "--families", "xy", "--seed", "-1", "--csv", "x.csv"],
    ["benchmark", "--families", "xy", "--seed", "18446744073709551616", "--csv", "x.csv"],
])
def test_usage_errors_exit_two(capsys, argv):
    assert main(argv) == 2


def test_missing_required_flag_exits_two(capsys):
    assert main(["sample", "--graphon", "xy"]) == 2


def test_runtime_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    assert main(["eval", "--estimate", missing, "--truth", "xy",
                 "--metric", "mse"]) == 1
    assert main(["cluster", "--in", "tu:" + str(tmp_path / "absent"),
                 "--clusters", "1", "--out", str(tmp_path / "o")]) == 1


def test_non_utf8_inputs_exit_one(tmp_path, capsys):
    """A file that starts with a byte that is not UTF-8 ends in an error
    line and exit status 1, not a traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffK 2\n")
    pop = tmp_path / "pop"
    pop.mkdir()
    (pop / "g.txt").write_bytes(b"\xffN 3\n0 1\n")
    capsys.readouterr()
    assert main(["eval", "--estimate", str(bad), "--truth", "xy", "--metric", "mse"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["estimate", "--in", str(pop), "--out", str(tmp_path / "w.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    (tmp_path / "words.txt").write_text("0.1 0.2\n0.2 high\n")
    for grid in (bad, tmp_path / "words.txt"):
        assert main(["sample", "--graphon", "grid:%s" % grid, "--count", "1",
                     "--nodes", "5", "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A population of three xy graphs of 10-20 nodes, a 3-block estimate,
    and a population of two xy and two abs_diff graphs of 6-12 nodes."""
    root = tmp_path_factory.mktemp("cli_property")
    pop = root / "pop"
    pop.mkdir()
    for i, g in enumerate(sample_population(GraphonSpec("xy"), 3, [10, 20], seed=2)):
        write_edge_list(g, pop / ("graph_%03d.txt" % i))
    mixed = root / "mixed"
    mixed.mkdir()
    graphs = (sample_population(GraphonSpec("xy"), 2, [6, 12], seed=3)
              + sample_population(GraphonSpec("abs_diff"), 2, [6, 12], seed=4))
    for i, g in enumerate(graphs):
        write_edge_list(g, mixed / ("graph_%03d.txt" % i))
    est = root / "w.txt"
    write_step_function(StepFunction(np.array([[0.2, 0.4, 0.5], [0.4, 0.6, 0.7],
                                               [0.5, 0.7, 0.9]]), [0.4, 0.35, 0.25]), est)
    return root, str(pop), str(est), str(mixed)


def _mostly(valid, odd):
    """Values of valid three times in four, of odd otherwise."""
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else valid)


_SEEDS = _mostly(st.integers(0, 2 ** 64 - 1),
                 st.one_of(st.integers(-2 ** 65, -1), st.integers(2 ** 64, 2 ** 65)))
_ODD_NUMBERS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-1", "0", "5e-324"]),
                         st.floats(-1.0, 1.0).map(repr))
_COUNTS = _mostly(st.integers(1, 3), st.integers(-2, 0)).map(str)
_NODES = _mostly(st.sampled_from(["3", "12", "3:12"]), st.sampled_from(["-1", "2", "12:3", "x"]))
_RESOLUTIONS = _mostly(st.integers(1, 20), st.integers(-2, 0)).map(str)


@settings(max_examples=50, deadline=None)
@given(data=st.data(),
       command=st.sampled_from(["sample", "estimate", "eval", "cluster", "benchmark"]),
       seed=_SEEDS)
def test_cli_exits_with_a_status_on_generated_options(small_inputs, data, command, seed):
    """Whatever the seed (negative or past 2**64 included) and the numeric
    options (nan, inf and negative included), every command ends in exit
    status 0, 1 or 2 and never raises. cluster draws cluster counts and
    limits past the population size of 4 as well; benchmark runs one
    family with a baseline method on graphs of at most 12 nodes."""
    root, pop, est, mixed = small_inputs
    if command == "sample":
        argv = ["sample", "--graphon", "xy", "--count=" + data.draw(_COUNTS),
                "--nodes=" + data.draw(_NODES), "--out", str(root / "sampled")]
    elif command == "estimate":
        argv = ["estimate", "--in", pop, "--out", str(root / "fit.txt"),
                "--method=" + data.draw(st.sampled_from(["gwb", "sgwb", "usvt", "naive"])),
                "--beta=" + data.draw(_mostly(st.floats(1e-3, 1.0).map(repr), _ODD_NUMBERS)),
                "--alpha=" + data.draw(_mostly(st.floats(0.0, 1.0).map(repr), _ODD_NUMBERS)),
                "--outer=" + data.draw(_COUNTS), "--sinkhorn=" + data.draw(_COUNTS),
                "--k=" + data.draw(_mostly(st.sampled_from(["auto", "2", "3"]),
                                           st.sampled_from(["-1", "1", "25", "x"])))]
    elif command == "cluster":
        argv = ["cluster", "--in", mixed, "--out", str(root / "clusters"),
                "--clusters=" + data.draw(_mostly(st.integers(1, 4), st.integers(-1, 6)).map(str)),
                "--rounds=" + data.draw(_COUNTS)]
        limit = data.draw(st.one_of(st.none(), _mostly(st.integers(1, 4), st.integers(-1, 6))))
        if limit is not None:
            argv.append("--limit=%d" % limit)
    elif command == "benchmark":
        argv = ["benchmark", "--families", "xy",
                "--methods=" + data.draw(st.sampled_from(["usvt", "naive"])),
                "--trials=" + data.draw(_COUNTS), "--count=" + data.draw(_COUNTS),
                "--nodes=" + data.draw(_NODES), "--resolution=" + data.draw(_RESOLUTIONS),
                "--csv", str(root / "bench.csv")]
    else:
        argv = ["eval", "--estimate", est, "--truth", "xy",
                "--metric=" + data.draw(st.sampled_from(["mse", "gw"])),
                "--resolution=" + data.draw(_RESOLUTIONS)]
    argv.append("--seed=%d" % seed)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


_NO_SCIPY = textwrap.dedent("""
    import os
    import sys

    import gwgraphon
    from gwgraphon import cli

    work = sys.argv[1]
    pop, est = os.path.join(work, "pop"), os.path.join(work, "w.txt")
    codes = [cli.main(argv) for argv in (
        ["sample", "--graphon", "xy", "--count", "3", "--nodes", "10:20",
         "--seed", "4", "--out", pop],
        ["estimate", "--in", pop, "--method", "sgwb", "--out", est,
         "--heatmap", os.path.join(work, "w.pgm")],
        ["eval", "--estimate", est, "--truth", "xy", "--metric", "gw", "--resolution", "40"],
        ["eval", "--estimate", est, "--truth", "xy", "--metric", "mse", "--resolution", "40"])]
    assert codes == [0, 0, 0, 0], codes
    loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")
    assert not loaded, loaded
    graph = gwgraphon.read_edge_list(os.path.join(pop, "graph_000.txt"))
    assert graph.adjacency.nnz == 2 * graph.edge_count > 0
    assert gwgraphon.clustering_accuracy([0, 1, 1], [1, 0, 0]) == 1.0
""")


def test_commands_load_no_scipy(tmp_path):
    """Importing the package and running sample, estimate (sgwb, with a
    heatmap) and eval (gw and mse) on 3 graphs of 10-20 nodes loads no
    scipy module, in a fresh process. A graph's scipy CSR view and
    clustering_accuracy still work afterwards; each imports what it needs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwgraphon.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
