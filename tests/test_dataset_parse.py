"""The dataset reader's fast paths against its line loop.

`graph._read_table` reads every dataset text file (features.csv and
labels.txt for `load_dataset`, edges.txt for `read_edge_list`).  A float
table in the canonical encoding `_write_table` writes goes to
`graph._read_canonical`, which parses a block of lines at a time with
orjson; any other file goes to one `np.loadtxt` call.  Either falls back to
the line loop, `graph._read_lines`, only to name a bad line.  These tests pin
all three to the same arrays, bit for bit, and to the same accepted tokens;
check that valid inputs (the generator's and the benchmark's among them)
take a fast path, and that the benchmark's features take the canonical one;
check that the canonical reader's memory is the table plus one block; and
check that every malformed file fails naming its path, line and offending
text.
"""

import inspect
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lsgnn.graph as graph
from lsgnn.cli import main
from lsgnn.errors import FormatError
from lsgnn.graph import build_graph, read_edge_list
from lsgnn.harness import load_dataset, save_dataset

from conftest import traced_peak

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def write_files(where, features, labels, edges):
    # surrogateescape turns "\udcff" back into the byte 0xff.
    where.mkdir(parents=True, exist_ok=True)
    for name, text in (("features.csv", features), ("labels.txt", labels), ("edges.txt", edges)):
        (where / name).write_bytes(text.encode("utf-8", "surrogateescape"))


def parse(where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = load_dataset(where)
        return bundle.features, bundle.labels, read_edge_list(where / "edges.txt")


READ_TABLE = graph._read_table


def read_by_loop(*args, **kwargs):
    """The line loop, given the arguments of a `graph._read_table` call."""
    bound = inspect.signature(READ_TABLE).bind(*args, **kwargs)
    bound.apply_defaults()
    return graph._read_lines(*bound.args)


def parse_by_loops(where):
    """`parse` with every file read by the line loop."""
    files = []

    def loop_only(path, *args, **kwargs):
        files.append(path)
        return read_by_loop(path, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(graph, "_read_table", loop_only)
        parsed = parse(where)
    assert len(files) == 4  # features, labels, and edges.txt once per caller
    return parsed


def parse_fast_only(where):
    """`parse`, failing if any file falls back to the line loop."""

    def no_loop(path, *_):
        raise AssertionError(f"{path} fell back to the line loop")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(graph, "_read_lines", no_loop)
        return parse(where)


def assert_bitwise(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 5)),
                       elements=st.floats(-5e153, 5e153)))
@example(features=np.array([[0.0, -0.0, 5e-324], [-2.2250738585072014e-308, 1.3407807929942596e154,
                                                    -1.0000000000000002]]))
def test_format_float_round_trips_through_the_fast_path(features, tmp_path_factory):
    # save_dataset writes each value as format_float(value).  A row's squares
    # must sum to a finite value, so no value exceeds 5e153 in a five-wide
    # row; the example holds the largest float whose square is finite.
    where = tmp_path_factory.mktemp("roundtrip")
    n = features.shape[0]
    save_dataset(where, build_graph(np.array([[0, 1]]), n), features, np.arange(n) % 2)
    loaded = parse_fast_only(where)
    assert_bitwise(loaded[:1], [features])
    assert_bitwise(loaded, parse_by_loops(where))


CASES = {
    "blank lines": ("1.0,2.0\n\n3.0,4.0\n\n", "0\n\n1\n", "\n0 1\n\n"),
    "whitespace-only lines": ("1.0,2.0\n   \n3.0,4.0\n", "0\n \t\n1\n", "0 1\n  \n"),
    "CRLF endings": ("1.0,2.0\r\n3.0,4.0\r\n", "0\r\n1\r\n", "0 1\r\n1 0\r\n"),
    "edge comments": ("1.0,2.0\n3.0,4.0\n", "0\n1\n", "# header\n0 1  # inline\n#\n1 0#x\n"),
    "single row": ("1.5,-2.5,0.0\n", "0\n", "0 0\n"),
    "single column": ("1.0\n2.0\n3.0\n", "0\n1\n1\n", "0 1\n1 2\n"),
    "empty edges.txt": ("1.0,2.0\n3.0,4.0\n", "0\n1\n", ""),
    "comments-only edges.txt": ("1.0,2.0\n3.0,4.0\n", "0\n1\n", "# nothing\n# here\n"),
}


@pytest.mark.parametrize("name", CASES)
def test_fast_path_matches_the_line_loops(name, tmp_path):
    write_files(tmp_path, *CASES[name])
    assert_bitwise(parse(tmp_path), parse_by_loops(tmp_path))


# Inputs np.loadtxt reads as a well-formed array of the wrong width.
REJECTED = {
    "one label line of two ids": (("1.0\n2.0\n", "0 1\n", "0 1\n"), "labels.txt",
                                  "expected 1 value, got 2 in '0 1'"),
    "every label line of two ids": (("1.0\n2.0\n", "0 1\n1 0\n", "0 1\n"), "labels.txt",
                                    "expected 1 value, got 2 in '0 1'"),
    "every edge line of three ids": (("1.0\n2.0\n", "0\n1\n", "0 1 1\n1 0 0\n"), "edges.txt",
                                     "expected 2 values, got 3 in '0 1 1'"),
    "every edge line of one id": (("1.0\n2.0\n", "0\n1\n", "0\n1\n"), "edges.txt",
                                  "expected 2 values, got 1 in '0'"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_shapes_the_loops_reject_still_raise(name, tmp_path):
    texts, file, message = REJECTED[name]
    write_files(tmp_path, *texts)
    with pytest.raises(FormatError, match="^" + re.escape(f"{tmp_path / file}:1: {message}") + "$"):
        parse(tmp_path)


# A valid two-node dataset, and for each kind of fault the text that
# replaces one of its files, with the line and message the loop names.
VALID = {"features.csv": "1.0,2.0\n3.0,4.0\n", "labels.txt": "0\n1\n", "edges.txt": "0 1\n"}
MALFORMED = {
    "bad token": {
        "features.csv": ("1.0,2.0\n3.0,x\n", 2, "value 'x' is not a finite number"),
        "labels.txt": ("0\none\n", 2, "label 'one' is not an integer"),
        "edges.txt": ("0 1\n1 two\n", 2, "node id 'two' is not an integer"),
    },
    "digit grouping": {
        "features.csv": ("1.0,2.0\n1_0.5,4.0\n", 2, "value '1_0.5' is not a finite number"),
        "labels.txt": ("0\n0_1\n", 2, "label '0_1' is not an integer"),
        "edges.txt": ("0 0_1\n", 1, "node id '0_1' is not an integer"),
    },
    "wrong width": {
        "features.csv": ("1.0,2.0\n3.0\n", 2, "expected 2 values, got 1 in '3.0'"),
        "labels.txt": ("0\n1 1\n", 2, "expected 1 value, got 2 in '1 1'"),
        "edges.txt": ("0 1\n1 0 1\n", 2, "expected 2 values, got 3 in '1 0 1'"),
    },
    "out of range or non-finite": {
        "features.csv": ("1.0,2.0\n3.0,-inf\n", 2, "value '-inf' is not a finite number"),
        "labels.txt": ("0\n-1\n", 2, "label outside [0, 9223372036854775808) in '-1'"),
        "edges.txt": ("0 1\n1 2\n", 2, "node id outside [0, 2) in '1 2'"),
    },
    "after blank, CRLF and comment lines": {
        "features.csv": ("1.0,2.0\r\n\r\n  \r\n3.0,4.0e\r\n", 4, "value '4.0e' is not a finite number"),
        "labels.txt": ("0\r\n\r\n \t\r\n1.0\r\n", 4, "label '1.0' is not an integer"),
        "edges.txt": ("# header\r\n\r\n0 1  # inline\r\n1 0x1\r\n", 4, "node id '0x1' is not an integer"),
    },
    "undecodable byte": {
        "features.csv": ("1.0,2.0\n3.0,\udcff\n", 2, "value '\\udcff' is not a finite number"),
        "labels.txt": ("0\n\udcff1\n", 2, "label '\\udcff1' is not an integer"),
        "edges.txt": ("0 1\n1 0\udcff\n", 2, "node id '0\\udcff' is not an integer"),
    },
}


@pytest.mark.parametrize("file", list(VALID))
@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_files_name_path_line_and_text(case, file, tmp_path, capsys):
    text, line, message = MALFORMED[case][file]
    where = tmp_path / "data"
    write_files(where, *(text if name == file else VALID[name] for name in VALID))
    expected = f"{where / file}:{line}: {message}"
    with pytest.raises(FormatError) as info:
        load_dataset(where)
    assert str(info.value) == expected
    assert main(["stats", "--data", str(where), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


@settings(max_examples=300, deadline=None)
@given(token=st.text("0123456789+-.eEinfatyINFATY_x \t\u00a0\u0663\udcff", min_size=1, max_size=8)
       .filter(str.strip))
@example(token="1_0.5")
@example(token="0_1")
@example(token="+1")
@example(token="1e400")
@example(token="\u0663")
@example(token="-0")
@example(token="-0e0")
@example(token="true")
@example(token="[1]")
@example(token="1,")
@example(token="18446744073709551616")
def test_both_paths_accept_the_same_tokens(token, tmp_path_factory):
    # A one-line file: whatever np.loadtxt and its checks accept, and
    # whatever the canonical reader accepts, the loop accepts with the same
    # bits, and it accepts nothing else.
    path = tmp_path_factory.mktemp("token") / "table.txt"
    path.write_bytes(f"{token}\n".encode("utf-8", "surrogateescape"))
    for kind, rules in ((np.float64, {"delimiter": ","}), (np.int64, {"width": 1, "low": 0})):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graph, "_read_lines", lambda *_: None)
            fast = graph._read_table(path, kind, **rules)
        try:
            loop = read_by_loop(path, kind, **rules)
        except FormatError:
            loop = None
        assert (fast is None) == (loop is None), (kind, fast, loop)
        if fast is not None:
            assert_bitwise([fast], [loop])
    canonical = graph._read_canonical(path)
    if canonical is not None:
        assert_bitwise([canonical], [read_by_loop(path, np.float64, delimiter=",")])


def features_by_loadtxt(where):
    """The feature paths `load_dataset` hands to `np.loadtxt`."""
    loadtxt, paths = np.loadtxt, []

    def spy(fh, *args, **kwargs):
        paths.append(fh.name)
        return loadtxt(fh, *args, **kwargs)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "loadtxt", spy)
        parse_fast_only(where)
    return [path for path in paths if path.endswith("features.csv")]


@pytest.mark.parametrize("workload", ["train-wide", "precompute-eval", "synth-study"])
def test_benchmark_inputs_take_the_fast_path_bitwise(workload, tmp_path, monkeypatch):
    # A numpy or orjson that parses these files differently fails here, not
    # in the benchmark.  The features reach neither np.loadtxt nor the loop.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import workloads

    spec = workloads.WORKLOADS[workload].spec
    where = tmp_path / "data"
    workloads.write_fsbm(where, 16 * 10, spec.dim, spec.lambdas, seed=0)
    assert_bitwise(parse_fast_only(where), parse_by_loops(where))
    assert features_by_loadtxt(where) == []


def write_rows(path, rows):
    path.write_bytes("".join(f"{row}\n" for row in rows).encode())
    return path


# Rows of a multi-block file (blocks of 64 bytes, rows of about 20), with
# the last or a later row changed; the canonical reader gives each to
# np.loadtxt, and the result or the error is the loop's.
ROWS = [f"{i}.25,-{i}.5e-3,{i}e+2" for i in range(40)]
DOUBTS = {
    "ragged row": (ROWS[:30] + ["1.5,2.5"] + ROWS[31:], "31: expected 3 values, got 2 in '1.5,2.5'"),
    "wider row in a later block": (ROWS[:35] + ["1.5,2.5,3.5,4.5"] + ROWS[36:],
                                   "36: expected 3 values, got 4 in '1.5,2.5,3.5,4.5'"),
    "non-canonical byte in the last block": (ROWS[:-1] + ["1.5,2.5\x0c,3.5"], None),
    "bad token in the last block": (ROWS[:-1] + ["1.5,2.5,x"], "40: value 'x' is not a finite number"),
    "integer -0 in a later block": (ROWS[:30] + ["1.5,-0,2.5"] + ROWS[31:], None),
    "blank line": (ROWS[:20] + [""] + ROWS[20:], None),
    "trailing comma": (ROWS[:-1] + ["1.5,2.5,3.5,"], "40: expected 3 values, got 4 in '1.5,2.5,3.5,'"),
    "value past the float64 range": (ROWS[:30] + ["1.5,2.5,1e400"] + ROWS[31:],
                                     "31: value '1e400' is not a finite number"),
}


@pytest.mark.parametrize("name", DOUBTS)
def test_canonical_reader_leaves_any_doubt_to_loadtxt(name, tmp_path, monkeypatch):
    rows, error = DOUBTS[name]
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 64)
    path = write_rows(tmp_path / "features.csv", rows)
    assert graph._read_canonical(path) is None
    if error is not None:
        with pytest.raises(FormatError, match="^" + re.escape(f"{path}:{error}") + "$"):
            graph._read_table(path, np.float64, delimiter=",")
    else:
        table = graph._read_table(path, np.float64, delimiter=",")
        assert_bitwise([table], [read_by_loop(path, np.float64, delimiter=",")])


def test_canonical_reader_checks_every_byte_before_it_parses(tmp_path, monkeypatch):
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 64)
    path = write_rows(tmp_path / "features.csv", ROWS[:-1] + ["1.5,2.5\x0c,3.5"])
    monkeypatch.setattr(graph.orjson, "loads", lambda _: pytest.fail("parsed a non-canonical file"))
    assert graph._read_canonical(path) is None


@pytest.mark.parametrize("block_bytes", [1, 64, 1 << 18])
def test_canonical_blocks_join_into_the_whole_table(block_bytes, tmp_path, monkeypatch):
    # Every block boundary, CRLF endings and a last line without its newline.
    rows = [f"{i}.25,-{i}.5e-3, {i}e+2\t" for i in range(40)]
    path = tmp_path / "features.csv"
    path.write_bytes(("\r\n".join(rows)).encode())
    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    assert_bitwise([graph._read_canonical(path)], [read_by_loop(path, np.float64, delimiter=",")])


def test_canonical_reader_holds_the_table_and_one_block(tmp_path):
    # The canonical reader holds the table plus one block of lines and their
    # parse, whatever the file's size: reading the file whole, or
    # concatenating per-block arrays, adds memory that grows with it.
    rng = np.random.default_rng(0)
    text = "".join(",".join(map(graph.format_float, row)) + "\n"
                   for row in rng.normal(size=(3500, 16)).tolist()).encode()
    for copies in (8, 16):  # about 8 and 16 MB
        path = tmp_path / f"features-{copies}.csv"
        path.write_bytes(text * copies)
        assert path.stat().st_size >= 8 << 20
        table, peak = traced_peak(graph._read_canonical, path)
        assert table.shape == (3500 * copies, 16)
        assert peak - table.nbytes < 3 * graph._BLOCK_BYTES + (1 << 20), (copies, peak, table.nbytes)


@pytest.mark.parametrize(
    "features,line,text",
    [("1.0,2.0\n1e308,4.0\n", 2, "'1e308,4.0'"),
     ("1.0,2.0\n1.3407807929942598e154,0.0\n", 2, "'1.3407807929942598e154,0.0'"),
     ("1.0,2.0\n\n3.0,4.0\n1e154,1e154\n", 4, "'1e154,1e154'")],
    ids=["one-value", "first-past-the-boundary", "after-blank-line"],
)
def test_a_row_whose_squares_overflow_names_its_line(features, line, text, tmp_path):
    # Each value is finite, but the row's squared norm is not: the row norms
    # of cosine similarity and row normalization would warn and turn to inf.
    where = tmp_path / "data"
    write_files(where, features, "0\n1\n", "0 1\n")
    expected = f"{where / 'features.csv'}:{line}: the squares of {text} sum past the float64 range"
    with pytest.raises(FormatError) as info:
        parse(where)
    assert str(info.value) == expected


def test_precompute_refuses_an_overflowing_feature_in_a_generated_dataset(tmp_path, capsys):
    where = tmp_path / "data"
    assert main(["gen-fsbm", "--nodes", "40", "--degree", "4", "--out", str(where)]) == 0
    lines = (where / "features.csv").read_text().splitlines(keepends=True)
    assert lines[0].count(",") == 0  # the generator writes one feature column
    lines[6] = "1e200\n"
    (where / "features.csv").write_text("".join(lines))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["precompute", "--data", str(where), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {where / 'features.csv'}:7: the squares of '1e200' "
                   f"sum past the float64 range\n")
