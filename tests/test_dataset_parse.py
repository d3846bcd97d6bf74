"""The dataset loader's whole-file parse against its line loops.

`load_dataset` and `read_edge_list` parse each file with one `np.loadtxt`
call and fall back to the per-line loop only to name a bad line.  These
tests pin the two to the same arrays, bit for bit, and check that valid
inputs (the generator's and the benchmark's among them) take the fast path.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lsgnn.graph as graph
import lsgnn.harness as harness
from lsgnn.errors import FormatError, InputError
from lsgnn.graph import build_graph, read_edge_list
from lsgnn.harness import load_dataset, save_dataset

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def write_files(where, features, labels, edges):
    where.mkdir(parents=True, exist_ok=True)
    for name, text in (("features.csv", features), ("labels.txt", labels), ("edges.txt", edges)):
        (where / name).write_bytes(text.encode("utf-8"))


def parse_by_loops(where):
    return (
        harness._read_feature_lines(where / "features.csv"),
        harness._read_label_lines(where / "labels.txt"),
        graph._read_edge_lines(where / "edges.txt"),
    )


def parse(where):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bundle = load_dataset(where)
        return bundle.features, bundle.labels, read_edge_list(where / "edges.txt")


def parse_fast_only(where):
    """`parse`, failing if any file falls back to its line loop."""

    def no_loop(path, *_):
        raise AssertionError(f"{path} fell back to its line loop")

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_read_feature_lines", no_loop)
        m.setattr(harness, "_read_label_lines", no_loop)
        m.setattr(graph, "_read_edge_lines", no_loop)
        return parse(where)


def assert_bitwise(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(features=arrays(np.float64, st.tuples(st.integers(2, 6), st.integers(1, 5)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(features=np.array([[0.0, -0.0, 5e-324], [-2.2250738585072014e-308, 1.7976931348623157e308,
                                                    -1.0000000000000002]]))
def test_format_float_round_trips_through_the_fast_path(features, tmp_path_factory):
    # save_dataset writes each value as format_float(value).
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


# Inputs np.loadtxt reads as a well-formed array of the wrong shape.
REJECTED = {
    "one label line of two ids": (("1.0\n2.0\n", "0 1\n", "0 1\n"), FormatError, "labels.txt:1"),
    "every label line of two ids": (("1.0\n2.0\n", "0 1\n1 0\n", "0 1\n"), FormatError, "labels.txt:1"),
    "every edge line of three ids": (("1.0\n2.0\n", "0\n1\n", "0 1 1\n1 0 0\n"), InputError,
                                     r"edges\.txt:1: expected two node ids"),
    "every edge line of one id": (("1.0\n2.0\n", "0\n1\n", "0\n1\n"), InputError,
                                  r"edges\.txt:1: expected two node ids"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_shapes_the_loops_reject_still_raise(name, tmp_path):
    texts, error, message = REJECTED[name]
    write_files(tmp_path, *texts)
    with pytest.raises(error, match=message):
        parse(tmp_path)


@pytest.mark.parametrize("workload", ["train-wide", "precompute-eval", "synth-study"])
def test_benchmark_inputs_take_the_fast_path_bitwise(workload, tmp_path, monkeypatch):
    # A numpy that parses these files differently fails here, not in the
    # benchmark.
    monkeypatch.syspath_prepend(BENCH_DIR)
    import workloads

    spec = workloads.WORKLOADS[workload].spec
    where = tmp_path / "data"
    workloads.write_fsbm(where, 16 * 10, spec.dim, spec.lambdas, seed=0)
    assert_bitwise(parse_fast_only(where), parse_by_loops(where))
