import builtins
import json
import struct
import tracemalloc

import numpy as np
import pytest

from lsgnn.graph import build_graph

# one line per acceptance criterion, echoed after the run summary so the
# verdicts survive output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def random_edges(n, p, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    i, j = np.nonzero(np.triu(mask, k=1))
    return np.column_stack([i, j])


def traced_peak(fn, *args):
    """`fn(*args)` and the most memory, in bytes, it held at once (its
    result included); arrays made before the call do not count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def path4():
    # 0 - 1 - 2 - 3
    return build_graph(np.array([[0, 1], [1, 2], [2, 3]]), 4)


@pytest.fixture
def triangle():
    return build_graph(np.array([[0, 1], [1, 2], [0, 2]]), 3)


@pytest.fixture
def star5():
    # hub 0 with leaves 1..4
    return build_graph(np.array([[0, i] for i in range(1, 5)]), 5)


@pytest.fixture
def random_graph():
    def make(n=12, p=0.3, seed=0, extra=0):
        edges = random_edges(n, p, seed)
        return build_graph(edges, n + extra), edges

    return make


def split_artifact(raw: bytes) -> tuple[bytes, int, dict, bytes]:
    """An LSPB/LSPM file's magic, version, JSON header and array bytes."""
    version, length = struct.unpack_from("<II", raw, 4)
    return raw[:4], version, json.loads(raw[12:12 + length]), raw[12 + length:]


def join_artifact(magic: bytes, version: int, header: dict, payload: bytes) -> bytes:
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<II", version, len(text)) + text + payload


def edit_header(raw: bytes, edit) -> bytes:
    """The artifact `raw` with `edit(header)` applied to its JSON header."""
    magic, version, header, payload = split_artifact(raw)
    edit(header)
    return join_artifact(magic, version, header, payload)


class _FailingFile:
    """A binary file whose `fail_at`-th write raises, as a full disk would."""

    def __init__(self, fh, fail_at):
        self._fh, self._left = fh, fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._left -= 1
        if self._left == 0:
            raise OSError("disk full")
        return self._fh.write(data)


def fail_artifact_write(monkeypatch, fail_at: int) -> None:
    """Make the `fail_at`-th write of every artifact file opened for writing
    raise.  The artifact writer opens its temporary file with mode "xb"."""
    import lsgnn.propagation as propagation_module

    def opener(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _FailingFile(fh, fail_at) if mode == "xb" else fh

    monkeypatch.setattr(propagation_module, "open", opener, raising=False)
