"""Undirected graph container and the spectral filters built from it.

Graphs are stored once in CSR form with sorted column indices, so every
matrix product over them is deterministic: the same entries are visited in
the same order on every run.  The module also holds the one reader and the
one writer of the text tables a dataset and a report are stored in, and
the zero-guarded ratio, row sum of squares and row norm the others share.
"""

from __future__ import annotations

import re
import reprlib
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import orjson
import scipy.sparse as sp

from .errors import FormatError, InputError, Rule

__all__ = [
    "SparseGraph",
    "FilterPair",
    "HomophilyReport",
    "build_graph",
    "sym_norm_adj",
    "enhanced_filters",
    "self_loop_filters",
    "node_homophily",
    "neighborhood_mean",
    "read_edge_list",
    "format_float",
]


@dataclass(eq=False)
class SparseGraph:
    """Simple undirected graph: CSR adjacency pattern plus degree vector.

    Each undirected edge appears as two directed entries.  `loops_dropped`
    and `duplicates_dropped` record how much cleaning `build_graph` did.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    degrees: np.ndarray
    loops_dropped: int = 0
    duplicates_dropped: int = 0

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.col_indices.shape[0]) // 2

    @property
    def num_entries(self) -> int:
        """Number of directed adjacency entries (2 * num_edges)."""
        return int(self.col_indices.shape[0])

    def neighbors(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    def entry_rows(self) -> np.ndarray:
        """Row index of every directed entry, aligned with col_indices."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees)

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (m, 2) array with i < j, sorted."""
        rows = self.entry_rows()
        keep = rows < self.col_indices
        return np.column_stack([rows[keep], self.col_indices[keep]])


@dataclass(eq=False)
class FilterPair:
    """Low- and high-pass filters sharing one sparsity pattern.

    The pair always sums to the identity entrywise, so a model mixing the
    two channels can trade smoothing against sharpening without losing
    information.  `kind` names the builder: "enhanced" (`enhanced_filters`)
    or "self_loop" (`self_loop_filters`).
    """

    low: sp.csr_array
    high: sp.csr_array
    kind: str


@dataclass(eq=False)
class HomophilyReport:
    """Per-node fraction of same-label neighbors plus the graph-level mean.

    Isolated nodes get per-node value 0 and are excluded from the mean.
    """

    per_node: np.ndarray
    graph_level: float


def build_graph(edges: Iterable[Sequence[int]] | np.ndarray, num_nodes: int) -> SparseGraph:
    """Build a simple undirected graph from an iterable of (i, j) pairs.

    Self loops are dropped, duplicate edges (in either orientation) are
    collapsed, and both cleaning counts are recorded on the result.  Node
    ids outside [0, num_nodes) raise InputError.
    """
    if num_nodes <= 0:
        raise InputError(f"num_nodes must be positive, got {num_nodes}")
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError(f"edges must be (m, 2) pairs, got shape {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
        bad = arr[(arr < 0).any(axis=1) | (arr >= num_nodes).any(axis=1)][0]
        raise InputError(f"edge {tuple(bad.tolist())} references a node outside [0, {num_nodes})")

    loops = arr[:, 0] == arr[:, 1]
    loops_dropped = int(loops.sum())
    arr = arr[~loops]

    # The CSR comes from one sort of the keys row * n + col of both
    # orientations: repeats are then adjacent, and the unique keys are the
    # directed entries in (row, col) order, two per undirected edge.
    i, j = arr[:, 0], arr[:, 1]
    keys = np.sort(np.concatenate([i * num_nodes + j, j * num_nodes + i]))
    first = np.ones(keys.shape[0], dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    duplicates_dropped = (first.shape[0] - keys.shape[0]) // 2
    rows = keys // num_nodes
    cols = keys % num_nodes

    degrees = np.bincount(rows, minlength=num_nodes).astype(np.int64)
    row_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degrees, out=row_offsets[1:])
    return SparseGraph(
        num_nodes=num_nodes,
        row_offsets=row_offsets,
        col_indices=cols,
        degrees=degrees,
        loops_dropped=loops_dropped,
        duplicates_dropped=duplicates_dropped,
    )


def _csr(
    n: int, row_offsets: np.ndarray, col_indices: np.ndarray, values: np.ndarray
) -> sp.csr_array:
    """Square CSR array over entries already sorted by (row, col).

    The arrays are used without copying and are never written afterwards.
    """
    return sp.csr_array((values, col_indices, row_offsets), shape=(n, n), copy=False)


def _ratio(num, den) -> np.ndarray:
    """num / den elementwise, and 0 where den is 0: an isolated node or a
    zero feature row reads as no evidence instead of NaN."""
    out = np.zeros(np.broadcast_shapes(np.shape(num), np.shape(den)))
    return np.divide(num, den, out=out, where=den > 0)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, the one such sum in the package, without
    a warning: it is not finite where a value is NaN or infinite or the sum
    overflows."""
    with np.errstate(over="ignore"):
        return (x * x).sum(axis=1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """L2 norm of each row of a 2-D array; inf where `_squared_norms` overflows."""
    return np.sqrt(_squared_norms(x))


def sym_norm_adj(g: SparseGraph) -> sp.csr_array:
    """Symmetrically normalized adjacency D^{-1/2} A D^{-1/2}; an isolated
    node has an empty row."""
    inv_sqrt = _ratio(1.0, np.sqrt(g.degrees))
    values = inv_sqrt[g.entry_rows()] * inv_sqrt[g.col_indices]
    return _csr(g.num_nodes, g.row_offsets, g.col_indices, values)


def _filter_pair(g: SparseGraph, kind: str, diag: np.ndarray, off: np.ndarray) -> FilterPair:
    """Low filter diag*I + off and its identity complement I - low.

    `off` holds one value per directed adjacency entry, `diag` one per
    node.  Both filters share the index arrays of the A + I pattern; the
    diagonal is stored even where a value is 0.0, so low + high equals the
    identity exactly.

    The adjacency is already sorted by (row, col), so every entry's place
    in A + I is known: row i starts i entries later than in A, and its
    diagonal follows its neighbours below i.  An adjacency entry moves by
    its row, plus one if it lies above the diagonal.
    """
    n = g.num_nodes
    nodes = np.arange(n, dtype=np.int64)
    rows = g.entry_rows()
    above = g.col_indices > rows
    off_at = np.arange(g.num_entries, dtype=np.int64) + rows + above
    diag_at = g.row_offsets[1:] + nodes - np.bincount(rows[above], minlength=n)
    row_offsets = g.row_offsets + np.arange(n + 1, dtype=np.int64)
    cols = np.empty(g.num_entries + n, dtype=np.int64)
    cols[off_at], cols[diag_at] = g.col_indices, nodes
    low_values = np.empty(cols.shape[0], dtype=np.float64)
    low_values[off_at], low_values[diag_at] = off, diag
    high_values = np.empty(cols.shape[0], dtype=np.float64)
    high_values[off_at], high_values[diag_at] = -off, 1.0 - diag
    low = _csr(n, row_offsets, cols, low_values)
    high = _csr(n, low.indptr, low.indices, high_values)
    return FilterPair(low=low, high=high, kind=kind)


def enhanced_filters(g: SparseGraph, beta: float) -> FilterPair:
    """Low-pass beta*I + D^{-1/2}AD^{-1/2} and its identity complement."""
    Rule.within(0, 1).check("beta", beta)
    diag = np.full(g.num_nodes, beta, dtype=np.float64)
    return _filter_pair(g, "enhanced", diag, sym_norm_adj(g).data)


def self_loop_filters(g: SparseGraph) -> FilterPair:
    """Unnormalized A + I and its identity complement -A."""
    diag = np.ones(g.num_nodes, dtype=np.float64)
    return _filter_pair(g, "self_loop", diag, np.ones(g.num_entries, dtype=np.float64))


def neighborhood_mean(g: SparseGraph, entry_values: np.ndarray) -> np.ndarray:
    """Mean of per-entry values over each node's neighbors.

    Degree-0 nodes get the convention value 0.
    """
    if entry_values.shape != (g.num_entries,):
        raise InputError(
            f"entry_values must have shape ({g.num_entries},), got {entry_values.shape}"
        )
    return _ratio(np.bincount(g.entry_rows(), weights=entry_values, minlength=g.num_nodes), g.degrees)


def node_homophily(g: SparseGraph, labels: np.ndarray) -> HomophilyReport:
    """Fraction of neighbors sharing each node's label, and the mean over
    non-isolated nodes."""
    labels = np.asarray(labels)
    if labels.shape != (g.num_nodes,):
        raise InputError(f"labels must have shape ({g.num_nodes},), got {labels.shape}")
    same = (labels[g.entry_rows()] == labels[g.col_indices]).astype(np.float64)
    per_node = neighborhood_mean(g, same)
    nz = g.degrees > 0
    graph_level = float(per_node[nz].mean()) if nz.any() else 0.0
    return HomophilyReport(per_node=per_node, graph_level=graph_level)


_INT64 = np.iinfo(np.int64)

# The tokens np.loadtxt parses as int64 or float64 (ASCII digits, no digit
# grouping, surrounding whitespace stripped), how to convert each, and the
# rule an error names.  The line loop accepts exactly these tokens, so a file
# parses the same whichever path reads it.
_TOKENS = {
    np.int64: (re.compile(r"[+-]?[0-9]+"), int, "an integer"),
    np.float64: (re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf(?:inity)?|nan)",
                            re.I), float, "a finite number"),
}


# The bytes of a float table as `_write_table` writes it, and the block of
# lines `_read_canonical` parses at a time.
_CANONICAL_BYTES = b"0123456789.eE+-,\n\r \t"
_BLOCK_BYTES = 1 << 18
# An integer token -0: orjson reads it as the int 0, float() as -0.0.
_INT_MINUS_ZERO = re.compile(rb"-0(?![.0-9eE])")


def _read_canonical(path) -> np.ndarray | None:
    """A float table of `,`-separated JSON numbers, one row a line, or None
    for any other file.

    Each block of whole lines is framed as a JSON array of rows and parsed by
    orjson, whose number parser rounds correctly as float() does, into
    its slice of a table sized by a first pass that counts the lines; the
    first pass also refuses a file holding any byte outside the canonical
    set.  A blank line, a ragged row, a trailing comma, a value past the
    float64 range or an integer -0 makes the result None.
    """
    with open(path, "rb") as fh:
        rows, last = 0, b"\n"
        while block := fh.read(_BLOCK_BYTES):
            if block.translate(None, _CANONICAL_BYTES):
                return None
            rows, last = rows + block.count(b"\n"), block[-1:]
        rows += last != b"\n"
        fh.seek(0)
        table, filled = None, 0
        while block := fh.read(_BLOCK_BYTES):
            block = (block + fh.readline()).removesuffix(b"\n")
            try:
                part = np.array(orjson.loads(b"[[" + block.replace(b"\n", b"],[") + b"]]"),
                                dtype=np.float64)
            except ValueError:  # not JSON (orjson.JSONDecodeError), or ragged rows
                return None
            if table is None:
                table = np.empty((rows, part.shape[1]))
            end = filled + part.shape[0]
            if part.shape[1] != table.shape[1] or end > rows or (
                (part == 0).any() and _INT_MINUS_ZERO.search(block)
            ):
                return None
            table[filled:end], filled = part, end
    return table if filled == rows else None


def _read_table(path, kind, width=None, delimiter=None, comments=None,
                low=_INT64.min, high=_INT64.max, what="value") -> np.ndarray:
    """Read a text table of `kind` (np.int64 or np.float64) values as a 2-D
    array, `width` values a line (the first line's count when None).

    Floats must be finite, and so must each row's sum of squares (the
    squared norm a row norm takes); ints must lie in [low, high].  Blank
    lines are skipped and `comments` starts a comment.  A `,`-separated
    float table in the canonical encoding `_write_table` writes is read
    exactly by `_read_canonical`; any other file is parsed by one
    `np.loadtxt` call.  When numpy rejects it or warns (an empty file
    warns), or a check fails, `_read_lines` re-reads it to name the line.
    """
    table = _read_canonical(path) if kind is np.float64 and delimiter == "," else None
    if table is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
                    table = np.loadtxt(fh, dtype=kind, delimiter=delimiter, comments=comments, ndmin=2)
            except (ValueError, Warning):
                table = None
    if table is not None and table.size and width in (None, table.shape[1]) and (
        np.isfinite(_squared_norms(table)).all() if kind is np.float64
        else low <= table.min() and table.max() <= high
    ):
        return table
    return _read_lines(path, kind, width, delimiter, comments, low, high, what)


def _read_lines(path, kind, width, delimiter, comments, low, high, what) -> np.ndarray:
    """`_read_table`'s line loop: the same table, or a FormatError naming
    the path, line, offending text and the rule it breaks.  An undecodable
    byte becomes a lone surrogate, which no token matches."""
    pattern, number, rule = _TOKENS[kind]
    bounds = "int64" if (low, high) == (_INT64.min, _INT64.max) else f"[{low}, {high + 1})"
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = (line.split(comments, 1)[0] if comments else line).strip()
            if not text:
                continue
            tokens = [token.strip() for token in text.split(delimiter)]
            width = width or len(tokens)
            if len(tokens) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} value{'s' * (width != 1)}, "
                                  f"got {len(tokens)} in {reprlib.repr(text)}")
            for token in tokens:
                if not pattern.fullmatch(token) or number is float and not np.isfinite(float(token)):
                    raise FormatError(f"{path}:{lineno}: {what} {token!r} is not {rule}")
            row = [number(token) for token in tokens]
            if number is float and not np.isfinite(_squared_norms(np.array([row])))[0]:
                raise FormatError(f"{path}:{lineno}: the squares of {reprlib.repr(text)} "
                                  f"sum past the float64 range")
            if number is int and not all(low <= value <= high for value in row):
                raise FormatError(f"{path}:{lineno}: {what} outside {bounds} in {reprlib.repr(text)}")
            rows.append(row)
    return np.array(rows, dtype=kind).reshape(len(rows), width or 0)


def format_float(x: float) -> str:
    """Shortest decimal that parses back to the exact same float64."""
    return repr(float(x))


def _write_table(path, rows, delimiter=",") -> None:
    """Write each row as one UTF-8 line of `delimiter`-joined values ending
    in a newline: floats through `format_float`, so `_read_table` recovers
    them bit for bit, and every other value through `str`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(delimiter.join(
                format_float(v) if isinstance(v, (float, np.floating)) else str(v) for v in row
            ) + "\n")


def read_edge_list(path, num_nodes: int | None = None) -> np.ndarray:
    """Read whitespace-separated "i j" pairs; '#' starts a comment.

    With `num_nodes`, a node id outside [0, num_nodes) fails with its file
    and line; without, one outside int64 does.
    """
    bounds = {} if num_nodes is None else {"low": 0, "high": num_nodes - 1}
    return _read_table(path, np.int64, 2, comments="#", what="node id", **bounds)
