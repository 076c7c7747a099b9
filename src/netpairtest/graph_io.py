"""Loading of undirected binary graphs from edge-list files.

An edge-list file may use 0- or 1-based node labels; the loader checks every
line and returns the symmetric 0/1 adjacency matrix with 0-based indices as
a sparse CSR array. The rest of the library takes that array, or any dense
symmetric array, as it is.
"""

from __future__ import annotations

import os
from array import array

import numpy as np
import scipy.sparse

__all__ = [
    "GraphFormatError",
    "load_edge_list",
    "as_matrix",
    "max_degree",
]

_COMMENT_PREFIXES = ("#", "%")
# largest 0-based index whose node count, index + 1, fits in an int64
_MAX_INDEX = np.iinfo(np.int64).max - 1


class GraphFormatError(ValueError):
    """Raised when an edge-list file is malformed."""


def _text_lines(fh, path):
    """The lines of ``fh``; a file that is not UTF-8 text is malformed."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") \
            from exc


def load_edge_list(
    path: str | os.PathLike,
    indexing: str = "zero_based",
    self_loops: bool = False,
    n: int | None = None,
) -> scipy.sparse.csr_array:
    """Parse a whitespace-separated edge-list file into its adjacency matrix.

    Lines starting with ``#`` or ``%`` and blank lines are skipped.
    Duplicate edges (in either order) collapse to a single undirected edge.
    The result is the symmetric 0/1 adjacency matrix as a float64 CSR array
    with sorted indices; a self loop is one diagonal entry.

    Parameters
    ----------
    path : path-like
        Text file with two integer tokens per non-comment line.
    indexing : {"zero_based", "one_based"}
        Node-label convention used in the file.
    self_loops : bool
        Whether (u, u) lines are accepted.
    n : int, optional
        Declared node count. When omitted, inferred as ``max index + 1``
        after conversion to 0-based indices.

    Raises
    ------
    GraphFormatError
        If a line is malformed (including a label whose node count would
        not fit in an int64), the file holds no edge, or it is not UTF-8
        text. Messages name the file and, for a line, its number.
    """
    if indexing not in ("zero_based", "one_based"):
        raise ValueError(f"unknown indexing convention {indexing!r}")
    offset = 1 if indexing == "one_based" else 0

    ends = array("q")  # u, v of each edge line in file order
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(_text_lines(fh, path), start=1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two integer tokens, got {line!r}"
                )
            try:
                u, v = int(tokens[0]) - offset, int(tokens[1]) - offset
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer token in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{lineno}: node index below {offset} with "
                    f"{indexing} indexing"
                )
            if u == v and not self_loops:
                raise GraphFormatError(f"{path}:{lineno}: self loop at node {u + offset}")
            if n is not None and (u >= n or v >= n):
                raise GraphFormatError(
                    f"{path}:{lineno}: node index exceeds declared n={n}"
                )
            if u > _MAX_INDEX or v > _MAX_INDEX:
                raise GraphFormatError(
                    f"{path}:{lineno}: node label {max(u, v) + offset} too large"
                )
            ends.append(u)
            ends.append(v)

    if not ends:
        raise GraphFormatError(f"{path}: no edges found")
    ends = np.frombuffer(ends, dtype=np.int64)
    if n is None:
        n = int(ends.max()) + 1
    u, v = ends[0::2], ends[1::2]
    off = u != v  # a self loop is one entry, not two
    rows = np.concatenate([u, v[off]])
    cols = np.concatenate([v, u[off]])
    x = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                               shape=(n, n))
    x.sum_duplicates()  # also sorts the indices
    x.data[:] = 1.0
    return x


def as_matrix(x):
    """``x`` as a float64 CSR matrix if it is sparse, else as a float64
    dense array."""
    if scipy.sparse.issparse(x):
        return x.tocsr().astype(float, copy=False)
    return np.asarray(x, dtype=float)


def max_degree(x) -> int:
    """Maximum row sum of a symmetric binary matrix, dense or sparse."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("adjacency matrix must be square")
    if x.shape[0] == 0:
        return 0
    return int(np.max(x.sum(axis=1)))
