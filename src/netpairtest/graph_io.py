"""Loading of undirected binary graphs from edge-list files.

An edge-list file may use 0- or 1-based node labels; the loader checks every
line and returns the symmetric 0/1 adjacency matrix with 0-based indices as
a sparse CSR array. The rest of the library takes that array, or any dense
symmetric array, as it is.
"""

from __future__ import annotations

import io
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
# a plain data line holds two runs of at most this many ASCII digits, so
# each label fits in an int64 and none reaches _MAX_INDEX
_MAX_DIGITS = 18
_LF = ord("\n")
# bytes of whole lines parsed at once by the vectorised pass
_CHUNK = 1 << 16


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

    The file is read once, so a pipe, ``/dev/stdin`` or a FIFO loads as a
    regular file does. A plain file (see :func:`_plain_ends`) whose labels
    pass every check is parsed in one vectorised pass; any other file is
    parsed line by line from the same bytes. Both give the same matrix, and
    the line loop writes every message about a line.

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
        not fit in an int64), the file holds no edge, it is not UTF-8 text,
        or the node count is too large to index in memory. Messages name
        the file and, for a line, its number.
    """
    if indexing not in ("zero_based", "one_based"):
        raise ValueError(f"unknown indexing convention {indexing!r}")
    offset = 1 if indexing == "one_based" else 0

    with open(path, "rb") as fh:
        data = fh.read()
    ends = _plain_ends(data)
    if ends is not None:
        ends -= offset
        if ((ends < 0).any() or (n is not None and (ends >= n).any())
                or (not self_loops and (ends[0::2] == ends[1::2]).any())):
            ends = None  # the line loop finds the line and says what is wrong
    if ends is None:
        ends = _line_loop_ends(data, path, offset, indexing, self_loops, n)
    del data  # parsed: not held while the CSR is built
    return _csr_adjacency(ends, path, n)


def _plain_ends(data: bytes) -> np.ndarray | None:
    """The labels u, v of each edge line of a plain file, in file order, or
    None if the file is not plain.

    A plain file is a header of blank and comment lines that decode as
    UTF-8, then only LF-terminated lines of two runs of 1 to ``_MAX_DIGITS``
    ASCII digits separated by spaces or tabs, none longer than ``_CHUNK``
    bytes, with no CR anywhere. The line loop reads the same labels from
    it. The body is parsed in chunks of whole lines, so the temporaries stay
    small whatever the file's size.
    """
    if b"\r" in data:  # text mode would also end a line there
        return None
    start = 0
    while start < len(data):
        stop = data.find(b"\n", start) + 1 or len(data)  # past the LF
        try:
            line = data[start:stop].decode("utf-8").strip()
        except UnicodeDecodeError:
            return None
        if line and not line.startswith(_COMMENT_PREFIXES):
            break
        start = stop
    if start == len(data):
        return None
    ends = np.empty(2 * data.count(b"\n", start), dtype=np.int64)
    done = 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _CHUNK) + 1
        labels = _plain_labels(data[start:stop]) if stop else None
        if labels is None:
            return None
        ends[done:done + len(labels)] = labels
        done += len(labels)
        start = stop
    return ends


def _plain_labels(chunk: bytes) -> np.ndarray | None:
    """The labels of ``chunk``, whole LF-terminated lines, or None unless
    every line holds two plain labels."""
    body = np.frombuffer(chunk, dtype=np.uint8)
    digit = (body - np.uint8(ord("0"))) < 10
    if not (digit | (body == ord(" ")) | (body == ord("\t"))
            | (body == _LF)).all():
        return None
    # the starts and stops of the digit runs alternate
    runs = np.flatnonzero(np.diff(digit, prepend=False))
    starts, stops = runs[0::2], runs[1::2]
    lines = np.flatnonzero(body == _LF)
    # two runs per line: run 2i starts after LF i - 1, run 2i + 1 before LF i
    if (len(starts) != 2 * len(lines)
            or (starts[2::2] < lines[:-1]).any()
            or (starts[1::2] > lines).any()
            or (stops - starts).max() > _MAX_DIGITS):
        return None
    return np.fromstring(chunk, dtype=np.int64, sep=" ")


def _line_loop_ends(data, path, offset, indexing, self_loops,
                    n) -> np.ndarray:
    """The 0-based u, v of each edge line of ``data``, the bytes of the file
    ``path``, in file order, read and checked line by line: the reference
    reader, and the one that explains a malformed file. The lines are those
    of a text-mode read (universal newlines, UTF-8 decoded as it is read)."""
    ends = array("q")
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
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
    return np.frombuffer(ends, dtype=np.int64)


def _csr_adjacency(ends, path, n) -> scipy.sparse.csr_array:
    """The symmetric 0/1 CSR adjacency of the edges ``ends`` = u, v, u, v,
    ..., with ``n`` nodes, or the largest index + 1 if ``n`` is None."""
    if n is None:
        n = int(ends.max()) + 1
    u, v = ends[0::2], ends[1::2]
    off = u != v  # a self loop is one entry, not two
    rows = np.concatenate([u, v[off]])
    cols = np.concatenate([v, u[off]])
    try:  # the CSR holds n + 1 row pointers
        x = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                                   shape=(n, n))
    except (MemoryError, ValueError) as exc:
        raise GraphFormatError(
            f"{path}: node count {n} is too large to index") from exc
    x.sum_duplicates()  # also sorts the indices
    x.data[:] = 1.0
    return x


def as_matrix(x):
    """``x`` as a float64 CSR matrix in canonical format (sorted indices,
    one stored entry per position) if it is sparse, else as a C-contiguous
    float64 dense array, copied at most once; ValueError unless it is a
    square matrix.

    The products of :mod:`~.spectra` then see one layout, so a copy made
    here leaves the results independent of the input's memory layout to the
    last bit, and squaring the stored entries squares the matrix's
    entries. A dense ``x`` must be exactly symmetric: the eigensolver reads
    its lower triangle alone (:func:`~.spectra.top_eigenpairs`)."""
    if scipy.sparse.issparse(x):
        csr = x.tocsr().astype(float, copy=False)
        if not csr.has_canonical_format:
            csr = csr.copy() if csr is x else csr
            csr.sum_duplicates()
        x = csr
    else:
        x = np.ascontiguousarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("adjacency matrix must be square")
    return x


def _check_finite(x) -> None:
    """ValueError where ``x``, dense or sparse, has a non-finite entry."""
    if not np.isfinite(x.data if scipy.sparse.issparse(x) else x).all():
        raise ValueError("adjacency matrix entries must be finite")


def _check_product(x, out: np.ndarray) -> None:
    """ValueError where ``out``, a product of ``x``, is not finite: "adjacency
    matrix entries must be finite" where an entry of ``x`` is not
    (:func:`_check_finite`), else "adjacency matrix products overflow"."""
    if not np.isfinite(out).all():
        _check_finite(x)
        raise ValueError("adjacency matrix products overflow")


def max_degree(x) -> int | float:
    """Maximum row sum of a symmetric matrix, dense or sparse, binary or
    weighted: an ``int`` where the sum is integral, as on a 0/1 graph, else
    the float itself, never truncated; ValueError where ``x`` is not square
    (:func:`as_matrix`) or a sum is not finite (:func:`_check_product`).
    The sums are the product with a vector of ones, one BLAS pass over a
    dense ``x``, which is exact on 0/1 entries."""
    x = as_matrix(x)
    if x.shape[0] == 0:
        return 0
    with np.errstate(over="ignore", invalid="ignore"):
        sums = x @ np.ones(x.shape[0])
    _check_product(x, sums)
    top = float(np.max(sums))
    return int(top) if top.is_integer() else top
