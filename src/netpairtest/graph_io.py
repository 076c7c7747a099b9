"""Loading and validation of undirected binary graphs.

Graphs are stored as deduplicated sets of undirected edges with 0-based
node indices internally; edge-list files may use 0- or 1-based labels. The
adjacency matrix of a graph is a sparse CSR array; the rest of the library
takes it, or any dense symmetric array, as it is.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

__all__ = [
    "Graph",
    "GraphFormatError",
    "load_edge_list",
    "adjacency",
    "as_matrix",
    "max_degree",
]

_COMMENT_PREFIXES = ("#", "%")


class GraphFormatError(ValueError):
    """Raised when an edge-list file or edge set is malformed."""


@dataclass(frozen=True)
class Graph:
    """Undirected binary graph.

    Attributes
    ----------
    n : int
        Number of nodes; node indices are 0..n-1.
    edges : frozenset of (int, int)
        Unordered node pairs stored as (min, max) tuples, each pair once.
    allows_self_loops : bool
        Whether (u, u) pairs are permitted.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)
    allows_self_loops: bool = False

    def __post_init__(self):
        if self.n <= 0:
            raise GraphFormatError(f"node count must be positive, got {self.n}")
        canonical = set()
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphFormatError(
                    f"edge ({u}, {v}) outside node range [0, {self.n - 1}]"
                )
            if u == v and not self.allows_self_loops:
                raise GraphFormatError(f"self loop at node {u} not allowed")
            canonical.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(canonical))

    def degrees(self) -> np.ndarray:
        """Vertex degrees by direct edge counting (self loop counts once)."""
        deg = np.zeros(self.n, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            if v != u:
                deg[v] += 1
        return deg


def load_edge_list(
    path: str | os.PathLike,
    indexing: str = "zero_based",
    self_loops: bool = False,
    n: int | None = None,
) -> Graph:
    """Parse a whitespace-separated edge-list file into a :class:`Graph`.

    Lines starting with ``#`` or ``%`` and blank lines are skipped.
    Duplicate edges (in either order) collapse to a single undirected edge.

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
    """
    if indexing not in ("zero_based", "one_based"):
        raise ValueError(f"unknown indexing convention {indexing!r}")
    offset = 1 if indexing == "one_based" else 0

    edges = set()
    max_idx = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
            edges.add((min(u, v), max(u, v)))
            max_idx = max(max_idx, u, v)

    if max_idx < 0:
        raise GraphFormatError(f"{path}: no edges found")
    return Graph(n=n if n is not None else max_idx + 1,
                 edges=frozenset(edges),
                 allows_self_loops=self_loops)


def adjacency(g: Graph) -> scipy.sparse.csr_array:
    """Symmetric 0/1 adjacency matrix of ``g`` as a float64 CSR array with
    sorted indices."""
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.int64,
                       count=2 * len(g.edges)).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    off = u != v  # a self loop is one entry, not two
    rows = np.concatenate([u, v[off]])
    cols = np.concatenate([v, u[off]])
    x = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                               shape=(g.n, g.n))
    x.sort_indices()
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
