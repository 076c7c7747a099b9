import contextlib
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest import cli, graph_io
from netpairtest.graph_io import GraphFormatError


def _file_degrees(path, n):
    """Degrees counted from the raw 1-based karate file, each unordered pair
    once."""
    pairs = set()
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.startswith(("#", "%")):
            u, v = (int(tok) - 1 for tok in line.split())
            pairs.add(frozenset((u, v)))
    deg = np.zeros(n, dtype=np.int64)
    for pair in pairs:
        for node in pair:
            deg[node] += 1
    return deg


def test_karate_shape(karate_csr):
    assert karate_csr.shape == (34, 34)
    assert karate_csr.format == "csr" and karate_csr.dtype == np.float64
    assert karate_csr.has_sorted_indices
    assert karate_csr.nnz == 2 * 78


def test_karate_degrees(karate_csr):
    deg = _file_degrees(npt.karate_club_path(), 34)
    assert np.array_equal(karate_csr.sum(axis=1), deg)
    assert deg.sum() == 2 * 78
    assert deg[33] == 17  # node 34 in 1-based labels
    assert deg[0] == 16


def test_adjacency_matches_degrees(karate):
    assert karate.shape == (34, 34)
    assert set(np.unique(karate)) <= {0.0, 1.0}
    assert np.array_equal(karate, karate.T)
    assert np.all(np.diag(karate) == 0)
    assert np.array_equal(karate.sum(axis=1),
                          _file_degrees(npt.karate_club_path(), 34))


def test_max_degree(karate):
    assert npt.max_degree(karate) == 17
    assert npt.max_degree(np.zeros((3, 3))) == 0
    with pytest.raises(ValueError):
        npt.max_degree(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_max_degree_rejects_a_non_finite_entry(karate, karate_csr, bad):
    # int() of the row sum raised OverflowError, or a ValueError on NaN
    dense = karate.copy()
    dense[3, 4] = dense[4, 3] = bad
    for x in (dense, scipy.sparse.csr_array(dense)):
        with pytest.raises(ValueError) as exc:
            npt.max_degree(x)
        assert str(exc.value) == "adjacency matrix entries must be finite"


def test_load_dedup_and_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n% other comment\n0 1\n1 0\n0 1\n\n2 0\n")
    x = npt.load_edge_list(p)
    assert np.array_equal(x.toarray(), [[0, 1, 1], [1, 0, 0], [1, 0, 0]])


def test_one_based_offset(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n")
    x = npt.load_edge_list(p, indexing="one_based")
    assert np.array_equal(x.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_declared_n(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    assert npt.load_edge_list(p, n=5).shape == (5, 5)
    for n in (0, 1):
        with pytest.raises(GraphFormatError, match=f"declared n={n}"):
            npt.load_edge_list(p, n=n)


@pytest.mark.parametrize("content,message", [
    ("0 1 2\n", "two integer tokens"),
    ("a b\n", "non-integer"),
    ("0 0\n", "self loop"),
    ("", "no edges"),
    ("# only comments\n", "no edges"),
])
def test_malformed_files(tmp_path, content, message):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(GraphFormatError, match=message):
        npt.load_edge_list(p)


def test_error_messages_name_file_and_line(tmp_path):
    p = tmp_path / "bad.txt"
    for content, indexing, message in [
        ("0 1\n\n# c\n1 2 3\n", "zero_based",
         "4: expected two integer tokens, got '1 2 3'"),
        ("0 1\n1 x\n", "zero_based", "2: non-integer token in '1 x'"),
        ("0 -1\n", "zero_based", "1: node index below 0 with zero_based indexing"),
        ("1 2\n0 1\n", "one_based", "2: node index below 1 with one_based indexing"),
        ("1 2\n3 3\n", "one_based", "2: self loop at node 3"),
        # the checks apply in this order
        ("1 2\n0 0\n", "one_based", "2: node index below 1 with one_based indexing"),
    ]:
        p.write_text(content)
        with pytest.raises(GraphFormatError) as exc:
            npt.load_edge_list(p, indexing=indexing)
        assert str(exc.value) == f"{p}:{message}"
    for content, message in [("0 1\n0 7\n", "2: node index exceeds declared n=4"),
                             ("0 1\n9 9\n", "2: self loop at node 9")]:
        p.write_text(content)
        with pytest.raises(GraphFormatError) as exc:
            npt.load_edge_list(p, n=4)
        assert str(exc.value) == f"{p}:{message}"
    p.write_text("# nothing\n")
    with pytest.raises(GraphFormatError) as exc:
        npt.load_edge_list(p)
    assert str(exc.value) == f"{p}: no edges found"


def test_huge_node_label_rejected(tmp_path):
    # the node count, largest index + 1, must fit in an int64
    p = tmp_path / "huge.txt"
    big = np.iinfo(np.int64).max
    for content, indexing, message in [
        (f"0 1\n1 {big + 1}\n", "zero_based",
         f"2: node label {big + 1} too large"),
        (f"{big} 1\n", "zero_based", f"1: node label {big} too large"),
        (f"1 2\n{big + 1} 2\n", "one_based", f"2: node label {big + 1} too large"),
        (f"0 1\n{2**80} {2**90}\n", "zero_based", f"2: node label {2**90} too large"),
    ]:
        p.write_text(content)
        with pytest.raises(GraphFormatError) as exc:
            npt.load_edge_list(p, indexing=indexing)
        assert str(exc.value) == f"{p}:{message}"
    # a declared n is checked first
    p.write_text(f"0 1\n1 {big + 1}\n")
    with pytest.raises(GraphFormatError, match="exceeds declared n=4"):
        npt.load_edge_list(p, n=4)


def test_unindexable_node_count_rejected(tmp_path):
    # from 2^47 the n + 1 row pointers of the CSR cannot be held; labels
    # between about 10^6 and 2^47 are never tried, since there they may be
    p = tmp_path / "huge.txt"
    big = np.iinfo(np.int64).max
    for content, kwargs, count in [
        (f"0 1\n1 {2**47}\n", {}, 2**47 + 1),
        (f"0 1\n1 {big - 1}\n", {}, big),
        (f"1 2\n2 {big}\n", {"indexing": "one_based"}, big),
        ("0 1\n", {"n": 2**50}, 2**50),
    ]:
        p.write_text(content)
        with pytest.raises(GraphFormatError) as exc:
            npt.load_edge_list(p, **kwargs)
        assert str(exc.value) == f"{p}: node count {count} is too large to index"


def test_not_utf8_is_format_error(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"0 1\n\xff\xfe 2\n")
    with pytest.raises(GraphFormatError, match="not UTF-8") as exc:
        npt.load_edge_list(p)
    assert str(p) in str(exc.value)


def test_error_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\n1 2\nnope\n")
    with pytest.raises(GraphFormatError, match=":3:"):
        npt.load_edge_list(p)


def test_one_based_zero_label_rejected(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(GraphFormatError, match="one_based"):
        npt.load_edge_list(p, indexing="one_based")


def test_self_loops_flag(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 0\n0 1\n")
    x = npt.load_edge_list(p, self_loops=True)
    assert x[0, 0] == 1.0
    assert x.nnz == 3  # one diagonal entry for the loop, two for the edge


def test_unknown_indexing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="indexing"):
        npt.load_edge_list(p, indexing="two_based")


@settings(max_examples=50, deadline=None)
@given(st.sets(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
    min_size=1, max_size=30,
))
def test_roundtrip_through_file(tmp_path_factory, edges):
    p = tmp_path_factory.mktemp("rt") / "g.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    x = npt.load_edge_list(p)
    expected = {(min(u, v), max(u, v)) for u, v in edges}
    rows, cols = x.nonzero()
    assert set(zip(rows.tolist(), cols.tolist())) == \
        expected | {(v, u) for u, v in expected}
    assert x.shape[0] == max(max(e) for e in expected) + 1
    assert x.sum() == 2 * len(expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 15).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             min_size=1, max_size=30),
    st.randoms(use_true_random=False))))
def test_adjacency_matches_the_edge_loop(tmp_path_factory, case):
    n, edges, rnd = case
    # each pair once more in reversed order or as written, then shuffled
    lines = edges + [(v, u) if rnd.random() < 0.5 else (u, v)
                     for u, v in edges]
    rnd.shuffle(lines)
    p = tmp_path_factory.mktemp("adj") / "g.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in lines))
    expected = np.zeros((n, n))
    for u, v in edges:
        expected[u, v] = expected[v, u] = 1.0
    x = npt.load_edge_list(p, self_loops=True, n=n)
    assert x.format == "csr" and x.dtype == np.float64
    assert x.has_sorted_indices and x.has_canonical_format
    assert np.array_equal(x.toarray(), expected)
    assert npt.max_degree(x) == npt.max_degree(expected)


# ------------------------------------------- vectorised pass and line loop

def _load(path, **kwargs):
    """The matrix's shape and arrays, or the GraphFormatError message."""
    try:
        x = npt.load_edge_list(path, **kwargs)
    except GraphFormatError as exc:
        return str(exc)
    return x.shape, x.indices, x.indptr, x.data


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a[0] == b[0] and all(
        np.array_equal(u, v) and u.dtype == v.dtype for u, v in zip(a[1:], b[1:]))


# Labels are at most 12, or 18 and 19 digits long: a small value behind
# leading zeros, or a huge one (10^18 - 1 and up, whose node count cannot be
# indexed). None lies between about 10^6 and 2^47, where the loader would try
# to hold n + 1 row pointers.
_LABEL = st.sampled_from([str(u).encode() for u in range(13)] * 3
                         + [b"007", b"0" * 16 + b"12", b"9" * 18])
_ODD_LABEL = st.sampled_from([
    b"+3", b"-1", b"1_0", "\uff11\uff12".encode(), b"0" * 17 + b"12",
    b"1" + b"0" * 18, str(2**63).encode(), b"x", b"\xff"])
_GAP = st.sampled_from([b" ", b"\t", b"  ", b" \t ", b"\v", "\xa0".encode(),
                        b"\x0c", b""])
_EDGE = st.sampled_from([b"", b"", b" ", b"\t", "\xa0".encode()])
_ODD_LINE = st.sampled_from([b"", b" ", b"# late", b"% late", b"1", b"1 2 3"])
_HEAD_LINE = st.sampled_from([b"", b"# head", b"% head", b" \t", b"  # x",
                              "# \xe9t\xe9".encode(), b"\v"])
_ANY_END = st.sampled_from([b"\n", b"\n", b"\n", b"\r\n", b"\r"])


@st.composite
def _edge_files(draw):
    """An edge-list file's bytes: plain (see graph_io._plain_ends) half the
    time, else mixed with fragments that only the line loop reads."""
    plain = draw(st.booleans())
    label = _LABEL if plain else st.one_of(_LABEL, _LABEL, _ODD_LABEL)
    gap = st.sampled_from([b" ", b"\t", b" \t"]) if plain else _GAP
    edge = st.sampled_from([b"", b" "]) if plain else _EDGE
    line = st.tuples(edge, label, gap, label, edge).map(b"".join)
    if not plain:
        line = st.one_of(line, line, _ODD_LINE)
    end = st.just(b"\n") if plain else _ANY_END
    head = draw(st.lists(st.tuples(_HEAD_LINE, end), max_size=3))
    body = draw(st.lists(st.tuples(line, end), min_size=1, max_size=8))
    data = b"".join(b"".join(pair) for pair in head + body)
    if not plain and draw(st.booleans()):
        data = data.rstrip(b"\n")  # no final newline
    return data


@settings(max_examples=300, deadline=None)
@given(data=_edge_files())
@example(data=b"# c\r0 1\n2 3\n")  # text mode ends the comment at the CR
@example(data=b"1 2 3\n4\n")  # four labels on two lines, not two on each
@example(data=b"0 1\n2" + b" " * 70_000 + b"3\n")  # a line over 64 KiB
def test_vectorised_pass_matches_the_line_loop(tmp_path_factory, data):
    # at 8-byte chunks most files span several, and longer lines fall back
    p = tmp_path_factory.mktemp("eq") / "g.txt"
    p.write_bytes(data)
    for indexing in ("zero_based", "one_based"):
        for self_loops in (False, True):
            for n in (None, 0, 3, 13):
                kwargs = dict(indexing=indexing, self_loops=self_loops, n=n)
                with mock.patch.object(graph_io, "_plain_ends",
                                       return_value=None):
                    want = _load(p, **kwargs)  # the line loop alone
                for chunk in (graph_io._CHUNK, 8):
                    with mock.patch.object(graph_io, "_CHUNK", chunk):
                        got = _load(p, **kwargs)
                    assert _same(got, want), (data, kwargs, chunk, got, want)


def test_plain_files_skip_the_line_loop(tmp_path, monkeypatch):
    # the bundled data and simulate's output take the vectorised pass; a
    # silent fallback would give the same matrix at the loop's speed
    out = tmp_path / "net.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--model", "2", "--n", "300", "--n0", "60",
                         "--r2", "0.9", "--seed", "0", "--out", str(out)]) == 0
    edges = sum(not line.startswith("#") for line in out.read_text().splitlines())

    def line_loop(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(graph_io, "_line_loop_ends", line_loop)
    assert npt.load_edge_list(npt.karate_club_path(),
                              indexing="one_based").nnz == 2 * 78
    assert npt.load_edge_list(out).nnz == 2 * edges
