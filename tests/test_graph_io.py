import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netpairtest as npt
from netpairtest.graph_io import Graph, GraphFormatError


def test_karate_shape(karate_graph):
    assert karate_graph.n == 34
    assert len(karate_graph.edges) == 78


def test_karate_degrees(karate_graph):
    deg = karate_graph.degrees()
    assert deg.sum() == 2 * 78
    assert deg[33] == 17  # node 34 in 1-based labels
    assert deg[0] == 16


def test_adjacency_matches_degrees(karate_graph, karate):
    assert karate.shape == (34, 34)
    assert set(np.unique(karate)) <= {0.0, 1.0}
    assert np.array_equal(karate, karate.T)
    assert np.all(np.diag(karate) == 0)
    assert np.array_equal(karate.sum(axis=1), karate_graph.degrees())


def test_max_degree(karate):
    assert npt.max_degree(karate) == 17
    assert npt.max_degree(np.zeros((3, 3))) == 0
    with pytest.raises(ValueError):
        npt.max_degree(np.zeros((2, 3)))


def test_load_dedup_and_comments(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n% other comment\n0 1\n1 0\n0 1\n\n2 0\n")
    g = npt.load_edge_list(p)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_one_based_offset(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n")
    g = npt.load_edge_list(p, indexing="one_based")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_declared_n(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    assert npt.load_edge_list(p, n=5).n == 5
    with pytest.raises(GraphFormatError, match="declared n"):
        npt.load_edge_list(p, n=1)


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
    g = npt.load_edge_list(p, self_loops=True)
    assert (0, 0) in g.edges
    x = npt.adjacency(g)
    assert x[0, 0] == 1.0


def test_unknown_indexing(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n")
    with pytest.raises(ValueError, match="indexing"):
        npt.load_edge_list(p, indexing="two_based")


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        Graph(n=0)
    with pytest.raises(GraphFormatError, match="outside node range"):
        Graph(n=2, edges=frozenset({(0, 5)}))
    with pytest.raises(GraphFormatError, match="self loop"):
        Graph(n=2, edges=frozenset({(1, 1)}))
    # edges are canonicalized to (min, max)
    g = Graph(n=3, edges=frozenset({(2, 0)}))
    assert g.edges == frozenset({(0, 2)})


@settings(max_examples=50, deadline=None)
@given(st.sets(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(lambda e: e[0] != e[1]),
    min_size=1, max_size=30,
))
def test_roundtrip_through_file(tmp_path_factory, edges):
    p = tmp_path_factory.mktemp("rt") / "g.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    g = npt.load_edge_list(p)
    expected = {(min(u, v), max(u, v)) for u, v in edges}
    assert g.edges == frozenset(expected)
    assert g.n == max(max(e) for e in expected) + 1
    x = npt.adjacency(g)
    assert x.sum() == 2 * len(expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 15).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30))))
def test_adjacency_matches_the_edge_loop(case):
    n, edges = case
    g = Graph(n=n, edges=frozenset(edges), allows_self_loops=True)
    expected = np.zeros((n, n))
    for u, v in g.edges:
        expected[u, v] = expected[v, u] = 1.0
    x = npt.adjacency(g)
    assert x.format == "csr" and x.dtype == np.float64
    assert x.has_sorted_indices
    assert np.array_equal(x.toarray(), expected)
    assert npt.max_degree(x) == npt.max_degree(expected)
