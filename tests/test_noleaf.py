import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrank import (
    EnumerationLimitError,
    FormatError,
    PreconditionError,
    SimpleGraph,
    closed_rank,
    count_noleaf_bruteforce,
    count_noleaf_subgraphs,
    load_simple_graph,
    moebius_ladder,
)


def test_ladder_shape():
    for k in range(2, 7):
        graph = moebius_ladder(k)
        assert graph.vertex_count == 2 * k
        assert len(graph.edges) == 3 * k
        for v in range(graph.vertex_count):
            assert graph.degree(v) == 3, (k, v)


def test_ladder_k2_is_complete_graph_on_four():
    graph = moebius_ladder(2)
    pairs = {tuple(sorted(e)) for e in graph.edges}
    assert pairs == {(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)}


def test_ladder_rejects_small_k():
    with pytest.raises(PreconditionError):
        moebius_ladder(1)
    with pytest.raises(PreconditionError):
        moebius_ladder(0)


def test_count_tiny_graphs():
    # a single edge: only the empty subset avoids leaves
    assert count_noleaf_subgraphs(SimpleGraph(2, ((0, 1),))) == 1
    # a triangle: empty set and the full cycle
    assert count_noleaf_subgraphs(SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))) == 2
    # no edges at all: the empty subset
    assert count_noleaf_subgraphs(SimpleGraph(3, ())) == 1


def test_count_k4():
    # by size: 1 empty + 4 triangles + 3 four-cycles + 6 five-edge + 1 full
    assert count_noleaf_subgraphs(moebius_ladder(2)) == 15


def test_count_matches_closed_rank():
    for k in range(2, 6):
        assert count_noleaf_subgraphs(moebius_ladder(k)) == closed_rank(k + 1, 0), k


def test_count_is_monotone_under_adding_edges():
    # adding an edge cannot lose subgraphs: every old subset survives
    rng = random.Random(2718)
    for _ in range(20):
        n = rng.randint(3, 6)
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(all_pairs)
        cut = rng.randint(1, len(all_pairs) - 1)
        smaller = SimpleGraph(n, tuple(all_pairs[:cut]))
        larger = SimpleGraph(n, tuple(all_pairs[: cut + 1]))
        assert count_noleaf_subgraphs(smaller) <= count_noleaf_subgraphs(larger)


@given(st.randoms(use_true_random=False))
def test_count_is_invariant_under_relabeling(rng):
    n = rng.randint(2, 6)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = tuple(p for p in pairs if rng.random() < 0.6)
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = tuple((perm[u], perm[v]) for u, v in edges)
    assert count_noleaf_subgraphs(SimpleGraph(n, edges)) == count_noleaf_subgraphs(
        SimpleGraph(n, relabeled)
    )


def test_parallel_edges_are_supported():
    # two parallel edges: empty or both; one alone leaves two leaves
    doubled = SimpleGraph(2, ((0, 1), (0, 1)))
    assert count_noleaf_subgraphs(doubled) == 2


def test_loops_are_rejected():
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph(2, ((0, 0),))


def test_edge_range_is_checked():
    with pytest.raises(ValueError, match="outside"):
        SimpleGraph(2, ((0, 5),))


def test_enumeration_guard():
    edges = tuple((0, 1) for _ in range(25))
    graph = SimpleGraph(2, edges)
    with pytest.raises(EnumerationLimitError):
        count_noleaf_bruteforce(graph)


def test_many_parallel_edges_are_counted():
    # past the oracle's edge cap the frontier stays two vertices wide;
    # every subset except the 25 single edges avoids leaves
    graph = SimpleGraph(2, tuple((0, 1) for _ in range(25)))
    assert count_noleaf_subgraphs(graph) == 2**25 - 25


def test_frontier_width_guard():
    # any edge order of K_13 has all 13 vertices on the frontier at once
    pairs = tuple((i, j) for i in range(13) for j in range(i + 1, 13))
    with pytest.raises(EnumerationLimitError, match="frontier of 13 vertices"):
        count_noleaf_subgraphs(SimpleGraph(13, pairs))


@st.composite
def multigraphs(draw):
    """Graphs on 0..8 vertices with 0..16 edges; parallel edges and isolated
    vertices come up often at this size."""
    n = draw(st.integers(0, 8))
    if n < 2:
        return SimpleGraph(n, ())
    # an edge is a start vertex and an offset of 1..n-1, so never a loop
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    pairs = draw(st.lists(edge, max_size=16))
    return SimpleGraph(n, tuple((u, (u + d) % n) for u, d in pairs))


@settings(deadline=None)
@given(multigraphs())
def test_frontier_count_matches_enumeration(graph):
    assert count_noleaf_subgraphs(graph) == count_noleaf_bruteforce(graph)


def test_load_simple_graph():
    graph = load_simple_graph('{"vertex_count": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    assert count_noleaf_subgraphs(graph) == 2
    with pytest.raises(FormatError, match="vertex_count"):
        load_simple_graph('{"edges": []}')
    with pytest.raises(FormatError, match="edge 0"):
        load_simple_graph('{"vertex_count": 2, "edges": [[0]]}')
    with pytest.raises(FormatError, match="loop"):
        load_simple_graph('{"vertex_count": 2, "edges": [[1, 1]]}')
