import random
import time
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_zn_ring, random_stable_graph
from fusionrank import (
    DualGraph,
    EnumerationLimitError,
    FormatError,
    GraphVertex,
    PreconditionError,
    StabilityError,
    UnknownLabelError,
    closed_rank,
    clutch_graph,
    drop_vacua,
    fib,
    load_dual_graph,
    rank_bruteforce,
    rank_genus0,
    rank_graph,
    rank_smooth,
    tails_graph,
)
from fusionrank.ranks import _rank0_lastpair

g2_weight_lists = st.lists(st.sampled_from(("0", "mu")), max_size=10)


# -- genus 0 ---------------------------------------------------------


def test_genus0_base_cases(g2):
    assert rank_genus0(g2, []) == 1
    assert rank_genus0(g2, ["0"]) == 1
    assert rank_genus0(g2, ["mu"]) == 0
    assert rank_genus0(g2, ["mu", "mu"]) == 1
    assert rank_genus0(g2, ["0", "mu"]) == 0
    assert rank_genus0(g2, ["mu", "mu", "mu"]) == 1
    assert rank_genus0(g2, ["0", "mu", "mu"]) == 1


def test_genus0_fibonacci_growth(g2):
    # m marked points of weight mu give the (m-1)th Fibonacci number
    for m in range(26):
        assert rank_genus0(g2, ["mu"] * m) == fib(m - 1), m


def test_genus0_unknown_label(g2):
    with pytest.raises(UnknownLabelError):
        rank_genus0(g2, ["mu", "nu"])


@given(ws=g2_weight_lists, rng=st.randoms(use_true_random=False))
def test_genus0_permutation_invariance(g2, ws, rng):
    shuffled = list(ws)
    rng.shuffle(shuffled)
    assert rank_genus0(g2, ws) == rank_genus0(g2, shuffled)


@given(ws=g2_weight_lists)
def test_genus0_vacua_are_invisible(g2, ws):
    assert rank_genus0(g2, ws) == rank_genus0(g2, drop_vacua(g2, ws))


def test_drop_vacua(g2):
    assert drop_vacua(g2, ["0", "mu", "0", "mu"]) == ("mu", "mu")
    assert drop_vacua(g2, []) == ()
    with pytest.raises(UnknownLabelError):
        drop_vacua(g2, ["nu"])


def test_split_order_independence(g2):
    # the trailing-pair recursion is the oracle's; it must agree with the
    # leading-pair engine on every list, not just sorted ones
    for m in range(21):
        ws = tuple(["mu"] * m)
        assert rank_genus0(g2, ws) == _rank0_lastpair(g2, ws, [])
    # one chain across calls: each tuple reuses the prefix it shares with the last
    chain = []
    rng = random.Random(1405)
    for _ in range(200):
        ws = tuple(rng.choice(("0", "mu")) for _ in range(rng.randint(0, 12)))
        assert rank_genus0(g2, ws) == _rank0_lastpair(g2, ws, chain), ws


def test_split_order_independence_z4():
    ring = make_zn_ring(4)
    rng = random.Random(77)
    chain = []
    for _ in range(100):
        ws = tuple(rng.choice(ring.labels) for _ in range(rng.randint(0, 8)))
        assert rank_genus0(ring, ws) == _rank0_lastpair(ring, ws, []), ws
        assert rank_genus0(ring, ws) == _rank0_lastpair(ring, ws, chain), ws


# -- smooth curves ---------------------------------------------------


def test_rank_smooth_known_values(g2):
    # genus 1, one marked point: weight mu gives 0 + 1, weight 0 gives 1 + 1
    assert rank_smooth(g2, 1, ["mu"]) == 1
    assert rank_smooth(g2, 1, ["0"]) == 2
    assert rank_smooth(g2, 2, []) == 5
    assert rank_smooth(g2, 3, []) == 15
    assert rank_smooth(g2, 2, ["mu"]) == 5
    assert rank_smooth(g2, 0, ["mu"] * 5) == fib(4)


@pytest.mark.parametrize("g,n", [(0, 0), (0, 1), (0, 2), (1, 0)])
def test_rank_smooth_rejects_unstable(g2, g, n):
    with pytest.raises(StabilityError):
        rank_smooth(g2, g, ["0"] * n)


def test_rank_smooth_rejects_negative_genus(g2):
    with pytest.raises(PreconditionError):
        rank_smooth(g2, -1, ["mu"] * 3)


@given(g=st.integers(min_value=0, max_value=4), ws=g2_weight_lists)
def test_rank_smooth_vacua_are_invisible(g2, g, ws):
    kept = drop_vacua(g2, ws)
    # both sides must individually be stable configurations
    if 2 * g - 2 + len(ws) <= 0 or 2 * g - 2 + len(kept) <= 0:
        return
    assert rank_smooth(g2, g, ws) == rank_smooth(g2, g, kept)


def test_rank_smooth_zn():
    # for a group ring every handle contributes a free label choice
    ring = make_zn_ring(3)
    assert rank_smooth(ring, 2, []) == 9
    assert rank_smooth(ring, 3, []) == 27


# -- dual graphs -----------------------------------------------------


def test_dual_graph_total_genus(g2):
    assert clutch_graph(2, 1).total_genus == 2
    assert tails_graph(3, 0).total_genus == 3
    two_loops = DualGraph((GraphVertex(0, ("mu", "mu")),), ((0, 0), (0, 0)))
    assert two_loops.total_genus == 2


def test_dual_graph_rejects_unstable():
    with pytest.raises(StabilityError, match="vertex 0"):
        clutch_graph(1, 0)
    with pytest.raises(StabilityError, match="vertex 0"):
        tails_graph(2, 0)
    with pytest.raises(StabilityError):
        DualGraph((GraphVertex(1, ()),), ())


def test_dual_graph_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        DualGraph((GraphVertex(2, ()), GraphVertex(2, ())), ())


def test_dual_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="outside"):
        DualGraph((GraphVertex(2, ()),), ((0, 1),))


def test_constructors_reject_bad_ranges():
    with pytest.raises(PreconditionError):
        clutch_graph(0, 5)
    with pytest.raises(PreconditionError):
        tails_graph(0, 5)
    with pytest.raises(PreconditionError):
        clutch_graph(2, -1)


def test_rank_graph_reference_values(g2):
    assert rank_graph(g2, clutch_graph(2, 0)) == 5
    assert rank_graph(g2, tails_graph(3, 0)) == 15
    # sum over tail labelings of fig-b at (3, 0): 8 + 0 + 6 + 1
    assert 8 + 0 + 6 + 1 == 15
    one_tail = DualGraph((GraphVertex(1, ("mu",)),), ())
    assert rank_graph(g2, one_tail) == 1


def test_rank_graph_matches_smooth_on_both_families(g2):
    for g in range(1, 6):
        for n in range(0, 5):
            if 2 * g - 2 + n <= 0:
                continue
            expected = rank_smooth(g2, g, ["mu"] * n)
            assert rank_graph(g2, clutch_graph(g, n)) == expected, (g, n)
            if n + g >= 3:
                assert rank_graph(g2, tails_graph(g, n)) == expected, (g, n)


def test_rank_graph_edge_orientation_is_immaterial():
    # a ring with a non-self-dual label makes orientation visible; the
    # engine hands an edge's label to its lower endpoint, so permuting the
    # vertex indices of one graph flips which side gets the label
    ring = make_zn_ring(3)
    vertices = (
        GraphVertex(0, (ring.labels[1],) * 3),
        GraphVertex(1, ()),
        GraphVertex(0, (ring.labels[2],) * 3),
    )
    edges = ((0, 1), (1, 2), (0, 2), (1, 1))
    base = rank_graph(ring, DualGraph(vertices, edges))
    assert base == rank_bruteforce(ring, DualGraph(vertices, edges)) > 0
    for perm in permutations(range(3)):
        moved = [None] * 3
        for old, new in enumerate(perm):
            moved[new] = vertices[old]
        graph = DualGraph(tuple(moved), tuple((perm[u], perm[v]) for u, v in edges))
        assert rank_graph(ring, graph) == base, perm


def test_rank_graph_unknown_leg_label(g2):
    graph = DualGraph((GraphVertex(1, ("nu",)),), ())
    with pytest.raises(UnknownLabelError):
        rank_graph(g2, graph)


# -- brute-force oracle ----------------------------------------------


def test_bruteforce_simple_values(g2):
    flat = DualGraph((GraphVertex(0, ("mu",) * 4),), ())
    assert rank_bruteforce(g2, flat) == 2
    assert rank_bruteforce(g2, clutch_graph(2, 0)) == 5
    assert rank_bruteforce(g2, tails_graph(3, 0)) == 15


def test_bruteforce_agrees_on_families(g2):
    for g in range(1, 6):
        for n in range(0, 5):
            if 2 * g - 2 + n <= 0:
                continue
            assert rank_bruteforce(g2, clutch_graph(g, n)) == rank_graph(
                g2, clutch_graph(g, n)
            ), (g, n)
            if n + g >= 3:
                assert rank_bruteforce(g2, tails_graph(g, n)) == rank_graph(
                    g2, tails_graph(g, n)
                ), (g, n)


def test_bruteforce_agrees_on_random_graphs(g2):
    rng = random.Random(91120)
    for _ in range(25):
        graph = random_stable_graph(rng)
        assert rank_bruteforce(g2, graph) == rank_graph(g2, graph), graph


def test_bruteforce_agrees_on_random_graphs_z3():
    ring = make_zn_ring(3)
    rng = random.Random(3553)
    for _ in range(10):
        graph = random_stable_graph(rng, labels=ring.labels)
        assert rank_bruteforce(ring, graph) == rank_graph(ring, graph), graph


@pytest.mark.parametrize(
    "ring_name,seed,count", [("g2", 2718, 120), ("z3", 31415, 60)]
)
def test_factorization_invariant(g2, ring_name, seed, count):
    # a graph's rank is the smooth rank at its total genus with all legs,
    # an exact check on graphs far past the brute-force guard
    ring = g2 if ring_name == "g2" else make_zn_ring(3)
    rng = random.Random(seed)
    for _ in range(count):
        graph = random_stable_graph(
            rng, labels=ring.labels, max_vertices=5, max_extra_edges=4,
            max_genus=6,
        )
        legs = [w for vertex in graph.vertices for w in vertex.legs]
        assert rank_graph(ring, graph) == rank_smooth(
            ring, graph.total_genus, legs
        ), graph


def test_rank_smooth_far_past_recursion_depth(g2):
    start = time.perf_counter()
    r = rank_smooth(g2, 2000, ["mu"] * 3000)
    elapsed = time.perf_counter() - start
    assert r == closed_rank(2000, 3000)
    assert elapsed < 1.0, f"g = 2000, n = 3000 took {elapsed:.2f}s"


def test_bruteforce_size_guard(g2):
    big = DualGraph((GraphVertex(20, ()),), ())
    with pytest.raises(EnumerationLimitError):
        rank_bruteforce(g2, big)


# -- JSON loading ----------------------------------------------------


def test_load_dual_graph_round_trip_semantics(g2):
    text = (
        '{"vertices": [{"genus": 0, "legs": ["mu", "mu"]},'
        ' {"genus": 1, "legs": []}], "edges": [[0, 1], [0, 0]]}'
    )
    graph = load_dual_graph(text)
    assert graph.total_genus == 2
    assert rank_graph(g2, graph) == rank_bruteforce(g2, graph)


def test_load_dual_graph_errors():
    with pytest.raises(FormatError, match="line"):
        load_dual_graph("[not json")
    with pytest.raises(FormatError, match="vertices"):
        load_dual_graph('{"edges": []}')
    with pytest.raises(FormatError, match="vertex 0"):
        load_dual_graph('{"vertices": [{"legs": []}], "edges": []}')
    with pytest.raises(FormatError, match="genus"):
        load_dual_graph('{"vertices": [{"genus": -1, "legs": []}], "edges": []}')
    with pytest.raises(FormatError, match="edge 0"):
        load_dual_graph('{"vertices": [{"genus": 2, "legs": []}], "edges": [[0]]}')
    with pytest.raises(FormatError, match="edge 0"):
        load_dual_graph(
            '{"vertices": [{"genus": 2, "legs": []}], "edges": [[0, 3]]}'
        )
    with pytest.raises(StabilityError, match="vertex 1"):
        load_dual_graph(
            '{"vertices": [{"genus": 2, "legs": []}, {"genus": 0, "legs": []}],'
            ' "edges": [[0, 1]]}'
        )
