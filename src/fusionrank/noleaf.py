"""No-leaf edge-subgraph counting on multigraphs.

A no-leaf subgraph is a subset of edges such that no vertex has degree
exactly 1 in the subset; isolated vertices are fine and the empty subset
counts.  On the Moebius ladder with k rungs the count equals the
closed-form rank at genus k + 1, which makes it a combinatorial
cross-check on the algebraic rank computations, independent of them.

``count_noleaf_subgraphs`` is a frontier dynamic program (frontier-based
search: Kawahara, Inoue, Iwashita and Minato, IEICE Trans. Fundamentals,
2017).  It decides the edges one at a time in an order fixed by a
breadth-first search of the vertices.  The frontier is the set of
vertices with some edges decided and some not; the program keeps, for
each pattern of frontier degrees capped at 2 (only "0, 1 or at least 2"
matters), how many subsets of the decided edges produce it.  After a
vertex's last edge it leaves the frontier, and the patterns in which it
ended with degree 1 are dropped.  The sum of the counts left at the end
is the answer.  A frontier of w vertices allows up to 3^w patterns, so
the widest frontier of the edge order is computed first and graphs
wider than ``MAX_FRONTIER`` are refused before any counting; every graph
on at most ``MAX_FRONTIER`` vertices passes.

``count_noleaf_bruteforce`` is the oracle the dynamic program is tested
against: it enumerates all 2^E edge subsets with a per-subset degree
tally, shares no code with the dynamic program, and refuses graphs with
more than ``MAX_EDGES`` edges.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import EnumerationLimitError, FormatError, PreconditionError

# 2^24 subsets is a few seconds of work for the oracle; past that, refuse
MAX_EDGES = 24

# 3^12 ~ 5.3e5 frontier degree patterns; wider frontiers are refused
MAX_FRONTIER = 12


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected multigraph without loops, vertices numbered from 0."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) points outside the vertex range")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)


def moebius_ladder(k: int) -> SimpleGraph:
    """The Moebius ladder on 2k vertices: a 2k-cycle plus k cross rungs.

    Vertices 0..2k-1 sit on the cycle; rung i joins i to i + k.  Every
    vertex has degree 3.  k = 1 would force parallel and loop edges, so
    k >= 2 is required.
    """
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise PreconditionError("moebius_ladder needs integer k >= 2")
    count = 2 * k
    cycle = tuple((i, (i + 1) % count) for i in range(count))
    rungs = tuple((i, i + k) for i in range(k))
    return SimpleGraph(count, cycle + rungs)


def count_noleaf_subgraphs(graph: SimpleGraph) -> int:
    """Count edge subsets in which no vertex has degree exactly 1.

    Frontier dynamic program over a breadth-first edge order (see the
    module docstring).  Graphs whose frontier would exceed MAX_FRONTIER
    vertices are refused with EnumerationLimitError before any counting.
    """
    plan, width = _frontier_plan(_bfs_edge_order(graph))
    if width > MAX_FRONTIER:
        raise EnumerationLimitError(
            f"a frontier of {width} vertices exceeds the limit of {MAX_FRONTIER}"
        )
    # a state packs one capped degree per frontier slot into 2 bits of an int
    states = {0: 1}
    for shift_u, shift_v, leaving in plan:
        grown: dict[int, int] = {}
        for state, count in states.items():
            taken = state
            for shift in (shift_u, shift_v):
                if (taken >> shift) & 3 < 2:
                    taken += 1 << shift
            for s in (state, taken):
                for shift in leaving:
                    if (s >> shift) & 3 == 1:
                        break
                    s &= ~(3 << shift)
                else:
                    grown[s] = grown.get(s, 0) + count
        states = grown
    return sum(states.values())


def _bfs_edge_order(graph: SimpleGraph) -> list[tuple[int, int]]:
    # edges sorted by the breadth-first positions of their two ends, earlier
    # end first, so a vertex leaves the frontier soon after it enters
    neighbors = [set() for _ in range(graph.vertex_count)]
    for u, v in graph.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    position: dict[int, int] = {}
    for root in range(graph.vertex_count):
        if root in position:
            continue
        position[root] = len(position)
        queue = deque([root])
        while queue:
            for w in sorted(neighbors[queue.popleft()]):
                if w not in position:
                    position[w] = len(position)
                    queue.append(w)
    return sorted(
        graph.edges, key=lambda e: sorted((position[e[0]], position[e[1]]))
    )


def _frontier_plan(edges):
    """Per edge, the bit shifts of its ends' slots and of the slots freed after it.

    A vertex takes a slot at its first edge and frees it after its last;
    freed slots are reused, so the number of slots is the widest frontier.
    """
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    slot: dict[int, int] = {}
    free: list[int] = []
    width = 0
    plan = []
    for i, (u, v) in enumerate(edges):
        for w in (u, v):
            if w not in slot:
                if free:
                    slot[w] = free.pop()
                else:
                    slot[w] = width
                    width += 1
        shifts = (2 * slot[u], 2 * slot[v])
        done = [slot.pop(w) for w in (u, v) if last[w] == i]
        free.extend(done)
        plan.append(shifts + (tuple(2 * s for s in done),))
    return plan, width


def count_noleaf_bruteforce(graph: SimpleGraph) -> int:
    """Count edge subsets in which no vertex has degree exactly 1, by enumeration.

    Plain enumeration over all 2^E subsets with a per-subset degree
    tally: the oracle for count_noleaf_subgraphs.  Graphs with more than
    24 edges are refused.
    """
    edges = graph.edges
    if len(edges) > MAX_EDGES:
        raise EnumerationLimitError(
            f"{len(edges)} edges exceed the enumeration limit of {MAX_EDGES}"
        )
    count = 0
    n = graph.vertex_count
    for mask in range(1 << len(edges)):
        degree = [0] * n
        m = mask
        i = 0
        while m:
            if m & 1:
                u, v = edges[i]
                degree[u] += 1
                degree[v] += 1
            m >>= 1
            i += 1
        if 1 not in degree:
            count += 1
    return count


def load_simple_graph(text: str) -> SimpleGraph:
    """Parse a simple graph JSON document {"vertex_count": ..., "edges": [...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"graph document: {exc}") from exc
    if not isinstance(doc, dict) or "vertex_count" not in doc or "edges" not in doc:
        raise FormatError("graph document needs 'vertex_count' and 'edges'")
    count = doc["vertex_count"]
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise FormatError("'vertex_count' must be a nonnegative integer")
    if not isinstance(doc["edges"], list):
        raise FormatError("'edges' must be a list")
    edges = []
    for i, entry in enumerate(doc["edges"]):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in entry)
        ):
            raise FormatError(f"edge {i}: expected a pair of vertex indices")
        edges.append((entry[0], entry[1]))
    try:
        return SimpleGraph(count, tuple(edges))
    except ValueError as exc:
        raise FormatError(f"graph document: {exc}") from exc
