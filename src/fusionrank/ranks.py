"""Conformal-blocks rank computations over a finite fusion ring.

The genus-0 recursion is the workhorse: every higher-genus or nodal rank
reduces to it by summing label assignments over clutched point pairs or
graph edges.  All arithmetic is exact integer arithmetic.

``rank_bruteforce`` is an independent oracle: it rewrites vertex genus
as explicit loops and runs a genus-0 recursion that fuses the trailing
pair of weights, so it shares no recursion path or cache with the main
engine.  Agreement between the two is a meaningful check, not a tautology.

Memoization is scoped per ring instance and keyed on weight multisets;
entries are immutable results of pure functions, so concurrent readers
are safe and at worst repeat work.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import product

from .errors import (
    EnumerationLimitError,
    FormatError,
    PreconditionError,
    StabilityError,
)
from .fusion import FusionData, Label

# exhaustive labelings beyond this many combinations are refused
BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class GraphVertex:
    """A component of a nodal curve: its genus and the leg weights on it."""

    genus: int
    legs: tuple[Label, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        if not isinstance(self.genus, int) or isinstance(self.genus, bool):
            raise ValueError("vertex genus must be an int")
        if self.genus < 0:
            raise ValueError(f"vertex genus must be nonnegative, got {self.genus}")


@dataclass(frozen=True)
class DualGraph:
    """The dual graph of a connected stable curve.

    Vertices are components, edges are nodes; loops and parallel edges
    are allowed.  Construction rejects graphs that are disconnected or
    violate stability (each vertex needs 2*genus - 2 + valence > 0,
    where valence counts legs plus incident edge ends, loops twice).
    """

    vertices: tuple[GraphVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        if not self.vertices:
            raise ValueError("a dual graph needs at least one vertex")
        count = len(self.vertices)
        for u, v in self.edges:
            if not (0 <= u < count and 0 <= v < count):
                raise ValueError(f"edge ({u}, {v}) points outside the vertex range")

        valence = [len(v.legs) for v in self.vertices]
        neighbors = [set() for _ in range(count)]
        for u, v in self.edges:
            valence[u] += 1
            valence[v] += 1
            neighbors[u].add(v)
            neighbors[v].add(u)

        seen = {0}
        queue = deque([0])
        while queue:
            for w in neighbors[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != count:
            missing = sorted(set(range(count)) - seen)
            raise ValueError(f"graph is disconnected: vertices {missing} unreachable")

        for i, vertex in enumerate(self.vertices):
            if 2 * vertex.genus - 2 + valence[i] <= 0:
                raise StabilityError(
                    f"vertex {i} is unstable: genus {vertex.genus} with"
                    f" {valence[i]} legs and edge ends"
                )

    @property
    def total_genus(self) -> int:
        """Sum of vertex genera plus the first Betti number of the graph."""
        betti = len(self.edges) - len(self.vertices) + 1
        return sum(v.genus for v in self.vertices) + betti


def clutch_graph(g: int, n: int, label: Label = "mu") -> DualGraph:
    """One rational vertex with n legs and g loops (genus from clutching)."""
    if g < 1:
        raise PreconditionError("clutch_graph needs g >= 1")
    if n < 0:
        raise PreconditionError("clutch_graph needs n >= 0")
    vertex = GraphVertex(genus=0, legs=(label,) * n)
    return DualGraph((vertex,), tuple((0, 0) for _ in range(g)))


def tails_graph(g: int, n: int, label: Label = "mu") -> DualGraph:
    """A rational spine with n legs and g genus-1 tail vertices."""
    if g < 1:
        raise PreconditionError("tails_graph needs g >= 1")
    if n < 0:
        raise PreconditionError("tails_graph needs n >= 0")
    spine = GraphVertex(genus=0, legs=(label,) * n)
    tails = tuple(GraphVertex(genus=1) for _ in range(g))
    return DualGraph((spine,) + tails, tuple((0, i + 1) for i in range(g)))


def load_dual_graph(text: str) -> DualGraph:
    """Parse a dual graph JSON document.

    Schema errors raise FormatError with the offending vertex or edge
    index; unstable or disconnected graphs are rejected by the DualGraph
    constructor itself.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"dual graph document: {exc}") from exc

    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise FormatError("dual graph document needs 'vertices' and 'edges'")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise FormatError("'vertices' and 'edges' must be lists")

    vertices = []
    for i, entry in enumerate(doc["vertices"]):
        where = f"vertex {i}"
        if not isinstance(entry, dict) or "genus" not in entry:
            raise FormatError(f"{where}: expected an object with 'genus'")
        genus = entry["genus"]
        if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
            raise FormatError(f"{where}: 'genus' must be a nonnegative integer")
        legs = entry.get("legs", [])
        if not isinstance(legs, list) or not all(isinstance(l, str) for l in legs):
            raise FormatError(f"{where}: 'legs' must be a list of labels")
        vertices.append(GraphVertex(genus=genus, legs=tuple(legs)))

    edges = []
    for i, entry in enumerate(doc["edges"]):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(e, int) and not isinstance(e, bool) for e in entry)
        ):
            raise FormatError(f"edge {i}: expected a pair of vertex indices")
        if not all(0 <= e < len(vertices) for e in entry):
            raise FormatError(f"edge {i}: endpoint outside the vertex range")
        edges.append((entry[0], entry[1]))

    try:
        return DualGraph(tuple(vertices), tuple(edges))
    except ValueError as exc:
        if isinstance(exc, StabilityError):
            raise
        raise FormatError(f"dual graph document: {exc}") from exc


def _check_labels(ring: FusionData, weights) -> None:
    for w in weights:
        ring.require_label(w)


def drop_vacua(ring: FusionData, weights) -> tuple[Label, ...]:
    """Remove vacuum entries from a weight list; the rank is unchanged."""
    ws = tuple(weights)
    _check_labels(ring, ws)
    return tuple(w for w in ws if w != ring.vacuum)


def rank_genus0(ring: FusionData, weights) -> int:
    """Rank of the blocks bundle on a rational curve with the given weights.

    The empty list is allowed (rank 1).  Recursion fuses a pair of
    weights through the 3-point table; results are cached per ring on
    the weight multiset.
    """
    ws = tuple(weights)
    _check_labels(ring, ws)
    return _rank0_sorted(ring, tuple(sorted(ws)))


def _rank0_sorted(ring: FusionData, ws: tuple[Label, ...]) -> int:
    # ws must be sorted; the multiset is the cache key
    m = len(ws)
    if m == 0:
        return 1
    if m == 1:
        return 1 if ws[0] == ring.vacuum else 0
    if m == 2:
        return 1 if ws[1] == ring.dual_of(ws[0]) else 0
    if m == 3:
        return ring.n3(*ws)
    cached = ring._memo.get(ws)
    if cached is not None:
        return cached
    first, second = ws[0], ws[1]
    rest = ws[2:]
    total = 0
    for lam in ring.labels:
        c = ring.n3(first, second, lam)
        if c:
            reduced = tuple(sorted(rest + (ring.dual_of(lam),)))
            total += c * _rank0_sorted(ring, reduced)
    ring._memo[ws] = total
    return total


def rank_smooth(ring: FusionData, genus: int, weights) -> int:
    """Rank on a smooth genus-g curve with the given marked weights.

    Reduces to genus 0 by summing over one label pair per handle.  The
    (genus, marks) configuration must be stable, so (0, 0), (0, 1),
    (0, 2) and (1, 0) are rejected.
    """
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise PreconditionError(f"genus must be a nonnegative int, got {genus!r}")
    ws = tuple(weights)
    _check_labels(ring, ws)
    if 2 * genus - 2 + len(ws) <= 0:
        raise StabilityError(
            f"(g, n) = ({genus}, {len(ws)}) is not a stable configuration"
        )
    if genus == 0:
        return rank_genus0(ring, ws)
    total = 0
    for assignment in product(ring.labels, repeat=genus):
        extended = ws
        for lam in assignment:
            extended = extended + (lam, ring.dual_of(lam))
        total += rank_genus0(ring, extended)
    return total


def _vertex_roles(graph: DualGraph, flipped_edges=frozenset()):
    # per vertex: (edge index, role) with role "both" for loops,
    # "lam" on the lower-index side and "dual" on the other
    roles = [[] for _ in graph.vertices]
    for ei, (u, v) in enumerate(graph.edges):
        if u == v:
            roles[u].append((ei, "both"))
            continue
        lo, hi = (u, v) if u < v else (v, u)
        if ei in flipped_edges:
            lo, hi = hi, lo
        roles[lo].append((ei, "lam"))
        roles[hi].append((ei, "dual"))
    return roles


def rank_graph(ring: FusionData, graph: DualGraph) -> int:
    """Rank attached to a stable dual graph.

    Sums over all edge labelings the product of smooth-vertex ranks,
    where an edge contributes its label to one side and the dual label
    to the other (for loops, both to the same vertex).  Which side gets
    the label is immaterial because the sum ranges over all labelings;
    the convention here hands it to the lower vertex index.
    """
    for vertex in graph.vertices:
        _check_labels(ring, vertex.legs)
    return _rank_graph_oriented(ring, graph, frozenset())


def _rank_graph_oriented(ring, graph, flipped_edges) -> int:
    roles = _vertex_roles(graph, flipped_edges)
    total = 0
    for labeling in product(ring.labels, repeat=len(graph.edges)):
        term = 1
        for vi, vertex in enumerate(graph.vertices):
            ws = list(vertex.legs)
            for ei, role in roles[vi]:
                lam = labeling[ei]
                if role == "both":
                    ws.append(lam)
                    ws.append(ring.dual_of(lam))
                elif role == "lam":
                    ws.append(lam)
                else:
                    ws.append(ring.dual_of(lam))
            r = rank_smooth(ring, vertex.genus, ws)
            if r == 0:
                term = 0
                break
            term *= r
        total += term
    return total


def check_bruteforce_limit(ring: FusionData, graph: DualGraph) -> None:
    """Refuse a graph whose oracle run would exceed BRUTE_FORCE_LIMIT labelings.

    The oracle labels every edge plus one loop per unit of vertex genus,
    so the count is |labels| ** (edges + total vertex genus).
    """
    base = len(ring.labels)
    extra = sum(v.genus for v in graph.vertices)
    work = base ** (len(graph.edges) + extra)
    if work > BRUTE_FORCE_LIMIT:
        raise EnumerationLimitError(
            f"{work} labelings exceed the brute-force limit of {BRUTE_FORCE_LIMIT}"
        )


def rank_bruteforce(ring: FusionData, graph: DualGraph) -> int:
    """Independent oracle for rank_graph.

    Rewrites every vertex of positive genus as a genus-0 vertex with
    that many extra loops, then enumerates all labelings of the enlarged
    edge set.  The genus-0 ranks are computed by a recursion that fuses
    the trailing weight pair and caches on exact tuples, deliberately
    disjoint from the sorted-multiset cache of the main engine.
    """
    check_bruteforce_limit(ring, graph)
    for vertex in graph.vertices:
        _check_labels(ring, vertex.legs)

    flat_vertices = tuple(GraphVertex(genus=0, legs=v.legs) for v in graph.vertices)
    loop_edges = tuple(
        (i, i) for i, v in enumerate(graph.vertices) for _ in range(v.genus)
    )
    flat = DualGraph(flat_vertices, graph.edges + loop_edges)

    roles = _vertex_roles(flat)
    memo: dict[tuple[Label, ...], int] = {}
    total = 0
    for labeling in product(ring.labels, repeat=len(flat.edges)):
        term = 1
        for vi, vertex in enumerate(flat.vertices):
            ws = list(vertex.legs)
            for ei, role in roles[vi]:
                lam = labeling[ei]
                if role == "both":
                    ws.append(lam)
                    ws.append(ring.dual_of(lam))
                elif role == "lam":
                    ws.append(lam)
                else:
                    ws.append(ring.dual_of(lam))
            r = _rank0_lastpair(ring, tuple(ws), memo)
            if r == 0:
                term = 0
                break
            term *= r
        total += term
    return total


def _rank0_lastpair(ring, ws, memo) -> int:
    # genus-0 recursion fusing the trailing pair; cache key is the exact tuple
    m = len(ws)
    if m == 0:
        return 1
    if m == 1:
        return 1 if ws[0] == ring.vacuum else 0
    if m == 2:
        return 1 if ws[1] == ring.dual_of(ws[0]) else 0
    if m == 3:
        return ring.n3(*ws)
    cached = memo.get(ws)
    if cached is not None:
        return cached
    a, b = ws[-2], ws[-1]
    total = 0
    for lam in ring.labels:
        c = ring.n3(a, b, lam)
        if c:
            total += c * _rank0_lastpair(
                ring, ws[:-2] + (ring.dual_of(lam),), memo
            )
    memo[ws] = total
    return total
