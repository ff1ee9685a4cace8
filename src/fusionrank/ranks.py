"""Conformal-blocks rank computations over a finite fusion ring.

One engine serves genus 0, smooth curves and dual graphs: the ring's
integer fusion matrices ``N_a[b][c] = n3(a, b, dual c)`` and its handle
operator ``H = sum_l N_l N_{dual l}`` (``FusionData.matrices``).  The
rank on a smooth genus-g curve with weights w1..wn is the vacuum entry
of ``e_0 N_{w1} ... N_{wn} H^g``, the Verlinde/TQFT form of the
factorization rules.  A dual graph sums, over labelings of its non-loop
edges, the product of such vacuum entries per vertex; a loop is one more
handle.  Every loop is iterative, nothing is cached beyond the matrices,
and all arithmetic is exact integer arithmetic.

``rank_bruteforce`` is an independent oracle: it rewrites vertex genus
as explicit loops, labels every edge, and computes genus-0 ranks by
fusing the trailing pair of weights through ``ring.n3``.  It reads only
``ring.n3`` and ``ring.dual`` and shares no code or data with the
matrices, so agreement between the two is a meaningful check, not a
tautology.
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
from .fusion import FusionData, Label, _times

# exhaustive labelings beyond this many combinations are refused
BRUTE_FORCE_LIMIT = 10**6
# rank_graph refuses graphs with more labelings of non-loop edges than this
GRAPH_LABELING_LIMIT = 10**6


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


def _indices(ring: FusionData, weights) -> list[int]:
    index = ring.matrices.index
    out = []
    for w in weights:
        i = index.get(w)
        if i is None:
            ring.require_label(w)
        out.append(i)
    return out


def _vertex_vector(ring: FusionData, weights: list[int], handles: int) -> list[int]:
    # e_0 N_{w1} ... N_{wn} H^handles, over label indices
    m = ring.matrices
    x = [0] * len(m.dual)
    x[m.vacuum] = 1
    for w in weights:
        x = _times(x, m.fusion[w])
    for _ in range(handles):
        x = _times(x, m.handle)
    return x


def rank_genus0(ring: FusionData, weights) -> int:
    """Rank of the blocks bundle on a rational curve with the given weights.

    The empty list is allowed (rank 1).  The rank is the vacuum entry of
    ``e_0 N_{w1} ... N_{wn}``: one sparse vector-matrix product per
    weight, with no recursion and no cache.
    """
    x = _vertex_vector(ring, _indices(ring, weights), 0)
    return x[ring.matrices.vacuum]


def rank_smooth(ring: FusionData, genus: int, weights) -> int:
    """Rank on a smooth genus-g curve with the given marked weights.

    The vacuum entry of ``e_0 N_{w1} ... N_{wn} H^g``: each handle sums
    over one clutched label pair.  The (genus, marks) configuration must
    be stable, so (0, 0), (0, 1), (0, 2) and (1, 0) are rejected.
    """
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise PreconditionError(f"genus must be a nonnegative int, got {genus!r}")
    ws = _indices(ring, weights)
    if 2 * genus - 2 + len(ws) <= 0:
        raise StabilityError(
            f"(g, n) = ({genus}, {len(ws)}) is not a stable configuration"
        )
    return _vertex_vector(ring, ws, genus)[ring.matrices.vacuum]


def rank_graph(ring: FusionData, graph: DualGraph) -> int:
    """Rank attached to a stable dual graph.

    Sums over all labelings of the non-loop edges the product of
    smooth-vertex ranks, where an edge contributes its label to one side
    and the dual label to the other.  Which side gets the label is
    immaterial because the sum ranges over all labelings; the convention
    here hands it to the lower vertex index.  A loop contributes a label
    and its dual to the same vertex, summed over labels, which is one
    more handle ``H``; so loops are not enumerated.

    A graph with more than GRAPH_LABELING_LIMIT labelings of its
    non-loop edges is refused before any work.
    """
    links = [(u, v) for u, v in graph.edges if u != v]
    work = len(ring.labels) ** len(links)
    if work > GRAPH_LABELING_LIMIT:
        raise EnumerationLimitError(
            f"{work} edge labelings exceed the limit of {GRAPH_LABELING_LIMIT}"
        )
    handles = [vertex.genus for vertex in graph.vertices]
    for u, v in graph.edges:
        if u == v:
            handles[u] += 1
    bases = [
        _vertex_vector(ring, _indices(ring, vertex.legs), handles[i])
        for i, vertex in enumerate(graph.vertices)
    ]

    # per vertex: (link position, whether it takes the dual label)
    roles = [[] for _ in graph.vertices]
    for pos, (u, v) in enumerate(links):
        roles[min(u, v)].append((pos, False))
        roles[max(u, v)].append((pos, True))
    plan = list(zip(bases, roles))

    m = ring.matrices
    fusion, dual, vacuum = m.fusion, m.dual, m.vacuum
    total = 0
    for labeling in product(range(len(ring.labels)), repeat=len(links)):
        term = 1
        for x, vertex_roles in plan:
            for pos, takes_dual in vertex_roles:
                lam = labeling[pos]
                x = _times(x, fusion[dual[lam] if takes_dual else lam])
            r = x[vacuum]
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


def _vertex_roles(graph: DualGraph):
    # per vertex: (edge index, role) with role "both" for loops,
    # "lam" on the lower-index side and "dual" on the other
    roles = [[] for _ in graph.vertices]
    for ei, (u, v) in enumerate(graph.edges):
        if u == v:
            roles[u].append((ei, "both"))
            continue
        lo, hi = (u, v) if u < v else (v, u)
        roles[lo].append((ei, "lam"))
        roles[hi].append((ei, "dual"))
    return roles


def rank_bruteforce(ring: FusionData, graph: DualGraph) -> int:
    """Independent oracle for rank_graph.

    Rewrites every vertex of positive genus as a genus-0 vertex with
    that many extra loops, then enumerates all labelings of the enlarged
    edge set.  The genus-0 ranks fuse the trailing weight pair through
    ``ring.n3``, iteratively; none of this touches the engine's matrices.

    Each vertex keeps, for the length of one call, the rank of every
    labeling of its own edges (a list of |labels| ** its edge ends,
    filled on first use) and the prefix maps of the last weight tuple it
    fused.  Its edge labelings first appear in lexicographic order, so
    each new tuple shares with the last one the longest prefix it shares
    with any earlier one, and memory stays at that list plus one chain
    of maps however many tuples are fused.
    """
    check_bruteforce_limit(ring, graph)
    for vertex in graph.vertices:
        _check_labels(ring, vertex.legs)

    flat_vertices = tuple(GraphVertex(genus=0, legs=v.legs) for v in graph.vertices)
    loop_edges = tuple(
        (i, i) for i, v in enumerate(graph.vertices) for _ in range(v.genus)
    )
    flat = DualGraph(flat_vertices, graph.edges + loop_edges)

    labels = ring.labels
    duals = [ring.dual_of(lam) for lam in labels]
    base = len(labels)
    plan = []
    for vertex, vertex_roles in zip(flat.vertices, _vertex_roles(flat)):
        ranks = [None] * base ** len(vertex_roles)
        plan.append((vertex.legs, vertex_roles, ranks, []))
    total = 0
    for labeling in product(range(base), repeat=len(flat.edges)):
        term = 1
        for legs, vertex_roles, ranks, chain in plan:
            key = 0
            for ei, _ in vertex_roles:
                key = key * base + labeling[ei]
            r = ranks[key]
            if r is None:
                ws = list(legs)
                for ei, role in vertex_roles:
                    lam = labeling[ei]
                    if role == "both":
                        ws.append(labels[lam])
                        ws.append(duals[lam])
                    elif role == "lam":
                        ws.append(labels[lam])
                    else:
                        ws.append(duals[lam])
                r = ranks[key] = _rank0_lastpair(ring, ws, chain)
            if r == 0:
                term = 0
                break
            term *= r
        total += term
    return total


def _rank0_lastpair(ring, ws, chain) -> int:
    # genus-0 rank fusing the trailing pair, iteratively.  chain[j] holds
    # (w_j, {t: rank(w_0..w_j, t)}) for the tuple of the previous call with
    # the same chain; entries on the prefix shared with ws are kept and
    # the rest are rebuilt one weight at a time
    if not ws:
        return 1
    last = len(ws) - 1
    k = 0
    while k < min(len(chain), last) and chain[k][0] == ws[k]:
        k += 1
    del chain[k:]
    ranks = chain[-1][1] if chain else _prefix_ranks(ring, ws, 0, None)
    for j in range(k, last):
        ranks = _prefix_ranks(ring, ws, j + 1, ranks)
        chain.append((ws[j], ranks))
    return ranks[ws[last]]


def _prefix_ranks(ring, ws, j, parent) -> dict:
    # {t: rank(ws[:j] + (t,))}, given parent = the same map for ws[:j - 1];
    # past three weights, fusing the trailing pair (a, t) into lam gives
    # rank(p + (a, t)) = sum_lam n3(a, t, lam) rank(p + (dual lam,))
    if j == 0:
        return {t: int(t == ring.vacuum) for t in ring.labels}
    if j == 1:
        d = ring.dual_of(ws[0])
        return {t: int(t == d) for t in ring.labels}
    if j == 2:
        return {t: ring.n3(ws[0], ws[1], t) for t in ring.labels}
    a = ws[j - 1]
    reduced = [(lam, parent[ring.dual_of(lam)]) for lam in ring.labels]
    reduced = [(lam, r) for lam, r in reduced if r]
    return {
        t: sum(r * ring.n3(a, t, lam) for lam, r in reduced) for t in ring.labels
    }
