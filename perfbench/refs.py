"""Reference values and expected output bytes, computed without fusionrank.

Every check the benchmark makes compares the program's output with the
values below, never with the program's own agreement flags.

* Builtin two-label ring: the integer recurrences
  r(g, n+2) = r(g, n+1) + r(g, n) and r(g+1, n) = 5 r(g, n) - 5 r(g-1, n)
  from r(0,0)=1, r(0,1)=0, r(1,0)=2, r(1,1)=1; vacuum legs drop.
* Z_n: n^g when the leg labels sum to 0 mod n, else 0.
* Ising {0, s, p}: the Verlinde sum over its S-matrix, which gives
  2^(g-1) (2^g + 1) unmarked.
* A stable dual graph has the rank of a smooth curve of its total genus
  carrying all of its legs (factorization).
* No-leaf subgraph counts: r(k+1, 0) for the Moebius ladder M_k, and a
  dynamic programme over capped vertex degrees for other graphs.
"""

from __future__ import annotations

import json
from collections import defaultdict
from fractions import Fraction


class BuiltinRanks:
    """r(g, n) for the builtin ring, extended row by row on demand."""

    def __init__(self):
        self._rows: dict[int, list[int]] = {}

    def __call__(self, g: int, n: int) -> int:
        row = self._row(g)
        while len(row) <= n:
            row.append(row[-1] + row[-2])
        return row[n]

    def _row(self, g: int) -> list[int]:
        if g not in self._rows:
            prev, cur = (1, 0), (2, 1)
            if g == 0:
                cur = prev
            for _ in range(g - 1):
                prev, cur = cur, (5 * cur[0] - 5 * prev[0], 5 * cur[1] - 5 * prev[1])
            self._rows[g] = list(cur)
        return self._rows[g]


BUILTIN_RANKS = BuiltinRanks()


# -- rings -----------------------------------------------------------------


def zn_doc(n: int) -> dict:
    """The cyclic ring Z_n as a fusion ring document, labels "0".."n-1"."""
    labels = [str(i) for i in range(n)]
    triples = set()
    for i in range(n):
        for j in range(n):
            triples.add(tuple(sorted((i, j, (-i - j) % n))))
    return {
        "labels": labels,
        "vacuum": "0",
        "dual": {str(i): str(-i % n) for i in range(n)},
        "n3": [
            {"triple": [str(x) for x in t], "rank": 1} for t in sorted(triples)
        ],
    }


ISING_DOC = {
    "labels": ["0", "s", "p"],
    "vacuum": "0",
    "dual": {"0": "0", "s": "s", "p": "p"},
    "n3": [
        {"triple": ["0", "0", "0"], "rank": 1},
        {"triple": ["0", "s", "s"], "rank": 1},
        {"triple": ["0", "p", "p"], "rank": 1},
        {"triple": ["s", "s", "p"], "rank": 1},
    ],
}

BUILTIN_LABELS = ("0", "mu")


def ring_labels(ring: str) -> tuple[str, ...]:
    """Labels of a ring named "builtin", "ising" or "z<n>"."""
    if ring == "builtin":
        return BUILTIN_LABELS
    if ring == "ising":
        return tuple(ISING_DOC["labels"])
    return tuple(str(i) for i in range(int(ring[1:])))


def ring_doc(ring: str) -> dict:
    if ring == "ising":
        return ISING_DOC
    if ring.startswith("z"):
        return zn_doc(int(ring[1:]))
    raise ValueError(f"ring {ring!r} has no document")


def smooth_rank(ring: str, g: int, legs) -> int:
    """Rank on a smooth genus-g curve with the given leg labels."""
    legs = list(legs)
    if ring == "builtin":
        return BUILTIN_RANKS(g, sum(1 for w in legs if w == "mu"))
    if ring == "ising":
        k, m = legs.count("s"), legs.count("p")
        if k % 2:
            return 0
        value = Fraction(2) ** (2 * g - 1) * 2 ** (k // 2)
        if k == 0:
            value += (-1) ** m * Fraction(2) ** (g - 1)
        return int(value)
    n = int(ring[1:])
    return n**g if sum(int(w) for w in legs) % n == 0 else 0


def graph_rank(ring: str, vertices, edges) -> int:
    """Rank of a stable dual graph given as [(genus, legs)], [(u, v)]."""
    total_genus = sum(g for g, _ in vertices) + len(edges) - len(vertices) + 1
    legs = [w for _, ls in vertices for w in ls]
    return smooth_rank(ring, total_genus, legs)


# -- no-leaf counts --------------------------------------------------------


def ladder_count(k: int) -> int:
    return BUILTIN_RANKS(k + 1, 0)


def noleaf_count(vertex_count: int, edges) -> int:
    """Edge subsets with no degree-1 vertex, by a DP over capped degrees.

    Edges are taken in sorted order; a vertex leaves the state after its
    last edge, and only states where it ended with degree 0 or >= 2 stay.
    """
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    states = {(0,) * vertex_count: 1}
    for i, (u, v) in enumerate(edges):
        grown: dict[tuple, int] = defaultdict(int)
        for state, count in states.items():
            grown[state] += count
            taken = list(state)
            taken[u] = min(taken[u] + 1, 2)
            taken[v] = min(taken[v] + 1, 2)
            grown[tuple(taken)] += count
        for w in (u, v):
            if last[w] == i:
                kept: dict[tuple, int] = defaultdict(int)
                for state, count in grown.items():
                    if state[w] != 1:
                        kept[state[:w] + (0,) + state[w + 1:]] += count
                grown = kept
        states = grown
    return sum(states.values())


# -- expected CLI output ---------------------------------------------------


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _json_rows(docs) -> str:
    return "[" + ",\n".join(_dumps(d) for d in docs) + "]"


def _finish(text: str) -> bytes:
    return (text if text.endswith("\n") else text + "\n").encode()


def verify_bytes(g_range: range, n_range: range, fmt: str) -> bytes:
    """stdout of `verify` over the grid, every cell agreeing."""
    cells = [(g, n, BUILTIN_RANKS(g, n)) for g in g_range for n in n_range]
    if fmt == "json":
        docs = []
        for g, n, r in cells:
            doc = {"g": g, "n": n, "sum_clutch": str(r), "closed": str(r),
                   "sum_tails": str(r), "agree": True}
            if g < 2:
                doc["extension"] = True
            docs.append(doc)
        return _finish(_json_rows(docs))
    if fmt == "csv":
        rows = ["g,n,sum_clutch,closed,sum_tails,agree"]
        rows += [f"{g},{n},{r},{r},{r},true" for g, n, r in cells]
        return _finish("\n".join(rows))
    return _finish("\n".join(
        f"g={g} n={n} sum_clutch={r} closed={r} sum_tails={r} agree=true"
        for g, n, r in cells
    ))


def table_bytes(g_range: range, n_range: range, fmt: str) -> bytes:
    """stdout of `table` over the grid."""
    cells = [(g, n, BUILTIN_RANKS(g, n)) for g in g_range for n in n_range]
    if fmt == "json":
        return _finish(_json_rows({"g": g, "n": n, "rank": str(r)} for g, n, r in cells))
    if fmt == "csv":
        return _finish("\n".join(["g,n,rank"] + [f"{g},{n},{r}" for g, n, r in cells]))
    return _finish("\n".join(f"g={g} n={n} rank={r}" for g, n, r in cells))


def rank_bytes(method: str, g: int, n: int, r: int, fmt: str) -> bytes:
    """stdout of `rank --method closed|clutch|tails|graph`."""
    if fmt == "csv":
        return _finish(f"rank\n{r}")
    if fmt == "text":
        return _finish(str(r))
    if method == "closed":
        doc = {"g": g, "n": n, "method": "closed", "rank": str(r),
               "q5": {"a": str(r), "b": "0"}}
    elif method == "graph":
        doc = {"method": "graph", "rank": str(r)}
    else:
        doc = {"g": g, "n": n, "method": method, "rank": str(r)}
    return _finish(_dumps(doc))


def verlinde_bytes(r: int, fmt: str) -> bytes:
    """stdout of `rank --method verlinde-numeric` in text or csv."""
    if fmt == "csv":
        return _finish(f"rank\n{r}")
    return _finish(f"{r} (residual < 1e-6)")


def graph_rank_bytes(r: int, oracle: bool, fmt: str) -> bytes:
    """stdout of `graph-rank`, with the oracle agreeing when asked for."""
    if not oracle:
        if fmt == "json":
            return _finish(_dumps({"rank": str(r)}))
        if fmt == "csv":
            return _finish(f"rank\n{r}")
        return _finish(str(r))
    if fmt == "json":
        return _finish(_dumps({"rank": str(r), "oracle": str(r), "agree": True}))
    if fmt == "csv":
        return _finish(f"rank,oracle,agree\n{r},{r},true")
    return _finish(f"{r} {r} OK")


def moebius_check_bytes(k: int, fmt: str) -> bytes:
    """stdout of `moebius --k K --check`."""
    c = ladder_count(k)
    if fmt == "json":
        return _finish(_dumps({"k": k, "count": str(c), "expected": str(c), "agree": True}))
    if fmt == "csv":
        return _finish(f"k,count,expected,agree\n{k},{c},{c},true")
    return _finish(f"{c} {c} OK")
