"""Seeded op generators, one round at a time, with expected outcomes.

A workload is a sequence of rounds.  Every round holds one op of each
class the workload defines, in a seeded order, so any run of whole
rounds has the same mix; the seed draws each op's inputs within its
class.  Where an input sets how much work an op does (grid sizes, graph
shapes, leg counts), the draws are stratified over the rounds, so the
runs of different seeds hold about the same work.  The class counts are
odd, which keeps the median inside a class rather than on the boundary
between two.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import refs

FORMATS = ("text", "csv", "json")
# leg counts for the large clutch/tails ops come from two strata of
# 0..2000.  The program overflows its recursion at 986..990 legs; the
# low stratum stops short of that band because the traced launcher adds
# a few stack frames and would flip the outcome right at the limit.
LOW_LEGS = (0, 960)
HIGH_LEGS = (1000, 2000)
GOLDEN = (5**0.5 - 1) / 2


def spread_draw(start: float, index: int, lo: int, hi: int) -> int:
    """The index-th point of a golden-ratio sequence from `start`, scaled to lo..hi.

    Consecutive rounds cover the range evenly, so a run's largest and
    smallest draws depend little on the seed.
    """
    return lo + int((start + index * GOLDEN) % 1.0 * (hi - lo + 1))


@dataclass
class CliOp:
    """One fusionrank invocation and the outcome the references predict."""

    kind: str
    args: list[str]
    code: int = 0  # expected exit code: 0, or 2/3 for a documented refusal
    stdout: bytes | None = None  # expected bytes when code is 0


@dataclass
class EngineOp:
    kind: str
    request: dict
    values: list[str]  # expected values, in the order the worker returns them
    refused: bool | None = None  # None for ops that do not run the oracle


# -- dual graphs -------------------------------------------------------------


def random_dual_graph(rng, ring: str, vertices: int, edges: int, genus: int,
                      max_legs: int):
    """A connected stable dual graph: a random tree plus extra edges.

    Extra edges may be loops or parallel edges.  The genus is spread
    evenly over the vertices, which bounds the engine's work per vertex.
    Vertices that would be unstable get non-vacuum legs until they are
    stable.  Over Z_n, half of the graphs have their leg labels adjusted
    to sum to zero, so that both zero and nonzero ranks occur.
    """
    labels = refs.ring_labels(ring)
    nontrivial = labels[1:]
    es = [(rng.randrange(i), i) for i in range(1, vertices)]
    while len(es) < edges:
        es.append((rng.randrange(vertices), rng.randrange(vertices)))
    genera = [genus // vertices + (i < genus % vertices) for i in range(vertices)]
    rng.shuffle(genera)
    legs = [[rng.choice(labels) for _ in range(rng.randint(0, max_legs))]
            for _ in range(vertices)]
    valence = [len(ls) for ls in legs]
    for u, v in es:
        valence[u] += 1
        valence[v] += 1
    for i in range(vertices):
        while 2 * genera[i] - 2 + valence[i] <= 0:
            legs[i].append(rng.choice(nontrivial))
            valence[i] += 1
    if ring.startswith("z") and rng.random() < 0.5:
        carrier = next((ls for ls in legs if ls), None)
        if carrier is not None:
            n = len(labels)
            rest = sum(int(w) for ls in legs for w in ls) - int(carrier[-1])
            carrier[-1] = str(-rest % n)
    return [(genera[i], legs[i]) for i in range(vertices)], es


def graph_doc(vertices, edges) -> dict:
    return {
        "vertices": [{"genus": g, "legs": legs} for g, legs in vertices],
        "edges": [list(e) for e in edges],
    }


def _oracle_graph(rng, ring: str, exponent: int):
    """1..3 vertices whose oracle enumerates exactly len(labels)^exponent labelings."""
    vertices = rng.randint(1, 3)
    edges = rng.randint(vertices - 1, min(exponent, vertices + 2))
    return random_dual_graph(rng, ring, vertices, edges, exponent - edges, 2)


# -- grid-sized ops ------------------------------------------------------------

GRID_MODES = [(fmt, jobs) for fmt in FORMATS for jobs in (1, 2)]
# Roberts' R3 sequence: the k-th point start + k * R3 (mod 1) of a
# low-discrepancy sequence in the unit cube, from the generalized golden ratio
_PHI3 = 1.2207440846057596
R3 = (1 / _PHI3, 1 / _PHI3**2, 1 / _PHI3**3)


def r3_point(start, k: int) -> list[float]:
    return [(s + k * a) % 1.0 for s, a in zip(start, R3)]


def grid_ops(inputs: "Inputs") -> list[CliOp]:
    """One verify and one table over a grid of side 8..18 placed in g 2..60, n 0..60.

    Corner and side come from the next point of an R3 sequence that
    starts at a seeded point, so the grids of a run cover the range
    evenly and hold about the same work whatever the seed; the format
    and --jobs cycle through every pairing.
    """
    ops = []
    for c, cmd in enumerate(("verify", "table")):
        fmt, jobs = GRID_MODES[(inputs.offset(cmd) + inputs.index) % len(GRID_MODES)]
        u_g, u_n, u_side = r3_point(inputs.start, 2 * inputs.index + c)
        side_lo, side_hi = (8, 14) if cmd == "verify" else (10, 18)
        side = side_lo + int(u_side * (side_hi - side_lo + 1))
        g_lo, n_lo = 2 + int(u_g * 46), int(u_n * 46)
        g_range, n_range = range(g_lo, g_lo + side), range(n_lo, n_lo + side)
        render = refs.verify_bytes if cmd == "verify" else refs.table_bytes
        ops.append(CliOp(
            f"grid-{cmd}", [cmd, "--g", _span(g_range), "--n", _span(n_range),
                            "--format", fmt, "--jobs", str(jobs)],
            stdout=render(g_range, n_range, fmt),
        ))
    return ops


def _span(r: range) -> str:
    return f"{r.start}..{r.stop - 1}"


# -- requests ----------------------------------------------------------------

REQUEST_RINGS = ("z2", "z3", "z4", "z5", "z6", "z7", "z8", "ising")


def write_request_files(workdir: Path) -> None:
    """Ring documents, valid and invalid, that the requests ops point at."""
    for ring in REQUEST_RINGS:
        (workdir / f"{ring}.json").write_text(json.dumps(refs.ring_doc(ring)))
    (workdir / "bad-syntax.json").write_text('{"labels": ["0", "mu"], "vacuum": ')
    bad = refs.zn_doc(3)
    bad["dual"]["1"] = "1"  # duality is no longer an involution
    (workdir / "bad-ring.json").write_text(json.dumps(bad))
    (workdir / "unstable-graph.json").write_text(json.dumps(
        {"vertices": [{"genus": 0, "legs": ["mu", "mu"]}], "edges": []}))


def _bad_input(rng, workdir: Path) -> list[str]:
    choices = [
        ["graph-rank", "--fusion", str(workdir / "bad-syntax.json"),
         "--graph", str(workdir / "unstable-graph.json")],
        ["graph-rank", "--fusion", str(workdir / "bad-ring.json"),
         "--graph", str(workdir / "unstable-graph.json")],
        ["graph-rank", "--graph", str(workdir / "unstable-graph.json")],
        ["moebius", "--k", str(rng.randint(9, 40)), "--check"],
        ["rank", "--method", "closed", "--genus", str(-rng.randint(1, 9)),
         "--npoints", "0"],
        ["verify", "--g", f"0..{rng.randint(2, 9)}", "--n", "0..3"],
        ["table", "--g", "2..4", "--n", "0..4", "--jobs", "0"],
    ]
    return rng.choice(choices)


def _graph_file(workdir: Path, name: str, vertices, edges) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(graph_doc(vertices, edges)))
    return str(path)


def requests_round(inputs: "Inputs") -> list[CliOp]:
    """17 invocations: every rank method, rings from files, refusals, two grids."""
    rng, workdir, index = inputs.rng, inputs.workdir, inputs.index
    ops = []

    def fmt():
        return rng.choice(FORMATS)

    g, n, f = rng.randint(2, 60), rng.randint(0, 60), fmt()
    ops.append(CliOp("rank-closed", _rank("closed", g, n, f),
                     stdout=refs.rank_bytes("closed", g, n, refs.BUILTIN_RANKS(g, n), f)))
    g, n, f = rng.randint(2, 6), rng.randint(0, 8), fmt()
    ops.append(CliOp("rank-clutch", _rank("clutch", g, n, f),
                     stdout=refs.rank_bytes("clutch", g, n, refs.BUILTIN_RANKS(g, n), f)))
    g, n, f = rng.randint(1, 6), rng.randint(0, 8), fmt()
    n = max(n, 3 - g)  # the genus-0 spine needs three special points
    ops.append(CliOp("rank-tails", _rank("tails", g, n, f),
                     stdout=refs.rank_bytes("tails", g, n, refs.BUILTIN_RANKS(g, n), f)))

    vertices, edges = _oracle_graph(rng, "builtin", rng.randint(4, 10))
    path = _graph_file(workdir, f"r{index}-graph", vertices, edges)
    f = fmt()
    ops.append(CliOp("rank-graph", ["rank", "--method", "graph", "--graph", path,
                                    "--format", f],
                     stdout=refs.rank_bytes("graph", 0, 0,
                                            refs.graph_rank("builtin", vertices, edges), f)))

    g, f = rng.randint(2, 12), rng.choice(("text", "csv"))
    ops.append(CliOp("rank-verlinde", _rank("verlinde-numeric", g, 0, f),
                     stdout=refs.verlinde_bytes(refs.BUILTIN_RANKS(g, 0), f)))

    low = spread_draw(inputs.phase, index, *LOW_LEGS)
    high = spread_draw(inputs.phase, index, *HIGH_LEGS)
    if rng.random() < 0.5:
        low, high = high, low
    for method, n in (("clutch", low), ("tails", high)):
        g, f = rng.randint(1, 3), fmt()
        # a low draw of 0 or 1 legs would be unstable (the CLI rightly
        # refuses it); n >= 3 - g covers both the tails spine and clutch
        n = max(n, 3 - g)
        ops.append(CliOp(f"rank-{method}-legs", _rank(method, g, n, f),
                         stdout=refs.rank_bytes(method, g, n, refs.BUILTIN_RANKS(g, n), f)))

    for ring in (rng.choice(REQUEST_RINGS[:-1]), "ising"):
        base = len(refs.ring_labels(ring))
        exponent = 1
        while base ** (exponent + 1) <= 4096:
            exponent += 1
        vertices, edges = _oracle_graph(rng, ring, exponent)
        path = _graph_file(workdir, f"r{index}-{ring}", vertices, edges)
        oracle, f = rng.random() < 0.5, fmt()
        args = ["graph-rank", "--fusion", str(workdir / f"{ring}.json"),
                "--graph", path, "--format", f] + (["--oracle"] if oracle else [])
        ops.append(CliOp("graph-rank-" + ("ising" if ring == "ising" else "zn"), args,
                         stdout=refs.graph_rank_bytes(
                             refs.graph_rank(ring, vertices, edges), oracle, f)))

    k, f = rng.randint(2, 5), fmt()
    ops.append(CliOp("moebius", ["moebius", "--k", str(k), "--check", "--format", f],
                     stdout=refs.moebius_check_bytes(k, f)))

    g_lo, n_lo, f = rng.randint(2, 55), rng.randint(0, 55), fmt()
    g_range = range(g_lo, g_lo + rng.randint(3, 5))
    n_range = range(n_lo, n_lo + rng.randint(3, 5))
    ops.append(CliOp("table", ["table", "--g", _span(g_range), "--n", _span(n_range),
                               "--format", f, "--jobs", "1"],
                     stdout=refs.table_bytes(g_range, n_range, f)))
    ops += grid_ops(inputs)

    ring = rng.choice(REQUEST_RINGS[1:-1])
    size = len(refs.ring_labels(ring))
    g, n, w, f = rng.randint(1, 3), rng.randint(1, 4), str(rng.randrange(1, size)), fmt()
    r = refs.smooth_rank(ring, g, [w] * n)
    ops.append(CliOp("rank-clutch-zn",
                     _rank("clutch", g, n, f) + ["--fusion", str(workdir / f"{ring}.json"),
                                                 "--weight", w],
                     stdout=refs.rank_bytes("clutch", g, n, r, f)))

    # refusals: the oracle guard (exit 3), an unknown label (exit 3), bad input (exit 2)
    a = rng.randint(9, 11)
    b = rng.randint(20 - a, 11)
    path = _graph_file(workdir, f"r{index}-guard",
                       [(a, []), (b, [])], [(0, 1)])
    ops.append(CliOp("refuse-oracle-guard", ["graph-rank", "--graph", path, "--oracle"],
                     code=3))
    ops.append(CliOp("refuse-unknown-label",
                     _rank("clutch", rng.randint(1, 4), rng.randint(1, 4), fmt())
                     + ["--weight", rng.choice(("nu", "phi", "x"))], code=3))
    ops.append(CliOp("refuse-bad-input", _bad_input(rng, workdir), code=2))
    rng.shuffle(ops)
    return ops


def _rank(method: str, g: int, n: int, fmt: str) -> list[str]:
    return ["rank", "--method", method, "--genus", str(g), "--npoints", str(n),
            "--format", fmt]


# -- engine ------------------------------------------------------------------

ENGINE_RINGS = ("builtin", "z3", "z4", "ising")
# Oracle-sized graphs (3 vertices, 4 edges) enumerate len(labels)^exponent
# labelings, about 2^14; refused ones (2 vertices, 2 edges) sit just past
# the guard.
ORACLE_EXPONENT = {"builtin": 14, "z3": 9, "z4": 7, "ising": 9}
# the smallest exponent that the oracle guard refuses
GUARD_EXPONENT = {"builtin": 20, "z3": 13, "z4": 10, "ising": 13}
# Each graph class cycles through this many fixed random graphs, from a
# seeded start and under a seeded relabelling (vertex order, edge order
# and orientation, leg order).  The engine's work on a graph depends on
# its shape and legs, so every run of a few rounds holds about the same
# work whatever the seed, while no two seeds send the same inputs.
GRAPH_CYCLE = 4


def write_engine_rings(workdir: Path) -> None:
    for ring in ENGINE_RINGS[1:]:
        (workdir / f"{ring}.json").write_text(json.dumps(refs.ring_doc(ring)))


def _cycle_graph(inputs: "Inputs", ring: str, oracle: bool):
    """This round's graph of a class: the next fixed graph of its cycle, relabelled."""
    kind ="oracle" if oracle else "refused"
    slot = (inputs.offset(f"{ring}-{kind}") + inputs.index) % GRAPH_CYCLE
    shape = random.Random(f"engine:{ring}:{kind}:{slot}")
    if oracle:
        vertices, edges = random_dual_graph(shape, ring, 3, 4, ORACLE_EXPONENT[ring] - 4, 2)
    else:
        vertices, edges = random_dual_graph(shape, ring, 2, 2, GUARD_EXPONENT[ring] - 2, 1)
    rng = inputs.rng
    order = rng.sample(range(len(vertices)), len(vertices))
    new_index = {old: new for new, old in enumerate(order)}
    vertices = [(vertices[old][0], rng.sample(vertices[old][1], len(vertices[old][1])))
                for old in order]
    edges = [(new_index[u], new_index[v]) if rng.random() < 0.5
             else (new_index[v], new_index[u]) for u, v in edges]
    rng.shuffle(edges)
    return vertices, edges


def engine_round(inputs: "Inputs") -> list[EngineOp]:
    """21 library calls: oracle-checked graphs, refused graphs, smooth curves, no-leaf counts."""
    rng = inputs.rng
    ops = []
    for ring in ENGINE_RINGS:
        vertices, edges = _cycle_graph(inputs, ring, oracle=True)
        r = str(refs.graph_rank(ring, vertices, edges))
        ops.append(EngineOp(f"graph-oracle-{ring}", {"op": "graph", "ring": ring,
                                                     "graph": _wire(vertices, edges)},
                            [r, r], refused=False))
        vertices, edges = _cycle_graph(inputs, ring, oracle=False)
        ops.append(EngineOp(f"graph-refused-{ring}", {"op": "graph", "ring": ring,
                                                      "graph": _wire(vertices, edges)},
                            [str(refs.graph_rank(ring, vertices, edges))], refused=True))
    for genus in range(8, 15):
        # the number of non-vacuum legs sets the work; it cycles 0..3
        mu = (inputs.offset(f"smooth-g{genus}") + inputs.index) % 4
        legs = ["mu"] * mu + ["0"] * rng.randint(0, 2)
        rng.shuffle(legs)
        request = {"op": "smooth", "ring": "builtin", "genus": genus, "legs": legs}
        ops.append(EngineOp(f"smooth-g{genus}", request,
                            [str(refs.smooth_rank("builtin", genus, legs))]))
    for k in range(3, 7):
        ops.append(EngineOp(f"noleaf-ladder-k{k}", {"op": "noleaf", "k": k},
                            [str(refs.ladder_count(k))]))
    # the count enumerates every edge subset, so the work is set by the edge count
    for vertex_count, edge_count in ((10, 15), (12, 18)):
        pairs = [(u, v) for u in range(vertex_count) for v in range(u + 1, vertex_count)]
        edges = rng.sample(pairs, edge_count)
        ops.append(EngineOp(f"noleaf-random-e{edge_count}",
                            {"op": "noleaf", "vertex_count": vertex_count,
                             "edges": [list(e) for e in edges]},
                            [str(refs.noleaf_count(vertex_count, edges))]))
    rng.shuffle(ops)
    return ops


def _wire(vertices, edges) -> dict:
    return {"vertices": [[g, legs] for g, legs in vertices],
            "edges": [list(e) for e in edges]}


ROUNDS = {"requests": requests_round, "engine": engine_round}


class Inputs:
    """The seeded input stream of one run: the same seed gives the same rounds."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.phase = self.rng.random()
        self.start = (self.phase, self.rng.random(), self.rng.random())
        self._offsets: dict[str, int] = {}
        self.workdir = workdir
        self.index = 0
        self._make = ROUNDS[workload]

    def offset(self, name: str) -> int:
        """A seeded start, drawn once per name, for inputs that cycle."""
        if name not in self._offsets:
            self._offsets[name] = self.rng.randrange(1 << 16)
        return self._offsets[name]

    def next_round(self) -> list:
        ops = self._make(self)
        self.index += 1
        return ops
