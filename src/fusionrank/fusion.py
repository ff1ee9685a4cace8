"""Finite fusion rings: labels, vacuum, duality, and the 3-point table.

A ring here is plain data.  The 3-point table is stored on sorted label
triples with zero entries omitted, so full permutation symmetry holds by
construction.  ``validate`` checks the remaining ring axioms and returns
violations as data rather than raising, which lets callers report every
problem in a user-supplied table at once.

``FusionData.matrices`` derives the integer fusion matrices
``N_a[b][c] = n3(a, b, dual c)`` and the handle operator
``H = sum_l N_l N_{dual l}`` from the table, once per ring instance.
The rank engine and the associativity check both work on them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import FormatError, UnknownLabelError

Label = str
Triple = tuple[Label, Label, Label]


def _key(a: Label, b: Label, c: Label) -> Triple:
    x, y, z = sorted((a, b, c))
    return (x, y, z)


@dataclass(frozen=True)
class FusionData:
    """A finite fusion ring presented by its 3-point ranks.

    ``labels`` fixes the document order of the label set, ``vacuum`` is
    the unit, ``dual`` the (expected) involution, and ``table`` maps
    sorted triples to their 3-point rank.  Construction normalizes the
    table but does not check the ring axioms; see ``validate``.
    """

    labels: tuple[Label, ...]
    vacuum: Label
    dual: dict[Label, Label]
    table: dict[Triple, int]
    _label_set: frozenset = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dual", dict(self.dual))
        seen: dict[Triple, int] = {}
        for raw, value in dict(self.table).items():
            if len(raw) != 3:
                raise ValueError(f"3-point table key {raw!r} is not a triple")
            k = _key(*raw)
            if k in seen and seen[k] != value:
                raise ValueError(f"conflicting ranks for triple {k}")
            seen[k] = value
        object.__setattr__(
            self, "table", {k: v for k, v in seen.items() if v != 0}
        )
        object.__setattr__(self, "_label_set", frozenset(self.labels))

    def has_label(self, a: Label) -> bool:
        return a in self._label_set

    def require_label(self, a: Label) -> None:
        if a not in self._label_set:
            raise UnknownLabelError(f"label {a!r} is not in the ring")

    def n3(self, a: Label, b: Label, c: Label) -> int:
        """3-point rank, symmetric in its arguments; absent triples are 0."""
        self.require_label(a)
        self.require_label(b)
        self.require_label(c)
        return self.table.get(_key(a, b, c), 0)

    def dual_of(self, a: Label) -> Label:
        self.require_label(a)
        return self.dual[a]

    def nonzero_triples(self) -> Iterator[tuple[Triple, int]]:
        """Nonzero table entries in sorted triple order."""
        return iter(sorted(self.table.items()))

    @cached_property
    def matrices(self) -> "FusionMatrices":
        """The fusion matrices of this ring, built on first use.

        Needs a total dual map whose values are labels (``validate``
        checks that); the result has about L^3 entries and never grows.
        """
        return FusionMatrices.build(self)


# a sparse integer matrix: per row, the (column, entry) pairs with entry != 0
SparseMatrix = tuple[tuple[tuple[int, int], ...], ...]


def _sparse(dense: list[list[int]]) -> SparseMatrix:
    return tuple(
        tuple((c, v) for c, v in enumerate(row) if v) for row in dense
    )


def _dense(row: tuple[tuple[int, int], ...], count: int) -> list[int]:
    x = [0] * count
    for c, v in row:
        x[c] = v
    return x


def _times(x: list[int], matrix: SparseMatrix) -> list[int]:
    # row vector times sparse matrix
    out = [0] * len(x)
    for b, xb in enumerate(x):
        if xb:
            for c, v in matrix[b]:
                out[c] += xb * v
    return out


@dataclass(frozen=True)
class FusionMatrices:
    """A ring's fusion matrices over label indices in document order.

    ``fusion[a]`` is ``N_a`` with ``N_a[b][c] = n3(a, b, dual c)``, and
    ``handle`` is ``H = sum_l N_l N_{dual l}``, the operator one handle
    (a clutched pair of points with labels l and dual l, summed over l)
    applies.  ``index`` maps labels to indices and ``dual`` maps an index
    to its dual's index.
    """

    index: dict[Label, int]
    vacuum: int
    dual: tuple[int, ...]
    fusion: tuple[SparseMatrix, ...]
    handle: SparseMatrix

    @classmethod
    def build(cls, ring: FusionData) -> "FusionMatrices":
        labels = ring.labels
        index = {a: i for i, a in enumerate(labels)}
        dual_labels = [ring.dual[c] for c in labels]
        table = ring.table
        fusion = tuple(
            _sparse(
                [
                    [table.get(_key(a, b, dc), 0) for dc in dual_labels]
                    for b in labels
                ]
            )
            for a in labels
        )
        dual = tuple(index[d] for d in dual_labels)
        count = len(labels)
        handle = [[0] * count for _ in range(count)]
        for lam in range(count):
            n_lam, n_dual = fusion[lam], fusion[dual[lam]]
            for b in range(count):
                for c, v in n_lam[b]:
                    for d, w in n_dual[c]:
                        handle[b][d] += v * w
        return cls(index, index[ring.vacuum], dual, fusion, _sparse(handle))


def builtin_g2_level1() -> FusionData:
    """The two-label ring {0, mu} with mu self-dual and mu (x) mu = 0 (+) mu."""
    return FusionData(
        labels=("0", "mu"),
        vacuum="0",
        dual={"0": "0", "mu": "mu"},
        table={
            ("0", "0", "0"): 1,
            ("0", "mu", "mu"): 1,
            ("mu", "mu", "mu"): 1,
        },
    )


@dataclass(frozen=True)
class Violation:
    """One failed ring axiom with the labels that witness the failure."""

    rule: str
    witness: tuple[Label, ...]
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(v) for v in self.violations)


def validate(ring: FusionData) -> ValidationReport:
    """Check the fusion ring axioms and report all violations found.

    Structural problems (duplicate labels, a partial dual map, unknown
    labels in the table) suppress the semantic checks that would need
    the structure to be sound.  Associativity is checked on every
    quadruple of labels, through products of the fusion matrices.
    """
    out: list[Violation] = []
    labels = ring.labels

    structural = True
    if len(set(labels)) != len(labels) or any(not l for l in labels):
        dupes = tuple(l for l in set(labels) if labels.count(l) > 1)
        out.append(
            Violation(
                "labels-unique",
                dupes,
                "labels must be unique non-empty identifiers",
            )
        )
        structural = False
    if not labels:
        out.append(Violation("labels-unique", (), "label set is empty"))
        structural = False

    if ring.vacuum not in set(labels):
        out.append(
            Violation(
                "vacuum-in-labels",
                (ring.vacuum,),
                f"vacuum {ring.vacuum!r} is not a label",
            )
        )
        structural = False

    for a in labels:
        if a not in ring.dual:
            out.append(
                Violation("dual-total", (a,), f"no dual assigned to {a!r}")
            )
            structural = False
        elif ring.dual[a] not in set(labels):
            out.append(
                Violation(
                    "dual-total",
                    (a, ring.dual[a]),
                    f"dual of {a!r} is the unknown label {ring.dual[a]!r}",
                )
            )
            structural = False
    for a in ring.dual:
        if a not in set(labels):
            out.append(
                Violation(
                    "dual-total", (a,), f"dual map mentions unknown label {a!r}"
                )
            )
            structural = False

    for triple, value in sorted(ring.table.items()):
        bad = tuple(l for l in triple if l not in set(labels))
        if bad:
            out.append(
                Violation(
                    "triple-labels",
                    triple,
                    f"triple {triple} uses unknown labels {bad}",
                )
            )
            structural = False
        if value < 0:
            out.append(
                Violation(
                    "nonnegative-rank",
                    triple,
                    f"triple {triple} has negative rank {value}",
                )
            )
            structural = False

    if not structural:
        return ValidationReport(tuple(out))

    for a in labels:
        d = ring.dual[ring.dual[a]]
        if d != a:
            out.append(
                Violation(
                    "dual-involution",
                    (a,),
                    f"dual(dual({a!r})) = {d!r}, expected {a!r}",
                )
            )
    if ring.dual[ring.vacuum] != ring.vacuum:
        out.append(
            Violation(
                "dual-vacuum-fixed",
                (ring.vacuum,),
                "the vacuum must be self-dual",
            )
        )
    if out:
        # vacuum rule and associativity presuppose a genuine involution
        return ValidationReport(tuple(out))

    for a in labels:
        for b in labels:
            expected = 1 if b == ring.dual[a] else 0
            got = ring.n3(a, b, ring.vacuum)
            if got != expected:
                out.append(
                    Violation(
                        "vacuum-rule",
                        (a, b),
                        f"n3({a!r}, {b!r}, vacuum) = {got}, expected {expected}",
                    )
                )

    # (a b) c = a (b c) as operators: row c of sum_e N_ab^e N_e, against
    # row c of N_b N_a; n3 is symmetric, so N_e[c] = N_c[e]
    m = ring.matrices
    count = len(labels)
    for a in range(count):
        for b in range(count):
            ab = _dense(m.fusion[a][b], count)
            for c in range(count):
                lhs = _times(ab, m.fusion[c])
                rhs = _times(_dense(m.fusion[b][c], count), m.fusion[a])
                for d in range(count):
                    if lhs[d] != rhs[d]:
                        la, lb, lc, ld = labels[a], labels[b], labels[c], labels[d]
                        out.append(
                            Violation(
                                "associativity",
                                (la, lb, lc, ld),
                                f"associativity fails at ({la!r}, {lb!r}, {lc!r},"
                                f" {ld!r}): {lhs[d]} != {rhs[d]}",
                            )
                        )

    return ValidationReport(tuple(out))


class FusionValidationError(FormatError):
    """A loaded fusion ring document violates the ring axioms."""

    def __init__(self, report: ValidationReport):
        self.report = report
        super().__init__(f"invalid fusion ring: {report}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise FormatError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def load_fusion(text: str) -> FusionData:
    """Parse and validate a fusion ring JSON document.

    Raises FormatError for malformed documents (with the JSON position
    when the text is not JSON at all) and FusionValidationError when the
    document parses but violates the ring axioms.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"fusion ring document: {exc}") from exc

    _expect(isinstance(doc, dict), "fusion ring document must be a JSON object")
    for req in ("labels", "vacuum", "dual"):
        _expect(req in doc, f"fusion ring document is missing {req!r}")

    labels = doc["labels"]
    _expect(
        isinstance(labels, list) and all(isinstance(l, str) for l in labels),
        "'labels' must be a list of strings",
    )
    _expect(isinstance(doc["vacuum"], str), "'vacuum' must be a string")
    dual = doc["dual"]
    _expect(
        isinstance(dual, dict)
        and all(isinstance(k, str) and isinstance(v, str) for k, v in dual.items()),
        "'dual' must map labels to labels",
    )

    entries = doc.get("n3", [])
    _expect(isinstance(entries, list), "'n3' must be a list")
    table: dict[Triple, int] = {}
    for i, entry in enumerate(entries):
        where = f"n3 entry {i}"
        _expect(isinstance(entry, dict), f"{where} must be an object")
        _expect(
            "triple" in entry and "rank" in entry,
            f"{where} needs 'triple' and 'rank'",
        )
        triple = entry["triple"]
        _expect(
            isinstance(triple, list)
            and len(triple) == 3
            and all(isinstance(l, str) for l in triple),
            f"{where}: 'triple' must be a list of three labels",
        )
        _expect(_is_int(entry["rank"]), f"{where}: 'rank' must be an integer")
        k = _key(*triple)
        if k in table and table[k] != entry["rank"]:
            raise FormatError(
                f"{where}: triple {k} already given with a different rank"
            )
        table[k] = entry["rank"]

    ring = FusionData(tuple(labels), doc["vacuum"], dict(dual), table)
    report = validate(ring)
    if not report.ok:
        raise FusionValidationError(report)
    return ring


def serialize_fusion(ring: FusionData) -> str:
    """Serialize a ring to the JSON document format read by load_fusion."""
    doc = {
        "labels": list(ring.labels),
        "vacuum": ring.vacuum,
        "dual": {a: ring.dual[a] for a in ring.labels},
        "n3": [
            {"triple": list(triple), "rank": value}
            for triple, value in ring.nonzero_triples()
        ],
    }
    return json.dumps(doc)
