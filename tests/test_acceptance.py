"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; a failing criterion prints FAIL and raises.  Runtime budgets are
asserted where the criterion pins one.
"""

import functools
import random
import time

from conftest import make_nonassociative_ring, random_stable_graph
from fusionrank import (
    PHI,
    PHIBAR,
    SQRT5,
    FusionData,
    builtin_g2_level1,
    calibrate_exponent,
    closed_rank,
    closed_value,
    clutch_graph,
    count_noleaf_subgraphs,
    fib,
    moebius_ladder,
    rank_bruteforce,
    rank_genus0,
    rank_graph,
    rank_smooth,
    sum_clutch,
    sum_tails,
    tails_graph,
    validate,
    verlinde_trig_rank,
)


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")

        return wrapper

    return decorate


@criterion(1, "three-route identity on the 50x50 grid")
def test_01_identity_grid():
    start = time.perf_counter()
    for g in range(2, 51):
        for n in range(0, 51):
            a = sum_clutch(g, n)
            b = closed_rank(g, n)
            c = sum_tails(g, n)
            assert a == b == c, (g, n, a, b, c)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"grid took {elapsed:.2f}s, budget is 10s"


@criterion(2, "sqrt(5) parts cancel identically")
def test_02_sqrt5_cancellation():
    for g in range(0, 51):
        for n in range(0, 51):
            value = closed_value(g, n)
            assert value.b == 0, (g, n, value)


@criterion(3, "pinned point values")
def test_03_point_values(g2):
    assert closed_rank(2, 0) == 5
    assert rank_smooth(g2, 2, []) == 5
    for m in range(0, 26):
        assert rank_genus0(g2, ["mu"] * m) == fib(m - 1), m
    assert rank_smooth(g2, 1, ["mu"]) == 1
    assert rank_smooth(g2, 1, ["0"]) == 2


@criterion(4, "degeneration consistency across both families")
def test_04_degenerations(g2):
    start = time.perf_counter()
    for g in range(1, 6):
        for n in range(0, 5):
            if 2 * g - 2 + n <= 0:
                continue
            smooth = rank_smooth(g2, g, ["mu"] * n)
            assert rank_graph(g2, clutch_graph(g, n)) == smooth, (g, n)
            if n + g >= 3:
                assert rank_graph(g2, tails_graph(g, n)) == smooth, (g, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"degenerations took {elapsed:.2f}s, budget is 1s"


@criterion(5, "oracle equivalence on random stable graphs")
def test_05_oracle_equivalence(g2):
    rng = random.Random(50)
    for i in range(50):
        graph = random_stable_graph(rng)
        assert rank_graph(g2, graph) == rank_bruteforce(g2, graph), (i, graph)
    for g in range(1, 6):
        for n in range(0, 5):
            if 2 * g - 2 + n <= 0:
                continue
            graph = clutch_graph(g, n)
            assert rank_graph(g2, graph) == rank_bruteforce(g2, graph), (g, n)
            if n + g >= 3:
                graph = tails_graph(g, n)
                assert rank_graph(g2, graph) == rank_bruteforce(g2, graph), (g, n)


@criterion(6, "ladder counts match closed-form ranks")
def test_06_moebius_counts():
    for k in range(2, 7):
        assert count_noleaf_subgraphs(moebius_ladder(k)) == closed_rank(k + 1, 0), k
    start = time.perf_counter()
    assert count_noleaf_subgraphs(moebius_ladder(7)) == closed_rank(8, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"k=7 took {elapsed:.2f}s, budget is 1s"
    for k in range(8, 61):
        assert count_noleaf_subgraphs(moebius_ladder(k)) == closed_rank(k + 1, 0), k


@criterion(7, "trigonometric formula calibrates to one variant")
def test_07_calibration():
    variant = calibrate_exponent(genus_range=range(2, 7), rel_tol=1e-6)
    for g in range(1, 11):
        expected = closed_rank(g, 0)
        ev = verlinde_trig_rank(g, 1, variant)
        assert ev.nearest == expected, g
        assert ev.residual < 1e-6 * expected, (g, float(ev.residual))


@criterion(8, "exact Binet formula across |k| <= 300")
def test_08_binet():
    for k in range(-300, 301):
        assert ((PHI**k - PHIBAR**k) / SQRT5).to_integer() == fib(k), k


@criterion(9, "ring validation accepts the builtin and names failures")
def test_09_validation():
    assert validate(builtin_g2_level1()).ok

    broken_involution = FusionData(
        labels=("0", "a", "b"),
        vacuum="0",
        dual={"0": "0", "a": "b", "b": "b"},
        table={("0", "0", "0"): 1, ("0", "a", "b"): 1, ("0", "b", "b"): 1},
    )
    report = validate(broken_involution)
    assert not report.ok
    assert any(v.rule == "dual-involution" and "a" in v.witness
               for v in report.violations)

    broken_vacuum = FusionData(
        labels=("0", "mu"),
        vacuum="0",
        dual={"0": "0", "mu": "mu"},
        table={("0", "0", "0"): 1, ("mu", "mu", "mu"): 1},
    )
    report = validate(broken_vacuum)
    assert not report.ok
    assert any(v.rule == "vacuum-rule" for v in report.violations)

    report = validate(make_nonassociative_ring())
    assert not report.ok
    assert any(v.rule == "associativity" for v in report.violations)


@criterion(10, "CLI verify grid: exit 0, 99 rows, jobs-independent bytes")
def test_10_cli_verify(cli):
    one = cli("verify", "--g", "2..10", "--n", "0..10", "--jobs", "1")
    eight = cli("verify", "--g", "2..10", "--n", "0..10", "--jobs", "8")
    assert one.returncode == 0
    assert eight.returncode == 0
    assert len(one.stdout.strip().split("\n")) == 99
    assert one.stdout == eight.stdout
