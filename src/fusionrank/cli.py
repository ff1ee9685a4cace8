"""Command-line front end.

Exit codes: 0 for success or agreement, 1 for a verified disagreement,
2 for usage, configuration or input-document errors, 3 for a
computation precondition failure (unstable configuration, enumeration
limit, unknown label), 4 for an internal error (any other exception),
reported as one ``error: internal:`` line instead of a traceback.

Output is deterministic: rows are emitted in grid order regardless of
--jobs, integers are rendered as decimal strings in JSON, and booleans
are lowercase true/false in CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath

from .closed_form import (
    CSV_HEADER,
    closed_rank,
    closed_value,
    verify_identity,
)
from .errors import FormatError, FusionRankError, PreconditionError
from .fusion import builtin_g2_level1, load_fusion
from .noleaf import count_noleaf_subgraphs, load_simple_graph, moebius_ladder
from .ranks import (
    StabilityError,
    check_bruteforce_limit,
    load_dual_graph,
    rank_bruteforce,
    rank_graph,
    rank_smooth,
    tails_graph,
)
from .verlinde import calibrate_exponent, verlinde_trig_rank

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

BUILTIN_RING = "builtin:g2l1"

_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


def _range_type(text: str) -> range:
    m = _RANGE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive range like 2..10, got {text!r}"
        )
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range {text!r} is empty")
    return range(lo, hi + 1)


def _resolve_jobs(args) -> int:
    if args.jobs is not None:
        if args.jobs < 1:
            raise FormatError("--jobs must be at least 1")
        return args.jobs
    env = os.environ.get("FUSION_RANK_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            raise FormatError(f"FUSION_RANK_JOBS must be an integer, got {env!r}")
        if jobs < 1:
            raise FormatError("FUSION_RANK_JOBS must be at least 1")
        return jobs
    return 1


def _parallel_map(fn, items, jobs):
    # executor.map preserves input order, keeping output deterministic
    if jobs <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _load_ring(spec: str):
    if spec == BUILTIN_RING:
        return builtin_g2_level1()
    if spec.startswith("builtin:"):
        raise FormatError(f"unknown builtin fusion ring {spec!r}")
    return load_fusion(_read_file(spec))


def _load_graph_file(path: str):
    # a document describing an unstable curve is an input error, not a
    # computation precondition, so it reports as exit code 2
    try:
        return load_dual_graph(_read_file(path))
    except StabilityError as exc:
        raise FormatError(f"graph file {path}: {exc}") from exc


def _dumps(doc) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _json_rows(dicts) -> str:
    return "[" + ",\n".join(_dumps(d) for d in dicts) + "]"


def _emit(text: str, path: str | None) -> None:
    data = text if text.endswith("\n") else text + "\n"
    if path:
        Path(path).write_text(data)
    else:
        sys.stdout.write(data)


def _weight_label(ring, requested: str | None) -> str:
    if requested is not None:
        ring.require_label(requested)
        return requested
    nontrivial = [l for l in ring.labels if l != ring.vacuum]
    if len(nontrivial) == 1:
        return nontrivial[0]
    raise FormatError(
        "the ring has several non-vacuum labels; pass --weight to pick one"
    )


def cmd_rank(args) -> tuple[str, int]:
    method = args.method
    if method != "graph":
        if args.genus is None or args.npoints is None:
            raise FormatError(f"method {method} needs --genus and --npoints")
        if args.genus < 0 or args.npoints < 0:
            raise FormatError("--genus and --npoints must be nonnegative")
    g, n = args.genus, args.npoints

    if method in ("closed", "verlinde-numeric"):
        if args.fusion != BUILTIN_RING:
            raise FormatError(
                f"method {method} is specific to the builtin two-label ring"
            )

    if method == "closed":
        value = closed_value(g, n)
        r = value.to_integer()
        if args.format == "json":
            doc = {
                "g": g,
                "n": n,
                "method": "closed",
                "rank": str(r),
                "q5": value.to_json(),
            }
            return _dumps(doc), EXIT_OK
        if args.format == "csv":
            return f"rank\n{r}", EXIT_OK
        return str(r), EXIT_OK

    if method == "verlinde-numeric":
        if n != 0:
            raise FormatError(
                "method verlinde-numeric is defined for --npoints 0 only"
            )
        variant = calibrate_exponent()
        ev = verlinde_trig_rank(g, args.level, variant)
        if args.format == "json":
            doc = {
                "g": g,
                "n": 0,
                "method": "verlinde-numeric",
                "level": args.level,
                "variant": variant,
                "rank": str(ev.nearest),
                "value": mpmath.nstr(ev.value, 30),
                "residual": mpmath.nstr(ev.residual, 6),
            }
            return _dumps(doc), EXIT_OK
        if args.format == "csv":
            return f"rank\n{ev.nearest}", EXIT_OK
        if ev.residual < 1e-6:
            return f"{ev.nearest} (residual < 1e-6)", EXIT_OK
        return f"{ev.nearest} (residual {mpmath.nstr(ev.residual, 6)})", EXIT_OK

    ring = _load_ring(args.fusion)

    if method == "clutch":
        label = _weight_label(ring, args.weight) if n else ring.vacuum
        r = rank_smooth(ring, g, (label,) * n)
    elif method == "tails":
        label = _weight_label(ring, args.weight) if n else ring.vacuum
        r = rank_graph(ring, tails_graph(g, n, label=label))
    else:  # graph
        if not args.graph:
            raise FormatError("method graph needs --graph FILE")
        r = rank_graph(ring, _load_graph_file(args.graph))

    if args.format == "json":
        doc = {"method": method, "rank": str(r)}
        if method != "graph":
            doc = {"g": g, "n": n, **doc}
        return _dumps(doc), EXIT_OK
    if args.format == "csv":
        return f"rank\n{r}", EXIT_OK
    return str(r), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    jobs = _resolve_jobs(args)
    if min(args.g_range) < 2 and not args.allow_extension:
        raise FormatError(
            "the identity is stated for g >= 2; pass --allow-extension to"
            " verify smaller genus as well"
        )
    cells = [(g, n) for g in args.g_range for n in args.n_range]
    reports = _parallel_map(
        lambda cell: verify_identity(*cell, allow_extension=args.allow_extension),
        cells,
        jobs,
    )

    if args.format == "json":
        text = _json_rows([r.to_json_dict() for r in reports])
    elif args.format == "csv":
        text = "\n".join([CSV_HEADER] + [r.to_csv_row() for r in reports])
    else:
        text = "\n".join(
            f"g={r.g} n={r.n} sum_clutch={r.sum_clutch} closed={r.closed}"
            f" sum_tails={r.sum_tails} agree={str(r.agree).lower()}"
            for r in reports
        )

    failing = [r for r in reports if not r.agree]
    if failing:
        first = failing[0]
        print(
            f"disagreement at g={first.g} n={first.n}:"
            f" sum_clutch={first.sum_clutch} closed={first.closed}"
            f" sum_tails={first.sum_tails}",
            file=sys.stderr,
        )
        return text, EXIT_DISAGREE
    return text, EXIT_OK


def cmd_graph_rank(args) -> tuple[str, int]:
    ring = _load_ring(args.fusion)
    graph = _load_graph_file(args.graph)
    if args.oracle:
        # refuse an oracle run past its guard before the engine does any work
        check_bruteforce_limit(ring, graph)
    r = rank_graph(ring, graph)
    if not args.oracle:
        if args.format == "json":
            return _dumps({"rank": str(r)}), EXIT_OK
        if args.format == "csv":
            return f"rank\n{r}", EXIT_OK
        return str(r), EXIT_OK

    o = rank_bruteforce(ring, graph)
    agree = r == o
    if args.format == "json":
        text = _dumps({"rank": str(r), "oracle": str(o), "agree": agree})
    elif args.format == "csv":
        text = f"rank,oracle,agree\n{r},{o},{str(agree).lower()}"
    else:
        text = f"{r} {o} {'OK' if agree else 'MISMATCH'}"
    if not agree:
        print(f"oracle disagreement: engine {r}, brute force {o}", file=sys.stderr)
        return text, EXIT_DISAGREE
    return text, EXIT_OK


def cmd_moebius(args) -> tuple[str, int]:
    if args.graph is not None and args.k is not None:
        raise FormatError("pass either --k or --graph, not both")

    if args.graph is not None:
        if args.check:
            raise FormatError("--check applies to --k ladders only")
        graph = load_simple_graph(_read_file(args.graph))
        count = count_noleaf_subgraphs(graph)
        if args.format == "json":
            return _dumps({"count": str(count)}), EXIT_OK
        if args.format == "csv":
            return f"count\n{count}", EXIT_OK
        return str(count), EXIT_OK

    if args.k is None:
        raise FormatError("moebius needs --k or --graph")
    if not 2 <= args.k <= 8:
        raise FormatError(f"--k must be between 2 and 8, got {args.k}")
    count = count_noleaf_subgraphs(moebius_ladder(args.k))

    if not args.check:
        if args.format == "json":
            return _dumps({"k": args.k, "count": str(count)}), EXIT_OK
        if args.format == "csv":
            return f"k,count\n{args.k},{count}", EXIT_OK
        return str(count), EXIT_OK

    expected = closed_rank(args.k + 1, 0)
    agree = count == expected
    if args.format == "json":
        text = _dumps(
            {
                "k": args.k,
                "count": str(count),
                "expected": str(expected),
                "agree": agree,
            }
        )
    elif args.format == "csv":
        text = f"k,count,expected,agree\n{args.k},{count},{expected},{str(agree).lower()}"
    else:
        text = f"{count} {expected} {'OK' if agree else 'MISMATCH'}"
    if not agree:
        print(
            f"count disagreement at k={args.k}: counted {count},"
            f" closed form {expected}",
            file=sys.stderr,
        )
        return text, EXIT_DISAGREE
    return text, EXIT_OK


def cmd_table(args) -> tuple[str, int]:
    jobs = _resolve_jobs(args)
    cells = [(g, n) for g in args.g_range for n in args.n_range]
    ranks = _parallel_map(lambda cell: closed_rank(*cell), cells, jobs)
    rows = [(g, n, r) for (g, n), r in zip(cells, ranks)]
    if args.format == "json":
        return _json_rows(
            [{"g": g, "n": n, "rank": str(r)} for g, n, r in rows]
        ), EXIT_OK
    if args.format == "csv":
        return "\n".join(["g,n,rank"] + [f"{g},{n},{r}" for g, n, r in rows]), EXIT_OK
    return "\n".join(f"g={g} n={n} rank={r}" for g, n, r in rows), EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    common.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads; defaults to FUSION_RANK_JOBS or 1",
    )
    common.add_argument(
        "--fusion", default=BUILTIN_RING,
        help="fusion ring: builtin:g2l1 or a path to a ring JSON file",
    )
    common.add_argument(
        "--output", default=None, help="write output to this path instead of stdout"
    )

    parser = argparse.ArgumentParser(
        prog="fusionrank",
        description="Exact conformal-blocks ranks for finite fusion rings,"
        " with closed-form and combinatorial cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "rank", parents=[common], help="compute one rank by a chosen method"
    )
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--npoints", type=int, default=None)
    p.add_argument(
        "--method",
        required=True,
        choices=("closed", "clutch", "tails", "graph", "verlinde-numeric"),
    )
    p.add_argument("--graph", default=None, help="dual graph JSON (method graph)")
    p.add_argument(
        "--level", type=int, default=1, help="level for verlinde-numeric (default 1)"
    )
    p.add_argument(
        "--weight", default=None,
        help="leg label for clutch/tails; defaults to the unique non-vacuum label",
    )
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser(
        "verify", parents=[common],
        help="check the three-route identity over a (g, n) grid",
    )
    p.add_argument("--g", dest="g_range", type=_range_type, required=True)
    p.add_argument("--n", dest="n_range", type=_range_type, required=True)
    p.add_argument("--allow-extension", action="store_true")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "graph-rank", parents=[common], help="rank of a dual graph from JSON"
    )
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--oracle", action="store_true",
        help="also run the brute-force oracle and compare",
    )
    p.set_defaults(handler=cmd_graph_rank)

    p = sub.add_parser(
        "moebius", parents=[common], help="count no-leaf edge subgraphs"
    )
    p.add_argument("--k", type=int, default=None, help="ladder parameter, 2..8")
    p.add_argument(
        "--check", action="store_true",
        help="compare the ladder count against the closed-form rank",
    )
    p.add_argument("--graph", default=None, help="custom simple graph JSON")
    p.set_defaults(handler=cmd_moebius)

    p = sub.add_parser(
        "table", parents=[common], help="closed-form rank table over a grid"
    )
    p.add_argument("--g", dest="g_range", type=_range_type, required=True)
    p.add_argument("--n", dest="n_range", type=_range_type, required=True)
    p.set_defaults(handler=cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)

    try:
        text, code = args.handler(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except FusionRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        # exit 1 means a verified disagreement, so a crash must not use it
        detail = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL

    try:
        _emit(text, args.output)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
