"""Command-line interface: searches, loss reports, rendering and verification.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error,
3 search aborted over its node budget, 4 internal invariant breach.  When
standard output closes early (e.g. piped into ``head``), the command stops
quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from pathlib import Path
from time import perf_counter
from typing import Iterable, Optional

from .constructions import stairs_details
from .coverage import Configuration, attack_field, cover_count
from .errors import BudgetExceededError, DomainError, InvariantError, QueenCoverError
from .geometry import BoardSpec, Square
from .loss import stable_board, total_loss
from .search import (
    DEFAULT_BUDGET,
    OptimalSet,
    SearchParams,
    ThresholdReport,
    nonattacking_threshold,
    run_search,
    stabilizing_threshold,
)
from .serialization import (
    SCHEMA_VERSION,
    ResultCache,
    encode_squares,
    optimal_set_record,
    parse_lines,
    record_to_optimal_set,
    to_json_line,
)

_CONFIG_PAIR = re.compile(r"^\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def parse_config(text: str) -> Configuration:
    """Parse semicolon-separated "(x,y)" pairs; whitespace is ignored."""
    squares = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _CONFIG_PAIR.match(part)
        if not m:
            raise DomainError(f"bad config element {part!r}; expected (x,y)")
        squares.append((int(m.group(1)), int(m.group(2))))
    return Configuration.of(squares)


def format_config(squares: Iterable[Square]) -> str:
    return ";".join(f"({x},{y})" for x, y in squares)


def render_board(config: Configuration, board: BoardSpec, annotate: str = "none") -> str:
    """Fixed-width board drawing: queens as Q, attacked-twice-or-more squares
    optionally as their attacking number, axes marked 0 at x=0 and y=0."""
    if annotate not in ("none", "attack-numbers"):
        raise DomainError(f"annotate must be 'none' or 'attack-numbers', got {annotate!r}")
    if not config.is_feasible(board):
        raise DomainError("render requires a board-feasible configuration")
    lo = board.lo
    field = attack_field(config, board) if annotate == "attack-numbers" else None
    lines = []
    for y in range(board.hi, lo - 1, -1):
        if field is None:
            cells = ["."] * board.n
        else:
            cells = [str(a) if 2 <= a <= 9 else "*" if a > 9 else "." for a in field.row_counts(y)]
        for x, qy in config.queens:
            if qy == y:
                cells[x - lo] = "Q"
        label = "0" if y == 0 else " "
        lines.append(label + " " + " ".join(cells))
    lines.append(" " * (2 + 2 * (0 - board.lo)) + "0")
    return "\n".join(lines)


def _emit(args, record: dict, text: str) -> None:
    if args.format == "structured":
        print(to_json_line(record))
    else:
        print(text)


def _class_lines(result: OptimalSet) -> list[str]:
    return [
        f"  class {i}: orbit {cls.orbit_size} stabilizer {cls.stabilizer_order} "
        f"rep {format_config(cls.representative)}"
        for i, cls in enumerate(result.classes)
    ]


def _classes_text(result: OptimalSet) -> str:
    lines = [
        f"max cover: {result.max_cover}",
        f"optimal configurations: {len(result.members)}",
        f"classes: {len(result.classes)}",
    ]
    if result.window_used is not None:
        lines.append(
            f"window used: {result.window_used} (retries: {result.window_retries}); "
            f"optimum within the window, not certified for B_{result.params.n}"
        )
    return "\n".join(lines + _class_lines(result))


def _make_runner(args):
    cache = ResultCache(Path(args.cache_dir)) if args.cache_dir else None

    def run(params: SearchParams) -> OptimalSet:
        if cache is not None:
            hit = cache.get(params)
            if hit is not None:
                return hit
        t0 = perf_counter()
        result = run_search(params)
        if cache is not None:
            cache.put(result, timing_s=perf_counter() - t0)
        return result

    return run


def _cmd_cover(args) -> int:
    config = parse_config(args.config)
    board = BoardSpec(args.n)
    value = cover_count(config, board)
    field = attack_field(config, board)
    hist = field.histogram()
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cover",
        "n": args.n,
        "config": encode_squares(config.queens),
        "cover": value,
        "attack_histogram": {str(k): v for k, v in sorted(hist.items())},
    }
    text = "\n".join(
        [f"cover: {value}"]
        + [f"attacked {k} times: {v} squares" for k, v in sorted(hist.items())]
    )
    _emit(args, record, text)
    return 0


def _breakdown_record(config: Configuration, board: BoardSpec) -> dict:
    return {
        **dataclasses.asdict(total_loss(config, board)),
        "n": board.n,
        "parity": "odd" if board.is_odd else "even",
    }


def _cmd_loss(args) -> int:
    config = parse_config(args.config)
    if not config.queens:
        raise DomainError("loss requires at least one queen")
    if args.n is not None:
        boards = [BoardSpec(args.n)]
    else:
        boards = [stable_board(config, odd=True), stable_board(config, odd=False)]
    breakdowns = [_breakdown_record(config, b) for b in boards]
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "loss",
        "config": encode_squares(config.queens),
        "breakdowns": breakdowns,
    }
    text_lines = []
    for d in breakdowns:
        text_lines.append(
            f"B_{d['n']} ({d['parity']}): internal {d['internal']} central {d['central']} "
            f"total {d['total']} (crossing budget {d['crossing_budget']}, overlap "
            f"{d['overlap_concentration']}, parity {d['even_count']}e/{d['odd_count']}o, "
            f"stable {d['stable']})"
        )
    _emit(args, record, "\n".join(text_lines))
    return 0


def _cmd_search(args) -> int:
    params = SearchParams(
        q=args.q,
        n=args.n,
        mode=args.mode,
        window=args.window,
        workers=args.workers,
        budget=args.budget,
    )
    result = _make_runner(args)(params)
    record = optimal_set_record(result)
    _emit(args, record, _classes_text(result))
    return 0


def _cmd_thresholds(args) -> int:
    runner = _make_runner(args)
    scan = nonattacking_threshold if args.kind == "nonattacking" else stabilizing_threshold
    report: ThresholdReport = scan(
        args.q,
        args.n_lo,
        args.n_hi,
        workers=args.workers,
        budget=args.budget,
        runner=runner,
    )
    record = {
        **dataclasses.asdict(report),
        "schema_version": SCHEMA_VERSION,
        "kind": "threshold_report",
        "threshold": report.kind,
    }
    lines = [
        f"{report.kind} threshold scan q={report.q} on [{report.n_lo}, {report.n_hi}] "
        f"(empirical, valid only within the scanned range)"
    ]
    for e in report.entries:
        lines.append(
            f"  n={e.n} max_cover={e.max_cover} optima={e.optimal_count} "
            f"nonattacking={e.all_nonattacking} classes={list(e.class_sizes)}"
        )
    if report.kind == "nonattacking":
        lines.append(f"N1 candidate: {report.n1_candidate}")
    else:
        lines.append(
            f"N2 candidates: combined {report.n2_combined} "
            f"(odd {report.n2_odd}, even {report.n2_even})"
        )
    for w in report.warnings:
        lines.append(f"warning: {w}")
    _emit(args, record, "\n".join(lines))
    return 0


def _cmd_stairs(args) -> int:
    build = stairs_details(args.q)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "stairs",
        "q": args.q,
        "shift": list(build.shift),
        "pattern": encode_squares(build.pattern.offsets),
        "internal": build.internal,
        "central_odd": build.center_odd,
        "central_even": build.center_even,
        "total_odd": build.total_odd,
        "total_even": build.total_even,
    }
    text = "\n".join(
        [
            f"stairs q={args.q} (sequence shift {build.shift})",
            "pattern: " + format_config(build.pattern.offsets),
            f"internal loss: {build.internal}",
            f"centrality odd: {build.center_odd}  total odd: {build.total_odd}",
            f"centrality even: {build.center_even}  total even: {build.total_even}",
        ]
    )
    _emit(args, record, text)
    return 0


def _cmd_fundamentals(args) -> int:
    results = [record_to_optimal_set(r) for r in parse_lines(Path(args.input).read_bytes())]
    if args.format == "structured":
        for result in results:
            stored = optimal_set_record(result)
            record = {"schema_version": SCHEMA_VERSION, "kind": "fundamentals"}
            record.update((k, stored[k]) for k in ("params", "max_cover", "classes"))
            print(to_json_line(record))
        return 0
    lines = []
    for result in results:
        p = result.params
        lines.append(f"q={p.q} n={p.n} mode={p.mode} max_cover={result.max_cover}")
        lines += _class_lines(result)
    print("\n".join(lines))
    return 0


def _cmd_render(args) -> int:
    config = parse_config(args.config)
    board = BoardSpec(args.n)
    text = render_board(config, board, annotate=args.annotate)
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "render",
        "n": args.n,
        "annotate": args.annotate,
        "text": text,
    }
    _emit(args, record, text)
    return 0


def _cmd_verify(args) -> int:
    records = parse_lines(Path(args.input).read_bytes())
    mismatches = []
    checked = 0
    for idx, record in enumerate(records):
        result = record_to_optimal_set(record)
        board = BoardSpec(result.params.n)
        stored = result.max_cover
        for jdx, config in enumerate(result.configurations):
            actual = cover_count(config, board)
            checked += 1
            if actual != stored:
                mismatches.append(
                    {"record": idx, "configuration": jdx, "stored": stored, "recomputed": actual}
                )
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verify",
        "checked": checked,
        "mismatches": mismatches,
    }
    lines = [
        f"record {m['record']} configuration {m['configuration']}: "
        f"stored max_cover {m['stored']}, recomputed {m['recomputed']}"
        for m in mismatches
    ]
    if mismatches:
        lines.append(f"FAIL: {len(mismatches)} mismatches in {checked} configurations")
    else:
        lines.append(f"OK: {checked} configurations recomputed, no mismatches")
    _emit(args, record, "\n".join(lines))
    return 1 if mismatches else 0


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, accepted both before and after the subcommand."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--format", choices=("text", "structured"), default=default("text"),
        help="output format; structured is line-delimited JSON with sorted keys",
    )
    parser.add_argument(
        "--workers", type=int, default=default(1),
        help="parallel search shards, run as a fork pool; starting the pool costs "
        "more than it saves unless a search lasts seconds",
    )
    parser.add_argument(
        "--cache-dir", default=default(None), help="persistent result cache directory"
    )
    parser.add_argument(
        "--budget", type=int, default=default(DEFAULT_BUDGET),
        help="search node budget; a search that spends more nodes aborts",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queencover",
        description="Queen coverage, loss calculus and optimal-configuration search "
        "on centered boards.",
    )
    _add_global_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "cover", parents=[common],
        help="cover count and attack field of a configuration",
    )
    p.add_argument("--config", required=True, help='queens as "(x,y);(x,y);..."')
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("loss", parents=[common], help="loss breakdown per board parity")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, default=None, help="evaluate on B_n instead of stable boards")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("search", parents=[common], help="optimal q-queen configurations on B_n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "windowed"), default="exhaustive")
    p.add_argument(
        "--window", type=int, default=None, help="box side (default min(q+3, n); windowed mode only)"
    )
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("thresholds", parents=[common], help="empirical threshold scans over a range of n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--kind", choices=("nonattacking", "stabilizing"), required=True)
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("stairs", parents=[common], help="the q-stairs pattern and its loss columns")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_stairs)

    p = sub.add_parser("fundamentals", parents=[common], help="class table of a stored search result")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_fundamentals)

    p = sub.add_parser("render", parents=[common], help="ASCII board drawing")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--annotate", choices=("none", "attack-numbers"), default="none")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify", parents=[common], help="recompute covers stored in a result file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull so that the flush at
        # interpreter exit cannot raise again, and stop quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (InvariantError, AssertionError) as e:
        print(f"internal invariant breach: {e}", file=sys.stderr)
        return 4
    except (QueenCoverError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
