"""Self-test of the benchmark's checkers, on tiny cases, in a few seconds.

    python3 perfbench/selftest.py

For each workload's checker it shows that a correct result from the program
passes and that each corruption is rejected: a queen moved, max_cover off by
one, a dropped orbit member, a min_total off by one, a stale rescan.  Exits
with code 1 if any check accepts a corrupted result or rejects a good one.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import import_package  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, problems: list[str], rejected: bool) -> None:
    ok = bool(problems) == rejected
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok ' if ok else 'BAD'} {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
    if not ok:
        FAILURES.append(label)


def moved(queens: tuple) -> tuple:
    """The configuration with its first queen moved one square, toward the
    center, preferring a move that keeps it non-attacking (so that the cover
    and symmetry checks, not the non-attacking one, have to catch it)."""
    (x, y), rest = queens[0], list(queens[1:])
    sx, sy = (-1 if x > 0 else 1), (-1 if y > 0 else 1)
    tries = [tuple(sorted(rest + [(x + dx, y + dy)])) for dx, dy in ((sx, 0), (0, sy), (sx, sy), (2 * sx, sy), (sx, 2 * sy))]
    tries = [t for t in tries if len(set(t)) == len(queens)]
    return next((t for t in tries if checks.is_nonattacking(t)), tries[0])


def windowed_cases(qc) -> None:
    good = workloads.windowed_q5(qc)
    expect("windowed: program result", checks.check_windowed(good), False)
    bad = copy.deepcopy(good)
    bad[0]["configs"][0] = moved(bad[0]["configs"][0])
    expect("windowed: a queen moved", checks.check_windowed(bad), True)
    bad = copy.deepcopy(good)
    bad[1]["max_cover"] += 1
    expect("windowed: max_cover off by one", checks.check_windowed(bad), True)
    bad = copy.deepcopy(good)
    bad[0]["configs"].pop()
    expect("windowed: an orbit member dropped", checks.check_windowed(bad), True)
    other = copy.deepcopy(good[0])
    other["workers"] = 2
    other["configs"] = other["configs"][:-1] + [moved(other["configs"][-1])]
    expect("windowed: workers=2 differs from workers=1", checks.check_windowed(good + [other]), True)


def threshold_cases(qc) -> None:
    search = qc.search
    good = [
        dataclasses.asdict(search.nonattacking_threshold(2, 4, 14)),
        dataclasses.asdict(search.stabilizing_threshold(2, 6, 16)),
    ]
    lim = workloads.BRUTE_MAX_N
    expect("thresholds: program result", checks.check_thresholds(good, lim[2], lim[3]), False)
    bad = copy.deepcopy(good)
    bad[0]["entries"][3]["max_cover"] -= 1
    expect("thresholds: max_cover off by one", checks.check_thresholds(bad, lim[2], lim[3]), True)
    bad = copy.deepcopy(good)
    bad[1]["entries"][-1]["max_cover"] += 1
    expect("thresholds: max_cover off by one past N2", checks.check_thresholds(bad, lim[2], lim[3]), True)
    bad = copy.deepcopy(good)
    bad[0]["n1_candidate"] += 1
    expect("thresholds: N1 off by one", checks.check_thresholds(bad, lim[2], lim[3]), True)
    bad = copy.deepcopy(good)
    bad[1]["entries"][0]["pattern_fingerprint"] = "0" * 64
    expect("thresholds: stale rescan", checks.check_same(good, bad, "thresholds"), True)


def loss_cases(qc) -> None:
    good = [workloads._loss_plain(5, 3, qc.search.loss_minimal_patterns(5, 3))]
    windowed = workloads.windowed_q5(qc)
    expect("loss route: program result", checks.check_loss_route(good, windowed), False)
    bad = copy.deepcopy(good)
    bad[0]["odd"] = (bad[0]["odd"][0] + 1, bad[0]["odd"][1])
    expect("loss route: min_total off by one", checks.check_loss_route(bad, windowed), True)
    bad = copy.deepcopy(good)
    total, pats = bad[0]["even"]
    bad[0]["even"] = (total, [moved(pats[0])] + pats[1:])
    expect("loss route: a queen moved", checks.check_loss_route(bad, windowed), True)
    bad = copy.deepcopy(good)
    total, pats = bad[0]["odd"]
    bad[0]["odd"] = (total, pats[:-1])
    expect("loss route: a pattern dropped", checks.check_loss_route(bad, windowed), True)


def evaluate_cases(qc) -> None:
    workloads.EVAL_BLOCKS = 2
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.EvaluateMixedBoards(qc, 7, Path(tmp))
    ops = workloads.Ops()
    w.cold(ops)
    good = w.evals
    expect("evaluate: program result", checks.check_evaluations(good, w.sample), False)
    i = w.sample[0]
    bad = copy.deepcopy(good)
    bad[i]["cover"] += 1
    expect("evaluate: cover off by one", checks.check_evaluations(bad, w.sample), True)
    bad = copy.deepcopy(good)
    bad[i]["queens"] = moved(bad[i]["queens"])
    expect("evaluate: a queen moved", checks.check_evaluations(bad, w.sample), True)
    stable = [k for k, ev in enumerate(good) if ev["stable"] and ev["nonattacking"]]
    bad = copy.deepcopy(good)
    bad[stable[0]]["total"] -= 1
    expect("evaluate: total loss off by one on a stable board", checks.check_evaluations(bad, w.sample), True)
    bad = copy.deepcopy(good)
    bad[stable[-1]]["internal_stable"] += 1
    expect("evaluate: internal loss off by one", checks.check_evaluations(bad, w.sample), True)


def main() -> int:
    qc, _ = import_package()
    windowed_cases(qc)
    threshold_cases(qc)
    loss_cases(qc)
    evaluate_cases(qc)
    if FAILURES:
        print(f"{len(FAILURES)} checker self-test(s) failed: {FAILURES}")
        return 1
    print("all checker self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
