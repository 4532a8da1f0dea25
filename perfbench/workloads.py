"""The four workloads: inputs from a seed, one cold pass, one rescan, checks.

An operation is one search, one threshold scan, one loss-route call or one
configuration evaluation.  Every call into queencover goes through the
module object (``search.windowed_optimal(...)``), so that the tracer's
wrappers, when installed, see it.  Results are turned into plain data before
they reach ``checks``, which does not import queencover.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from time import perf_counter

import checks

# windowed-q5-7: the paper's standard windowed tier at workers=1, then the
# q=6 n=21 search once more at workers=2, the only fork-pool run.
WINDOWED = ((5, 17), (5, 18), (6, 21), (6, 22), (7, 24), (7, 25))
POOL_CASE = (6, 21)

# threshold-scans: acceptance criterion 4's scans.
SCANS = (
    ("nonattacking", 2, 4, 14),
    ("nonattacking", 3, 4, 14),
    ("nonattacking", 4, 5, 13),
    ("stabilizing", 2, 6, 16),
    ("stabilizing", 3, 6, 18),
    ("stabilizing", 4, 8, 20),
)
# Largest n at which the q=2 / q=3 scan maxima are compared with a brute
# maximum over all subsets of the board.
BRUTE_MAX_N = {2: 16, 3: 9}

# loss-route: the cover-free oracle at two sizes.
LOSS_CALLS = ((5, 4), (6, 3))

# evaluate-mixed-boards: twelve board sizes, more than the eight boards the
# program's per-board mask cache holds, mixed parities; q = 2..9.
BOARD_SIZES = (9, 11, 14, 17, 20, 23, 26, 29, 32, 35, 38, 41)
EVAL_QS = tuple(range(2, 10))
EVAL_BLOCKS = 16  # each block: every (n, q, kind) once, in seeded order
SAMPLE_PER_SIZE = 2  # brute-checked evaluations per board size


class Stats:
    """Counts a workload collects outside the tracer (they are results)."""

    def __init__(self):
        self.nodes = 0  # summed OptimalSet.nodes of searches run at workers=1
        self.window_retries = 0
        self.pool_t1 = 0.0  # POOL_CASE at workers=1, seconds
        self.pool_t2 = 0.0  # POOL_CASE at workers=2, seconds
        self.pool_runs = 0
        self.hit_spans: list[int] = []  # tracer span ids of cache gets that hit


class Ops:
    """Times each operation; an operation that raises counts as failed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args):
        self.attempted += 1
        t0 = perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span(label):
                    out = fn(*args)
            else:
                out = fn(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(e).__name__}: {e}")
            return None, perf_counter() - t0
        return out, perf_counter() - t0


class CachedRunner:
    """What ``queencover search/thresholds --cache-dir`` does per search."""

    def __init__(self, qc, cache, stats: Stats, tracer=None):
        self.qc, self.cache, self.stats, self.tracer = qc, cache, stats, tracer

    def __call__(self, params):
        hit = self.cache.get(params)
        if hit is not None:
            if self.tracer is not None:
                self.stats.hit_spans.append(self.tracer.last_closed)
            return hit
        t0 = perf_counter()
        result = self.qc.search.run_search(params)
        self.cache.put(result, timing_s=perf_counter() - t0)
        if params.workers == 1:
            self.stats.nodes += result.nodes
            self.stats.window_retries += result.window_retries
        return result


def _queens(config) -> tuple:
    return tuple(config.queens)


def _optimal_plain(q: int, n: int, workers: int, result) -> dict:
    return {
        "q": q,
        "n": n,
        "workers": workers,
        "max_cover": result.max_cover,
        "configs": [_queens(c) for c in result.configurations],
        "orbit_sizes": [c.orbit_size for c in result.classes],
        "representatives": [_queens(c.representative) for c in result.classes],
    }


def _loss_plain(q: int, radius: int, scan) -> dict:
    return {
        "q": q,
        "radius": radius,
        "odd": (scan.odd.min_total, [p.offsets for p in scan.odd.patterns]),
        "even": (scan.even.min_total, [p.offsets for p in scan.even.patterns]),
    }


def windowed_q5(qc) -> list[dict]:
    """The q=5 cover route at one board of each parity (n=17, 18), untimed."""
    search = qc.search
    return [
        _optimal_plain(5, n, 1, search.windowed_optimal(search.SearchParams(q=5, n=n, mode="windowed")))
        for n in (17, 18)
    ]


class Workload:
    name = ""
    # Warm passes per round; rescan_s is their median.  Only the windowed
    # rescan (six cache reads, a few ms) needs many to be steady.
    rescan_passes = 1

    def __init__(self, qc, seed: int, tmp: Path):
        self.qc, self.seed, self.tmp = qc, seed, tmp
        self.rng = random.Random(seed)
        self.stats = Stats()

    def cold(self, ops: Ops) -> None:
        raise NotImplementedError

    def rescan(self, ops: Ops) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class Windowed(Workload):
    name = "windowed-q5-7"
    rescan_passes = 50

    def __init__(self, qc, seed, tmp):
        super().__init__(qc, seed, tmp)
        self.order = list(WINDOWED)
        self.rng.shuffle(self.order)
        self.cache = qc.serialization.ResultCache(tmp / "cache")

    def _params(self, q, n, workers=1):
        return self.qc.search.SearchParams(q=q, n=n, mode="windowed", workers=workers)

    def cold(self, ops):
        run = CachedRunner(self.qc, self.cache, self.stats, ops.tracer)
        self.results = []
        for q, n in self.order:
            res, dt = ops.run("op.search", run, self._params(q, n))
            if res is not None:
                self.results.append(_optimal_plain(q, n, 1, res))
            if (q, n) == POOL_CASE:
                self.stats.pool_t1 = dt
        q, n = POOL_CASE
        res, dt = ops.run("op.pool_search", self.qc.search.windowed_optimal, self._params(q, n, 2))
        self.stats.pool_t2, self.stats.pool_runs = dt, 1
        if res is not None:
            self.results.append(_optimal_plain(q, n, 2, res))

    def rescan(self, ops):
        run = CachedRunner(self.qc, self.cache, self.stats, ops.tracer)
        self.warm = []
        for q, n in self.order:
            res, _ = ops.run("op.search", run, self._params(q, n))
            if res is not None:
                self.warm.append(_optimal_plain(q, n, 1, res))

    def check(self):
        cold = [r for r in self.results if r["workers"] == 1]
        return checks.check_windowed(self.results) + checks.check_same(cold, self.warm, self.name)


class ThresholdScans(Workload):
    name = "threshold-scans"

    def __init__(self, qc, seed, tmp):
        super().__init__(qc, seed, tmp)
        self.order = list(SCANS)
        self.rng.shuffle(self.order)
        self.cache = qc.serialization.ResultCache(tmp / "cache")

    def _pass(self, ops) -> list[dict]:
        run = CachedRunner(self.qc, self.cache, self.stats, ops.tracer)
        search = self.qc.search
        out = []
        for kind, q, lo, hi in self.order:
            scan = search.nonattacking_threshold if kind == "nonattacking" else search.stabilizing_threshold
            rep, _ = ops.run("op.scan", scan, q, lo, hi, 1, search.DEFAULT_BUDGET, run)
            if rep is not None:
                out.append(dataclasses.asdict(rep))
        return out

    def cold(self, ops):
        self.reports = self._pass(ops)

    def rescan(self, ops):
        self.warm = self._pass(ops)

    def check(self):
        return checks.check_thresholds(self.reports, BRUTE_MAX_N[2], BRUTE_MAX_N[3]) + checks.check_same(
            self.reports, self.warm, self.name
        )


class LossRoute(Workload):
    name = "loss-route"

    def __init__(self, qc, seed, tmp):
        super().__init__(qc, seed, tmp)
        self.order = list(LOSS_CALLS)
        self.rng.shuffle(self.order)

    def _pass(self, ops) -> list[dict]:
        out = []
        for q, radius in self.order:
            scan, _ = ops.run("op.loss_route", self.qc.search.loss_minimal_patterns, q, radius)
            if scan is not None:
                out.append(_loss_plain(q, radius, scan))
        return out

    def cold(self, ops):
        self.scans = self._pass(ops)

    def rescan(self, ops):
        self.warm = self._pass(ops)

    def check(self):
        return checks.check_loss_route(self.scans, windowed_q5(self.qc)) + checks.check_same(
            self.scans, self.warm, self.name
        )


def _central_nonattacking(rng: random.Random, n: int, q: int):
    """A random non-attacking q-set in the centered window of side min(n, q+4).

    Depth-first search over the window's squares in a random order, so it
    finds a set whenever the window holds one.  The order is drawn as the
    search reaches it (a Fisher-Yates shuffle cut short), since the search
    rarely looks at more than a few dozen squares.
    """
    w = min(n, q + 4)
    lo = -((w - 1) // 2) if n % 2 else 1 - w // 2
    squares = [(x, y) for x in range(lo, lo + w) for y in range(lo, lo + w)]
    drawn = 0  # squares[:drawn] is the order so far
    chosen: list = []
    lines: set = set()  # the rows, columns and diagonals the chosen queens hold

    def dfs(start: int) -> bool:
        nonlocal drawn
        if len(chosen) == q:
            return True
        for i in range(start, len(squares)):
            if i == drawn:
                j = i + rng.randrange(len(squares) - i)
                squares[i], squares[j] = squares[j], squares[i]
                drawn += 1
            x, y = squares[i]
            held = (("x", x), ("y", y), ("d", x - y), ("a", x + y))
            if lines.isdisjoint(held):
                chosen.append((x, y))
                lines.update(held)
                if dfs(i + 1):
                    return True
                chosen.pop()
                lines.difference_update(held)
        return False

    if not dfs(0):
        raise ValueError(f"no non-attacking {q}-set in a {w}x{w} window")
    return chosen


class EvaluateMixedBoards(Workload):
    name = "evaluate-mixed-boards"

    def __init__(self, qc, seed, tmp):
        super().__init__(qc, seed, tmp)
        rng = self.rng
        self.inputs = []
        for _ in range(EVAL_BLOCKS):
            block = [(n, q, kind) for n in BOARD_SIZES for q in EVAL_QS for kind in ("random", "central")]
            rng.shuffle(block)
            for n, q, kind in block:
                if kind == "central":
                    queens = _central_nonattacking(rng, n, q)
                else:
                    lo = checks.board_range(n).start
                    queens = [(lo + k // n, lo + k % n) for k in rng.sample(range(n * n), q)]
                self.inputs.append((n, tuple(sorted(queens))))
        by_size: dict = {}
        for i, (n, _) in enumerate(self.inputs):
            by_size.setdefault(n, []).append(i)
        self.sample = sorted(i for n in BOARD_SIZES for i in rng.sample(by_size[n], SAMPLE_PER_SIZE))

    def _evaluate(self, n: int, queens: tuple) -> dict:
        qc = self.qc
        config = qc.coverage.Configuration(queens)
        board = qc.geometry.BoardSpec(n)
        cover = qc.coverage.cover_count(config, board)
        hist = qc.coverage.attack_field(config, board).histogram()
        breakdown = qc.loss.total_loss(config, board)
        nonattacking = qc.coverage.is_nonattacking(config)
        internal = qc.loss.internal_loss_stable(config) if nonattacking else None
        predicted = qc.loss.predicted_cover(config, board) if breakdown.stable else None
        return {
            "n": n,
            "queens": queens,
            "cover": cover,
            "hist": hist,
            "nonattacking": nonattacking,
            "stable": breakdown.stable,
            "total": breakdown.total,
            "internal_stable": internal,
            "predicted": predicted,
        }

    def _pass(self, ops) -> list[dict]:
        out = []
        for n, queens in self.inputs:
            ev, _ = ops.run("op.evaluate", self._evaluate, n, queens)
            out.append(ev)
        return out

    def cold(self, ops):
        self.evals = self._pass(ops)

    def rescan(self, ops):
        self.warm = self._pass(ops)

    def check(self):
        if any(ev is None for ev in self.evals):
            return ["an evaluation failed; its result cannot be checked"]
        return checks.check_evaluations(self.evals, self.sample) + checks.check_same(self.evals, self.warm, self.name)


WORKLOADS = {w.name: w for w in (Windowed, ThresholdScans, LossRoute, EvaluateMixedBoards)}
