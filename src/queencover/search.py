"""Optimal-configuration search, symmetry reduction and threshold scans.

Both search modes share one branch-and-bound over center-out ordered
candidate squares.  Cover is a coverage function, hence submodular: the
marginal gain of a candidate j, the number of squares it covers that the
placed queens m do not (popcount(attack(j) & ~m)), can only shrink as queens
are added.  A node with r queens still to place is therefore bounded by its
cover plus the r largest exact marginals of its open candidates.  Children
are tried in descending marginal gain, each excluding its earlier siblings,
so child p is cut once cover + the gains at ranks p .. p + r - 1 fall below
the incumbent; candidates whose gain cannot reach it are dropped from the
child's list.  The cut is strict, so ties survive: the bound is exact, never
heuristic, and all argmax configurations are returned.  The first queen is
the least-indexed one and uses the same bound with the unobstructed gains
(4n - 3) - center_loss(s).  Windowed mode restricts the candidates to a
centered box while counting cover on the full board and considers only
non-attacking placements.

Symmetry is used twice: the first queen of an enumeration may be restricted
to canonical squares (one per orbit of the board symmetries) without losing
any orbit of optimal configurations, and the result set is reported as
fundamental classes (orbits with a lexicographically least representative).

Every centered box is a prefix of the center-out order, so one per-board
engine (order, center losses, attack masks from coverage.BoardMasks, and the
canonical-square table) serves the exhaustive search, the windowed search
and the loss route, which scores non-attacking subsets of a box by internal
plus center loss and never counts cover.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from bisect import bisect_right
from itertools import combinations
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .constructions import Pattern, centralize, pattern_of, stairs, stairs_details
from .coverage import Configuration, cover_count, is_nonattacking, pair_crossings
from .errors import BudgetExceededError, DomainError, InvariantError
from .geometry import (
    BoardSpec,
    Square,
    TRANSFORM_KINDS,
    border_squares,
    chebyshev_center_distance,
    transform_square,
)
from .loss import center_loss_of_square, crossing_budget
from . import coverage as _coverage

DEFAULT_BUDGET = 10**10

_MODES = ("exhaustive", "windowed")


@dataclass(frozen=True)
class SearchParams:
    """Problem description for one optimal-configuration search."""

    q: int
    n: int
    mode: str = "exhaustive"
    window: Optional[int] = None
    require_nonattacking: bool = False
    workers: int = 1
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.q < 1:
            raise DomainError(f"q must be >= 1, got {self.q}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.q > self.n * self.n:
            raise DomainError(f"cannot place {self.q} queens on B_{self.n}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        if self.budget < 1:
            raise DomainError(f"budget must be >= 1, got {self.budget}")
        if self.mode == "windowed":
            window = self.window if self.window is not None else self.q + 3
            if window > self.n:
                raise DomainError(f"window {window} exceeds board side {self.n}")
            object.__setattr__(self, "window", window)
            object.__setattr__(self, "require_nonattacking", True)
        else:
            object.__setattr__(self, "window", None)

    def problem_key(self) -> dict:
        """Fields that determine the result (workers and budget do not)."""
        return {
            "q": self.q,
            "n": self.n,
            "mode": self.mode,
            "window": self.window,
            "require_nonattacking": self.require_nonattacking,
        }


@dataclass(frozen=True)
class FundamentalClass:
    """One symmetry orbit of configurations with its least representative."""

    representative: Configuration
    orbit_size: int
    stabilizer_order: int

    def __post_init__(self):
        if self.orbit_size * self.stabilizer_order != 8:
            raise InvariantError(
                f"orbit size {self.orbit_size} x stabilizer {self.stabilizer_order} != 8"
            )


@dataclass(frozen=True)
class OptimalSet:
    """All cover-maximal configurations for one search, orbit-decomposed.

    nodes is exploration metadata; it varies with worker scheduling and is
    excluded from stable serialization.
    """

    params: SearchParams
    max_cover: int
    configurations: tuple[Configuration, ...]
    classes: tuple[FundamentalClass, ...]
    window_used: Optional[int] = None
    window_retries: int = 0
    nodes: int = 0


def _transform_config(kind: str, parity_offset: int, queens: Iterable[Square]) -> tuple[Square, ...]:
    return tuple(sorted(transform_square(kind, parity_offset, s) for s in queens))


def config_orbit(config: Configuration, board: BoardSpec) -> tuple[tuple[Square, ...], ...]:
    p = board.parity_offset
    return tuple(sorted({_transform_config(k, p, config.queens) for k in TRANSFORM_KINDS}))


def fundamental_classes(
    configs: Iterable[Configuration], board: BoardSpec
) -> tuple[FundamentalClass, ...]:
    """Partition configurations into orbits under the eight board symmetries."""
    pool = {c.queens for c in configs}
    for queens in pool:
        for s in queens:
            if not (board.lo <= s[0] <= board.hi and board.lo <= s[1] <= board.hi):
                raise DomainError(f"configuration {queens} is not feasible on B_{board.n}")
    seen: set[tuple[Square, ...]] = set()
    out = []
    for queens in sorted(pool):
        if queens in seen:
            continue
        orbit = config_orbit(Configuration(queens), board)
        seen.update(orbit)
        out.append(
            FundamentalClass(
                representative=Configuration(orbit[0]),
                orbit_size=len(orbit),
                stabilizer_order=8 // len(orbit),
            )
        )
    return tuple(out)


class _Engine:
    """Per-board bitboard tables in center-out candidate order.

    in_f[i] marks the canonical squares: no board symmetry maps square i to
    an earlier one.
    """

    def __init__(self, n: int):
        board = BoardSpec(n)
        self.board = board
        self.n = n
        squares = sorted(
            board.squares(),
            key=lambda s: (center_loss_of_square(s, board), s),
        )
        self.order = squares
        self.cl = [center_loss_of_square(s, board) for s in squares]
        self.cd = [chebyshev_center_distance(board, s) for s in squares]
        masks = _coverage.BoardMasks(board, squares)
        self.attack = [masks.line_union(s) & ~(1 << i) for i, s in enumerate(squares)]
        pos = {s: i for i, s in enumerate(squares)}
        p = board.parity_offset
        perms = [
            [pos[transform_square(kind, p, s)] for s in squares] for kind in TRANSFORM_KINDS
        ]
        self.in_f = [all(perm[i] >= i for perm in perms) for i in range(len(squares))]

    def box_size(self, radius: int) -> int:
        """Squares within Chebyshev distance radius of the center.

        Center loss grows with the distance, so the centered box of any
        radius is a prefix of the center-out order; this is its length.
        """
        return bisect_right(self.cd, radius)


@lru_cache(maxsize=6)
def _engine(n: int) -> _Engine:
    return _Engine(n)


def _neg_gain(entry: tuple[int, int]) -> int:
    return -entry[0]


class _Problem:
    """One search instance: candidate squares, masks and bound tables."""

    def __init__(self, n: int, q: int, radius: Optional[int], require_nonattacking: bool):
        eng = _engine(n)
        self.engine = eng
        self.q = q
        self.radius = radius
        self.require_nonattacking = require_nonattacking
        W = len(eng.order) if radius is None else eng.box_size(radius)
        self.W = W
        self.cl = eng.cl[:W]
        S = 4 * n - 3
        self.gain_prefix = [0] * (W + 1)
        for j in range(W):
            self.gain_prefix[j + 1] = self.gain_prefix[j] + (S - self.cl[j])
        self.S = S
        self.battack = [eng.attack[j] | (1 << j) for j in range(W)]
        self.in_f = eng.in_f[:W]
        # free[j]: the candidates that a queen on candidate j does not attack.
        if require_nonattacking:
            self.free = [
                frozenset(i for i in range(W) if i != j and not (eng.attack[j] >> i) & 1)
                for j in range(W)
            ]
        else:
            self.free = None

    def level0(self) -> list[int]:
        return [j for j in range(self.W) if self.in_f[j]]

    def config_at(self, sel: tuple[int, ...]) -> tuple[Square, ...]:
        return tuple(sorted(self.engine.order[j] for j in sel))

    def search_shard(
        self,
        level0: list[int],
        seed: int,
        node_budget: int,
        shared=None,
    ) -> tuple[int, list[tuple[int, ...]], int]:
        """Best cover, argmax selections and node count over one shard.

        The shared value, when present, is a monotone cross-shard incumbent
        hint; stale reads only weaken pruning, never correctness.  The node
        budget is checked at every node, so an abort spends at most
        node_budget + 1 nodes.
        """
        q, W, S = self.q, self.W, self.S
        cl, P, battack = self.cl, self.gain_prefix, self.battack
        free = self.free
        best = seed
        found: list[tuple[int, ...]] = []
        nodes = 0
        bc = int.bit_count

        def note(cov: int, sel: tuple[int, ...]):
            nonlocal best
            if cov > best:
                best = cov
                found.clear()
                found.append(sel)
                if shared is not None and cov > shared.value:
                    with shared.get_lock():
                        if cov > shared.value:
                            shared.value = cov
            elif cov == best:
                found.append(sel)

        def hint() -> int:
            if shared is not None:
                v = shared.value
                if v > best:
                    return v
            return best

        def spend(count: int):
            nonlocal nodes
            nodes += count
            if nodes > node_budget:
                raise BudgetExceededError(
                    f"search aborted after {nodes} nodes", nodes, node_budget
                )

        def rec(avail: list[int], r: int, m: int, cov: int, sel: tuple[int, ...]):
            """Add r more queens from avail to the selection sel covering m."""
            nm = ~m
            if r == 1:
                gains = [bc(battack[j] & nm) for j in avail]
                top = max(gains)
                if cov + top < hint():
                    return
                ties = [j for g, j in zip(gains, avail) if g == top]
                spend(len(ties))
                for j in ties:
                    note(cov + top, sel + (j,))
                return
            # Children in descending marginal gain; each excludes its earlier
            # siblings, so a child's subtree draws only from the candidates
            # after it, whose r - 1 largest gains bound its completion.
            ranked = sorted([(bc(battack[j] & nm), j) for j in avail], reverse=True)
            last = len(ranked) - r
            window = sum(g for g, _ in ranked[:r])
            cut = hint()
            for p in range(last + 1):
                g, j = ranked[p]
                if cov + window < cut:
                    return
                spend(1)
                rest = ranked[p + 1 :]
                if free is not None:
                    fj = free[j]
                    rest = [e for e in rest if e[1] in fj]
                # Gains here bound the child's (they only shrink), so drop the
                # tail that cannot reach the cut even with the r - 2 best others.
                head = sum(e[0] for e in rest[: r - 2])
                keep = bisect_right(rest, head + cov + g - cut, key=_neg_gain)
                if keep >= r - 1:
                    rec([i for _, i in rest[:keep]], r - 1, m | battack[j], cov + g, sel + (j,))
                    cut = hint()
                if p < last:
                    window += ranked[p + r][0] - g

        for j0 in level0:
            if j0 > W - q:
                break
            if (S - cl[j0]) + (P[j0 + q] - P[j0 + 1]) < hint():
                break
            spend(1)
            m0 = battack[j0]
            if q == 1:
                note(bc(m0), (j0,))
                continue
            avail = [i for i in range(j0 + 1, W) if free is None or i in free[j0]]
            if len(avail) >= q - 1:
                rec(avail, q - 1, m0, bc(m0), (j0,))

        return best, found, nodes


_POOL_STATE: dict = {}


def _pool_init(n, q, radius, require_nonattacking, seed, node_budget, shared):
    _POOL_STATE["problem"] = _Problem(n, q, radius, require_nonattacking)
    _POOL_STATE["seed"] = seed
    _POOL_STATE["node_budget"] = node_budget
    _POOL_STATE["shared"] = shared


def _pool_run(level0_chunk: list[int]):
    p = _POOL_STATE["problem"]
    return p.search_shard(
        level0_chunk,
        _POOL_STATE["seed"],
        _POOL_STATE["node_budget"],
        _POOL_STATE["shared"],
    )


def _greedy_cover(problem: _Problem) -> int:
    """Cover achieved by greedily adding the best marginal square; a lower bound.

    Only the most central candidates are considered, which keeps seeding
    cheap, and the feasibility rules of the problem (non-attacking, window)
    are honored so the value is always attainable; when the greedy walk runs
    out of candidates before placing q queens the seed is 0.  The search is
    exact regardless of seed quality.
    """
    allowed = list(range(min(problem.W, 200)))
    m = 0
    for _ in range(problem.q):
        if not allowed:
            return 0
        best_j = max(allowed, key=lambda j: (m | problem.battack[j]).bit_count())
        m |= problem.battack[best_j]
        if problem.free is None:
            allowed.remove(best_j)
        else:
            free = problem.free[best_j]
            allowed = [i for i in allowed if i in free]
    return m.bit_count()


def _construction_seed(problem: _Problem, board: BoardSpec) -> int:
    """Cover of a centralized stairs placement that is feasible for the problem."""
    q = problem.q
    if q < 2 or q > 16:
        return 0
    pattern = stairs(q)
    if pattern.width > board.n or pattern.height > board.n:
        return 0
    best = 0
    for c in centralize(pattern, board):
        if problem.radius is not None and c.radius(board) > problem.radius:
            continue
        best = max(best, cover_count(c, board))
    return best


def _seed_cover(problem: _Problem, board: BoardSpec) -> int:
    return max(_greedy_cover(problem), _construction_seed(problem, board))


def _run_problem(
    problem: _Problem, params: SearchParams
) -> tuple[int, list[tuple[Square, ...]], int]:
    board = problem.engine.board
    seed = _seed_cover(problem, board)
    level0 = problem.level0()
    node_budget = params.budget
    if params.workers > 1 and len(level0) > 1:
        chunks = [level0[i :: params.workers * 4] for i in range(params.workers * 4)]
        chunks = [c for c in chunks if c]
        shared = multiprocessing.Value("q", seed)
        with multiprocessing.get_context("fork").Pool(
            processes=params.workers,
            initializer=_pool_init,
            initargs=(
                problem.engine.n,
                problem.q,
                problem.radius,
                problem.require_nonattacking,
                seed,
                node_budget,
                shared,
            ),
        ) as pool:
            results = pool.map(_pool_run, chunks)
        best = max([seed] + [b for b, _, _ in results])
        sels = []
        for b, found, _ in results:
            if b == best:
                sels.extend(found)
        nodes = sum(nd for _, _, nd in results)
    else:
        best, sels, nodes = problem.search_shard(level0, seed, node_budget)
    configs = sorted({problem.config_at(sel) for sel in sels})
    return best, configs, nodes


def _orbit_expand(
    configs: list[tuple[Square, ...]], board: BoardSpec
) -> list[tuple[Square, ...]]:
    orbits = (config_orbit(Configuration(queens), board) for queens in configs)
    return sorted(set().union(*orbits))


def _finish(
    params: SearchParams,
    best: int,
    raw_configs: list[tuple[Square, ...]],
    nodes: int,
    window_used: Optional[int],
    window_retries: int,
) -> OptimalSet:
    board = BoardSpec(params.n)
    expanded = _orbit_expand(raw_configs, board)
    configurations = []
    for queens in expanded:
        config = Configuration(queens)
        if cover_count(config, board) != best:
            raise InvariantError(
                f"reported optimum {queens} does not reach cover {best}"
            )
        configurations.append(config)
    classes = fundamental_classes(configurations, board)
    if sum(c.orbit_size for c in classes) != len(configurations):
        raise InvariantError("orbit sizes do not partition the optimal set")
    return OptimalSet(
        params=params,
        max_cover=best,
        configurations=tuple(configurations),
        classes=classes,
        window_used=window_used,
        window_retries=window_retries,
        nodes=nodes,
    )


def exhaustive_optimal(params: SearchParams) -> OptimalSet:
    """Exact maximum cover over all q-subsets of the board (attacks allowed)."""
    if params.mode != "exhaustive":
        raise DomainError("exhaustive_optimal requires mode='exhaustive'")
    estimate = math.comb(params.n * params.n, params.q)
    if estimate > params.budget:
        raise BudgetExceededError(
            f"C({params.n * params.n}, {params.q}) = {estimate} subsets exceeds "
            f"budget {params.budget}",
            estimate,
            params.budget,
        )
    problem = _Problem(params.n, params.q, None, params.require_nonattacking)
    best, configs, nodes = _run_problem(problem, params)
    return _finish(params, best, configs, nodes, None, 0)


def _window_radius(window: int, board: BoardSpec) -> int:
    """Largest centered box radius whose box fits inside the given window side."""
    if board.is_odd:
        return max(0, (window - 1) // 2)
    return max(0, window // 2 - 1)


def _window_side(radius: int, board: BoardSpec) -> int:
    return 2 * radius + 1 if board.is_odd else 2 * radius + 2


def windowed_optimal(params: SearchParams) -> OptimalSet:
    """Maximum cover over non-attacking q-subsets of a centered window.

    Cover is counted on the full board.  The result is exact relative to the
    window restriction; if any optimum touches the window boundary, or the
    window holds no non-attacking q-subset, the search re-runs with a larger
    window (recorded in window_retries) until optima clear the boundary or
    the window covers the board.  A board with no non-attacking q-subset at
    all raises DomainError.
    """
    if params.mode != "windowed":
        raise DomainError("windowed_optimal requires mode='windowed'")
    board = BoardSpec(params.n)
    radius = _window_radius(params.window, board)
    max_radius = board.max_center_distance()
    retries = 0
    while True:
        radius = min(radius, max_radius)
        problem = _Problem(params.n, params.q, radius, True)
        if problem.W < params.q:
            radius += 1
            continue
        best, configs, nodes = _run_problem(problem, params)
        # A window holding no non-attacking q-subset grows like a touched one.
        touched = not configs or any(
            chebyshev_center_distance(board, s) >= radius
            for queens in configs
            for s in queens
        )
        if not touched or radius >= max_radius:
            if not configs:
                raise DomainError(
                    f"B_{params.n} holds no non-attacking configuration of {params.q} queens"
                )
            return _finish(
                params, best, configs, nodes, _window_side(radius, board), retries
            )
        radius += 1
        retries += 1


def run_search(params: SearchParams) -> OptimalSet:
    return (
        exhaustive_optimal(params)
        if params.mode == "exhaustive"
        else windowed_optimal(params)
    )


def border_certificate(config: Configuration, board: BoardSpec) -> bool:
    """True iff no square of the next border ring is attacked by two queens.

    This is the hypothesis under which an optimal non-attacking configuration
    stays optimal when the board grows by one ring.
    """
    if not config.is_feasible(board):
        raise DomainError("border certificate requires a board-feasible configuration")
    if not is_nonattacking(config):
        raise DomainError("border certificate requires a non-attacking configuration")
    bigger = BoardSpec(board.n + 2)
    field = _coverage.attack_field(config, bigger)
    return all(field.count(s) <= 1 for s in border_squares(bigger))


def canonical_pattern_fingerprint(classes: Iterable[FundamentalClass]) -> str:
    """Hash of the multiset of translation- and symmetry-normalized patterns.

    The multiset runs over every member of every orbit.  Board symmetries are
    translations composed with the eight plane symmetries, so all members of
    an orbit share the representative's normalized pattern: it is computed
    once per class and counted orbit_size times.
    """
    canon = []
    for c in classes:
        canon += [pattern_of(c.representative).canonical().offsets] * c.orbit_size
    canon.sort()
    blob = repr(canon).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class ScanEntry:
    """Summary of the optimal set at one board size during a threshold scan."""

    n: int
    mode: str
    max_cover: int
    optimal_count: int
    all_nonattacking: bool
    class_sizes: tuple[int, ...]
    pattern_fingerprint: str


@dataclass(frozen=True)
class ThresholdReport:
    """Empirical threshold candidates, valid only within the scanned range."""

    kind: str
    q: int
    n_lo: int
    n_hi: int
    entries: tuple[ScanEntry, ...]
    n1_candidate: Optional[int]
    n2_odd: Optional[int]
    n2_even: Optional[int]
    n2_combined: Optional[int]
    warnings: tuple[str, ...]
    empirical: bool = True


Runner = Callable[[SearchParams], OptimalSet]


def _scan(
    q: int,
    n_lo: int,
    n_hi: int,
    workers: int,
    budget: int,
    runner: Optional[Runner],
) -> tuple[list[ScanEntry], list[str]]:
    if n_lo > n_hi:
        raise DomainError(f"empty scan range [{n_lo}, {n_hi}]")
    run = runner or run_search
    entries = []
    warnings = []
    for n in range(n_lo, n_hi + 1):
        if q > n * n:
            warnings.append(f"skipped n={n}: more queens than squares")
            continue
        if math.comb(n * n, q) <= budget:
            params = SearchParams(q=q, n=n, mode="exhaustive", workers=workers, budget=budget)
        else:
            params = SearchParams(
                q=q, n=n, mode="windowed", workers=workers, budget=budget
            )
            warnings.append(
                f"n={n}: exhaustive search over budget; windowed scan cannot rule "
                f"out attacking optima"
            )
        result = run(params)
        entries.append(
            ScanEntry(
                n=n,
                mode=params.mode,
                max_cover=result.max_cover,
                optimal_count=len(result.configurations),
                all_nonattacking=all(
                    is_nonattacking(c) for c in result.configurations
                ),
                class_sizes=tuple(
                    sorted((c.orbit_size for c in result.classes), reverse=True)
                ),
                pattern_fingerprint=canonical_pattern_fingerprint(result.classes),
            )
        )
    return entries, warnings


def nonattacking_threshold(
    q: int,
    n_lo: int,
    n_hi: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    runner: Optional[Runner] = None,
) -> ThresholdReport:
    """Scan for the least n from which every optimum is non-attacking."""
    entries, warnings = _scan(q, n_lo, n_hi, workers, budget, runner)
    n1 = None
    for e in reversed(entries):
        if e.all_nonattacking:
            n1 = e.n
        else:
            break
    return ThresholdReport(
        kind="nonattacking",
        q=q,
        n_lo=n_lo,
        n_hi=n_hi,
        entries=tuple(entries),
        n1_candidate=n1,
        n2_odd=None,
        n2_even=None,
        n2_combined=None,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class LossMinimal:
    """Minimal board-independent total loss for one board parity."""

    parity: str
    min_total: int
    patterns: tuple[Pattern, ...]


@dataclass(frozen=True)
class LossScan:
    """Loss-minimal non-attacking patterns within a centered box, per parity."""

    q: int
    radius: int
    odd: LossMinimal
    even: LossMinimal


def _loss_scan_parity(q: int, radius: int, odd: bool, budget: int) -> LossMinimal:
    board = BoardSpec(4 * radius + (9 if odd else 10))
    # The box is a prefix of the engine's center-out order; attack bits at or
    # beyond W never enter avail, so the engine's masks serve unchanged.
    eng = _engine(board.n)
    W = eng.box_size(radius)
    if q > W:
        raise DomainError(f"box of radius {radius} has only {W} squares for q={q}")
    squares, cl, wattack, in_f = eng.order, eng.cl, eng.attack, eng.in_f
    prefix = [0] * (W + 1)
    for j in range(W):
        prefix[j + 1] = prefix[j] + cl[j]

    best: Optional[int] = None
    if q >= 2 and q <= 16:
        build = stairs_details(q)
        seed_total = build.internal + (build.center_odd if odd else build.center_even)
        for c in centralize(build.pattern, board):
            if c.radius(board) <= radius:
                best = seed_total
                break

    crossings_of: dict[tuple[int, int], tuple[Square, ...]] = {}
    for lo_j, hi_j in combinations(range(W), 2):
        if not (wattack[lo_j] >> hi_j) & 1:
            crossings_of[(lo_j, hi_j)] = tuple(
                pair_crossings(squares[lo_j], squares[hi_j])
            )

    found: list[tuple[Square, ...]] = []
    # attackers[s] is a bitmask over the depths of chosen queens attacking s
    attackers: dict[Square, int] = {}
    chosen: list[int] = []
    state = {"inloss": 0, "nodes": 0}
    bc = int.bit_count
    parity = [(x - y) & 1 for x, y in squares[:W]]

    @lru_cache(maxsize=None)
    def inloss_floor_final(e: int, o: int, r: int) -> int:
        """Least possible final internal loss given parity counts so far.

        The discrepancy of a square attacked a <= 4 times is at most half the
        pairs it consumes, so inloss = budget - discrepancy >= budget / 2; the
        budget itself is minimized over the parities of the r unplaced queens.
        """
        low = min(crossing_budget(e + fe, o + r - fe) for fe in range(r + 1))
        return (low + 1) // 2

    def place(j: int) -> list[tuple[Square, int]]:
        log: list[tuple[Square, int]] = []
        new_bit = 1 << len(chosen)
        for depth, prev in enumerate(chosen):
            pair = (prev, j) if prev < j else (j, prev)
            both = new_bit | (1 << depth)
            for s in crossings_of[pair]:
                old = attackers.get(s, 0)
                new = old | both
                if new != old:
                    log.append((s, old))
                    attackers[s] = new
                    state["inloss"] += bc(new) - max(bc(old), 1)
        chosen.append(j)
        return log

    def unplace(log: list[tuple[Square, int]]):
        chosen.pop()
        for s, old in reversed(log):
            new = attackers[s]
            state["inloss"] -= bc(new) - max(bc(old), 1)
            if old:
                attackers[s] = old
            else:
                del attackers[s]

    def rec(avail: int, k: int, cen: int, e: int, o: int):
        nonlocal best
        r = q - k
        if r == 0:
            total = state["inloss"] + cen
            config = tuple(squares[j] for j in chosen)
            if best is None or total < best:
                best = total
                found.clear()
                found.append(config)
            elif total == best:
                found.append(config)
            return
        a = avail
        # Two admissible floors on the final internal loss: every future queen
        # pairs with a placed one and a non-attacking pair crosses on at least
        # 10 distinct squares (crossings accumulate square by square), and the
        # parity-budget floor above.
        inloss_floor = max(state["inloss"] + 10 * r, inloss_floor_final(e, o, r))
        while a:
            lsb = a & -a
            j = lsb.bit_length() - 1
            a ^= lsb
            if a.bit_count() + 1 < r:
                break
            lb = inloss_floor + cen + cl[j] + (prefix[min(j + r, W)] - prefix[j + 1])
            if best is not None and lb > best:
                break
            state["nodes"] += 1
            if state["nodes"] > budget:
                raise BudgetExceededError(
                    f"loss scan aborted after {state['nodes']} nodes",
                    state["nodes"],
                    budget,
                )
            log = place(j)
            rec(
                a & ~wattack[j],
                k + 1,
                cen + cl[j],
                e + (1 - parity[j]),
                o + parity[j],
            )
            unplace(log)

    all_bits = (1 << W) - 1
    for j0 in range(W - q + 1):
        if not in_f[j0]:
            continue
        floor0 = max(10 * (q - 1), inloss_floor_final(0, 0, q))
        floor0 += cl[j0] + (prefix[j0 + q] - prefix[j0 + 1])
        if best is not None and floor0 > best:
            break
        log = place(j0)
        avail = (all_bits >> (j0 + 1)) << (j0 + 1)
        rec(avail & ~wattack[j0], 1, cl[j0], 1 - parity[j0], parity[j0])
        unplace(log)

    if best is None:
        raise DomainError(
            f"box of radius {radius} on B_{board.n} holds no non-attacking "
            f"configuration of {q} queens"
        )
    canon = sorted({pattern_of(Configuration.of(c)).canonical().offsets for c in found})
    return LossMinimal(
        parity="odd" if odd else "even",
        min_total=best,
        patterns=tuple(Pattern(offs) for offs in canon),
    )


def loss_minimal_patterns(q: int, radius: int, budget: int = DEFAULT_BUDGET) -> LossScan:
    """Non-attacking patterns of minimal board-independent loss, per parity.

    Enumerates non-attacking q-subsets of a centered box, scoring each by
    center loss plus the internal loss accumulated from pairwise attack-line
    crossings.  This route never counts cover, so it can cross-validate the
    cover searches through the loss/cover identity.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    return LossScan(
        q=q,
        radius=radius,
        odd=_loss_scan_parity(q, radius, True, budget),
        even=_loss_scan_parity(q, radius, False, budget),
    )


def stabilizing_threshold(
    q: int,
    n_lo: int,
    n_hi: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    runner: Optional[Runner] = None,
) -> ThresholdReport:
    """Scan for the least n from which the optimal pattern multiset is constant.

    Placements shift with board parity, so constancy is measured per parity via
    translation- and symmetry-normalized pattern fingerprints.
    """
    entries, warnings = _scan(q, n_lo, n_hi, workers, budget, runner)
    per_parity: dict[int, Optional[int]] = {0: None, 1: None}
    bad: list[int] = []
    for parity in (0, 1):
        group = [e for e in entries if e.n % 2 == parity]
        if len(group) < 2:
            continue
        final = group[-1].pattern_fingerprint
        parity_bad = [e.n for e in group if e.pattern_fingerprint != final]
        per_parity[parity] = (max(parity_bad) + 2) if parity_bad else group[0].n
        bad.extend(parity_bad)
    combined = None
    if entries and any(v is not None for v in per_parity.values()):
        combined = (max(bad) + 1) if bad else entries[0].n
    return ThresholdReport(
        kind="stabilizing",
        q=q,
        n_lo=n_lo,
        n_hi=n_hi,
        entries=tuple(entries),
        n1_candidate=None,
        n2_odd=per_parity[1],
        n2_even=per_parity[0],
        n2_combined=combined,
        warnings=tuple(warnings),
    )
