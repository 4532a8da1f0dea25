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
non-attacking placements, so its optimum is relative to the window.  The node
budget, checked at every node, is the only thing that stops a search; a
call's successive windows, or the loss route's two parities, share it.

Symmetry is used twice: the first queen of an enumeration may be restricted
to canonical squares (one per orbit of the board symmetries) without losing
any orbit of optimal configurations, and the result set is reported as
fundamental classes (orbits with a lexicographically least representative).

Every centered box is a prefix of the center-out order, so one per-board
engine (order, center losses, attack masks from coverage.BoardMasks, and the
canonical-square table) serves the exhaustive search, the windowed search
and the loss route.

The loss route scores non-attacking subsets of a box by internal plus
center loss and never counts cover.  Two non-attacking queens' lines meet
exactly on their pair crossings, and neither queen's square lies on the
other's lines, so on the box's stable board (which holds every crossing)
cross[j] = L(j) & OR of L(k) over j's non-attacking box partners k, with L
the on-board line union of coverage.BoardMasks, is the union of j's pair
crossings, and cross[i] & cross[j] is exactly the crossings of i and j.  A
square's internal loss is the number of queens attacking it beyond the
first, so placing j on queens whose masks OR to `lines` raises the internal
loss by exactly popcount(lines & cross[j]): every square counted is attacked
by a placed queen already, and j adds one attacker to it.  That delta only
grows as queens are added, the loss-side twin of the shrinking marginal
gain: children are tried in ascending delta + center loss, each excluding
its earlier siblings, and child p is cut once the scores at ranks
p .. p + r - 1 exceed the incumbent, strictly, so ties survive.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .constructions import Pattern, centralize, pattern_of, stairs, stairs_details
from .coverage import Configuration, cover_count, is_nonattacking
# Unused here, but perfbench/tracer.py wraps search.pair_crossings by name.
from .coverage import pair_crossings  # noqa: F401
from .errors import BudgetExceededError, DomainError, InvariantError
from .geometry import (
    BoardSpec,
    Square,
    TRANSFORM_KINDS,
    border_squares,
    chebyshev_center_distance,
    transform_square,
)
from .loss import center_loss_of_square, stable_board
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
        else:
            object.__setattr__(self, "window", None)

    def problem_key(self) -> dict:
        """Fields that determine the result (workers and budget do not)."""
        return {
            "q": self.q,
            "n": self.n,
            "mode": self.mode,
            "window": self.window,
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

    A windowed result (window_used set) is the optimum within the final
    window, not certified as the optimum of B_n: optima that attack each
    other or leave the window are never seen.  nodes counts every window of
    the call; it is exploration metadata, varies with worker scheduling and
    is excluded from stable serialization.
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
    """One search instance: candidate squares, masks and bound tables.

    A radius restricts the search to non-attacking subsets of that centered
    box; radius None searches the whole board with attacks allowed.
    """

    def __init__(self, n: int, q: int, radius: Optional[int]):
        eng = _engine(n)
        self.engine = eng
        self.q = q
        self.radius = radius
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
        if radius is not None:
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
        spent: int = 0,
        shared=None,
    ) -> tuple[int, list[tuple[int, ...]], int]:
        """Best cover, argmax selections and node count over one shard.

        The shared value, when present, is a monotone cross-shard incumbent
        hint; stale reads only weaken pruning, never correctness.  Counting
        starts at spent, the nodes of the call's earlier windows, and the
        budget is checked against the total at every node.
        """
        q, W, S = self.q, self.W, self.S
        cl, P, battack = self.cl, self.gain_prefix, self.battack
        free = self.free
        best = seed
        found: list[tuple[int, ...]] = []
        nodes = spent
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


def _pool_init(n, q, radius, *shard_args):
    """shard_args: search_shard's seed, node_budget, spent and shared."""
    _POOL_STATE["problem"] = _Problem(n, q, radius)
    _POOL_STATE["shard_args"] = shard_args


def _pool_run(level0_chunk: list[int]):
    return _POOL_STATE["problem"].search_shard(level0_chunk, *_POOL_STATE["shard_args"])


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
    problem: _Problem, params: SearchParams, spent: int = 0
) -> tuple[int, list[tuple[Square, ...]], int]:
    """Best cover, argmax configurations and nodes, counting on from spent.

    Each pool shard may spend the rest of the budget on its own.
    """
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
                seed,
                node_budget,
                spent,
                shared,
            ),
        ) as pool:
            results = pool.map(_pool_run, chunks)
        best = max([seed] + [b for b, _, _ in results])
        sels = []
        for b, found, _ in results:
            if b == best:
                sels.extend(found)
        nodes = spent + sum(nd - spent for _, _, nd in results)
    else:
        best, sels, nodes = problem.search_shard(level0, seed, node_budget, spent)
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
    problem = _Problem(params.n, params.q, None)
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

    Cover is counted on the full board.  The result is the optimum within the
    window, not certified as the optimum of B_n: an attacking configuration
    or one reaching beyond the window may cover more.  If any optimum touches
    the window boundary, or the window holds no non-attacking q-subset, the
    search re-runs with a larger window (recorded in window_retries) until
    optima clear the boundary or the window covers the board.  All windows
    draw from one node budget, and nodes counts them all.  A board with no
    non-attacking q-subset at all raises DomainError.
    """
    if params.mode != "windowed":
        raise DomainError("windowed_optimal requires mode='windowed'")
    board = BoardSpec(params.n)
    radius = _window_radius(params.window, board)
    max_radius = board.max_center_distance()
    retries = 0
    nodes = 0
    while True:
        radius = min(radius, max_radius)
        problem = _Problem(params.n, params.q, radius)
        if problem.W < params.q:
            radius += 1
            continue
        best, configs, nodes = _run_problem(problem, params, nodes)
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
    """Summaries of the exact optimal sets (attacks allowed) for n in [n_lo, n_hi].

    A board whose search exceeds the node budget raises BudgetExceededError.
    """
    if n_lo > n_hi:
        raise DomainError(f"empty scan range [{n_lo}, {n_hi}]")
    run = runner or run_search
    entries = []
    warnings = []
    for n in range(n_lo, n_hi + 1):
        if q > n * n:
            warnings.append(f"skipped n={n}: more queens than squares")
            continue
        result = run(SearchParams(q=q, n=n, workers=workers, budget=budget))
        entries.append(
            ScanEntry(
                n=n,
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
    """Scan for the least n from which every optimum is non-attacking (exact, see _scan)."""
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
    """Loss-minimal non-attacking patterns within a centered box, per parity.

    A parity is None when its box holds no non-attacking q-subset.
    """

    q: int
    radius: int
    odd: Optional[LossMinimal]
    even: Optional[LossMinimal]


def _crossing_masks(squares: list[Square], attack: list[int], odd: bool) -> list[int]:
    """Each square's pair crossings with the squares it does not attack.

    cross[j] is the union of pair_crossings(squares[j], squares[k]) over every
    k whose bit is clear in attack[j], as a bitmask over the row-major squares
    of the squares' stable board at the given parity, which holds every
    crossing.  Two non-attacking queens' lines meet exactly on their pair
    crossings and neither queen's square lies on the other's lines, so
    cross[j] = L(j) & OR of L(k), with L the on-board line union.
    """
    board = stable_board(Configuration.of(squares), odd)
    masks = _coverage._board_masks(board.n)
    lines = [masks.line_union(s) for s in squares]
    cross = []
    for j, line in enumerate(lines):
        partners = 0
        for k, other in enumerate(lines):
            if k != j and not (attack[j] >> k) & 1:
                partners |= other
        cross.append(line & partners)
    return cross


def _loss_scan_parity(
    q: int, radius: int, odd: bool, budget: int, spent: int
) -> tuple[Optional[LossMinimal], int]:
    """One parity's loss-minimal patterns and nodes, counting on from spent."""
    board = BoardSpec(4 * radius + (9 if odd else 10))
    # The box is a prefix of the engine's center-out order; attack bits at or
    # beyond W never enter avail, so the engine's masks serve unchanged.
    eng = _engine(board.n)
    W = eng.box_size(radius)
    squares, cl, attack, in_f = eng.order, eng.cl, eng.attack, eng.in_f
    # prefix[j + r] - prefix[j] is the least center loss of r candidates from j
    # on, because the order sorts by center loss.
    prefix = [0] * (W + 1)
    for j in range(W):
        prefix[j + 1] = prefix[j] + cl[j]

    best = math.inf
    if 2 <= q <= 16:
        build = stairs_details(q)
        if any(c.radius(board) <= radius for c in centralize(build.pattern, board)):
            best = build.internal + (build.center_odd if odd else build.center_even)

    cross = _crossing_masks(squares[:W], attack, odd)

    found: list[tuple[int, ...]] = []
    nodes = spent

    def rec(avail: list[int], r: int, lines: int, inloss: int, cen: int, sel: tuple[int, ...]):
        # r >= 1 queens still to place from avail on top of sel, whose crossing
        # masks OR to lines.  A candidate's delta popcount(lines & cross[j])
        # only grows as queens are added (lines only gains bits), so the r
        # least scores v = delta + cl[j] bound the rest of the total.
        # Children go in ascending v, each excluding its earlier siblings, so
        # child p is cut, and with it every later sibling, once the scores at
        # ranks p .. p + r - 1 exceed best; the cut is strict, so ties
        # survive.  Every delta already counts the at least 10 squares the
        # candidate crosses each placed queen on, so this is tighter than a
        # flat 10 per queen still to place.
        nonlocal best, nodes
        ranked = sorted([((lines & cross[j]).bit_count() + cl[j], j) for j in avail])
        window = inloss + cen + sum(v for v, _ in ranked[:r])
        last = len(ranked) - r
        for p in range(last + 1):
            if window > best:
                return
            v, j = ranked[p]
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"loss scan aborted after {nodes} nodes", nodes, budget
                )
            if r == 1:
                if window < best:
                    best = window
                    found[:] = [sel + (j,)]
                else:
                    found.append(sel + (j,))
            else:
                aj = attack[j]
                rest = [i for _, i in ranked[p + 1 :] if not (aj >> i) & 1]
                if len(rest) >= r - 1:
                    rec(rest, r - 1, lines | cross[j], inloss + v - cl[j], cen + cl[j], sel + (j,))
            if p < last:
                window += ranked[p + r][0] - v

    for j0 in range(W - q + 1):
        if not in_f[j0]:
            continue
        # Every later queen crosses j0 on at least 10 distinct squares.
        if 10 * (q - 1) + prefix[j0 + q] - prefix[j0] > best:
            break
        if q == 1:
            best = cl[j0]
            found.append((j0,))
        else:
            aj = attack[j0]
            avail = [i for i in range(j0 + 1, W) if not (aj >> i) & 1]
            rec(avail, q - 1, cross[j0], 0, cl[j0], (j0,))

    if not found:
        return None, nodes
    canon = sorted(
        {pattern_of(Configuration.of([squares[j] for j in sel])).canonical().offsets for sel in found}
    )
    return LossMinimal(
        parity="odd" if odd else "even",
        min_total=best,
        patterns=tuple(Pattern(offs) for offs in canon),
    ), nodes


def loss_minimal_patterns(q: int, radius: int, budget: int = DEFAULT_BUDGET) -> LossScan:
    """Non-attacking patterns of minimal board-independent loss, per parity.

    Enumerates the non-attacking q-subsets of the centered box of the given
    radius on B_{4r+9} (odd) and B_{4r+10} (even), scoring each by center
    loss plus internal loss.  Two non-attacking queens' lines meet exactly on
    their pair crossings, so on a board holding every crossing a square's
    crossing mask is cross[j] = L(j) & OR of L(k) over its non-attacking box
    partners k, with L the square's line union.  A square's internal loss is
    the number of queens attacking it beyond the first, so a new queen raises
    the internal loss by the number of distinct squares it crosses with the
    placed ones: one AND and popcount per candidate.  That delta only grows
    as queens are added, so the r least current values of delta + center
    loss bound the rest of a node's total; children go in ascending value
    and are cut once that ranked window exceeds the incumbent (strictly, so
    every tie is kept).  The route never counts cover, so it cross-validates
    the cover searches through the loss/cover identity.  A parity whose box
    holds no non-attacking q-subset is None; DomainError is raised when both
    are.  Both parities draw from one node budget.
    """
    if q < 1:
        raise DomainError(f"q must be >= 1, got {q}")
    if radius < 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    odd, spent = _loss_scan_parity(q, radius, True, budget, 0)
    even, _ = _loss_scan_parity(q, radius, False, budget, spent)
    if odd is None and even is None:
        raise DomainError(
            f"no centered box of radius {radius} holds {q} mutually non-attacking queens"
        )
    return LossScan(q=q, radius=radius, odd=odd, even=even)


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
    translation- and symmetry-normalized pattern fingerprints.  Every board is
    searched exactly within the node budget (see _scan).
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
