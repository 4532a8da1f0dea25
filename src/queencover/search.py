"""Optimal-configuration search, symmetry reduction and threshold scans.

Both search modes share one branch-and-bound over center-out ordered
candidate squares.  Cover is a coverage function, hence submodular: the
marginal gain of a candidate j, the number of squares it covers that the
placed queens m do not (popcount(L(j) & ~m)), can only shrink as queens
are added.  A node with r queens still to place is therefore bounded by its
cover plus the r largest exact marginals of its open candidates.  A node
decides this entry cut on its unranked list of gains; only a node that
passes ranks its candidates.  Children are tried in descending marginal
gain, each excluding its earlier siblings, so child p is cut once cover +
the gains at ranks p .. p + r - 1 fall below the incumbent; candidates whose
gain cannot reach it are dropped from the child's list.  The cut is strict,
so ties survive: the bound is exact, never heuristic, and all argmax
configurations are returned.  The first queen is the least-indexed one and
uses the same bound with the unobstructed gains (4n - 3) - center_loss(s).
Windowed mode restricts the candidates to a centered box while counting
cover on the full board and considers only non-attacking placements, so its
optimum is relative to the window.  The node budget, checked at every node,
is the only thing that stops a search; a call's successive windows, or the
loss route's two parities, share it.  The incumbent starts empty; the first
descent, taking the largest gain at every depth, is already a greedy walk
from the most central square.

Symmetry is used three times, from one table: the engine holds the eight
board symmetries as permutations of its candidate indices (perms).  The
first queen of an enumeration is restricted to canonical squares (no
symmetry maps them to an earlier index) without losing any orbit of optimal
configurations.  Below a first queen j0, both routes skip a second-level
child j when a symmetry that fixes j0 and maps j0's candidate list onto
itself (the group G0) sends j to a candidate ranked ahead of it.  G0 fixes
the placed lines, so second-level gains and loss scores are G0-invariant:
of the G0-images of a configuration holding j0, the one whose best-ranked
member after j0 ranks earliest keeps that member unskipped and is still
searched.  A symmetry fixing j0 maps the box and j0's lines onto
themselves, so it keeps j0's list exactly when it keeps the candidates
before j0 that j0 allows: G0 costs a pass over j0's predecessors, and a
child is tested against it only when the loop reaches that child.
Finally the search's index selections are expanded to their orbits, which
restores every skipped image, and reported as fundamental classes (orbits
with a lexicographically least representative).  The orbit pass works on
each candidate's lexicographic key (lex, the rank of its square in sorted
order) read through perms, so each image is a sorted tuple of small ints
that compares as its squares do: a member maps back to squares already
sorted, and the orbit's least key tuple is its representative.  The loss
route reports canonical patterns, the same for every image, and the
threshold scans fingerprint them; both take the canonical offsets
(constructions.canonical_offsets) straight from squares, and only the loss
route's final patterns are wrapped as Patterns.

A search reads only the squares of its centered box, and every centered box
is a prefix of the center-out order that the eight symmetries map onto
itself.  So each search builds the engine of its own box (order, center
losses and their prefix sums, the row-major line masks of
coverage.line_masks, and the symmetry permutations), whose tables are the
whole board's cut at the box: the exhaustive search's box is the whole
board, the windowed search's is its window and the loss route's is its box
on the stable board.  A search instance is that engine plus, for the routes
that allow no attacks, each candidate's non-attacking partners free[j]
(_partners): the windowed route builds them for each window it searches and
the loss route for each parity, and the exhaustive route passes None.

The loss route scores non-attacking subsets of a box by internal plus center
loss and never counts cover.  It runs on the box's stable board
(loss.stable_board), which holds every pair crossing of the box's squares.
Two non-attacking queens' lines meet exactly on their pair crossings, and
neither queen's square lies on the other's lines, so there cross[j] = L(j) &
OR of L(k) over k in free[j], with L the engine's line masks, is the union
of j's pair crossings, and cross[i] & cross[j] is exactly the crossings of i
and j.  A square's internal loss is the number of queens attacking it beyond
the first, so placing j on queens whose masks OR to `lines` raises the
internal loss by exactly popcount(lines & cross[j]): every square counted is
attacked by a placed queen already, and j adds one attacker to it.  That
delta only grows as queens are added, the loss-side twin of the shrinking
marginal gain.  A node decides its entry cut, the r least scores of delta +
center loss against the incumbent, on the unranked scores; only a node that
passes ranks them.  Children are tried in ascending score, each excluding
its earlier siblings, and child p is cut once the scores at ranks
p .. p + r - 1 exceed the incumbent, strictly, so ties survive.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate, islice
from operator import gt, lt, or_
from typing import Callable, Iterable, Optional, Sequence

from .constructions import Pattern, canonical_offsets
# Unused here, but perfbench/tracer.py wraps these four by name.
from .constructions import centralize, pattern_of, stairs, stairs_details  # noqa: F401
from .coverage import Configuration, is_nonattacking
# Unused here, but perfbench/tracer.py wraps these two by name.
from .coverage import cover_count, pair_crossings  # noqa: F401
from .errors import BudgetExceededError, DomainError, InvariantError
from .geometry import BoardSpec, Square, TRANSFORM_KINDS, check_int, transform_square
from .loss import center_loss_of_square, stable_board
from . import coverage as _coverage

DEFAULT_BUDGET = 10**10

_MODES = ("exhaustive", "windowed")


def _check_positive(name: str, value) -> None:
    # bool is an int subclass, but a record's `true` is no queen count.
    if not isinstance(value, int) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")


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
        for name in ("q", "n", "workers", "budget"):
            _check_positive(name, getattr(self, name))
        if self.q > self.n * self.n:
            raise DomainError(f"cannot place {self.q} queens on B_{self.n}")
        if self.mode == "windowed":
            window = self.window if self.window is not None else min(self.q + 3, self.n)
            _check_positive("window", window)
            if window > self.n:
                raise DomainError(f"window {window} exceeds board side {self.n}")
            object.__setattr__(self, "window", window)
        elif self.window is not None:
            raise DomainError("window requires mode='windowed'")

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

    members are the orbit members as tuples of squares, each one sorted,
    the members in no particular order, as the orbit pass built them; they
    are left out of comparison and repr, since the classes determine them.
    configurations wraps them, sorted, on first read; a stored record keeps
    only the classes, from which decoding rebuilds the members (orbits).

    A windowed result (window_used set) is the optimum within the final
    window, not certified as the optimum of B_n: optima that attack each
    other or leave the window are never seen.  nodes counts every window of
    the call; it is exploration metadata, varies with worker scheduling and
    is excluded from stable serialization.
    """

    params: SearchParams
    max_cover: int
    classes: tuple[FundamentalClass, ...]
    members: tuple[tuple[Square, ...], ...] = field(compare=False, repr=False)
    window_used: Optional[int] = None
    window_retries: int = 0
    nodes: int = 0

    @cached_property
    def configurations(self) -> tuple[Configuration, ...]:
        """The orbit members, sorted, wrapped as Configurations on first read."""
        return tuple(map(Configuration, sorted(self.members)))


def fundamental_classes(
    configs: Iterable[Configuration], board: BoardSpec
) -> tuple[FundamentalClass, ...]:
    """Partition configurations into orbits under the eight board symmetries."""
    return tuple(orbits(configs, board, None)[1])


def orbits(
    configs: Iterable[Configuration], board: BoardSpec, radius: Optional[int]
) -> tuple[list[tuple[Square, ...]], list[FundamentalClass]]:
    """The configurations' orbit members, each sorted, and classes (_orbit_classes).

    The orbits are taken on the engine of the centered box of the given
    radius (the whole board when None), and every configuration must lie in
    that box.  Classes come in the order of each orbit's least given
    configuration, so sorted least representatives, one per orbit, give back
    their own classes.
    """
    eng = _engine(board.n, radius)
    pos = eng.pos
    pool = set()
    for c in configs:
        if not all(s in pos for s in c.queens):
            where = "" if radius is None else f"the centered box of radius {radius} on "
            raise DomainError(f"configuration {c.queens} is not feasible on {where}B_{board.n}")
        pool.add(c.queens)
    return _orbit_classes(eng, ([pos[s] for s in queens] for queens in sorted(pool)))


def _orbit_classes(
    eng: _Engine, sels: Iterable[Sequence[int]]
) -> tuple[list[tuple[Square, ...]], list[FundamentalClass]]:
    """Every member of the selections' orbits as sorted squares, and their classes.

    Each selection is expanded once through the engine's permutations, unless
    an earlier orbit already holds it; the members and the classes come in
    that order, each class represented by its orbit's least member.  Images
    are sorted tuples of lexicographic keys (eng.lex), which order as the
    squares do, so each member maps back to squares already sorted and the
    least key tuple is the least member.
    """
    lex, by_lex, perms = eng.lex, eng.by_lex, eng.perms
    seen: set[tuple[int, ...]] = set()
    members: list[tuple[Square, ...]] = []
    classes = []
    for sel in sels:
        if tuple(sorted([lex[i] for i in sel])) in seen:
            continue
        orbit = {tuple(sorted([lex[h[i]] for i in sel])) for h in perms}
        # Set to set: update() from a list would grow the table twice as large.
        seen |= orbit
        configs = [tuple([by_lex[k] for k in m]) for m in sorted(orbit)]
        members += configs
        classes.append(
            FundamentalClass(
                representative=Configuration(configs[0]),
                orbit_size=len(orbit),
                stabilizer_order=8 // len(orbit),
            )
        )
    return members, classes


class _Engine:
    """Bitboard tables of one centered box of B_n in center-out candidate order.

    The candidates are the squares within Chebyshev distance radius of the
    center, or the whole board when radius is None.  order[j] is candidate
    j's square and pos its inverse.  lines[j] is the line union of candidate
    j on B_n's row-major bitboard (coverage.line_masks), its own bit
    included: indices are center-out, bits row-major.  cl_prefix[j + r] -
    cl_prefix[j] is the least center loss of r candidates from j on, because
    the order sorts by center loss.  perms[k][j] is the index of square j's
    image under the k-th of the TRANSFORM_KINDS; it is the one symmetry
    table, and in_f[i] marks the canonical squares: no permutation maps
    square i to an earlier one.  lex[j] is the rank of candidate j's square
    in lexicographic order, so keys compare as the squares do, and by_lex
    maps a key back to its square; an image's keys are lex[perm[j]], read
    through perms.  A box is a prefix of the whole board's center-out order
    and the symmetries map it onto itself, so every table of a box engine
    is the whole board's engine cut at the box.
    """

    def __init__(self, n: int, radius: Optional[int]):
        board = BoardSpec(n)
        self.board = board
        self.n = n
        if radius is None:
            box = board.squares()
        else:
            p = board.parity_offset
            span = range(max(board.lo, -radius), min(board.hi, radius + p) + 1)
            box = ((x, y) for y in span for x in span)
        keyed = sorted((center_loss_of_square(s, board), s) for s in box)
        squares = [s for _, s in keyed]
        self.order = squares
        self.cl = [c for c, _ in keyed]
        self.cl_prefix = list(accumulate(self.cl, initial=0))
        self.lines = _coverage.line_masks(squares, board)
        self.pos = pos = {s: i for i, s in enumerate(squares)}
        self.by_lex = by_lex = sorted(squares)
        rank = {s: k for k, s in enumerate(by_lex)}
        self.lex = [rank[s] for s in squares]
        p = board.parity_offset
        self.perms = tuple(
            tuple(pos[transform_square(kind, p, s)] for s in squares) for kind in TRANSFORM_KINDS
        )
        self.in_f = [all(perm[i] >= i for perm in self.perms) for i in range(len(squares))]


@lru_cache(maxsize=32)
def _engine(n: int, radius: Optional[int]) -> _Engine:
    # No default radius: _engine(n) and _engine(n, None) would be two cache
    # entries, and a search and the decoding of its record would each build
    # the whole board's engine.
    return _Engine(n, radius)


def _partners(eng: _Engine) -> list[frozenset[int]]:
    """free[j]: the candidates that a queen on candidate j does not attack.

    Those share none of its row, column, diagonal and antidiagonal.  The
    sets are built per call, not cached on the engine: a large box's sets
    take tens of megabytes.
    """
    keys = [(x, y, x - y, x + y) for x, y in eng.order]
    groups: list[dict[int, list[int]]] = [{}, {}, {}, {}]
    for i, key in enumerate(keys):
        for group, k in zip(groups, key):
            group.setdefault(k, []).append(i)
    every = frozenset(range(len(keys)))
    # Each set is rebuilt in ascending index order: the search loops test
    # membership in it at every child, and the sets as the difference
    # leaves them measured slower in the windowed searches.
    return [
        frozenset(sorted(every.difference(*(g[k] for g, k in zip(groups, key)))))
        for key in keys
    ]


def _stabilizer_skip(
    perms: tuple[tuple[int, ...], ...],
    j0: int,
    allowed: Optional[frozenset[int]],
    ahead: Callable[[int, int], bool],
) -> Optional[Callable[[int], bool]]:
    """The test whether a symmetry fixing j0 and its list maps a child ahead of itself.

    j0's second-level list is the candidates after j0 that j0 allows (all of
    them when allowed is None).  A symmetry fixing j0 maps the box and j0's
    lines onto themselves, so it maps that list onto itself exactly when it
    maps the candidates before j0 that j0 allows onto themselves, a pass
    over at most j0 candidates instead of over the list.  Returns None when
    only the identity passes, so that no child is skipped.
    """
    group = [
        h
        for h in perms[1:]  # perms[0] is the identity
        if h[j0] == j0 and all(h[i] < j0 for i in range(j0) if allowed is None or i in allowed)
    ]
    if not group:
        return None
    return lambda j: any(ahead(h[j], j) for h in group)


def _search_shard(
    eng: _Engine,
    free: Optional[list[frozenset[int]]],
    q: int,
    level0: list[int],
    node_budget: int,
    spent: int = 0,
    shared=None,
    tally=None,
) -> tuple[int, list[tuple[int, ...]], int]:
    """Best cover, argmax selections and node count of q queens over one shard.

    The candidates are the engine's W squares.  free is _partners(eng) for
    a search of non-attacking subsets, which the windowed route builds, or
    None when attacks are allowed, as in the exhaustive route.  The shared
    value, when present, is a monotone cross-shard incumbent hint; stale
    reads only weaken pruning, never correctness.  Counting starts at
    spent, the nodes of the call's earlier windows, and the budget is
    checked against the total at every node.  The tally, when present, is
    the node total of all pool shards: each shard adds its nodes to it
    every _TALLY_BATCH nodes and checks the budget against the tally it
    last saw plus its own unadded nodes, so the shards spend one budget,
    overshooting it by less than a batch per other running shard.
    """
    W, S = len(eng.order), 4 * eng.n - 3
    C, lines = eng.cl_prefix, eng.lines
    full = _coverage.line_shifts(eng.n).full
    best = 0
    found: list[tuple[int, ...]] = []
    nodes = spent
    seen = tally.value if tally is not None else 0  # the tally when last read
    unadded = 0  # nodes counted here, not yet added to the tally
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
        nonlocal nodes, seen, unadded
        nodes += count
        total = nodes
        if tally is not None:
            unadded += count
            if unadded >= _TALLY_BATCH:
                with tally.get_lock():
                    tally.value += unadded
                    seen = tally.value
                unadded = 0
            total = seen + unadded
        if total > node_budget:
            raise BudgetExceededError(f"search aborted after {total} nodes", total, node_budget)

    def rec(avail: list[int], r: int, m: int, cov: int, sel: tuple[int, ...], skip=None):
        """Add r more queens from avail to the selection sel covering m.

        A child j with skip(j) true is neither counted nor entered; only
        the second level passes a skip test (see _stabilizer_skip).
        """
        nm = full ^ m  # ~m costs twice as much: ANDs with a negative int
        gains = [bc(lines[j] & nm) for j in avail]
        if r == 1:
            top = max(gains)
            if cov + top < hint():
                return
            ties = [j for g, j in zip(gains, avail) if g == top and (skip is None or not skip(j))]
            spend(len(ties))
            for j in ties:
                note(cov + top, sel + (j,))
            return
        # The entry cut, on the unranked gains: most nodes end here, so
        # only a node that can enter its first child ranks its candidates.
        window = sum(sorted(gains, reverse=True)[:r])
        cut = hint()
        if cov + window < cut:
            return
        # Children in descending marginal gain; each excludes its earlier
        # siblings, so a child's subtree draws only from the candidates
        # after it, whose r - 1 largest gains bound its completion.
        ranked = sorted(zip(gains, avail), reverse=True)
        if free is None:
            # Ascending, so the kids that can reach the cut are a slice.
            neg = [-gi for gi, _ in ranked]
            idx = [i for _, i in ranked]
        last = len(ranked) - r
        for p in range(last + 1):
            g, j = ranked[p]
            if skip is None or not skip(j):
                spend(1)
                # Gains here bound the child's (they only shrink), so keep
                # only those that can reach the cut with the r - 2 best others.
                floor = cut - cov - g
                if free is None:
                    if r > 2:
                        floor += sum(neg[p + 1 : p + r - 1])
                    kids = idx[p + 1 : bisect_right(neg, -floor, p + 1)]
                else:
                    rest = ranked[p + 1 :]
                    fj = free[j]
                    if r > 2:
                        floor -= sum(islice((gi for gi, i in rest if i in fj), r - 2))
                    kids = [i for gi, i in rest if gi >= floor and i in fj]
                if len(kids) >= r - 1:
                    rec(kids, r - 1, m | lines[j], cov + g, sel + (j,))
                    cut = hint()
            if p < last:
                window += ranked[p + r][0] - g
                if cov + window < cut:
                    return

    for j0 in level0:
        if j0 > W - q:
            break
        if q * S - (C[j0 + q] - C[j0]) < hint():
            break
        spend(1)
        m0 = lines[j0]
        if q == 1:
            note(bc(m0), (j0,))
            continue
        avail = [i for i in range(j0 + 1, W) if free is None or i in free[j0]]
        if len(avail) >= q - 1:
            skip = _stabilizer_skip(eng.perms, j0, None if free is None else free[j0], gt)
            rec(avail, q - 1, m0, bc(m0), (j0,), skip)

    if tally is not None and unadded:
        with tally.get_lock():
            tally.value += unadded
    return best, found, nodes


_POOL_STATE: dict = {}
# Nodes a pool shard counts before adding them to the shared tally; small
# against any budget worth sharding, large enough that the lock stays cold.
_TALLY_BATCH = 256


def _pool_run(level0_chunk: list[int]):
    eng, free, q, *budget_args = _POOL_STATE["shard_args"]
    return _search_shard(eng, free, q, level0_chunk, *budget_args)


def _run_problem(
    eng: _Engine, free: Optional[list[frozenset[int]]], params: SearchParams, spent: int = 0
) -> tuple[int, list[tuple[int, ...]], int]:
    """Best cover, argmax index selections and nodes, counting on from spent.

    Pool shards count their nodes against one shared tally (see _search_shard).
    """
    level0 = [j for j in range(len(eng.order)) if eng.in_f[j]]
    node_budget = params.budget
    if params.workers > 1 and len(level0) > 1:
        chunks = [level0[i :: params.workers * 4] for i in range(params.workers * 4)]
        chunks = [c for c in chunks if c]
        shared = multiprocessing.Value("q", 0)
        tally = multiprocessing.Value("q", spent)
        # Forked workers inherit _search_shard's arguments: nothing is pickled.
        _POOL_STATE["shard_args"] = (eng, free, params.q, node_budget, spent, shared, tally)
        try:
            with multiprocessing.get_context("fork").Pool(processes=params.workers) as pool:
                results = pool.map(_pool_run, chunks)
        finally:
            _POOL_STATE.clear()
        best = max(b for b, _, _ in results)
        sels = []
        for b, found, _ in results:
            if b == best:
                sels.extend(found)
        nodes = spent + sum(nd - spent for _, _, nd in results)
        return best, sels, nodes
    return _search_shard(eng, free, params.q, level0, node_budget, spent)


def _finish(
    params: SearchParams,
    eng: _Engine,
    best: int,
    sels: list[tuple[int, ...]],
    nodes: int,
    window_used: Optional[int],
    window_retries: int,
) -> OptimalSet:
    lines, pos = eng.lines, eng.pos
    members, classes = _orbit_classes(eng, sels)
    if sum(c.orbit_size for c in classes) != len(members):
        raise InvariantError("orbit sizes do not partition the optimal set")
    for c in classes:
        queens = c.representative.queens
        # The eight symmetries map B_n's lines onto lines, so cover is constant
        # on an orbit: one member per class checks them all.  The engine's
        # lines are coverage.line_masks, so this counts what cover_count would.
        if reduce(or_, (lines[pos[s]] for s in queens), 0).bit_count() != best:
            raise InvariantError(f"reported optimum {queens} does not reach cover {best}")
    return OptimalSet(
        params=params,
        max_cover=best,
        classes=tuple(sorted(classes, key=lambda c: c.representative.queens)),
        members=tuple(members),
        window_used=window_used,
        window_retries=window_retries,
        nodes=nodes,
    )


def exhaustive_optimal(params: SearchParams) -> OptimalSet:
    """Exact maximum cover over all q-subsets of the board (attacks allowed)."""
    if params.mode != "exhaustive":
        raise DomainError("exhaustive_optimal requires mode='exhaustive'")
    eng = _engine(params.n, None)
    best, sels, nodes = _run_problem(eng, None, params)
    return _finish(params, eng, best, sels, nodes, None, 0)


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
    radius = board.box_radius(params.window)
    max_radius = board.box_radius(board.n)
    retries = 0
    nodes = 0
    while True:
        radius = min(radius, max_radius)
        eng = _engine(params.n, radius)
        if len(eng.order) < params.q:
            radius += 1
            continue
        best, sels, nodes = _run_problem(eng, _partners(eng), params, nodes)
        # A window holding no non-attacking q-subset grows like a touched one.
        # The squares off the boundary are the box of radius - 1, a prefix.
        inner = max(0, board.box_side(radius - 1)) ** 2
        touched = not sels or any(j >= inner for sel in sels for j in sel)
        if not touched or radius >= max_radius:
            if not sels:
                raise DomainError(
                    f"B_{params.n} holds no non-attacking configuration of {params.q} queens"
                )
            return _finish(params, eng, best, sels, nodes, board.box_side(radius), retries)
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
    m = board.n + 2
    field = _coverage.attack_field(config, BoardSpec(m))
    twice = 0
    for plane in field.planes[1:]:
        twice |= plane
    return not twice & _coverage.border_ring(m)


def canonical_pattern_fingerprint(classes: Iterable[FundamentalClass]) -> str:
    """Hash of the multiset of translation- and symmetry-normalized patterns.

    The multiset runs over every member of every orbit.  Board symmetries are
    translations composed with the eight plane symmetries, so all members of
    an orbit share the representative's normalized pattern: it is computed
    once per class, and each distinct pattern is counted with the summed
    orbit sizes of its classes.  The hashed bytes are the repr of the sorted
    multiset as a list, each distinct pattern's repr written count times.
    """
    counts: Counter[tuple[Square, ...]] = Counter()
    for c in classes:
        counts[canonical_offsets(c.representative.queens)] += c.orbit_size
    blob = ", ".join(", ".join([repr(offs)] * k) for offs, k in sorted(counts.items()))
    return hashlib.sha256(f"[{blob}]".encode()).hexdigest()


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
    warnings: tuple[str, ...]
    n1_candidate: Optional[int] = None
    n2_odd: Optional[int] = None
    n2_even: Optional[int] = None
    n2_combined: Optional[int] = None
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
    _check_positive("n_lo", n_lo)
    _check_positive("n_hi", n_hi)
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
                optimal_count=len(result.members),
                # The symmetries map lines to lines, so an orbit's members
                # attack each other exactly when its representative does.
                all_nonattacking=all(is_nonattacking(c.representative) for c in result.classes),
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
        warnings=tuple(warnings),
        n1_candidate=n1,
    )


@dataclass(frozen=True)
class LossMinimal:
    """Minimal board-independent total loss for one board parity."""

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


def _loss_tables(radius: int, odd: bool) -> tuple[_Engine, list[frozenset[int]], list[int]]:
    """The loss route's box engine on its stable board, partner sets and crossings.

    cross[j] is the union of the pair crossings of box square j with the box
    squares it does not attack.
    """
    board = stable_board(Configuration.of([(-radius, -radius)]), odd)
    eng = _engine(board.n, radius)
    free = _partners(eng)
    L = eng.lines
    cross = [L[j] & reduce(or_, (L[k] for k in fj), 0) for j, fj in enumerate(free)]
    return eng, free, cross


def _loss_scan_parity(
    q: int, radius: int, odd: bool, budget: int, spent: int
) -> tuple[Optional[LossMinimal], int]:
    """One parity's loss-minimal patterns and nodes, counting on from spent."""
    eng, free, cross = _loss_tables(radius, odd)
    W = len(eng.order)
    squares, cl, C, in_f = eng.order, eng.cl, eng.cl_prefix, eng.in_f

    best = math.inf
    found: list[tuple[int, ...]] = []
    nodes = spent

    def spend():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"loss scan aborted after {nodes} nodes", nodes, budget)

    def rec(
        avail: list[int],
        r: int,
        lines: int,
        inloss: int,
        cen: int,
        sel: tuple[int, ...],
        skip=None,
    ):
        # r >= 1 queens still to place from avail on top of sel, whose crossing
        # masks OR to lines and whose internal and center losses are inloss
        # and cen.  A child j with skip(j) true is neither counted nor
        # entered; only the second level passes a skip test (see
        # _stabilizer_skip).
        nonlocal best
        scores = [(lines & cross[j]).bit_count() + cl[j] for j in avail]
        window = inloss + cen + sum(sorted(scores)[:r])
        if window > best:
            return
        ranked = sorted(zip(scores, avail))
        last = len(ranked) - r
        for p in range(last + 1):
            v, j = ranked[p]
            if skip is None or not skip(j):
                spend()
                if r == 1:
                    if window < best:
                        best = window
                        found[:] = [sel + (j,)]
                    else:
                        found.append(sel + (j,))
                else:
                    fj = free[j]
                    rest = [i for _, i in ranked[p + 1 :] if i in fj]
                    if len(rest) >= r - 1:
                        c = cl[j]
                        rec(rest, r - 1, lines | cross[j], inloss + v - c, cen + c, sel + (j,))
            if p < last:
                window += ranked[p + r][0] - v
                if window > best:
                    return

    for j0 in range(W - q + 1):
        if not in_f[j0]:
            continue
        # Every later queen crosses j0 on at least 10 distinct squares.
        if 10 * (q - 1) + C[j0 + q] - C[j0] > best:
            break
        spend()
        if q == 1:
            best = cl[j0]
            found.append((j0,))
        else:
            fj = free[j0]
            avail = [i for i in range(j0 + 1, W) if i in fj]
            skip = _stabilizer_skip(eng.perms, j0, fj, lt)
            rec(avail, q - 1, cross[j0], 0, cl[j0], (j0,), skip)

    if not found:
        return None, nodes
    canon = sorted({canonical_offsets(sorted([squares[j] for j in sel])) for sel in found})
    return LossMinimal(
        min_total=best,
        patterns=tuple(Pattern(offs) for offs in canon),
    ), nodes


def loss_minimal_patterns(q: int, radius: int, budget: int = DEFAULT_BUDGET) -> LossScan:
    """Non-attacking patterns of minimal board-independent loss, per parity.

    Enumerates the non-attacking q-subsets of the centered box of the given
    radius on the box's stable board of each parity (loss.stable_board),
    scoring each by center loss plus internal loss, and returns every
    minimal one as a canonical pattern; the bound is in the module
    docstring.  The route never counts cover, so it cross-validates the
    cover searches through the loss/cover identity.  A parity whose box
    holds no non-attacking q-subset is None; DomainError is raised when both
    are.  Both parities draw from one node budget.
    """
    _check_positive("q", q)
    _check_positive("budget", budget)
    check_int(radius, "radius")
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
        warnings=tuple(warnings),
        n2_odd=per_parity[1],
        n2_even=per_parity[0],
        n2_combined=combined,
    )
