"""Optimal-configuration search, symmetry reduction and threshold scans.

All three exact routes (exhaustive, windowed and loss) share one
branch-and-bound over center-out ordered candidate squares that minimizes
the paper's loss.  Candidate j, placed on queens whose line masks OR to m,
scores cl(j) + popcount(L(j) & m): its center loss plus the squares its
lines share with theirs, L being the engine's line masks, the one mask
table.  A selection's loss sums its queens' scores in placement order, and
a score only grows as queens are added, so a node with r queens still to
place is bounded by its loss plus the r least scores of its open
candidates.  A node decides this entry cut on its unranked scores; only a
node that passes ranks its candidates.  Children are tried in ascending
score, ties in ascending index, each excluding its earlier siblings, so
child p is cut once the node's loss plus the scores at ranks p .. p + r - 1
exceed the incumbent; with attacks allowed, candidates whose score cannot
reach it are dropped from the child's list.  The cut is strict, so ties
survive: the bound is exact, never heuristic, and every least-loss selection
is returned.  The first queen is the least-indexed one, bounded by the q
least center losses from it on plus a floor on each later queen's overlap
with it (0 in the cover routes; see the loss route below).  L(j)'s
4n - 3 - cl(j) squares include j's own, so in the cover routes j's score is
4n - 3 minus its marginal gain (the squares it covers that the placed
queens do not) and a q-subset of least loss l has the greatest cover,
q(4n - 3) - l.  Windowed mode restricts the candidates to a
centered box while counting cover on the full board and considers only
non-attacking placements, so its optimum is relative to the window.  The
node budget, checked at every node, is the only thing that stops a search;
a call's successive windows, or the loss route's two parities, share it.
The incumbent starts at q(4n - 3), cover 0, and the first descent is a
greedy walk from the most central square.

Symmetry is used three times, from one table: the engine holds the eight
board symmetries as permutations of its candidate indices (perms).  The
first queen of an enumeration is restricted to canonical squares (no
symmetry maps them to an earlier index) without losing any orbit of optimal
configurations.  Below a first queen j0, every route skips a second-level
child j when a symmetry that fixes j0 and maps j0's candidate list onto
itself (the group G0) sends j to a lower index, which ranks ahead of it.
G0 fixes the placed masks, so second-level scores are G0-invariant:
of the G0-images of a configuration holding j0, the one whose best-ranked
member after j0 ranks earliest keeps that member unskipped and is still
searched.  The center-out order sorts by center loss, then by descending
least centered magnitude (_Engine), which keeps each orbit of squares
contiguous, so the candidates before a canonical j0 are whole orbits; a
symmetry fixing j0 maps them, the box and j0's lines onto themselves, so it
keeps j0's list: G0 is j0's full stabilizer, read off perms, and a child is
tested against it only when the loop reaches that child.
Finally the search's index selections are expanded to their orbits, which
restores every skipped image, and reported as fundamental classes (orbits
with a lexicographically least representative).  The orbit pass
(_orbit_classes) stays in key space: each candidate's lexicographic key
(lex, the rank of its square in sorted order) is read through perms, so
each image is a sorted tuple of small ints that compares as its squares do,
and an orbit's least key tuple is its representative.  Only the
representatives are mapped back to squares; an OptimalSet keeps its orbits
as key tuples and maps them to squares (by_lex) when its members are first
read, and a scan counts optima from the orbit sizes.  Decoding a stored
record (serialization) checks its classes in this same pass.  The loss
route reports canonical patterns, the same for every image, and the
threshold scans fingerprint them; both take the canonical offsets
(constructions.canonical_offsets) straight from squares, the scans through
a bounded memo per representative, and only the loss route's final
patterns are wrapped as Patterns.

A search reads only the squares of its centered box, and every centered box
is a prefix of the center-out order that the eight symmetries map onto
itself; the whole board is the outermost box, of radius box_radius(n).  So
each search builds the engine of its own box (order, center losses and
their prefix sums, the row-major line masks of coverage.line_masks, and the
symmetry permutations), whose tables are the whole board's cut at the box:
the exhaustive search's box is the whole board, the windowed search's is
its window and the loss route's is its box on the stable board.  One cached
engine thus serves an exhaustive search, a windowed search whose window
grew to the board and the decoding of either's record.  A search instance
is that engine plus, for the routes that allow no attacks, each candidate's
non-attacking partners free[j] (_partners): the windowed route builds them
for each window it searches and the loss route for each parity, and the
exhaustive route passes None.  Every route enters the kernel through
_run_problem, which returns the least loss; the cover routes call it
through _max_cover, which reads the cover.  _run_problem deals the
canonical first queens round-robin to as many shards as there are first
queens, at most workers, and the kernel (_search_shard) speaks one protocol
for any number of shards: it cuts on word 0 of the shards' 64-bit words,
the incumbent, which every shard lowers without a lock (a lost update or a
stale read only weakens pruning, since the word always holds a loss some
shard reached), and counts its nodes in its own tally slot, one word per
shard, whose sum is the call's one budget.  A serial search is the one-shard
case, its words a two-item list; with more shards they are one anonymous
mmap, and the search is a fork-join in which the calling process runs the
first shard itself.

The loss route scores non-attacking subsets of a box by internal plus center
loss and never counts cover.  It runs on the box's stable board
(loss.stable_board), which holds every pair crossing of the box's squares,
so there L(j) & L(k) is exactly the pair crossings of two non-attacking
squares j and k, since neither lies on the other's lines.  For a candidate
j that attacks no placed queen, popcount(L(j) & m) therefore counts the
squares that j attacks and a placed queen attacks already, the internal
loss that j adds: the kernel's loss is the total loss, and every later
queen crosses the first on at least 10 squares, the route's first-queen
floor.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import Callable, Iterable, Optional, Sequence

from .constructions import Pattern, canonical_offsets
# Unused here, but perfbench/tracer.py wraps these four by name.
from .constructions import centralize, pattern_of, stairs, stairs_details  # noqa: F401
from .coverage import Configuration, is_nonattacking
# Unused here, but perfbench/tracer.py wraps these two by name.
from .coverage import cover_count, pair_crossings  # noqa: F401
from .errors import BudgetExceededError, DomainError, InvariantError
from .geometry import SYMMETRIES, BoardSpec, Square, check_int
from .loss import stable_board
from . import coverage as _coverage

DEFAULT_BUDGET = 10**10

_MODES = ("exhaustive", "windowed")


def _check_positive(name: str, value) -> None:
    check_int(value, name)
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

    The set costs only its classes until its members are read.  orbit_keys
    holds each class's orbit, in class order, as sorted tuples of the
    lexicographic keys of the engine the search finished on, and by_lex is
    that engine's table from a key back to its square; both are left out of
    comparison and repr, since the classes determine them.  members maps the
    keys to sorted tuples of squares on first read, orbit by orbit, and
    configurations wraps them, sorted, on first read.  The optimum count is
    the summed orbit sizes of the classes, which reads no member.  A stored
    record keeps only the classes; decoding takes the orbit keys from the
    orbit pass that checks them.

    A windowed result (window_used set) is the optimum within the final
    window, not certified as the optimum of B_n: optima that attack each
    other or leave the window are never seen.  nodes counts every window of
    the call; it is exploration metadata, varies with worker scheduling and
    is excluded from stable serialization.
    """

    params: SearchParams
    max_cover: int
    classes: tuple[FundamentalClass, ...]
    orbit_keys: tuple[Sequence[tuple[int, ...]], ...] = field(compare=False, repr=False)
    by_lex: Sequence[Square] = field(compare=False, repr=False)
    window_used: Optional[int] = None
    window_retries: int = 0
    nodes: int = 0

    @cached_property
    def members(self) -> tuple[tuple[Square, ...], ...]:
        """The orbit members as sorted tuples of squares, mapped from their keys on first read."""
        by_lex = self.by_lex
        return tuple(tuple([by_lex[k] for k in m]) for orbit in self.orbit_keys for m in orbit)

    @cached_property
    def configurations(self) -> tuple[Configuration, ...]:
        """The orbit members, sorted, wrapped as Configurations on first read."""
        return tuple(map(Configuration, sorted(self.members)))


def fundamental_classes(
    configs: Iterable[Configuration], board: BoardSpec
) -> tuple[FundamentalClass, ...]:
    """Partition configurations into orbits under the eight board symmetries.

    Classes come in the order of each orbit's least given configuration, so
    sorted least representatives, one per orbit, give back their own classes.
    """
    radius = board.box_radius(board.n)
    eng = _engine(board.n, radius)
    sels = [_selection(eng, radius, queens) for queens in sorted({c.queens for c in configs})]
    return tuple(_class_of(eng, orbit) for orbit in _orbit_classes(eng, sels))


def _selection(eng: _Engine, radius: int, queens: Sequence[Square]) -> list[int]:
    """The candidate indices of queens on the engine of the box of the given radius.

    A queen outside the box raises DomainError.
    """
    pos = eng.pos
    if not all(s in pos for s in queens):
        where = "" if len(pos) == eng.n**2 else f"the centered box of radius {radius} on "
        raise DomainError(f"configuration {tuple(queens)} is not feasible on {where}B_{eng.n}")
    return [pos[s] for s in queens]


def _orbit_classes(eng: _Engine, sels: Iterable[Sequence[int]]) -> list[list[tuple[int, ...]]]:
    """The selections' orbits, one per class, each as its sorted key tuples.

    Each selection is expanded once through the engine's permutations,
    unless an earlier orbit already holds it, and the orbits come in that
    order.  An image is the sorted tuple of its squares' lexicographic keys
    (eng.lex), which orders as the sorted squares do, so an orbit's first
    key tuple is its least member, the class representative, and its length
    is the orbit size.  No square tuple is built here (see _class_of).
    """
    lex, perms = eng.lex, eng.perms
    seen: set[tuple[int, ...]] = set()
    found = []
    for sel in sels:
        if tuple(sorted([lex[i] for i in sel])) in seen:
            continue
        orbit = {tuple(sorted([lex[h[i]] for i in sel])) for h in perms}
        # Set to set: update() from a list would grow the table twice as large.
        seen |= orbit
        found.append(sorted(orbit))
    return found


def _class_of(eng: _Engine, orbit: Sequence[tuple[int, ...]]) -> FundamentalClass:
    """The class of an orbit of _orbit_classes: its least member, mapped to squares."""
    by_lex = eng.by_lex
    return FundamentalClass(
        representative=Configuration(tuple([by_lex[k] for k in orbit[0]])),
        orbit_size=len(orbit),
        stabilizer_order=8 // len(orbit),
    )


class _Engine:
    """Bitboard tables of one centered box of B_n in center-out candidate order.

    The candidates are the squares within Chebyshev distance radius of the
    center; the box of radius board.box_radius(n) is the whole board.
    order[j] is candidate j's square and pos its inverse.  lines[j] is the
    line union of candidate j on B_n's row-major bitboard
    (coverage.line_masks), its own bit included: indices are center-out,
    bits row-major.  In the centered coordinates (u, v) = (2x - p, 2y - p)
    of geometry, p the board's parity_offset, a square's center loss cl is
    max(|u|, |v|), and cl_prefix[j + r] - cl_prefix[j] is the least center
    loss of r candidates from j on, because the order sorts by center loss.
    Within one center loss, a ring, it sorts by descending least centered
    magnitude min(|u|, |v|), then by square: the squares of a ring with one
    least magnitude are one orbit, the images of (u, v) under sign changes
    and the swap, so each orbit is a contiguous run led by its least square.
    perms[k][j] is the index of square j's image under the k-th map of
    geometry.SYMMETRIES, which act on (u, v) in TRANSFORM_KINDS order; it is
    the one symmetry table, and in_f[i] marks the canonical squares, the
    leaders of the runs: no permutation maps square i to an earlier one, and
    the candidates before it are whole orbits.
    lex[j] is the rank of candidate j's square in lexicographic order, so
    keys compare as the squares do, and by_lex maps a key back to its
    square; an image's keys are lex[perm[j]], read through perms.  A box is
    a prefix of the whole board's center-out order and the symmetries map it
    onto itself, so every table of a box engine is the whole board's engine
    cut at the box.
    """

    def __init__(self, n: int, radius: int):
        board = BoardSpec(n)
        self.board = board
        self.n = n
        p = board.parity_offset
        span = range(max(board.lo, -radius), min(board.hi, radius + p) + 1)
        mags = [(abs(2 * t - p), t) for t in span]
        keyed = sorted((max(u, v), -min(u, v), (x, y)) for v, y in mags for u, x in mags)
        squares = [s for _, _, s in keyed]
        self.order = squares
        self.cl = [c for c, _, _ in keyed]
        self.cl_prefix = list(accumulate(self.cl, initial=0))
        self.lines = _coverage.line_masks(squares, board)
        self.pos = {s: i for i, s in enumerate(squares)}
        self.by_lex = by_lex = sorted(squares)
        rank = {s: k for k, s in enumerate(by_lex)}
        self.lex = [rank[s] for s in squares]
        centered = [(2 * x - p, 2 * y - p) for x, y in squares]
        at = {uv: i for i, uv in enumerate(centered)}
        self.perms = tuple(
            tuple(at[a * u + b * v, c * u + d * v] for u, v in centered)
            for a, b, c, d in SYMMETRIES
        )
        self.in_f = [all(perm[i] >= i for perm in self.perms) for i in range(len(squares))]


_engine = lru_cache(maxsize=32)(_Engine)


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
    perms: tuple[tuple[int, ...], ...], j0: int
) -> Optional[Callable[[int], bool]]:
    """The test whether a symmetry fixing the first queen j0 maps a child to a lower index.

    j0 is canonical, so the candidates before it are whole orbits (see
    _Engine) and every symmetry fixing j0 maps the candidates after it, and
    the ones among them that j0 allows, onto themselves: the group is j0's
    full stabilizer.  Children of equal score are tried in ascending index,
    so the image kept is the one of least index.  Returns None when only the
    identity fixes j0, so that no child is skipped.
    """
    group = [h for h in perms[1:] if h[j0] == j0]  # perms[0] is the identity
    if not group:
        return None
    return lambda j: any(h[j] < j for h in group)


def _search_shard(
    level0: list[int],
    eng: _Engine,
    pair: int,
    free: Optional[list[frozenset[int]]],
    q: int,
    node_budget: int,
    shared: list[int] | memoryview,
    slot: int,
) -> tuple[int, list[tuple[int, ...]], int]:
    """Least loss, argmin selections and the nodes counted, of q queens over one shard.

    The shard is the first queens level0, ascending.  Candidate j scores
    cl[j] + popcount(lines[j] & m) on the engine's line masks in every route
    (module docstring), and every later queen's lines share at least pair
    squares with the first queen's.  free is _partners(eng) for a search of
    non-attacking subsets, or None when attacks are allowed, as in the
    exhaustive route.  shared holds the 64-bit words of the call's shards
    (_run_problem), and slot is the index of this shard's own.  Word 0 is
    the incumbent, on which every cut is taken: a shard lowers it, without a
    lock, when it finds a lower loss, and a lost update or a stale read only
    weakens pruning, since the word always holds a loss some shard reached.
    Words 1 .. k are the node tally slots, one per shard, and only its own
    shard writes a slot: a shard adds its nodes to its slot every
    _TALLY_BATCH nodes and checks the budget, at every node, against the sum
    of all slots it last read plus its own unadded nodes, so the shards
    spend one budget, overshooting it by less than a batch per other running
    shard.  A serial search is the one-shard case, where word 0 is always
    the shard's own least loss and the count is exact.  The count returned
    is the growth of the shard's slot.
    """
    W = len(eng.order)
    cl, C, lines = eng.cl, eng.cl_prefix, eng.lines
    # Every score is at most 4n - 3, so no selection exceeds this start.
    best = q * (4 * eng.n - 3)
    found: list[tuple[int, ...]] = []
    start = shared[slot]
    seen = sum(shared[1:])  # the slots' sum when last read
    unadded = 0  # nodes counted here, not yet added to the slot
    bc = int.bit_count

    def note(loss: int, sel: tuple[int, ...]):
        nonlocal best
        if loss < best:
            best = loss
            found.clear()
            found.append(sel)
            if loss < shared[0]:
                shared[0] = loss
        elif loss == best:
            found.append(sel)

    def spend(count: int):
        nonlocal seen, unadded
        unadded += count
        if unadded >= _TALLY_BATCH:
            shared[slot] += unadded
            seen = sum(shared[1:])
            unadded = 0
        if seen + unadded > node_budget:
            total = seen + unadded
            raise BudgetExceededError(f"search aborted after {total} nodes", total, node_budget)

    def rec(avail: list[int], r: int, m: int, loss: int, sel: tuple[int, ...], skip=None):
        """Add r more queens from avail to the selection sel, of the given loss.

        A child j with skip(j) true is neither counted nor entered; only
        the second level passes a skip test (see _stabilizer_skip).
        """
        scores = [cl[j] + bc(lines[j] & m) for j in avail]
        if r == 1:
            low = min(scores)
            if loss + low > shared[0]:
                return
            ties = [j for s, j in zip(scores, avail) if s == low and (skip is None or not skip(j))]
            spend(len(ties))
            for j in ties:
                note(loss + low, sel + (j,))
            return
        # The entry cut, on the unranked scores: most nodes end here, so
        # only a node that can enter its first child ranks its candidates.
        window = sum(sorted(scores)[:r])
        cut = shared[0]
        if loss + window > cut:
            return
        # Children in ascending score; each excludes its earlier siblings,
        # so a child's subtree draws only from the candidates after it,
        # whose r - 1 least scores bound its completion.
        ranked = sorted(zip(scores, avail))
        if free is None:
            # Ascending, so the kids that can reach the cut are a slice.
            asc = [s for s, _ in ranked]
            idx = [i for _, i in ranked]
        last = len(ranked) - r
        for p in range(last + 1):
            v, j = ranked[p]
            if skip is None or not skip(j):
                spend(1)
                if free is None:
                    # Scores here bound the child's (they only grow), so keep
                    # only those that can reach the cut with the r - 2 least others.
                    ceiling = cut - loss - v - sum(asc[p + 1 : p + r - 1])
                    kids = idx[p + 1 : bisect_right(asc, ceiling, p + 1)]
                else:
                    fj = free[j]
                    kids = [i for _, i in ranked[p + 1 :] if i in fj]
                if len(kids) >= r - 1:
                    rec(kids, r - 1, m | lines[j], loss + v, sel + (j,))
                    cut = shared[0]
            if p < last:
                window += ranked[p + r][0] - v
                if loss + window > cut:
                    return

    for j0 in level0:
        if j0 > W - q:
            break
        if pair * (q - 1) + C[j0 + q] - C[j0] > shared[0]:
            break
        spend(1)
        if q == 1:
            note(cl[j0], (j0,))
            continue
        avail = [i for i in range(j0 + 1, W) if free is None or i in free[j0]]
        if len(avail) >= q - 1:
            rec(avail, q - 1, lines[j0], cl[j0], (j0,), _stabilizer_skip(eng.perms, j0))

    shared[slot] += unadded
    return best, found, shared[slot] - start


# Nodes a shard counts before adding them to its tally slot; small against
# any budget worth sharding, large enough that summing the slots stays rare.
_TALLY_BATCH = 256


def _run_problem(
    eng: _Engine,
    pair: int,
    free: Optional[list[frozenset[int]]],
    q: int,
    budget: int,
    workers: int,
    spent: int,
) -> tuple[int, list[tuple[int, ...]], int]:
    """Least loss, argmin index selections and nodes, counting on from spent.

    The first queens are the engine's canonical squares (see _search_shard
    for the other arguments), dealt round-robin to k = min(workers, first
    queens) shards.  The shards' words are the incumbent, starting at
    q(4n - 3), and one node tally slot per shard, shard 0's starting at
    spent.  Shard 0 holds the greedy first descent from the most central
    square and runs in the calling process.  With one shard the words are a
    list, and the search is serial; with more they are one shared anonymous
    mapping, and the other shards run in forked children (_fork_join).
    Either way the result is the least loss over the shards, the argmin
    selections of the shards that reached it and spent plus their nodes.
    """
    level0 = [j for j in range(len(eng.order)) if eng.in_f[j]]
    args = (eng, pair, free, q, budget)
    words = [q * (4 * eng.n - 3), spent]
    k = min(workers, len(level0))
    if k == 1:
        results = [_search_shard(level0, *args, words, 1)]
    else:
        results = _fork_join(level0, k, args, words)
    best = min(b for b, _, _ in results)
    sels = [sel for b, found, _ in results if b == best for sel in found]
    return best, sels, spent + sum(grown for _, _, grown in results)


def _fork_join(level0: list[int], k: int, args: tuple, words: list[int]) -> list[tuple]:
    """The results of k > 1 shards of level0, shard 0 run here, the others forked.

    The shards share one anonymous mapping of k + 1 words, the first two
    set from words and the other slots 0.  Each child sends back its result
    or its exception, pickled, through a pipe, and every child is reaped
    before the call returns or raises.
    """
    # Imported here: only a fork-join needs them (pickle alone takes about
    # 2 ms to import).
    import mmap
    import pickle
    import signal

    children = {}  # pid -> read end of the child's result pipe, until reaped
    with mmap.mmap(-1, 8 * (k + 1)) as buf, memoryview(buf).cast("q") as shared:
        shared[0], shared[1] = words
        try:
            for w in range(1, k):
                pid, pipe = _fork_shard(level0[w::k], args, shared, w + 1)
                children[pid] = pipe
            results = [_search_shard(level0[0::k], *args, shared, 1)]
            for pid, pipe in list(children.items()):
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                del children[pid]
                if not data:
                    raise ChildProcessError(
                        f"search shard {pid} ended without a result (wait status {status})"
                    )
                out = pickle.loads(data)
                if isinstance(out, BaseException):
                    raise out
                results.append(out)
        finally:
            # Children are left here only when a shard raised: stop them.
            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _fork_shard(shard: list[int], args: tuple, shared: memoryview, slot: int):
    """Fork a child that runs _search_shard over the first queens shard.

    Returns the child's pid and the read end of its result pipe, to which
    it writes its result or its exception, pickled.  The child leaves only
    through os._exit, so the caller's finally blocks, atexit handlers and
    buffered output never run in it.
    """
    import pickle

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid:
        os.close(wfd)
        return pid, open(rfd, "rb")
    status = 1
    try:
        os.close(rfd)
        try:
            out = _search_shard(shard, *args, shared, slot)
        except BaseException as exc:
            out = exc
        with open(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(out))
        status = 0
    finally:
        os._exit(status)


def _max_cover(
    eng: _Engine, free: Optional[list[frozenset[int]]], params: SearchParams, spent: int = 0
) -> tuple[int, list[tuple[int, ...]], int]:
    """Best cover, argmax index selections and nodes, counting on from spent.

    The search minimizes the loss of the engine's line masks, and a q-subset
    of loss l covers q(4n - 3) - l.
    """
    q = params.q
    loss, sels, nodes = _run_problem(eng, 0, free, q, params.budget, params.workers, spent)
    return q * (4 * eng.n - 3) - loss, sels, nodes


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
    # Key tuples compare as the squares do: least representatives ascend.
    orbits = sorted(_orbit_classes(eng, sels), key=lambda orbit: orbit[0])
    classes = [_class_of(eng, orbit) for orbit in orbits]
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
        classes=tuple(classes),
        orbit_keys=tuple(orbits),
        by_lex=eng.by_lex,
        window_used=window_used,
        window_retries=window_retries,
        nodes=nodes,
    )


def exhaustive_optimal(params: SearchParams) -> OptimalSet:
    """Exact maximum cover over all q-subsets of the board (attacks allowed)."""
    if params.mode != "exhaustive":
        raise DomainError("exhaustive_optimal requires mode='exhaustive'")
    eng = _engine(params.n, BoardSpec(params.n).box_radius(params.n))
    best, sels, nodes = _max_cover(eng, None, params)
    return _finish(params, eng, best, sels, nodes, None, 0)


def windowed_optimal(params: SearchParams) -> OptimalSet:
    """Maximum cover over non-attacking q-subsets of a centered window.

    Cover is counted on the full board.  The result is the optimum within the
    window, not certified as the optimum of B_n: an attacking configuration
    or one reaching beyond the window may cover more.  If any optimum touches
    the window boundary, or the window holds no non-attacking q-subset, the
    search re-runs with a larger window (recorded in window_retries) until
    optima clear the boundary or the window covers the board.  A window with
    fewer than q squares is grown without a search and without a retry.  All
    windows draw from one node budget, and nodes counts them all.  A board
    with no non-attacking q-subset at all raises DomainError.
    """
    if params.mode != "windowed":
        raise DomainError("windowed_optimal requires mode='windowed'")
    board = BoardSpec(params.n)
    max_radius = board.box_radius(board.n)
    retries = 0
    nodes = 0
    # SearchParams holds q <= n * n, so the whole board, the last box, is searched.
    for radius in range(board.box_radius(params.window), max_radius + 1):
        eng = _engine(params.n, radius)
        if len(eng.order) < params.q:
            continue
        best, sels, nodes = _max_cover(eng, _partners(eng), params, nodes)
        # A window holding no non-attacking q-subset grows like a touched one.
        # The squares off the boundary are the box of radius - 1, a prefix.
        inner = max(0, board.box_side(radius - 1)) ** 2
        if radius == max_radius or sels and all(j < inner for sel in sels for j in sel):
            break
        retries += 1
    if not sels:
        raise DomainError(f"B_{params.n} holds no non-attacking configuration of {params.q} queens")
    return _finish(params, eng, best, sels, nodes, board.box_side(radius), retries)


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


# Centered boards of one parity share their coordinates, so past the
# stabilizing threshold every board repeats the same representatives, and a
# rescan meets them all again: criterion 4's six scans hold about 1,200.
_canonical_of = lru_cache(maxsize=4096)(canonical_offsets)


def canonical_pattern_fingerprint(classes: Iterable[FundamentalClass]) -> str:
    """Hash of the multiset of translation- and symmetry-normalized patterns.

    The multiset runs over every member of every orbit.  Board symmetries are
    translations composed with the eight plane symmetries, so all members of
    an orbit share the representative's normalized pattern: it is computed
    once per representative, memoized by its squares (_canonical_of), and
    each distinct pattern is counted with the summed orbit sizes of its
    classes.  The hashed bytes are the repr of the sorted multiset as a list,
    each distinct pattern's repr written count times.
    """
    # Imported here: hashlib loads OpenSSL, and only fingerprints need it.
    import hashlib

    counts: Counter[tuple[Square, ...]] = Counter()
    for c in classes:
        counts[_canonical_of(c.representative.queens)] += c.orbit_size
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
    kind: str,
    q: int,
    n_lo: int,
    n_hi: int,
    workers: int,
    budget: int,
    runner: Optional[Runner],
) -> ThresholdReport:
    """The report of a scan of the given kind, its candidate fields left unset.

    Its entries summarize the exact optimal sets (attacks allowed) for n in
    [n_lo, n_hi]; a board with more queens than squares is skipped with a
    warning.  A board whose search exceeds the node budget raises
    BudgetExceededError.
    """
    _check_positive("n_lo", n_lo)
    _check_positive("n_hi", n_hi)
    _check_positive("workers", workers)
    _check_positive("budget", budget)
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
                optimal_count=sum(c.orbit_size for c in result.classes),
                # The symmetries map lines to lines, so an orbit's members
                # attack each other exactly when its representative does.
                all_nonattacking=all(is_nonattacking(c.representative) for c in result.classes),
                class_sizes=tuple(
                    sorted((c.orbit_size for c in result.classes), reverse=True)
                ),
                pattern_fingerprint=canonical_pattern_fingerprint(result.classes),
            )
        )
    return ThresholdReport(
        kind=kind,
        q=q,
        n_lo=n_lo,
        n_hi=n_hi,
        entries=tuple(entries),
        warnings=tuple(warnings),
    )


def nonattacking_threshold(
    q: int,
    n_lo: int,
    n_hi: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    runner: Optional[Runner] = None,
) -> ThresholdReport:
    """Scan for the least n from which every optimum is non-attacking (exact, see _scan)."""
    report = _scan("nonattacking", q, n_lo, n_hi, workers, budget, runner)
    n1 = None
    for e in reversed(report.entries):
        if e.all_nonattacking:
            n1 = e.n
        else:
            break
    return replace(report, n1_candidate=n1)


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


def _loss_scan_parity(
    q: int, radius: int, odd: bool, budget: int, spent: int
) -> tuple[Optional[LossMinimal], int]:
    """One parity's loss-minimal patterns and nodes, counting on from spent."""
    eng = _engine(stable_board(Configuration.of([(-radius, -radius)]), odd).n, radius)
    # Every later queen crosses the first on at least 10 distinct squares.
    best, found, nodes = _run_problem(eng, 10, _partners(eng), q, budget, 1, spent)
    if not found:
        return None, nodes
    canon = sorted({canonical_offsets(sorted([eng.order[j] for j in sel])) for sel in found})
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
    report = _scan("stabilizing", q, n_lo, n_hi, workers, budget, runner)
    entries = report.entries
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
    return replace(report, n2_odd=per_parity[1], n2_even=per_parity[0], n2_combined=combined)
