"""Named reference configurations and centralized placement of patterns.

A pattern is a configuration up to translation: offsets normalized so the
bounding box's lower-left corner is (0, 0).  The stairs family provides, for
every queen count, a non-attacking pattern with known board-independent loss;
it is the standard yardstick for the loss of q queens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .coverage import Configuration, is_nonattacking
from .errors import DoesNotFitError, DomainError, InvariantError
from .geometry import BoardSpec, Square, check_int
from .loss import center_loss, internal_loss_stable


@dataclass(frozen=True)
class Pattern:
    """Translation-normalized queen offsets: min x = min y = 0."""

    offsets: tuple[Square, ...]

    def __post_init__(self):
        if not self.offsets:
            raise DomainError("pattern must contain at least one queen")
        if min(x for x, _ in self.offsets) != 0 or min(y for _, y in self.offsets) != 0:
            raise DomainError("pattern offsets must be normalized; use Pattern.of")
        if list(self.offsets) != sorted(set(self.offsets)):
            raise DomainError("pattern offsets must be sorted and distinct; use Pattern.of")

    @classmethod
    def of(cls, squares: Iterable[Square]) -> "Pattern":
        pairs = [(x, y) for x, y in squares]
        for x, y in pairs:
            check_int(x, "pattern coordinate")
            check_int(y, "pattern coordinate")
        sq = sorted(set(pairs))
        if not sq:
            raise DomainError("pattern must contain at least one queen")
        mx = min(x for x, _ in sq)
        my = min(y for _, y in sq)
        # A translation keeps the sorted order.
        return cls(tuple((x - mx, y - my) for x, y in sq))

    @property
    def q(self) -> int:
        return len(self.offsets)

    @property
    def width(self) -> int:
        return max(x for x, _ in self.offsets) + 1

    @property
    def height(self) -> int:
        return max(y for _, y in self.offsets) + 1

    def place(self, dx: int, dy: int) -> Configuration:
        return Configuration.of((x + dx, y + dy) for x, y in self.offsets)

    def canonical(self) -> "Pattern":
        """Least equivalent pattern over the eight symmetries; translation-free key."""
        return Pattern(canonical_offsets(self.offsets))


def canonical_offsets(squares: Sequence[Square]) -> tuple[Square, ...]:
    """The least normalized image of sorted, distinct squares under the eight symmetries.

    The squares fill the box [x0, x1] x [y0, y1].  Normalized, they fill
    [0, w] x [0, h] with w = x1 - x0 and h = y1 - y0, and each symmetry maps
    that box onto [0, w] x [0, h] or [0, h] x [0, w], so each image is built
    already normalized: rot90 sends (x, y) to (h - y, x), mirror-x to
    (w - x, y), and so on through geometry.TRANSFORM_KINDS, in its order.
    The identity keeps the sorted order, so only the other seven images are
    sorted.  Pattern.canonical is this on its offsets; no Pattern is built.
    """
    xs = [x for x, _ in squares]
    ys = [y for _, y in squares]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    best = min(
        [(x - x0, y - y0) for x, y in squares],
        sorted([(y1 - y, x - x0) for x, y in squares]),
        sorted([(x1 - x, y1 - y) for x, y in squares]),
        sorted([(y - y0, x1 - x) for x, y in squares]),
        sorted([(x1 - x, y - y0) for x, y in squares]),
        sorted([(x - x0, y1 - y) for x, y in squares]),
        sorted([(y - y0, x - x0) for x, y in squares]),
        sorted([(y1 - y, x1 - x) for x, y in squares]),
    )
    return tuple(best)


def pattern_of(config: Configuration) -> Pattern:
    return Pattern.of(config.queens)


def _abs_sum_min(values: list[int], parity: int) -> tuple[int, list[int]]:
    """Minimum of t -> sum(|v + t|) over integers t with t % 2 == parity.

    Returns (minimum, all minimizing t of that parity).  The unconstrained
    argmin is the median interval; convexity confines parity-constrained
    minimizers to that interval or its immediate neighbors.
    """
    vs = sorted(-v for v in values)
    m = len(vs)
    left, right = vs[(m - 1) // 2], vs[m // 2]

    def cost(t: int) -> int:
        return sum(abs(v + t) for v in values)

    # range spans >= 3 consecutive integers, so both parities are represented
    cands = [t for t in range(left - 1, right + 2) if t % 2 == parity]
    best = min(cost(t) for t in cands)
    return best, [t for t in cands if cost(t) == best]


def _center_loss_minima(pattern: Pattern, odd_board: bool) -> tuple[int, list[tuple[int, int]]]:
    """Exact minimal center loss over all translations, with every argmin shift.

    A queen's center loss is max(|u|, |v|) in the centered coordinates
    (u, v) = (2x - p, 2y - p) of geometry, p the board's parity_offset, and
    max(|u|, |v|) = (|u + v| + |u - v|) / 2 = |s - p| + |d| over the rotated
    coordinates s = x + y, d = x - y.  That makes the loss sum separable into
    two one-dimensional absolute-sum problems, s shifted by -p, coupled only
    by the parity constraint s-shift == d-shift (mod 2).
    """
    ss = [x + y for x, y in pattern.offsets]
    ds = [x - y for x, y in pattern.offsets]
    p = int(not odd_board)
    best_total = None
    best_shifts: list[tuple[int, int]] = []
    for par in (0, 1):
        g, g_args = _abs_sum_min([s - p for s in ss], par)
        h, h_args = _abs_sum_min(ds, par)
        if best_total is None or g + h < best_total:
            best_total = g + h
            best_shifts = [(S, D) for S in g_args for D in h_args]
        elif g + h == best_total:
            best_shifts.extend((S, D) for S in g_args for D in h_args)
    translations = sorted(set(((S + D) // 2, (S - D) // 2) for S, D in best_shifts))
    return best_total, translations


def pattern_center_loss(pattern: Pattern, odd_board: bool) -> int:
    """Minimal center loss of the pattern on (sufficiently large) boards of one parity."""
    total, _ = _center_loss_minima(pattern, odd_board)
    return total


def centralize(pattern: Pattern, board: BoardSpec) -> tuple[Configuration, ...]:
    """All placements of the pattern on the board with minimal center loss."""
    if pattern.width > board.n or pattern.height > board.n:
        raise DoesNotFitError(
            f"pattern {pattern.width}x{pattern.height} does not fit on B_{board.n}"
        )
    ax_lo, ax_hi = board.lo, board.hi - pattern.width + 1
    ay_lo, ay_hi = board.lo, board.hi - pattern.height + 1
    _, translations = _center_loss_minima(pattern, board.is_odd)
    feasible = [
        (ax, ay) for ax, ay in translations if ax_lo <= ax <= ax_hi and ay_lo <= ay <= ay_hi
    ]
    if not feasible:
        # Pattern nearly fills the board: scan the few feasible translations.
        best = None
        for ax in range(ax_lo, ax_hi + 1):
            for ay in range(ay_lo, ay_hi + 1):
                c = pattern.place(ax, ay)
                v = center_loss(c, board)
                if best is None or v < best[0]:
                    best = (v, [(ax, ay)])
                elif v == best[0]:
                    best[1].append((ax, ay))
        if best is None:
            raise InvariantError("no feasible placement for a fitting pattern")
        feasible = best[1]
    return tuple(pattern.place(ax, ay) for ax, ay in sorted(feasible))


@dataclass(frozen=True)
class StairsBuild:
    """A stairs pattern, the shift between its two sequences, and its loss columns."""

    shift: Square
    pattern: Pattern
    internal: int
    center_odd: int
    center_even: int

    @property
    def total_odd(self) -> int:
        return self.internal + self.center_odd

    @property
    def total_even(self) -> int:
        return self.internal + self.center_even


def knight_square() -> Pattern:
    """Four queens on a tilted square, consecutive ones a knight's move apart."""
    return Pattern.of([(-1, 0), (0, 2), (1, -1), (2, 1)])


@lru_cache(maxsize=None)
def stairs_details(q: int) -> StairsBuild:
    """Build the q-stairs pattern and its loss columns.

    Two knight-step sequences of sizes ceil(q/2) and floor(q/2); the second is
    displaced by a shift chosen among all non-attacking displacements within
    Chebyshev radius 2q to minimize, in order: center loss on odd boards,
    board-independent internal loss, shift norm, then lexicographic shift.
    """
    if q < 2:
        raise DomainError(f"stairs requires q >= 2, got {q}")
    first = [(i, 2 * i) for i in range((q + 1) // 2)]
    second = [(i, 2 * i) for i in range(q // 2)]
    r = 2 * q
    # The winner is picked by a total key below, so the scan order is free.
    candidates: list[tuple[int, tuple[int, int], list[Square]]] = []
    for sx, sy in product(range(-r, r + 1), repeat=2):
        union = first + [(x + sx, y + sy) for x, y in second]
        if len(set(union)) < q:
            continue
        if not is_nonattacking(Configuration.of(union)):
            continue
        central = pattern_center_loss(Pattern.of(union), odd_board=True)
        candidates.append((central, (sx, sy), union))
    if not candidates:
        raise InvariantError(f"no non-attacking stairs shift found for q={q}")
    min_central = min(c for c, _, _ in candidates)
    best = None
    for central, shift, union in candidates:
        if central != min_central:
            continue
        internal = internal_loss_stable(Configuration.of(union))
        key = (internal, max(abs(shift[0]), abs(shift[1])), shift)
        if best is None or key < best[0]:
            best = (key, shift, union, internal, central)
    _, shift, union, internal, central_odd = best
    pattern = Pattern.of(union)
    central_even = pattern_center_loss(pattern, odd_board=False)
    return StairsBuild(
        shift=shift,
        pattern=pattern,
        internal=internal,
        center_odd=central_odd,
        center_even=central_even,
    )


def stairs(q: int) -> Pattern:
    """The q-stairs pattern; see stairs_details for the selection rule."""
    return stairs_details(q).pattern
