"""Queen attack relations, attack fields and the cover count.

The cover of a configuration on a board is the number of squares that are
occupied or attacked at least once.  A queen covers her own square but does
not attack it.  Configurations need not be board-feasible: attack lines from
off-board queens still count on the on-board squares they cross.

Every mask is a row-major bitboard over B_n, bit k = (y - lo) * n +
(x - lo), and every line mask comes from line_masks, the one copy of the
line-shift arithmetic.  The cover count ORs the queens' line masks; the
search engine (search._Engine) keeps one per candidate square.  A queen's
attack mask is her line mask less her own square; the attack field adds
those masks into a bit-sliced binary counter: planes[b] is the set of
squares whose attacking number has bit b set.  The histogram and the loss
statistics read one frequency table that the field splits from its planes
when it is built (AttackField), never a per-square scan.

The kernels share their work on one configuration and one board through a
slot (evaluation) that holds the most recent (configuration object, board
side) pair: its line masks, built with the entry, and its attack field and
the configuration's non-attacking flag, each built on first use.  Only this
module reads the slot; the loss module reaches the field through
attack_field.  The slot is keyed by object identity and replaced on a miss,
so an equal but distinct Configuration builds everything anew and memory
stays at one pair's masks.  Nothing is stored on the configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import DomainError
from .geometry import BoardSpec, Square, board_contains, chebyshev_center_distance, check_int


@dataclass(frozen=True)
class Configuration:
    """A finite set of queens, stored lexicographically sorted and duplicate-free."""

    queens: tuple[Square, ...]

    def __post_init__(self):
        if len(set(self.queens)) != len(self.queens):
            raise DomainError("configuration contains duplicate queens")
        if list(self.queens) != sorted(self.queens):
            raise DomainError("configuration queens must be sorted; use Configuration.of")

    @classmethod
    def of(cls, queens: Iterable[Square]) -> "Configuration":
        squares = [(x, y) for x, y in queens]
        for x, y in squares:
            check_int(x, "queen coordinate")
            check_int(y, "queen coordinate")
        return cls(tuple(sorted(squares)))

    @property
    def q(self) -> int:
        return len(self.queens)

    def __iter__(self) -> Iterator[Square]:
        return iter(self.queens)

    def __len__(self) -> int:
        return len(self.queens)

    def __contains__(self, square: Square) -> bool:
        return square in self.queens

    @property
    def parity_counts(self) -> tuple[int, int]:
        """(even, odd) queen counts by the parity of x - y."""
        even = sum(1 for x, y in self.queens if (x - y) % 2 == 0)
        return even, len(self.queens) - even

    def is_feasible(self, board: BoardSpec) -> bool:
        lo, hi = board.lo, board.hi
        return all(lo <= x <= hi and lo <= y <= hi for x, y in self.queens)

    def radius(self, board: BoardSpec) -> int:
        """Largest Chebyshev center distance of any queen on the given board."""
        if not self.queens:
            return 0
        return max(chebyshev_center_distance(board, s) for s in self.queens)

    def translate(self, dx: int, dy: int) -> "Configuration":
        check_int(dx, "translation")
        check_int(dy, "translation")
        # A translation keeps the queens sorted and distinct, so the moved
        # tuple needs none of __post_init__'s checks.
        moved = object.__new__(Configuration)
        object.__setattr__(moved, "queens", tuple((x + dx, y + dy) for x, y in self.queens))
        return moved


def is_nonattacking(config: Configuration) -> bool:
    """True iff no two queens share a column, a row or a diagonal.

    The queens are distinct squares, so they attack pairwise iff one of the
    four line coordinates x, y, x - y, x + y repeats.  When the evaluation
    slot holds this configuration object, the flag is kept there, so the
    loss module's stability checks on a configuration whose field it has
    read (total_loss, then predicted_cover) compute it once; any other call
    computes it and stores nothing.
    """
    e = _slot
    held = e is not None and e.config is config
    if held and e.nonattacking is not None:
        return e.nonattacking
    qs = config.queens
    q = len(qs)
    flag = (
        len({x for x, _ in qs}) == q
        and len({y for _, y in qs}) == q
        and len({x - y for x, y in qs}) == q
        and len({x + y for x, y in qs}) == q
    )
    if held:
        e.nonattacking = flag
    return flag


class AttackField:
    """Per-square attacking numbers a(s) over one board, as bit-sliced counters.

    planes[b] is the row-major bitboard of the squares whose a(s) has bit b
    set, so a(s) is the sum of 2**b over the planes holding the square's bit.
    The planes never change after construction.  The board statistics read
    one frequency table, freqs[a] the number of squares with a(s) = a,
    split from the board on the planes when the field is built: every
    caller but a render or a border check asks at least one statistic, and
    the loss kernels and the histogram ask one field several times.  With
    f = freqs, over the attacked squares (a >= 1),

        internal loss         = sum (a - 1) f[a]
        overlap concentration = sum (C(a, 2) - (a - 1)) f[a] = sum C(a - 1, 2) f[a].
    """

    def __init__(self, board: BoardSpec, planes: tuple[int, ...]):
        self.board = board
        self.planes = planes
        # Splitting on the planes from the top one down keeps the masks in
        # order of value: masks[v] holds the squares whose counter reads v.
        masks = [line_shifts(board.n).full]
        for plane in reversed(planes):
            split = []
            for m in masks:
                high = m & plane
                split += (m ^ high, high)
            masks = split
        freqs = [m.bit_count() for m in masks]
        while len(freqs) > 1 and not freqs[-1]:
            freqs.pop()
        self.freqs = freqs

    def count(self, square: Square) -> int:
        if not board_contains(self.board, square):
            raise DomainError(f"square {square} is not on B_{self.board.n}")
        x, y = square
        return self.row_counts(y)[x - self.board.lo]

    def row_counts(self, y: int) -> list[int]:
        """a(s) of every square of row y, from x = lo up."""
        n, lo = self.board.n, self.board.lo
        if not lo <= y <= self.board.hi:
            raise DomainError(f"row {y} is not on B_{n}")
        shift, row = (y - lo) * n, (1 << n) - 1
        counts = [0] * n
        for b, plane in enumerate(self.planes):
            bits = plane >> shift & row
            while bits:
                low = bits & -bits
                counts[low.bit_length() - 1] += 1 << b
                bits ^= low
        return counts

    def histogram(self) -> dict[int, int]:
        """Multiplicity histogram {attacking number: square count}, zeros omitted."""
        return {a: f for a, f in enumerate(self.freqs) if a > 0 and f > 0}

    def max_count(self) -> int:
        return len(self.freqs) - 1

    def internal_loss(self) -> int:
        """Sum of a(s) - 1 over attacked squares."""
        freqs = self.freqs
        return sum((a - 1) * freqs[a] for a in range(2, len(freqs)))

    def overlap_concentration(self) -> int:
        """Sum of C(a(s), 2) - (a(s) - 1) over attacked squares."""
        freqs = self.freqs
        return sum((a - 1) * (a - 2) // 2 * freqs[a] for a in range(3, len(freqs)))


def line_masks(squares: Iterable[Square], board: BoardSpec) -> list[int]:
    """Each square's on-board line union; squares may lie off board.

    A square's mask is the OR of its four line masks (see LineShifts), so it
    holds the square's own bit when the square is on the board.  An
    off-board square keeps the on-board squares of its lines.
    """
    n, lo = board.n, board.lo
    full, row, col, diag, anti = line_shifts(n)
    masks = []
    for x, y in squares:
        ix, iy = x - lo, y - lo
        m = 0
        if 0 <= ix < n:
            m = col << ix
        if 0 <= iy < n:
            m |= row << iy * n
        d = ix - iy
        if 0 <= d < n:
            m |= diag >> d * n
        elif -n < d < 0:
            m |= (diag << -d * n) & full
        e = ix + iy - (n - 1)
        if 0 < e < n:
            m |= (anti << e * n) & full
        elif -n < e <= 0:
            m |= anti >> -e * n
        masks.append(m)
    return masks


def attack_field(config: Configuration, board: BoardSpec) -> AttackField:
    """Attacking numbers of every board square; queens may sit off board.

    Two distinct squares share at most one line, so a square's attacking
    number counts the queens whose attack masks hold it: a queen's line
    union (line_masks) less her own bit when she is on the board, since she
    lies on all four of its lines but does not attack it.  The masks are
    added into a binary counter of bit planes, one XOR/AND ripple per mask.
    The field is built once per slot entry (evaluation).
    """
    return evaluation(config, board).field()


class Evaluation:
    """What this module's kernels build for one configuration on one board, each once.

    lines (line_masks of the queens) is built with the entry: both kernels
    that create an entry, cover_count and attack_field, read it.  field()
    (the attack field) is built on first call.  nonattacking is
    is_nonattacking's flag, None until first computed; it stays lazy because
    cover_count alone (the verify path) never asks it.
    """

    __slots__ = ("config", "board", "lines", "_field", "nonattacking")

    def __init__(self, config: Configuration, board: BoardSpec):
        self.config = config
        self.board = board
        self.lines = line_masks(config.queens, board)
        self._field: Optional[AttackField] = None
        self.nonattacking: Optional[bool] = None

    def field(self) -> AttackField:
        field = self._field
        if field is None:
            n, lo = self.board.n, self.board.lo
            planes: list[int] = []
            for (x, y), m in zip(self.config.queens, self.lines):
                ix, iy = x - lo, y - lo
                if 0 <= ix < n and 0 <= iy < n:
                    m ^= 1 << iy * n + ix  # the attack mask: her own bit out
                for b, plane in enumerate(planes):
                    planes[b] = plane ^ m
                    m &= plane
                    if not m:
                        break
                else:
                    if m:
                        planes.append(m)
            field = self._field = AttackField(self.board, tuple(planes))
        return field


_slot: Optional[Evaluation] = None


def evaluation(config: Configuration, board: BoardSpec) -> Evaluation:
    """The shared Evaluation of this configuration object on this board side.

    One slot holds the most recent pair, with a strong reference to its
    configuration; a call for any other object or side replaces it.  Nothing
    is keyed by value, so a new, equal Configuration starts from nothing.
    """
    global _slot
    e = _slot
    if e is None or e.config is not config or e.board.n != board.n:
        e = _slot = Evaluation(config, board)
    return e


def pair_crossings(a: Square, b: Square) -> list[Square]:
    """All lattice squares attacked by both queens of a non-attacking pair.

    Each queen owns four lines; intersecting the non-parallel line pairs gives
    at most twelve squares (diagonal-diagonal meets need matching parity).
    The queens' own squares are excluded: a queen does not attack her square.
    """
    x1, y1 = a
    x2, y2 = b
    d1, a1 = x1 - y1, x1 + y1
    d2, a2 = x2 - y2, x2 + y2
    out = [
        (x2, y1),
        (x1, y2),
        (y1 + d2, y1),
        (a2 - y1, y1),
        (y2 + d1, y2),
        (a1 - y2, y2),
        (x1, x1 - d2),
        (x1, a2 - x1),
        (x2, x2 - d1),
        (x2, a1 - x2),
    ]
    if (d1 + a2) % 2 == 0:
        x = (d1 + a2) // 2
        out.append((x, x - d1))
    if (a1 + d2) % 2 == 0:
        x = (a1 + d2) // 2
        out.append((x, x - d2))
    return [s for s in out if s != a and s != b]


class LineShifts(NamedTuple):
    """The lines of B_n on the row-major bitboard, as shifts of five integers.

    With ix = x - lo and iy = y - lo, a square's row is row << iy * n and
    its column col << ix.  Its diagonal, ix - iy = d, is the main diagonal
    moved by d rows: the bits that leave the board fall off the bottom
    (diag >> d * n) or are cut by full (diag << -d * n & full).  Its
    antidiagonal, ix + iy = n - 1 + e, is the main antidiagonal moved the
    same way by e rows.  A full cache of the 64 sides 60..123 holds about
    0.32 MB (tracemalloc), so mixed board sizes do not thrash it.
    """

    full: int
    row: int
    col: int
    diag: int
    anti: int


def _repunit(step: int, count: int) -> int:
    """count bits set, step apart, from bit 0 up."""
    return int("1" + ("0" * (step - 1) + "1") * (count - 1), 2)


@lru_cache(maxsize=64)
def line_shifts(n: int) -> LineShifts:
    return LineShifts(
        full=(1 << n * n) - 1,
        row=(1 << n) - 1,
        col=_repunit(n, n),
        diag=_repunit(n + 1, n),
        anti=_repunit(n - 1, n) << (n - 1),
    )


def border_ring(n: int) -> int:
    """The border ring of B_n: its first and last rows and columns."""
    _, row, col, _, _ = line_shifts(n)
    return row | row << (n - 1) * n | col | col << (n - 1)


def cover_count(config: Configuration, board: BoardSpec) -> int:
    """Number of board squares occupied or attacked at least once."""
    m = 0
    for line in evaluation(config, board).lines:
        m |= line  # includes the queen's own square when on board
    return m.bit_count()
