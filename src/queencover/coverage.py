"""Queen attack relations, attack fields and the cover count.

The cover of a configuration on a board is the number of squares that are
occupied or attacked at least once.  A queen covers her own square but does
not attack it.  Configurations need not be board-feasible: attack lines from
off-board queens still count on the on-board squares they cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError
from .geometry import BoardSpec, Square, board_contains, chebyshev_center_distance


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
        return cls(tuple(sorted((int(x), int(y)) for x, y in queens)))

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
        return all(board_contains(board, s) for s in self.queens)

    def radius(self, board: BoardSpec) -> int:
        """Largest Chebyshev center distance of any queen on the given board."""
        if not self.queens:
            return 0
        return max(chebyshev_center_distance(board, s) for s in self.queens)

    def translate(self, dx: int, dy: int) -> "Configuration":
        return Configuration.of((x + dx, y + dy) for x, y in self.queens)

    def bounding_box(self) -> tuple[int, int, int, int]:
        """(min_x, min_y, max_x, max_y); requires a non-empty configuration."""
        if not self.queens:
            raise DomainError("empty configuration has no bounding box")
        xs = [x for x, _ in self.queens]
        ys = [y for _, y in self.queens]
        return min(xs), min(ys), max(xs), max(ys)


def attacks(a: Square, b: Square) -> bool:
    """True iff distinct squares share a row, a column or a diagonal."""
    if a == b:
        return False
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx == 0 or dy == 0 or abs(dx) == abs(dy)


def is_nonattacking(config: Configuration) -> bool:
    """True iff no two queens share a column, a row or a diagonal.

    The queens are distinct squares, so they attack pairwise iff one of the
    four line coordinates x, y, x - y, x + y repeats.
    """
    qs = config.queens
    q = len(qs)
    return (
        len({x for x, _ in qs}) == q
        and len({y for _, y in qs}) == q
        and len({x - y for x, y in qs}) == q
        and len({x + y for x, y in qs}) == q
    )


class AttackField:
    """Dense per-square attacking numbers a(s) over one board.

    Immutable after construction; the underlying array is read-only.  Every
    statistic derives from one histogram of the counts, built on first use.
    """

    def __init__(self, board: BoardSpec, counts: np.ndarray):
        counts.flags.writeable = False
        self.board = board
        self._counts = counts  # shape (n, n), indexed [x - lo, y - lo]

    @cached_property
    def _freqs(self) -> list[int]:
        """_freqs[a]: the number of squares attacked exactly a times."""
        return np.bincount(self._counts.ravel()).tolist()

    def count(self, square: Square) -> int:
        if not board_contains(self.board, square):
            raise DomainError(f"square {square} is not on B_{self.board.n}")
        x, y = square
        lo = self.board.lo
        return int(self._counts[x - lo, y - lo])

    def histogram(self) -> dict[int, int]:
        """Multiplicity histogram {attacking number: square count}, zeros omitted."""
        return {a: f for a, f in enumerate(self._freqs) if a > 0 and f > 0}

    def max_count(self) -> int:
        return len(self._freqs) - 1

    def internal_loss(self) -> int:
        """Sum of a(s) - 1 over attacked squares."""
        return sum((a - 1) * f for a, f in enumerate(self._freqs) if a > 0)

    def overlap_concentration(self) -> int:
        """Sum of C(a(s), 2) - (a(s) - 1) over attacked squares."""
        return sum((a * (a - 1) // 2 - (a - 1)) * f for a, f in enumerate(self._freqs) if a > 0)

    def as_array(self) -> np.ndarray:
        return self._counts


def attack_field(config: Configuration, board: BoardSpec) -> AttackField:
    """Attacking numbers of every board square; queens may sit off board.

    Two distinct squares share at most one line, so a square's attacking
    number is a sum over its four lines:

        a(s) = col(x) + row(y) + diag(x - y) + anti(x + y) - 4 [s occupied]

    where each term counts the queens on that line (a queen on s lies on all
    four of s's lines but does not attack s).  One pass over the queens
    counts them per line; the field is one broadcast sum of four vectors.
    """
    n, lo = board.n, board.lo
    # One vector of per-line counts, by board index ix = x - lo, iy = y - lo:
    # columns at ix, rows at n + iy, diagonals at 3n - 1 - (ix - iy) (so in
    # [2n, 4n - 2]) and antidiagonals at 4n - 1 + (ix + iy) (in [4n - 1, 6n - 3]).
    lines = []
    occupied = []
    for x, y in config.queens:
        ix, iy = x - lo, y - lo
        if 0 <= ix < n:
            lines.append(ix)
            if 0 <= iy < n:
                occupied.append((ix, iy))
        if 0 <= iy < n:
            lines.append(n + iy)
        if -n < ix - iy < n:
            lines.append(3 * n - 1 - (ix - iy))
        if 0 <= ix + iy <= 2 * n - 2:
            lines.append(4 * n - 1 + ix + iy)
    per_line = np.bincount(lines, minlength=6 * n - 2).astype(np.int32)
    # Strided views of per_line: [ix, iy] reads the diagonal entry
    # 3n - 1 - ix + iy and the antidiagonal entry 4n - 1 + ix + iy.
    item = per_line.itemsize
    diag = np.ndarray((n, n), np.int32, per_line, (3 * n - 1) * item, (-item, item))
    anti = np.ndarray((n, n), np.int32, per_line, (4 * n - 1) * item, (item, item))
    counts = diag + anti
    counts += per_line[:n, None]
    counts += per_line[n : 2 * n]
    for ix, iy in occupied:
        counts[ix, iy] -= 4
    return AttackField(board, counts)


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


class BoardMasks:
    """Per-line bitsets over one board: the package's only line-mask builder.

    Bit k corresponds to the k-th square of the given order over B_n: the
    cover count indexes row-major order, the search engine center-out order.
    """

    def __init__(self, squares: Iterable[Square]):
        rows: dict[int, int] = {}
        cols: dict[int, int] = {}
        diags: dict[int, int] = {}
        antis: dict[int, int] = {}
        for k, (x, y) in enumerate(squares):
            bit = 1 << k
            rows[y] = rows.get(y, 0) | bit
            cols[x] = cols.get(x, 0) | bit
            diags[x - y] = diags.get(x - y, 0) | bit
            antis[x + y] = antis.get(x + y, 0) | bit
        self.rows, self.cols, self.diags, self.antis = rows, cols, diags, antis

    def line_union(self, square: Square) -> int:
        """All on-board squares sharing a line with the given (possibly off-board) square."""
        x, y = square
        return (
            self.rows.get(y, 0)
            | self.cols.get(x, 0)
            | self.diags.get(x - y, 0)
            | self.antis.get(x + y, 0)
        )

    def cover_mask(self, config: Configuration) -> int:
        m = 0
        for s in config.queens:
            m |= self.line_union(s)  # includes the queen's own square when on board
        return m


# Callers interleave many board sizes (scans, mixed evaluations); a full cache
# of boards up to n = 41 holds about 3.7 MB.
@lru_cache(maxsize=32)
def _board_masks(n: int) -> BoardMasks:
    return BoardMasks(BoardSpec(n).squares())


def cover_count(config: Configuration, board: BoardSpec) -> int:
    """Number of board squares occupied or attacked at least once."""
    return _board_masks(board.n).cover_mask(config).bit_count()
