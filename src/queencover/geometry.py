"""Centered square boards and their dihedral symmetries.

Boards use a centered integer coordinate system: the n x n board spans
{floor((2-n)/2), ..., floor(n/2)} on each axis.  Odd boards are symmetric
about (0, 0); even boards have four central squares {0,1} x {0,1} and their
symmetries act about the geometric center (0.5, 0.5).  Squares are plain
``(x, y)`` integer tuples everywhere; board membership is a predicate, not a
type constraint, because attack lines extend off-board and must be
representable.

One identity covers both parities.  With p = parity_offset, the centered
coordinates of (x, y) are (u, v) = (2x - p, 2y - p), twice the offset from
the symmetry center (p/2, p/2).  A square's center loss is max(|u|, |v|) =
2 max(x, p - x, y, p - y) - p, its Chebyshev center distance is
max(x, p - x, y, p - y) - p, and the eight symmetries are the signed
permutations of (u, v) (SYMMETRIES).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError

Square = tuple[int, int]

TRANSFORM_KINDS = (
    "identity",
    "rot90",
    "rot180",
    "rot270",
    "mirror-x",
    "mirror-y",
    "mirror-diag",
    "mirror-antidiag",
)

# The map (u, v) -> (au + bv, cu + dv) of each kind, in TRANSFORM_KINDS order.
SYMMETRIES = (
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
)


def check_int(value, what: str) -> None:
    """Refuse anything but a plain integer; bools and integral floats included."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True, order=True)
class BoardSpec:
    """An n x n board in centered coordinates."""

    n: int

    def __post_init__(self):
        check_int(self.n, "board side")
        if self.n < 1:
            raise DomainError(f"board side must be >= 1, got {self.n}")

    @property
    def lo(self) -> int:
        return (2 - self.n) // 2

    @property
    def hi(self) -> int:
        return self.n // 2

    @property
    def is_odd(self) -> bool:
        return self.n % 2 == 1

    @property
    def parity_offset(self) -> int:
        """0 for odd boards, 1 for even; the symmetry center is (p/2, p/2)."""
        return 0 if self.is_odd else 1

    def squares(self) -> Iterator[Square]:
        for y in range(self.lo, self.hi + 1):
            for x in range(self.lo, self.hi + 1):
                yield (x, y)

    def box_radius(self, side: int) -> int:
        """Largest centered box radius whose box fits inside the given side.

        box_radius(self.n) is the largest center distance of any square.
        """
        return max(0, (side - 1 - self.parity_offset) // 2)

    def box_side(self, radius: int) -> int:
        """Side of the centered box of the given Chebyshev radius."""
        return 2 * radius + 1 + self.parity_offset


def board_contains(board: BoardSpec, square: Square) -> bool:
    x, y = square
    return board.lo <= x <= board.hi and board.lo <= y <= board.hi


def chebyshev_center_distance(board: BoardSpec, square: Square) -> int:
    """Chebyshev distance to the nearest central square: max(x, p - x, y, p - y) - p."""
    if not board_contains(board, square):
        raise DomainError(f"square {square} is not on B_{board.n}")
    x, y = square
    p = board.parity_offset
    return max(x, p - x, y, p - y) - p


def transform_square(kind: str, parity_offset: int, square: Square) -> Square:
    """Apply a named transform about the center implied by parity_offset.

    With p = parity_offset the symmetry center is (p/2, p/2): the kind's
    SYMMETRIES entry acts on the centered coordinates (2x - p, 2y - p), so
    e.g. rot90 is (u, v) -> (-v, u), that is (x, y) -> (p - y, x); this is
    the unique action under which all eight transforms permute the board.
    """
    if kind not in TRANSFORM_KINDS:
        raise DomainError(f"unknown transform kind {kind!r}")
    a, b, c, d = SYMMETRIES[TRANSFORM_KINDS.index(kind)]
    p = parity_offset
    u, v = 2 * square[0] - p, 2 * square[1] - p
    return ((a * u + b * v + p) // 2, (c * u + d * v + p) // 2)

