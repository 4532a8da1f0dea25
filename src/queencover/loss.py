"""Loss calculus: internal loss, center loss, and their decomposition.

On a large enough board the cover of a q-queen configuration equals
``(4n - 3) * q - loss``, where the loss splits into an internal part (squares
attacked more than once) and a centralization part (per-queen penalty growing
with Chebyshev distance from the board center).  The internal loss of a
non-attacking configuration further decomposes as ``crossing_budget - overlap
concentration``, where the crossing budget depends only on the queens' parity
counts.

The internal loss and the overlap concentration are sums over one frequency
table of the attack field (coverage.AttackField): f[a] squares attacked a
times give internal loss sum (a - 1) f[a] and overlap concentration
sum (C(a, 2) - a + 1) f[a].  Feasibility, parity counts and center loss are
one pass over the queens (_queen_pass); stability is one pass over the
queen pairs.

internal_loss, overlap_concentration, total_loss and predicted_cover read
the attack field through coverage.attack_field, so for one configuration
object on one board the field and its table are built once, in coverage's
evaluation slot, however often and in whatever order they are asked.  The
queen and pair passes are cheap and are recomputed on every call;
is_stable_board builds no field and leaves the slot as it is.
internal_loss_stable builds its masks once, on one board, and outside the
slot, so the caller's entry survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coverage import (
    Configuration,
    attack_field,
    border_ring,
    is_nonattacking,
    line_masks,
    line_shifts,
)
# Unused here, but perfbench/tracer.py wraps loss.pair_crossings by name.
from .coverage import pair_crossings  # noqa: F401
from .errors import DomainError, InvariantError, NotStableError, UnboundedLossError
from .geometry import BoardSpec, Square, chebyshev_center_distance


@dataclass(frozen=True)
class LossBreakdown:
    """All loss components of one configuration on one board."""

    internal: int
    central: int
    total: int
    crossing_budget: int
    overlap_concentration: int
    even_count: int
    odd_count: int
    stable: bool

    def __post_init__(self):
        if self.total != self.internal + self.central:
            raise InvariantError("loss breakdown does not sum")


def internal_loss(config: Configuration, board: BoardSpec) -> int:
    """Sum of (a(s) - 1) over board squares attacked at least once (AttackField)."""
    return attack_field(config, board).internal_loss()


def stable_board(config: Configuration, odd: bool) -> BoardSpec:
    """Board of the given parity holding every pair crossing of the queens as placed.

    With p the parity_offset of the board (0 odd, 1 even) and every queen
    within Chebyshev distance rho = max(x, p - x, y, p - y) - p of the
    center (geometry), each crossing coordinate lies in
    [-3 rho - p, 3 rho + 2p], so side 6 rho + 1 + 3p suffices: 6 rho + 1 on
    an odd board and 6 rho + 4 on an even one.  Sides below 9 + p are raised
    to it.  A non-attacking configuration is therefore stable on the
    returned board.  The loss route (search.loss_minimal_patterns) runs on
    the stable board of its box's corner square, which holds every crossing
    of the box's squares.
    """
    p = int(not odd)
    rho = max((max(x, p - x, y, p - y) for x, y in config.queens), default=p) - p
    return BoardSpec(max(6 * rho + 1 + 3 * p, 9 + p))


def internal_loss_stable(config: Configuration) -> int:
    """Board-size-independent internal loss of a non-attacking configuration.

    Evaluated with the configuration's box centered on its odd stable_board B_n,
    then certified by recomputing on B_{n + 2} and requiring equality.  Both
    values come from one set of masks on B_{n + 2}: B_n is its inner part,
    B_{n + 2} less its border ring, and each queen's attack set on B_n is
    her set on B_{n + 2} cut to B_n.
    """
    if not is_nonattacking(config):
        raise UnboundedLossError("internal loss grows with n for attacking configurations")
    if config.q <= 1:
        return 0
    # The queens are sorted, so the first and last hold the x extremes.
    qs = config.queens
    ys = [y for _, y in qs]
    centered = config.translate(-(qs[0][0] + qs[-1][0]) // 2, -(min(ys) + max(ys)) // 2)
    n = stable_board(centered, odd=True).n
    big = n + 2
    inner = line_shifts(big).full ^ border_ring(big)
    # No queen attacks another's square, so each line mask is an attack mask
    # plus at most its queen's own bit, a bit no other mask holds: that adds
    # the same count to the popcount sum and to the union, and leaves
    # sum |M_i| - |union M_i| as it is on either board.  The masks are built
    # here, not in the evaluation slot, so the caller's entry stays there.
    value = check = union = 0
    for m in line_masks(centered.queens, BoardSpec(big)):
        check += m.bit_count()
        value += (m & inner).bit_count()
        union |= m
    value -= (union & inner).bit_count()
    check -= union.bit_count()
    if value != check:
        raise InvariantError(
            f"internal loss not stable at n={n}: {value} != {check}"
        )
    return value


def center_loss_of_square(square: Square, board: BoardSpec) -> int:
    """Per-queen penalty max(|2x - p|, |2y - p|): 2 per Chebyshev unit off center, plus p."""
    return 2 * chebyshev_center_distance(board, square) + board.parity_offset


def center_loss(config: Configuration, board: BoardSpec) -> int:
    """Sum of center_loss_of_square over the queens, which must be on the board."""
    _, central, off = _queen_pass(config, board)
    if off is not None:
        raise DomainError(f"square {off} is not on B_{board.n}")
    return central


def _queen_pass(config: Configuration, board: BoardSpec) -> tuple[int, int, Optional[Square]]:
    """(even queens, center loss, None) in one pass, or (0, 0, the first off-board queen).

    The board spans [p - hi, hi] on each axis, so a queen is on it iff
    max(x, p - x, y, p - y), her center loss plus p over 2, is at most hi.
    """
    hi, p = board.hi, board.parity_offset
    even = central = 0
    for x, y in config.queens:
        c = max(x, p - x, y, p - y)
        if c > hi:
            return 0, 0, (x, y)
        even += (x - y) % 2 == 0
        central += c
    return even, 2 * central - p * len(config.queens), None


def crossing_budget(even_count: int, odd_count: int) -> int:
    """Total pair crossings as a function of parity counts alone.

    Congruent pairs cross on 12 squares, non-congruent pairs on 10.
    """
    if even_count < 0 or odd_count < 0:
        raise DomainError("parity counts must be non-negative")
    e, o = even_count, odd_count
    return 12 * (e * (e - 1) // 2) + 12 * (o * (o - 1) // 2) + 10 * e * o


def overlap_concentration(config: Configuration, board: BoardSpec) -> int:
    """Sum of C(a(s), 2) - (a(s) - 1) over attacked board squares.

    Squares attacked 2, 3, 4 times contribute 0, 1, 3; concentrating pair
    crossings on fewer squares raises this and so lowers the internal loss.
    """
    return attack_field(config, board).overlap_concentration()


def is_stable_board(config: Configuration, board: BoardSpec) -> bool:
    """True when the configuration's loss is board-size-independent here.

    Requires a non-attacking configuration (attacking pairs overlap along
    whole shared lines, so their internal loss grows with n) placed so that
    every pairwise attack-line crossing lies on the board; growing the board
    further then changes neither the internal loss nor the cover identity.
    The crossings of queens (x1, y1) and (x2, y2), with dx = |x2 - x1| and
    dy = |y2 - y1|, span x in [min x - dy, max x + dy] and y in
    [min y - dx, max y + dx], each end reached, so the extents are tested.
    """
    return config.is_feasible(board) and _crossings_on_board(config, board)


def _crossings_on_board(config: Configuration, board: BoardSpec) -> bool:
    """is_stable_board for a configuration already known to be on the board."""
    if config.q <= 1:
        return True
    if not is_nonattacking(config):
        return False
    lo, hi = board.lo, board.hi
    qs = config.queens
    # The queens are sorted, so x1 <= x2 and dx = x2 - x1.
    for i, (x1, y1) in enumerate(qs):
        for x2, y2 in qs[i + 1 :]:
            dx = x2 - x1
            if y1 <= y2:
                dy = y2 - y1
                if x1 - dy < lo or x2 + dy > hi or y1 - dx < lo or y2 + dx > hi:
                    return False
            else:
                dy = y1 - y2
                if x1 - dy < lo or x2 + dy > hi or y2 - dx < lo or y1 + dx > hi:
                    return False
    return True


def total_loss(config: Configuration, board: BoardSpec) -> LossBreakdown:
    """Full loss breakdown of a board-feasible configuration."""
    e, central, off = _queen_pass(config, board)
    if off is not None:
        raise DomainError("total loss requires all queens on board")
    o = config.q - e
    field = attack_field(config, board)
    internal = field.internal_loss()
    return LossBreakdown(
        internal=internal,
        central=central,
        total=internal + central,
        crossing_budget=crossing_budget(e, o),
        overlap_concentration=field.overlap_concentration(),
        even_count=e,
        odd_count=o,
        stable=_crossings_on_board(config, board),
    )


def quarter_squares(q: int) -> int:
    """floor(q^2 / 4): the most non-congruent pairs a q-configuration can have."""
    if q < 1:
        raise DomainError(f"quarter_squares requires q >= 1, got {q}")
    return q * q // 4


def noncongruent_pairs(config: Configuration) -> int:
    e, o = config.parity_counts
    return e * o


def predicted_cover(config: Configuration, board: BoardSpec) -> int:
    """Cover via the loss identity (4n - 3) q - loss; exact on stable boards only."""
    _, central, off = _queen_pass(config, board)
    if off is not None:
        raise DomainError("total loss requires all queens on board")
    if not _crossings_on_board(config, board):
        raise NotStableError(
            f"B_{board.n} is too small for the cover identity at radius "
            f"{config.radius(board)}"
        )
    loss = internal_loss(config, board) + central
    return (4 * board.n - 3) * config.q - loss

