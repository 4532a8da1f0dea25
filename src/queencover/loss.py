"""Loss calculus: internal loss, center loss, and their decomposition.

On a large enough board the cover of a q-queen configuration equals
``(4n - 3) * q - loss``, where the loss splits into an internal part (squares
attacked more than once) and a centralization part (per-queen penalty growing
with Chebyshev distance from the board center).  The internal loss of a
non-attacking configuration further decomposes as ``crossing_budget - overlap
concentration``, where the crossing budget depends only on the queens' parity
counts.

The internal loss is a popcount sum over the queens' attack masks M_i,
sum |M_i| - |M_1 | M_2 | ...|, so it needs no attack field.  total_loss also
reads the overlap concentration, from the popcounts of the attack field's bit
planes (coverage.AttackField).  Feasibility, center loss and stability are
one pass each over the queens.

total_loss, predicted_cover and is_stable_board share coverage's evaluation
slot: for one configuration object on one board the attack field, the
pair-crossing stability flag and the center loss are each built once, and
predicted_cover reads the internal loss from that field.
internal_loss_stable builds its masks once, on one board, and outside the
slot, so the caller's entry survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coverage import (
    Configuration,
    Evaluation,
    attack_field,
    attack_masks,
    border_ring,
    evaluation,
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
    """Sum of (a(s) - 1) over board squares attacked at least once.

    a(s) counts the attack masks holding s, so the sum of a(s) is the sum of
    the masks' popcounts and the attacked squares are their union.
    """
    total = union = 0
    for m in attack_masks(config, board):
        total += m.bit_count()
        union |= m
    return total - union.bit_count()


def _centered(config: Configuration) -> Configuration:
    x0, y0, x1, y1 = config.bounding_box()
    return config.translate(-(x0 + x1) // 2, -(y0 + y1) // 2)


def stable_board(config: Configuration, odd: bool) -> BoardSpec:
    """Board of the given parity holding every pair crossing of the queens as placed.

    With every queen within Chebyshev distance rho of the center, each
    crossing coordinate lies in [-3 rho, 3 rho] on an odd board, so side
    6 rho + 1 suffices, and in [-3 rho - 1, 3 rho + 2] on an even board,
    whose center sits between 0 and 1, so side 6 rho + 4 suffices.  Sides
    below 9 (odd) and 10 (even) are raised to them.  A non-attacking
    configuration is therefore stable on the returned board.  The loss route
    (search.loss_minimal_patterns) runs on the stable board of its box's
    corner square, which holds every crossing of the box's squares.
    """
    if odd:
        rho = max((max(abs(x), abs(y)) for x, y in config.queens), default=0)
        return BoardSpec(max(6 * rho + 1, 9))
    rho = max((max(0, -x, x - 1, -y, y - 1) for x, y in config.queens), default=0)
    return BoardSpec(max(6 * rho + 4, 10))


def internal_loss_stable(config: Configuration) -> int:
    """Board-size-independent internal loss of a non-attacking configuration.

    Evaluated with the configuration centered on its odd stable_board B_n,
    then certified by recomputing on B_{n + 2} and requiring equality.  Both
    values come from one set of masks on B_{n + 2}: B_n is its inner part,
    B_{n + 2} less its border ring, and each queen's attack set on B_n is
    her set on B_{n + 2} cut to B_n.
    """
    if not is_nonattacking(config):
        raise UnboundedLossError("internal loss grows with n for attacking configurations")
    if config.q <= 1:
        return 0
    centered = _centered(config)
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
    """Per-queen penalty: board-parity base plus 2 per Chebyshev unit off center."""
    base = 0 if board.is_odd else 1
    return base + 2 * chebyshev_center_distance(board, square)


def center_loss(config: Configuration, board: BoardSpec) -> int:
    """Sum of center_loss_of_square over the queens, which must be on the board."""
    lo, hi = board.lo, board.hi
    for x, y in config.queens:
        if not (lo <= x <= hi and lo <= y <= hi):
            raise DomainError(f"square {(x, y)} is not on B_{board.n}")
    return _center_loss_on_board(config, board)


def _central(e: Evaluation) -> int:
    """The slot entry's center loss, computed on first use; the queens are on the board."""
    central = e.central
    if central is None:
        central = e.central = _center_loss_on_board(e.config, e.board)
    return central


def _center_loss_on_board(config: Configuration, board: BoardSpec) -> int:
    """center_loss for a configuration already known to be on the board."""
    if board.is_odd:
        return 2 * sum(max(abs(x), abs(y)) for x, y in config.queens)
    return sum(1 + 2 * max(0, -x, x - 1, -y, y - 1) for x, y in config.queens)


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
    return config.is_feasible(board) and _stable(evaluation(config, board))


def _stable(e: Evaluation) -> bool:
    """The slot entry's pair-crossing flag, computed on first use."""
    flag = e.stable
    if flag is None:
        flag = e.stable = _crossings_on_board(e.config, e.board)
    return flag


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
    if not config.is_feasible(board):
        raise DomainError("total loss requires all queens on board")
    e, o = config.parity_counts
    entry = evaluation(config, board)
    field = entry.field()
    internal = field.internal_loss()
    central = _central(entry)
    return LossBreakdown(
        internal=internal,
        central=central,
        total=internal + central,
        crossing_budget=crossing_budget(e, o),
        overlap_concentration=field.overlap_concentration(),
        even_count=e,
        odd_count=o,
        stable=_stable(entry),
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
    if not config.is_feasible(board):
        raise DomainError("total loss requires all queens on board")
    entry = evaluation(config, board)
    if not _stable(entry):
        raise NotStableError(
            f"B_{board.n} is too small for the cover identity at radius "
            f"{config.radius(board)}"
        )
    return (4 * board.n - 3) * config.q - entry.field().internal_loss() - _central(entry)


__all__ = [
    "LossBreakdown",
    "center_loss",
    "center_loss_of_square",
    "crossing_budget",
    "internal_loss",
    "internal_loss_stable",
    "is_stable_board",
    "noncongruent_pairs",
    "overlap_concentration",
    "predicted_cover",
    "quarter_squares",
    "stable_board",
    "total_loss",
]
