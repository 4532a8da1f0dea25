"""Loss calculus: internal/center losses, the decomposition and the cover identity."""

import dataclasses
import gc
import re
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queencover import (
    BoardSpec,
    Configuration,
    DomainError,
    InvariantError,
    NotStableError,
    UnboundedLossError,
    attack_field,
    board_contains,
    center_loss,
    center_loss_of_square,
    centralize,
    cover_count,
    crossing_budget,
    internal_loss,
    internal_loss_stable,
    is_nonattacking,
    is_stable_board,
    noncongruent_pairs,
    overlap_concentration,
    predicted_cover,
    quarter_squares,
    stairs,
    total_loss,
)

import queencover.loss
from queencover.coverage import pair_crossings
from queencover.loss import LossBreakdown, stable_board

from conftest import (
    brute_attack_number,
    brute_attacks,
    brute_center_distance,
    brute_cover,
    brute_images,
    random_config,
    random_nonattacking,
)

KNIGHT = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])
PAIR = Configuration.of([(0, 0), (1, 2)])


def test_internal_loss_examples():
    assert internal_loss(KNIGHT, BoardSpec(10)) == 48
    assert internal_loss(Configuration.of([(0, 0)]), BoardSpec(9)) == 0
    assert internal_loss(PAIR, BoardSpec(20)) == 10


def test_internal_loss_stable_examples():
    assert internal_loss_stable(PAIR) == 10
    assert internal_loss_stable(Configuration.of([(0, 0), (1, 3)])) == 12
    assert internal_loss_stable(KNIGHT) == 48


def test_internal_loss_stable_rejects_attacking():
    with pytest.raises(UnboundedLossError):
        internal_loss_stable(Configuration.of([(0, 0), (3, 3)]))


def test_internal_loss_stable_certification_fires_on_a_short_board(monkeypatch):
    # A board 4 short of the stable one leaves crossings of this pair off
    # B_n, so the value on B_n and the check on B_{n + 2} disagree.
    real = queencover.loss.stable_board
    monkeypatch.setattr(queencover.loss, "stable_board", lambda config, odd: BoardSpec(real(config, odd).n - 4))
    with pytest.raises(InvariantError, match=re.escape("internal loss not stable at n=21: 6 != 9")):
        internal_loss_stable(Configuration.of([(-4, -4), (4, 3)]))


def test_internal_loss_stable_translation_and_symmetry_invariant(rng):
    board = BoardSpec(9)
    for q in (2, 3, 5):
        config = random_nonattacking(rng, q, lo=-3, hi=3)
        reference = internal_loss_stable(config)
        assert internal_loss_stable(config.translate(17, -6)) == reference
        for image in brute_images(config, board):
            assert internal_loss_stable(Configuration(image)) == reference


def _squares_within(rho):
    side = st.integers(-rho, rho + 1)
    return st.lists(st.tuples(side, side), min_size=1, max_size=6)


def _stable_reference(config, board):
    """Feasible, non-attacking, and every pair crossing on the board."""
    pairs = list(combinations(config.queens, 2))
    return (
        all(board_contains(board, s) for s in config.queens)
        and not any(brute_attacks(a, b) for a, b in pairs)
        and all(board_contains(board, s) for a, b in pairs for s in pair_crossings(a, b))
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 45), st.integers(0, 4).flatmap(_squares_within))
def test_is_stable_board_matches_per_crossing_reference(n, squares):
    # Radius-4 boxes on sides 1..45 put the crossings (|coordinate| up to 12)
    # on and off the board.  The drawn configuration may attack; its
    # non-attacking part (each square no earlier kept one attacks) reaches
    # the crossing test.
    kept = []
    for s in squares:
        if s not in kept and not any(brute_attacks(s, c) for c in kept):
            kept.append(s)
    board = BoardSpec(n)
    for config in (Configuration.of(set(squares)), Configuration.of(kept)):
        assert is_stable_board(config, board) == _stable_reference(config, board)


def test_is_stable_board_reference_sees_both_outcomes(rng):
    outcomes = set()
    for n in (9, 13, 19, 25, 31):
        board = BoardSpec(n)
        for q in (2, 3, 4, 5):
            config = random_nonattacking(rng, q, lo=-3, hi=3)
            expected = _stable_reference(config, board)
            assert is_stable_board(config, board) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4).flatmap(_squares_within), st.booleans())
def test_stable_board_holds_every_pair_crossing(squares, odd):
    # Keep each drawn square that no earlier kept one attacks.  Drawing from
    # a box with an edge at rho + 1 puts queens where the even rule is tight.
    kept = []
    for s in squares:
        if s not in kept and not any(brute_attacks(s, c) for c in kept):
            kept.append(s)
    config = Configuration.of(kept)
    board = stable_board(config, odd)
    assert board.is_odd == odd
    assert is_stable_board(config, board)


@pytest.mark.parametrize("odd", [True, False])
def test_stable_board_sides_are_pinned(odd):
    # Stability alone would also pass a larger board, so the sides are exact.
    # The farthest queen sits on either side of the center: on an even board
    # x = rho + 1 and x = -rho are both rho from the central squares.
    near = 0 if odd else 1
    for rho in range(21):
        side = max(6 * rho + 1, 9) if odd else max(6 * rho + 4, 10)
        for far in (rho + near, -rho):
            for queens in ({(far, 0)}, {(0, far)}, {(far, far)}, {(0, 0), (far, -rho)}):
                board = stable_board(Configuration.of(queens), odd)
                assert board.n == side, (rho, queens)


def test_center_loss_of_square_examples():
    assert center_loss_of_square((0, 0), BoardSpec(9)) == 0
    assert center_loss_of_square((0, 0), BoardSpec(10)) == 1
    assert center_loss_of_square((2, 1), BoardSpec(12)) == 3
    with pytest.raises(DomainError):
        center_loss_of_square((9, 9), BoardSpec(9))


def test_center_loss_of_square_matches_brute_force():
    for n in (7, 8, 11, 12):
        board = BoardSpec(n)
        base = 0 if n % 2 else 1
        for s in board.squares():
            assert center_loss_of_square(s, board) == base + 2 * brute_center_distance(board, s)


def test_center_loss_examples():
    assert center_loss(KNIGHT, BoardSpec(12)) == 12
    assert center_loss(Configuration.of([(0, 0)]), BoardSpec(9)) == 0
    stairs8 = centralize(stairs(8), BoardSpec(27))
    assert {center_loss(c, BoardSpec(27)) for c in stairs8} == {50}


def test_total_loss_examples():
    assert total_loss(KNIGHT, BoardSpec(12)).total == 60
    stairs2 = centralize(stairs(2), BoardSpec(15))[0]
    assert total_loss(stairs2, BoardSpec(15)).total == 14
    single = total_loss(Configuration.of([(0, 0)]), BoardSpec(9))
    assert single.total == 0 and single.stable


@pytest.mark.parametrize("n", [9, 10])
def test_off_board_queens_raise_domain_error(n):
    board = BoardSpec(n)
    for off in ((board.hi + 1, 0), (0, board.lo - 1)):
        config = Configuration.of([(0, 0), off])
        with pytest.raises(DomainError, match=re.escape(f"square {off} is not on B_{n}")):
            center_loss(config, board)
        for fn in (total_loss, predicted_cover):
            with pytest.raises(DomainError, match="total loss requires all queens on board"):
                fn(config, board)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_total_loss_matches_brute_force(data):
    # Every field of the breakdown against per-square scans, on boards of
    # both parities; predicted_cover against the brute cover when stable.
    board = BoardSpec(data.draw(st.integers(1, 30)))
    coord = st.integers(board.lo, board.hi)
    config = Configuration.of(data.draw(st.sets(st.tuples(coord, coord), max_size=8)))
    attacked = [a for a in (brute_attack_number(config, s) for s in board.squares()) if a >= 1]
    base = 0 if board.is_odd else 1
    e = sum(1 for x, y in config.queens if (x - y) % 2 == 0)
    o = config.q - e
    internal = sum(a - 1 for a in attacked)
    central = sum(base + 2 * brute_center_distance(board, s) for s in config.queens)
    stable = _stable_reference(config, board)
    assert total_loss(config, board) == LossBreakdown(
        internal=internal,
        central=central,
        total=internal + central,
        crossing_budget=12 * (e * (e - 1) // 2 + o * (o - 1) // 2) + 10 * e * o,
        overlap_concentration=sum(a * (a - 1) // 2 - (a - 1) for a in attacked),
        even_count=e,
        odd_count=o,
        stable=stable,
    )
    if stable:
        assert predicted_cover(config, board) == brute_cover(config, board)
    else:
        with pytest.raises(NotStableError):
            predicted_cover(config, board)


def test_crossing_budget_examples():
    assert crossing_budget(2, 2) == 64
    assert crossing_budget(1, 0) == 0
    assert crossing_budget(3, 2) == 108


def test_overlap_concentration_examples():
    board = BoardSpec(25)
    assert overlap_concentration(KNIGHT, board) == 16
    assert overlap_concentration(Configuration.of([(0, 0)]), board) == 0
    assert overlap_concentration(PAIR, board) == 0


def test_quarter_squares():
    assert [quarter_squares(q) for q in range(1, 10)] == [0, 1, 2, 4, 6, 9, 12, 16, 20]
    with pytest.raises(DomainError):
        quarter_squares(0)


def test_noncongruent_pairs_examples():
    assert noncongruent_pairs(Configuration.of([(0, 0), (1, 2), (0, 3), (1, 1)])) == 4
    assert noncongruent_pairs(Configuration.of([(0, 0), (1, 1), (2, 4)])) == 0
    assert noncongruent_pairs(Configuration.of([(0, 0), (1, 2), (0, 3), (1, 1), (4, 0)])) == 6


def test_predicted_cover_examples():
    assert predicted_cover(KNIGHT, BoardSpec(12)) == 120
    assert cover_count(KNIGHT, BoardSpec(12)) == 120
    stairs8 = centralize(stairs(8), BoardSpec(27))[0]
    assert predicted_cover(stairs8, BoardSpec(27)) == 568
    optimal6 = Configuration.of([(-3, -3), (-2, 3), (-1, 0), (0, 2), (1, -1), (2, 1)])
    assert predicted_cover(optimal6, BoardSpec(21)) == 346
    assert cover_count(optimal6, BoardSpec(21)) == 346


def test_predicted_cover_refuses_unstable():
    wide = Configuration.of([(-4, -4), (4, 3)])
    with pytest.raises(NotStableError):
        predicted_cover(wide, BoardSpec(9))
    with pytest.raises(NotStableError):
        predicted_cover(Configuration.of([(0, 0), (2, 2)]), BoardSpec(31))


def test_decomposition_identity_exhaustive_pairs():
    # All non-attacking pairs anchored at the origin within Chebyshev radius 5.
    board = BoardSpec(25)
    for dx in range(-5, 6):
        for dy in range(-5, 6):
            pair = {(0, 0), (dx, dy)}
            if len(pair) < 2:
                continue
            config = Configuration.of(pair)
            if not is_stable_board(config, board):
                continue
            e, o = config.parity_counts
            assert internal_loss(config, board) == crossing_budget(e, o) - overlap_concentration(
                config, board
            )


def test_decomposition_identity_random(rng):
    board = BoardSpec(33)
    for q in (3, 4, 6, 8):
        for _ in range(25):
            config = random_nonattacking(rng, q)
            e, o = config.parity_counts
            assert internal_loss(config, board) == crossing_budget(e, o) - overlap_concentration(
                config, board
            )


def test_pair_law_within_radius_8():
    checked = 0
    for dx in range(0, 9):
        for dy in range(-8, 9):
            other = (dx, dy)
            if other == (0, 0):
                continue
            config = Configuration.of([(0, 0), other])
            if not is_nonattacking(config):
                continue
            # Non-congruent: (0,0) and other differ in the parity of x - y.
            expected = 10 if config.parity_counts == (1, 1) else 12
            assert internal_loss_stable(config) == expected
            checked += 1
    assert checked > 80


def test_quarter_squares_is_the_balance_maximum():
    window = [(x, y) for x in range(5) for y in range(5)]
    for q in range(1, 7):
        best = max(
            noncongruent_pairs(Configuration.of(subset))
            for subset in combinations(window, q)
        )
        assert best == quarter_squares(q)


def test_cover_identity_on_random_stable_instances(rng):
    for _ in range(60):
        q = rng.choice([2, 3, 4, 5])
        config = random_nonattacking(rng, q, lo=-3, hi=3)
        n = rng.choice([21, 23, 24, 26])
        board = BoardSpec(n)
        breakdown = total_loss(config, board)
        assert breakdown.stable
        assert cover_count(config, board) == (4 * n - 3) * q - breakdown.total


def test_equal_internal_loss_pairs_balance_against_overlap(rng):
    # Configurations with equal internal loss differ equally in crossing
    # budget and overlap concentration.
    board = BoardSpec(33)
    samples = [random_nonattacking(rng, 4) for _ in range(40)]
    by_loss: dict[int, list[Configuration]] = {}
    for c in samples:
        by_loss.setdefault(internal_loss(c, board), []).append(c)
    compared = 0
    for group in by_loss.values():
        for a, b in zip(group, group[1:]):
            ga = crossing_budget(*a.parity_counts)
            gb = crossing_budget(*b.parity_counts)
            ea = overlap_concentration(a, board)
            eb = overlap_concentration(b, board)
            assert gb - ga == eb - ea
            compared += 1
    assert compared > 0


def _outcome(kernel, *args):
    """A kernel's value, or the type and message of what it raised."""
    try:
        return kernel(*args)
    except (DomainError, NotStableError, UnboundedLossError) as e:
        return type(e).__name__, str(e)


KERNELS = {
    "cover": lambda c, b: _outcome(cover_count, c, b),
    "histogram": lambda c, b: _outcome(lambda: attack_field(c, b).histogram()),
    "max_count": lambda c, b: _outcome(lambda: attack_field(c, b).max_count()),
    "internal": lambda c, b: _outcome(internal_loss, c, b),
    "overlap": lambda c, b: _outcome(overlap_concentration, c, b),
    "total": lambda c, b: _outcome(total_loss, c, b),
    "internal_stable": lambda c, b: _outcome(internal_loss_stable, c),
    "predicted": lambda c, b: _outcome(predicted_cover, c, b),
}


def _fingerprint(config):
    return hash(config), repr(config), dataclasses.asdict(config)


@pytest.mark.parametrize("n", [1, 2, 9, 14, 31, 40])
def test_shared_evaluation_is_invisible(n, rng):
    # The kernels share one configuration object's masks, field, frequency
    # table and flags; in any order, and twice over, each returns what it
    # returns alone on a fresh equal configuration, and the configuration
    # itself looks the same.
    board = BoardSpec(n)
    names = list(KERNELS)
    outcomes = set()
    for q in range(1, 10):
        configs = [random_nonattacking(rng, q)]
        if q <= n * n:
            configs.append(random_config(rng, board, q))
        for config in configs:
            alone = {name: KERNELS[name](Configuration(config.queens), board) for name in names}
            shared = Configuration(config.queens)
            before = _fingerprint(shared)
            for _ in range(2):
                rng.shuffle(names)
                for name in names:
                    assert KERNELS[name](shared, board) == alone[name], (name, config, n)
            assert shared == config
            assert _fingerprint(shared) == before
            outcomes |= {type(v).__name__ for v in alone.values()}
    # Off-board, attacking and unstable configurations raise; others return.
    assert {"int", "LossBreakdown", "tuple"} <= outcomes


def test_shared_evaluation_keeps_only_the_last_configuration():
    board = BoardSpec(15)
    a = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])
    b = Configuration(a.queens)
    field = attack_field(a, board)
    assert attack_field(a, board) is field
    for config in (a, b):
        for kernel in KERNELS.values():
            kernel(config, board)
    # Keyed by identity, not value: the equal b built its own field.
    assert attack_field(b, board) is not field
    ref = weakref.ref(a)
    del a, field
    gc.collect()
    assert ref() is None


def test_is_stable_board_leaves_the_slot_alone():
    # Only coverage reads the slot: a stability check on another
    # configuration neither builds an entry nor evicts the held one.
    board = BoardSpec(15)
    a = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])
    b = Configuration.of([(0, 0), (1, 2)])
    field = attack_field(a, board)
    assert is_stable_board(b, board)
    assert attack_field(a, board) is field
