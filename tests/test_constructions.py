"""Patterns, the knight-square and stairs families, and centralized placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queencover import (
    BoardSpec,
    Configuration,
    DoesNotFitError,
    DomainError,
    Pattern,
    attack_field,
    attacks,
    center_loss,
    centralize,
    internal_loss_stable,
    is_nonattacking,
    knight_square,
    pattern_of,
    stairs,
    stairs_details,
)
from queencover.constructions import canonical_offsets, pattern_center_loss

from conftest import brute_canonical, random_nonattacking


def test_pattern_normalization():
    p = Pattern.of([(3, 5), (4, 7)])
    assert p.offsets == ((0, 0), (1, 2))
    assert p.width == 2 and p.height == 3
    with pytest.raises(DomainError):
        Pattern.of([])
    with pytest.raises(DomainError):
        Pattern(((1, 1), (2, 3)))  # not normalized


def test_pattern_canonical_is_symmetry_invariant():
    p = Pattern.of([(0, 0), (1, 2), (3, 1)])
    mirrored = Pattern.of([(-x, y) for x, y in p.offsets])
    rotated = Pattern.of([(-y, x) for x, y in p.offsets])
    assert p.canonical() == mirrored.canonical() == rotated.canonical()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=10))
def test_pattern_canonical_is_least_symmetry_image(squares):
    pattern = Pattern.of(squares)
    assert pattern.canonical() == brute_canonical(pattern)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=10))
def test_canonical_offsets_is_least_symmetry_image(squares):
    # Squares anywhere, not normalized: the helper normalizes them itself.
    squares = sorted(set(squares))
    assert canonical_offsets(squares) == brute_canonical(Pattern.of(squares)).offsets


def test_pattern_of_refuses_non_int_coordinates():
    for squares in ([(1.7, 0), (0, 0.2)], [(1.0, 0)], [(True, 0)], [(0, "1")]):
        with pytest.raises(DomainError):
            Pattern.of(squares)


def test_knight_square_structure():
    pattern = knight_square()
    config = Configuration.of(pattern.offsets)
    assert config.q == 4
    assert is_nonattacking(config)
    # consecutive queens form a 4-cycle of knight moves
    for queen in config:
        neighbors = [
            other
            for other in config
            if other != queen
            and sorted((abs(queen[0] - other[0]), abs(queen[1] - other[1]))) == [1, 2]
        ]
        assert len(neighbors) == 2
    assert internal_loss_stable(config) == 48


def test_knight_square_crossings_confined_to_central_8x8():
    config = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])
    field = attack_field(config, BoardSpec(20))
    charged = [
        s for s in BoardSpec(20).squares() if field.count(s) >= 2
    ]
    assert charged
    assert all(-3 <= x <= 4 and -3 <= y <= 4 for x, y in charged)


def test_stairs_small_values():
    assert internal_loss_stable(Configuration.of(stairs(2).offsets)) == 10
    assert internal_loss_stable(Configuration.of(stairs(4).offsets)) == 48
    build = stairs_details(8)
    assert (build.internal, build.total_odd) == (222, 272)
    with pytest.raises(DomainError):
        stairs(1)


def test_stairs_nonattacking_and_bounded():
    for q in range(2, 17):
        pattern = stairs(q)
        config = Configuration.of(pattern.offsets)
        assert config.q == q
        assert is_nonattacking(config)
        assert sorted((pattern.width, pattern.height)) <= [q, q + 1]


def test_centralize_single_queen():
    single = Pattern.of([(0, 0)])
    assert centralize(single, BoardSpec(9)) == (Configuration.of([(0, 0)]),)
    placements = centralize(single, BoardSpec(10))
    assert len(placements) == 4
    assert {p.queens[0] for p in placements} == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_centralize_knight_square():
    placements = centralize(knight_square(), BoardSpec(12))
    assert placements
    assert {center_loss(c, BoardSpec(12)) for c in placements} == {12}
    assert Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)]) in placements


def test_centralize_does_not_fit():
    with pytest.raises(DoesNotFitError):
        centralize(Pattern.of([(0, 0), (9, 9)]), BoardSpec(5))


def _brute_min_center_loss(pattern, board):
    best = None
    ties = []
    for ax in range(board.lo, board.hi - pattern.width + 2):
        for ay in range(board.lo, board.hi - pattern.height + 2):
            c = pattern.place(ax, ay)
            v = center_loss(c, board)
            if best is None or v < best:
                best, ties = v, [c]
            elif v == best:
                ties.append(c)
    return best, sorted(ties, key=lambda c: c.queens)


def test_centralize_matches_translation_scan(rng):
    for n in (7, 8, 11, 12):
        board = BoardSpec(n)
        for q in (1, 2, 3, 4):
            pattern = pattern_of(random_nonattacking(rng, q, lo=0, hi=4))
            want_value, want = _brute_min_center_loss(pattern, board)
            got = centralize(pattern, board)
            assert list(got) == want
            assert {center_loss(c, board) for c in got} == {want_value}


def test_pattern_center_loss_matches_scan(rng):
    for q in (1, 2, 3, 5):
        pattern = pattern_of(random_nonattacking(rng, q, lo=0, hi=5))
        for odd in (True, False):
            board = BoardSpec(31 if odd else 32)
            want_value, _ = _brute_min_center_loss(pattern, board)
            assert pattern_center_loss(pattern, odd) == want_value


def test_tight_fit_placements_are_still_minimal():
    # Pattern nearly filling the board exercises the feasibility fallback.
    pattern = Pattern.of([(0, 0), (1, 2), (4, 3)])
    board = BoardSpec(5)
    want_value, want = _brute_min_center_loss(pattern, board)
    got = centralize(pattern, board)
    assert list(got) == want


def test_stairs_sequences_step_by_knight_moves():
    for q in (5, 9, 12):
        shift = stairs_details(q).shift
        offsets = set(stairs_details(q).pattern.offsets)
        assert len(offsets) == q
        # the generator guarantees two (1,2)-step chains; verify knight links exist
        links = sum(
            1
            for a in offsets
            for b in offsets
            if (b[0] - a[0], b[1] - a[1]) == (1, 2)
        )
        assert links >= q - 2
        assert not any(
            attacks(a, b) for a in offsets for b in offsets if a < b
        )
        assert isinstance(shift, tuple) and len(shift) == 2
