"""Board coordinates, borders, center distances and the symmetry group."""

import pytest

from queencover import BoardSpec, DomainError, board_contains, chebyshev_center_distance
from queencover.coverage import border_ring
from queencover.geometry import TRANSFORM_KINDS, transform_square

from conftest import BRUTE_SYMMETRIES, brute_center_distance, brute_ring


def test_small_board_listings():
    assert set(BoardSpec(1).squares()) == {(0, 0)}
    assert set(BoardSpec(2).squares()) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert set(BoardSpec(3).squares()) == {
        (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0), (1, 1)
    }


def test_board_contains_examples():
    assert board_contains(BoardSpec(1), (0, 0))
    assert not board_contains(BoardSpec(2), (-1, 0))
    assert board_contains(BoardSpec(3), (-1, 1))


def test_board_size_and_validation():
    for n in range(1, 41):
        assert len(set(BoardSpec(n).squares())) == n * n
    with pytest.raises(DomainError):
        BoardSpec(0)


@pytest.mark.parametrize("side", [5.0, 5.5, True, False, "5", None])
def test_board_side_must_be_an_int(side):
    # BoardSpec(5.0) used to pass and fail later in cover_count with a
    # TypeError; BoardSpec(True) was a 1x1 board.
    with pytest.raises(DomainError):
        BoardSpec(side)


def _ring_squares(n):
    """The squares of border_ring(n), read off its row-major bits."""
    ring = border_ring(n)
    return {s for k, s in enumerate(BoardSpec(n).squares()) if ring >> k & 1}


def test_border_listings():
    assert _ring_squares(1) == {(0, 0)}
    assert _ring_squares(2) == set(BoardSpec(2).squares())
    assert _ring_squares(3) == set(BoardSpec(3).squares()) - {(0, 0)}
    assert border_ring(10).bit_count() == 36


def test_border_cardinality_and_definition():
    # border_ring is the one border representation: the brute ring as a
    # row-major bitboard, B_1 included.
    for n in range(1, 41):
        board = BoardSpec(n)
        ring = brute_ring(board)
        assert border_ring(n) == sum(1 << k for k, s in enumerate(board.squares()) if s in ring)
        assert len(ring) == max(1, 4 * n - 4)


def test_center_distance_examples():
    assert chebyshev_center_distance(BoardSpec(9), (0, 0)) == 0
    assert chebyshev_center_distance(BoardSpec(12), (2, 1)) == 1
    assert chebyshev_center_distance(BoardSpec(12), (-1, 0)) == 1


def test_center_distance_off_board():
    with pytest.raises(DomainError):
        chebyshev_center_distance(BoardSpec(3), (2, 0))


def test_center_distance_matches_brute_force():
    for n in range(1, 13):
        board = BoardSpec(n)
        for s in board.squares():
            assert chebyshev_center_distance(board, s) == brute_center_distance(board, s)


def test_box_radius_and_side_match_brute_force():
    # box_side(radius) is the side of the squares within that center distance;
    # box_radius(side) is the largest radius whose box fits inside side.
    for n in range(1, 41):
        board = BoardSpec(n)
        dists = [brute_center_distance(board, s) for s in board.squares()]
        assert board.box_radius(n) == max(dists)
        for radius in range(board.box_radius(n) + 1):
            assert sum(d <= radius for d in dists) == board.box_side(radius) ** 2
        for side in range(1, n + 1):
            radius = board.box_radius(side)
            assert board.box_side(radius) <= side or radius == 0
            assert board.box_side(radius + 1) > side


def test_transform_examples():
    assert transform_square("rot180", BoardSpec(9).parity_offset, (2, 1)) == (-2, -1)
    assert transform_square("rot90", BoardSpec(10).parity_offset, (1, 0)) == (1, 1)
    assert transform_square("mirror-x", BoardSpec(9).parity_offset, (2, 1)) == (-2, 1)


def test_transform_validation():
    with pytest.raises(DomainError):
        transform_square("rot45", 0, (0, 0))


def test_transform_square_matches_brute_table():
    assert set(BRUTE_SYMMETRIES) == set(TRANSFORM_KINDS)
    for n in range(1, 41):
        board = BoardSpec(n)
        c = board.lo + board.hi
        for kind in TRANSFORM_KINDS:
            for s in board.squares():
                assert transform_square(kind, board.parity_offset, s) == BRUTE_SYMMETRIES[kind](c, *s)


def test_transforms_are_board_bijections():
    for n in range(1, 41):
        board = BoardSpec(n)
        squares = set(board.squares())
        for kind in TRANSFORM_KINDS:
            image = {transform_square(kind, board.parity_offset, s) for s in squares}
            assert image == squares


def _perm(kind, board):
    squares = sorted(board.squares())
    index = {s: i for i, s in enumerate(squares)}
    return tuple(index[transform_square(kind, board.parity_offset, s)] for s in squares)


def _compose(p, q):
    return tuple(p[i] for i in q)


@pytest.mark.parametrize("n", [5, 6])
def test_transforms_form_the_dihedral_group(n):
    board = BoardSpec(n)
    perms = {kind: _perm(kind, board) for kind in TRANSFORM_KINDS}
    group = set(perms.values())
    assert len(group) == 8
    # closure, identity, inverses, element orders dividing 4
    identity = perms["identity"]
    for p in group:
        for q in group:
            assert _compose(p, q) in group
        power = p
        order = 1
        while power != identity:
            power = _compose(power, p)
            order += 1
        assert order in (1, 2, 4)
    rot = perms["rot90"]
    assert _compose(rot, rot) == perms["rot180"]
    assert _compose(perms["rot180"], perms["rot180"]) == identity
    mirrors = [perms[k] for k in ("mirror-x", "mirror-y", "mirror-diag", "mirror-antidiag")]
    for m in mirrors:
        assert _compose(m, m) == identity


def test_transform_inverse_round_trip():
    for n in (7, 8):
        board = BoardSpec(n)
        offset = board.parity_offset
        identity = _perm("identity", board)
        for kind in TRANSFORM_KINDS:
            p = _perm(kind, board)
            inverses = [u for u in TRANSFORM_KINDS if _compose(_perm(u, board), p) == identity]
            assert len(inverses) == 1
            for s in board.squares():
                assert transform_square(inverses[0], offset, transform_square(kind, offset, s)) == s
