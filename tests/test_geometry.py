"""Board coordinates, borders, center distances and the symmetry group."""

import pytest

from queencover import (
    BoardSpec,
    BoardTooSmallError,
    DomainError,
    Transform,
    all_transforms,
    apply_transform,
    board_contains,
    border_squares,
    chebyshev_center_distance,
    parity_of,
)
from queencover.geometry import TRANSFORM_KINDS, transform_square

from conftest import brute_center_distance


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


def test_border_listings():
    assert border_squares(BoardSpec(2)) == set(BoardSpec(2).squares())
    assert border_squares(BoardSpec(3)) == set(BoardSpec(3).squares()) - {(0, 0)}
    assert len(border_squares(BoardSpec(10))) == 36


def test_border_cardinality_and_definition():
    for n in range(2, 41):
        border = border_squares(BoardSpec(n))
        assert len(border) == 4 * n - 4
        if n > 2:
            inner = set(BoardSpec(n - 2).squares())
            assert border == set(BoardSpec(n).squares()) - inner


def test_border_requires_n_at_least_2():
    with pytest.raises(BoardTooSmallError):
        border_squares(BoardSpec(1))


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


def test_parity_examples():
    assert parity_of((0, 0)) == "even"
    assert parity_of((1, 2)) == "odd"
    assert parity_of((1, 3)) == "even"


def test_transform_examples():
    assert apply_transform(Transform("rot180"), BoardSpec(9), (2, 1)) == (-2, -1)
    assert apply_transform(Transform("rot90"), BoardSpec(10), (1, 0)) == (1, 1)
    assert apply_transform(Transform("mirror-x"), BoardSpec(9), (2, 1)) == (-2, 1)


def test_transform_validation():
    with pytest.raises(DomainError):
        Transform("rot45")
    with pytest.raises(DomainError):
        transform_square("rot45", 0, (0, 0))
    with pytest.raises(DomainError):
        apply_transform(Transform("rot90"), BoardSpec(3), (5, 5))


def test_transforms_are_board_bijections():
    for n in range(1, 41):
        board = BoardSpec(n)
        squares = set(board.squares())
        for t in all_transforms():
            image = {apply_transform(t, board, s) for s in squares}
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
        identity = _perm("identity", board)
        for kind in TRANSFORM_KINDS:
            p = _perm(kind, board)
            inverses = [u for u in TRANSFORM_KINDS if _compose(_perm(u, board), p) == identity]
            assert len(inverses) == 1
            u = Transform(inverses[0])
            t = Transform(kind)
            for s in board.squares():
                assert apply_transform(u, board, apply_transform(t, board, s)) == s
