"""Attack relations, attack fields and cover counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queencover import (
    BoardSpec,
    Configuration,
    DomainError,
    attack_field,
    cover_count,
    is_nonattacking,
)
from queencover.coverage import AttackField
from queencover.loss import internal_loss, overlap_concentration, stable_board

from conftest import (
    brute_attack_number,
    brute_attacks,
    brute_cover,
    brute_images,
    random_config,
    random_nonattacking,
)

KNIGHT = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])


def test_configuration_sorts_and_rejects_duplicates():
    c = Configuration.of([(2, 1), (-1, 0)])
    assert c.queens == ((-1, 0), (2, 1))
    with pytest.raises(DomainError):
        Configuration.of([(0, 0), (0, 0)])


@pytest.mark.parametrize("squares", [[(1.5, 0)], [(True, 2)], [(0, False)], [(2.0, 1)], [("1", 0)]])
def test_configuration_refuses_non_integer_coordinates(squares):
    # int() used to truncate these: [(1.5, 0), (True, 2)] became ((1, 0), (1, 2)).
    with pytest.raises(DomainError):
        Configuration.of(squares)


def test_translate_moves_every_queen_and_refuses_non_integer_shifts():
    moved = KNIGHT.translate(3, -5)
    assert moved == Configuration.of((x + 3, y - 5) for x, y in KNIGHT)
    assert moved.queens == tuple(sorted(moved.queens))
    for shift in (True, 1.0, "1"):
        with pytest.raises(DomainError):
            KNIGHT.translate(shift, 0)
        with pytest.raises(DomainError):
            KNIGHT.translate(0, shift)


def test_configuration_parity_counts():
    assert Configuration.of([(0, 0), (1, 2), (1, 3)]).parity_counts == (2, 1)
    assert Configuration.of([]).parity_counts == (0, 0)


def test_attacks_examples():
    # The pair oracle the other tests lean on, and the package's pair test.
    for other, attacked in (((0, 5), True), ((3, 3), True), ((1, 2), False)):
        assert brute_attacks((0, 0), other) == attacked
        assert is_nonattacking(Configuration.of([(0, 0), other])) != attacked
    assert not brute_attacks((0, 0), (0, 0))


def test_is_nonattacking_examples():
    assert is_nonattacking(KNIGHT)
    assert not is_nonattacking(Configuration.of([(0, 0), (2, 2)]))
    assert is_nonattacking(Configuration.of([]))


def test_attack_field_single_queen_on_3x3():
    field = attack_field(Configuration.of([(0, 0)]), BoardSpec(3))
    assert field.count((0, 0)) == 0
    for s in BoardSpec(3).squares():
        if s != (0, 0):
            assert field.count(s) == 1


def test_attack_field_knight_square_histogram():
    field = attack_field(KNIGHT, BoardSpec(10))
    hist = field.histogram()
    assert hist[2] == 28
    assert hist[3] == 4
    assert hist[4] == 4


def test_attack_field_empty():
    field = attack_field(Configuration.of([]), BoardSpec(5))
    assert field.histogram() == {}
    assert field.max_count() == 0


def test_attack_field_occupied_square_counts_other_attackers():
    field = attack_field(Configuration.of([(0, 0), (0, 3)]), BoardSpec(9))
    assert field.count((0, 0)) == 1
    assert field.count((0, 3)) == 1


def test_attack_field_accepts_off_board_queens():
    # A queen far to the right still attacks the whole row and a diagonal tail.
    field = attack_field(Configuration.of([(30, 0)]), BoardSpec(5))
    assert field.count((0, 0)) == 1
    assert field.count((1, 1)) == 0
    board = BoardSpec(5)
    config = Configuration.of([(30, 0), (-7, -7)])
    for s in board.squares():
        assert field.count(s) <= 1
        assert attack_field(config, board).count(s) == brute_attack_number(config, s)


def test_cover_count_examples():
    assert cover_count(Configuration.of([(0, 0)]), BoardSpec(3)) == 9
    assert cover_count(Configuration.of([(0, 0)]), BoardSpec(9)) == 33
    assert cover_count(KNIGHT, BoardSpec(12)) == 120
    assert cover_count(Configuration.of([]), BoardSpec(6)) == 0


def test_cover_count_matches_brute_force(rng):
    for n in (3, 6, 9, 14):
        board = BoardSpec(n)
        for q in (1, 2, 4, 6):
            config = random_config(rng, board, q)
            assert cover_count(config, board) == brute_cover(config, board)


def test_cover_count_off_board_queens(rng):
    board = BoardSpec(7)
    for _ in range(20):
        queens = [(rng.randrange(-9, 10), rng.randrange(-9, 10)) for _ in range(3)]
        config = Configuration.of(set(queens))
        assert cover_count(config, board) == brute_cover(config, board)


def test_cover_invariant_under_symmetry(rng):
    for n in (9, 10):
        board = BoardSpec(n)
        for q in (2, 3, 5):
            config = random_config(rng, board, q)
            reference = cover_count(config, board)
            for image in brute_images(config, board):
                assert cover_count(Configuration(image), board) == reference


def test_cover_monotone_in_queens(rng):
    board = BoardSpec(11)
    for _ in range(30):
        config = random_config(rng, board, 5)
        sub = Configuration.of(config.queens[:-1])
        assert cover_count(sub, board) <= cover_count(config, board)


def test_nonattacking_attack_numbers_bounded_by_four(rng):
    board = BoardSpec(25)
    for q in (4, 6, 8):
        for _ in range(10):
            config = random_nonattacking(rng, q)
            assert attack_field(config, board).max_count() <= 4


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cover_count_matches_attack_field(data):
    # Sizes run over 1..40 and change within an example.
    for _ in range(data.draw(st.integers(1, 6))):
        board = BoardSpec(data.draw(st.integers(1, 40)))
        coord = st.integers(board.lo - 2, board.hi + 2)
        config = Configuration.of(data.draw(st.sets(st.tuples(coord, coord), max_size=9)))
        field = attack_field(config, board)
        expected = sum(1 for s in board.squares() if field.count(s) >= 1 or s in config)
        assert cover_count(config, board) == expected == brute_cover(config, board)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_attack_field_matches_brute_attack_numbers(data):
    # Sides run over 1..45, with queens up to two squares off board on every
    # side.
    board = BoardSpec(data.draw(st.integers(1, 45)))
    coord = st.integers(board.lo - 2, board.hi + 2)
    config = Configuration.of(data.draw(st.sets(st.tuples(coord, coord), max_size=9)))
    field = attack_field(config, board)
    brute = {s: brute_attack_number(config, s) for s in board.squares()}
    for s, a in brute.items():
        assert field.count(s) == a
    xs = range(board.lo, board.hi + 1)
    for y in xs:
        assert field.row_counts(y) == [brute[(x, y)] for x in xs]
    for y in (board.lo - 1, board.hi + 1):
        with pytest.raises(DomainError):
            field.row_counts(y)
    attacked = [a for a in brute.values() if a >= 1]
    histogram = {a: attacked.count(a) for a in set(attacked)}
    expected = {
        "internal_loss": sum(a - 1 for a in attacked),
        "overlap_concentration": sum(a * (a - 1) // 2 - (a - 1) for a in attacked),
        "max_count": max(brute.values()),
    }
    # The field builds its frequency table on the first statistic asked:
    # each of these first on a fresh field, then the histogram from it.
    for first, value in expected.items():
        fresh = AttackField(board, field.planes)
        assert getattr(fresh, first)() == value
        assert fresh.histogram() == histogram
    assert field.histogram() == histogram
    for name, value in expected.items():
        assert getattr(field, name)() == value
    assert internal_loss(config, board) == expected["internal_loss"]


@pytest.mark.parametrize("n", range(1, 21))
def test_one_queen_field_is_her_line_union_less_her_square(n):
    # A one-queen field has one plane, her attack mask: the row-major bits of
    # the squares she attacks, brute-tested square by square.  Squares within
    # 3 of B_n cover every kind of off-board line, and n = 1 the degenerate
    # one-bit lines.
    board = BoardSpec(n)
    squares = list(board.squares())
    for x in range(board.lo - 3, board.hi + 4):
        for y in range(board.lo - 3, board.hi + 4):
            expected = sum(1 << k for k, s in enumerate(squares) if brute_attacks((x, y), s))
            planes = attack_field(Configuration.of([(x, y)]), board).planes
            assert planes == ((expected,) if expected else ())


def test_attack_field_matches_brute_attack_numbers_on_stable_boards():
    # Sides 121 and 123, the stable boards n and n + 2 that
    # internal_loss_stable evaluates for a queen 20 squares off center.
    config = Configuration.of([(0, 0), (20, 3), (-7, 20), (5, -20), (-20, -9)])
    assert is_nonattacking(config)
    n = stable_board(config, odd=True).n
    assert n == 121
    for board in (BoardSpec(n), BoardSpec(n + 2)):
        field = attack_field(config, board)
        brute = [brute_attack_number(config, s) for s in board.squares()]
        assert [field.count(s) for s in board.squares()] == brute
        attacked = [a for a in brute if a >= 1]
        assert field.histogram() == {a: attacked.count(a) for a in set(attacked)}
        assert field.internal_loss() == sum(a - 1 for a in attacked)
        assert internal_loss(config, board) == sum(a - 1 for a in attacked)
        assert overlap_concentration(config, board) == sum(a * (a - 1) // 2 - (a - 1) for a in attacked)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=7))
def test_is_nonattacking_matches_brute_pairs(squares):
    config = Configuration.of(squares)
    queens = config.queens
    expected = not any(
        brute_attacks(queens[i], queens[j])
        for i in range(len(queens))
        for j in range(i + 1, len(queens))
    )
    assert is_nonattacking(config) == expected
