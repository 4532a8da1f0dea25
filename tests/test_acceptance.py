"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The q=8/9 windowed tier
takes about half a minute and runs with the rest; `-m "not heavy"` skips it.
"""

import functools
import random
import time
from itertools import combinations

import pytest

from queencover import (
    BoardSpec,
    Configuration,
    SearchParams,
    all_transforms,
    apply_transform,
    attack_field,
    border_certificate,
    cover_count,
    crossing_budget,
    exhaustive_optimal,
    internal_loss_stable,
    is_nonattacking,
    is_stable_board,
    loss_minimal_patterns,
    noncongruent_pairs,
    nonattacking_threshold,
    parity_of,
    pattern_of,
    quarter_squares,
    stabilizing_threshold,
    stairs_details,
    total_loss,
    windowed_optimal,
)

from conftest import brute_attacks, random_nonattacking
from expected_sets import Q2_EVEN, Q2_ODD, Q3_EVEN, Q3_ODD, Q4_EVEN, Q4_ODD, Q6_ODD_REPRESENTATIVE
from expected_sets import Q9_N28_WITNESS

TABLE1 = {
    2: (10, 4, 14, 4, 14),
    3: (27, 8, 35, 7, 34),
    4: (48, 12, 60, 12, 60),
    5: (76, 16, 92, 17, 93),
    6: (116, 26, 142, 26, 142),
    7: (158, 32, 190, 33, 191),
    8: (222, 50, 272, 50, 272),
    9: (277, 60, 337, 59, 336),
    10: (340, 70, 410, 70, 410),
    11: (410, 80, 490, 81, 491),
    12: (496, 100, 596, 100, 596),
    13: (580, 112, 692, 113, 693),
    14: (698, 144, 842, 144, 842),
    15: (791, 160, 951, 159, 950),
    16: (896, 176, 1072, 176, 1072),
}

KNIGHT = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])


# Two heavy tests read windowed (9,28); the cache runs that search once.
_windowed = functools.lru_cache(maxsize=None)(windowed_optimal)


def _report(name: str, started: float):
    print(f"\n[acceptance] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def _sizes(result):
    return sorted((c.orbit_size for c in result.classes), reverse=True)


def _configs(result):
    return sorted(c.queens for c in result.configurations)


def _frozen(rows):
    return sorted(tuple(sorted(r)) for r in rows)


def test_criterion_1_stairs_loss_table():
    started = time.perf_counter()
    internal_column = [10, 27, 48, 76, 116, 158, 222, 277, 340, 410, 496, 580, 698, 791, 896]
    for q in range(2, 17):
        build = stairs_details(q)
        internal, cen_odd, total_odd, cen_even, total_even = TABLE1[q]
        assert build.internal == internal == internal_column[q - 2], f"q={q}"
        assert build.center_odd == cen_odd, f"q={q}"
        assert build.total_odd == total_odd, f"q={q}"
        assert build.center_even == cen_even, f"q={q}"
        assert build.total_even == total_even, f"q={q}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"loss table took {elapsed:.1f}s, target is under a minute"
    _report("criterion 1 (stairs loss table, q=2..16)", started)


def test_criterion_2_exhaustive_tier():
    started = time.perf_counter()
    result = exhaustive_optimal(SearchParams(q=2, n=10))
    assert _sizes(result) == [8, 8] and _configs(result) == _frozen(Q2_EVEN)
    result = exhaustive_optimal(SearchParams(q=2, n=11))
    assert _sizes(result) == [8, 8] and _configs(result) == _frozen(Q2_ODD)

    result = exhaustive_optimal(SearchParams(q=3, n=12))
    assert _sizes(result) == [8] and _configs(result) == _frozen(Q3_EVEN)
    result = exhaustive_optimal(SearchParams(q=3, n=13))
    assert _sizes(result) == [8, 8, 8, 8] and _configs(result) == _frozen(Q3_ODD)

    result = exhaustive_optimal(SearchParams(q=4, n=15))
    assert _sizes(result) == [8] and _configs(result) == _frozen(Q4_ODD)
    result = exhaustive_optimal(SearchParams(q=4, n=16))
    assert _sizes(result) == [8, 2] and _configs(result) == _frozen(Q4_EVEN)
    _report("criterion 2 (exhaustive tier q<=4)", started)


def _assert_loss_duality(q, radius, odd_result, even_result):
    """Cross-oracle duality: the cover-free loss route finds the same patterns.

    On each parity, min_total == (4n - 3) q - max_cover, and the loss-minimal
    patterns are the canonical patterns of the windowed optima.
    """
    scan = loss_minimal_patterns(q, radius)
    for side, result in ((scan.odd, odd_result), (scan.even, even_result)):
        n = result.params.n
        assert side.min_total == (4 * n - 3) * q - result.max_cover, (q, n)
        cover_patterns = {pattern_of(c).canonical().offsets for c in result.configurations}
        assert cover_patterns == {p.offsets for p in side.patterns}, (q, n)


def test_criterion_3_windowed_tier_standard():
    started = time.perf_counter()
    odd5 = windowed_optimal(SearchParams(q=5, n=17, mode="windowed"))
    assert _sizes(odd5) == [8, 2] and len(odd5.configurations) == 10
    even5 = windowed_optimal(SearchParams(q=5, n=18, mode="windowed"))
    assert _sizes(even5) == [8] * 5 and len(even5.configurations) == 40
    _assert_loss_duality(5, 4, odd5, even5)

    odd6 = windowed_optimal(SearchParams(q=6, n=21, mode="windowed"))
    assert odd6.max_cover == 346
    assert _sizes(odd6) == [8] * 4 and len(odd6.configurations) == 32
    assert Configuration.of(Q6_ODD_REPRESENTATIVE) in odd6.configurations
    even6 = windowed_optimal(SearchParams(q=6, n=22, mode="windowed"))
    assert even6.max_cover == 370
    assert _sizes(even6) == [8] * 4 and len(even6.configurations) == 32
    _assert_loss_duality(6, 5, odd6, even6)

    odd7 = windowed_optimal(SearchParams(q=7, n=25, mode="windowed"))
    assert _sizes(odd7) == [8, 8, 8, 4, 4] and len(odd7.configurations) == 32
    even7 = windowed_optimal(SearchParams(q=7, n=24, mode="windowed"))
    assert len(even7.configurations) == 128
    _assert_loss_duality(7, 5, odd7, even7)
    _report("criterion 3 (windowed tier q=5..7)", started)


@pytest.mark.heavy
def test_criterion_3_windowed_tier_heavy():
    started = time.perf_counter()
    even8 = windowed_optimal(SearchParams(q=8, n=28, mode="windowed", window=11))
    assert _sizes(even8) == [8] * 6 and len(even8.configurations) == 48
    odd8 = windowed_optimal(SearchParams(q=8, n=29, mode="windowed", window=11))
    assert _sizes(odd8) == [8] * 6 and len(odd8.configurations) == 48

    odd9 = windowed_optimal(SearchParams(q=9, n=31, mode="windowed"))
    assert len(odd9.configurations) == 64
    assert _sizes(odd9) == [8] * 7 + [4, 4]
    even9 = _windowed(SearchParams(q=9, n=28, mode="windowed"))
    assert len(even9.configurations) == 256

    _assert_loss_duality(8, 5, odd8, even8)
    _assert_loss_duality(9, 5, odd9, even9)
    _report("criterion 3 heavy (windowed tier q=8..9)", started)


@pytest.mark.heavy
def test_windowed_q9_n28_misses_a_full_board_witness():
    # The witness covers the window's maximum from outside it, so the
    # windowed (9,28) set is not the full board's (see test_search).
    even9 = _windowed(SearchParams(q=9, n=28, mode="windowed"))
    assert even9.max_cover == 660 and even9.window_used == 12
    assert Configuration.of(Q9_N28_WITNESS) not in even9.configurations


def test_criterion_4_threshold_scans():
    started = time.perf_counter()
    assert nonattacking_threshold(2, 4, 14).n1_candidate == 9
    assert nonattacking_threshold(3, 4, 14).n1_candidate == 8
    assert nonattacking_threshold(4, 5, 13).n1_candidate == 10

    assert stabilizing_threshold(2, 6, 16).n2_combined == 10
    assert stabilizing_threshold(3, 6, 18).n2_combined == 12
    assert stabilizing_threshold(4, 8, 20).n2_combined == 15
    _report("criterion 4 (threshold scans)", started)


def test_criterion_5_knight_square_finite_verification():
    started = time.perf_counter()
    for n in (11, 12):
        result = exhaustive_optimal(SearchParams(q=4, n=n))
        assert KNIGHT in result.configurations, f"knight square not optimal at n={n}"
        assert cover_count(KNIGHT, BoardSpec(n)) == result.max_cover

    field = attack_field(KNIGHT, BoardSpec(20))
    charged = [s for s in BoardSpec(20).squares() if field.count(s) >= 2]
    assert charged and all(-3 <= x <= 4 and -3 <= y <= 4 for x, y in charged)

    assert border_certificate(KNIGHT, BoardSpec(11))
    _report("criterion 5 (knight-square optimal at n=11,12)", started)


def test_criterion_6_property_suites():
    started = time.perf_counter()
    rng = random.Random(987654321)
    board = BoardSpec(41)

    # Decomposition identity, exhaustive for q <= 3 over a 10x10 window.
    # Translating a configuration flips every queen parity together, which
    # swaps the (symmetric) crossing budget arguments and moves crossings
    # rigidly, so each window configuration is checked once, translated so
    # that its lexicographically least queen sits at (0,0). The other queens
    # then lie at x in [0,9], y in [-9,9], and the y-values of all queens,
    # the anchor's 0 included, span at most 9: that is the condition for
    # fitting a 10x10 window. It matters because the identity only holds when
    # every pair crossing lands on B_41; without the span limit some
    # configurations, e.g. (0,0), (9,-8), (1,9) with a crossing at (26,9),
    # leave the board and break the identity's premise.
    partners = [(x, y) for x in range(10) for y in range(-9, 10) if (x, y) > (0, 0)]
    anchored = [((0, 0),)]
    anchored += [((0, 0), s) for s in partners]
    anchored += [
        ((0, 0), a, b)
        for a, b in combinations(partners, 2)
        if max(0, a[1], b[1]) - min(0, a[1], b[1]) <= 9
    ]
    anchored = [queens for queens in anchored if is_nonattacking(Configuration.of(queens))]

    # The anchored set is exactly the translation classes of the non-attacking
    # 1..3-queen subsets of [0,9]^2, judged by the independent brute oracle.
    def anchor(queens):
        x0, y0 = min(queens)
        return tuple(sorted((x - x0, y - y0) for x, y in queens))

    window = [(x, y) for x in range(10) for y in range(10)]
    classes = {
        anchor(subset)
        for k in (1, 2, 3)
        for subset in combinations(window, k)
        if not any(brute_attacks(a, b) for a, b in combinations(subset, 2))
    }
    assert classes == set(anchored)

    checked = 0
    max_attack = 0
    for queens in anchored:
        config = Configuration.of(queens)
        assert is_stable_board(config, board), f"{queens} has a crossing off B_41"
        field = attack_field(config, board)
        e, o = config.parity_counts
        assert field.internal_loss() == crossing_budget(e, o) - field.overlap_concentration()
        max_attack = max(max_attack, field.max_count())
        checked += 1
    assert checked > 3000

    # Randomized for 4 <= q <= 8, at least 10^4 samples in total.
    samples = 0
    for q in (4, 5, 6, 7, 8):
        for _ in range(2000):
            config = random_nonattacking(rng, q)
            field = attack_field(config, board)
            e, o = config.parity_counts
            assert field.internal_loss() == crossing_budget(e, o) - field.overlap_concentration()
            max_attack = max(max_attack, field.max_count())
            samples += 1
    assert samples >= 10_000
    assert max_attack <= 4  # non-attacking configurations never stack five attacks

    # Cover identity on 10^3 random stable instances, exact.
    identity_checked = 0
    while identity_checked < 1000:
        q = rng.choice([2, 3, 4, 5, 6])
        config = random_nonattacking(rng, q, lo=-3, hi=3)
        n = rng.choice([17, 19, 20, 22, 25])
        b = BoardSpec(n)
        breakdown = total_loss(config, b)
        if not breakdown.stable:
            continue
        assert cover_count(config, b) == (4 * n - 3) * q - breakdown.total
        identity_checked += 1

    # Pair law: stable internal loss is 10 for non-congruent pairs, else 12.
    pairs_checked = 0
    for dx in range(0, 9):
        for dy in range(-8, 9):
            if (dx, dy) == (0, 0):
                continue
            config = Configuration.of([(0, 0), (dx, dy)])
            if not is_nonattacking(config):
                continue
            expected = 10 if parity_of((0, 0)) != parity_of((dx, dy)) else 12
            assert internal_loss_stable(config) == expected
            pairs_checked += 1
    assert pairs_checked > 80

    # Quarter-squares bound, exhaustive for q <= 6 on a 5x5 window.
    grid = [(x, y) for x in range(5) for y in range(5)]
    for q in range(1, 7):
        best = max(
            noncongruent_pairs(Configuration.of(subset))
            for subset in combinations(grid, q)
        )
        assert best == quarter_squares(q)

    # Cover invariance under all eight board symmetries, 10^3 instances.
    squares9 = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    squares10 = [(x, y) for x in range(-4, 6) for y in range(-4, 6)]
    for i in range(1000):
        n = 9 if i % 2 else 10
        b = BoardSpec(n)
        pool = squares9 if n == 9 else squares10
        config = Configuration.of(rng.sample(pool, rng.choice([2, 3, 4])))
        reference = cover_count(config, b)
        for t in all_transforms():
            image = Configuration.of(apply_transform(t, b, s) for s in config)
            assert cover_count(image, b) == reference

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"property suites took {elapsed:.1f}s, target is under a minute"
    _report("criterion 6 (property suites)", started)


def test_criterion_7_thresholds_labeled_empirical():
    started = time.perf_counter()
    # The existence theorems themselves are not computable; the artifact only
    # reports range-bounded evidence and must label it as such.
    report = nonattacking_threshold(2, 4, 10)
    assert report.empirical is True
    assert (report.n_lo, report.n_hi) == (4, 10)
    report = stabilizing_threshold(2, 6, 12)
    assert report.empirical is True
    assert all(e.n >= 6 and e.n <= 12 for e in report.entries)
    _report("criterion 7 (finite evidence, empirical labeling)", started)
