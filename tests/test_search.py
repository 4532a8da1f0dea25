"""Exhaustive and windowed searches, orbit decomposition, thresholds."""

import functools
import hashlib
import os
import pickle
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queencover.coverage
import queencover.loss
import queencover.search
from queencover import (
    BoardSpec,
    BudgetExceededError,
    Configuration,
    DomainError,
    InvariantError,
    SearchParams,
    border_certificate,
    cover_count,
    exhaustive_optimal,
    fundamental_classes,
    run_search,
    is_nonattacking,
    knight_square,
    loss_minimal_patterns,
    nonattacking_threshold,
    pattern_of,
    stabilizing_threshold,
    windowed_optimal,
)
from queencover.geometry import TRANSFORM_KINDS, transform_square
from queencover.search import (
    DEFAULT_BUDGET,
    FundamentalClass,
    _Engine,
    _class_of,
    _engine,
    _finish,
    _loss_scan_parity,
    _orbit_classes,
    _partners,
    _run_problem,
    _selection,
    _stabilizer_skip,
    canonical_pattern_fingerprint,
)

from conftest import (
    BRUTE_SYMMETRIES,
    brute_attack_number,
    brute_attacks,
    brute_center_distance,
    brute_canonical,
    brute_classes,
    brute_cover,
    brute_images,
    brute_orbit,
    brute_ring,
)
from expected_sets import Q2_EVEN, Q2_ODD, Q3_EVEN, Q3_ODD, Q9_N28_WITNESS


def _as_set(configs):
    return sorted(c.queens for c in configs)


def _frozen(rows):
    return sorted(tuple(sorted(r)) for r in rows)


def test_params_validation():
    with pytest.raises(DomainError):
        SearchParams(q=0, n=5)
    with pytest.raises(DomainError):
        SearchParams(q=5, n=2)
    with pytest.raises(DomainError):
        SearchParams(q=2, n=5, mode="windowed", window=9)
    with pytest.raises(DomainError):
        SearchParams(q=2, n=5, mode="annealed")
    for window in (0, -4):
        with pytest.raises(DomainError, match="window must be >= 1"):
            SearchParams(q=2, n=6, mode="windowed", window=window)
    # Stored records reach SearchParams with whatever JSON held.
    for field in ("q", "n", "window", "workers", "budget"):
        for value in ("3", 3.0, True):
            with pytest.raises(DomainError, match=f"{field} must be an integer"):
                SearchParams(**{"q": 2, "n": 6, "mode": "windowed", field: value})
    p = SearchParams(q=2, n=12, mode="windowed")
    assert p.window == 5
    assert SearchParams(q=2, n=12).window is None
    # A window belongs to windowed mode only; exhaustive searches the board.
    with pytest.raises(DomainError, match="window requires mode='windowed'"):
        SearchParams(q=2, n=9, window=5)


def test_each_route_refuses_the_other_mode():
    with pytest.raises(DomainError, match="requires mode='exhaustive'"):
        exhaustive_optimal(SearchParams(q=2, n=5, mode="windowed"))
    with pytest.raises(DomainError, match="requires mode='windowed'"):
        windowed_optimal(SearchParams(q=2, n=5))


def test_default_window_fits_the_board():
    # min(q + 3, n): a board narrower than q + 3 is searched whole.
    result = windowed_optimal(SearchParams(q=5, n=7, mode="windowed"))
    assert result.params.window == 7 and result.window_used == 7


def test_exhaustive_single_queen_center():
    result = exhaustive_optimal(SearchParams(q=1, n=9))
    assert result.max_cover == 33
    assert len(result.classes) == 1
    cls = result.classes[0]
    assert cls.representative == Configuration.of([(0, 0)])
    assert cls.orbit_size == 1 and cls.stabilizer_order == 8


def test_exhaustive_two_queens_even_boards():
    result = exhaustive_optimal(SearchParams(q=2, n=10))
    assert result.max_cover == 60
    assert sorted(c.orbit_size for c in result.classes) == [8, 8]
    assert _as_set(result.configurations) == _frozen(Q2_EVEN)


def test_exhaustive_two_queens_odd_boards():
    result = exhaustive_optimal(SearchParams(q=2, n=11))
    assert sorted(c.orbit_size for c in result.classes) == [8, 8]
    assert _as_set(result.configurations) == _frozen(Q2_ODD)


def test_exhaustive_three_queens_stabilized():
    result = exhaustive_optimal(SearchParams(q=3, n=12))
    assert [c.orbit_size for c in result.classes] == [8]
    assert _as_set(result.configurations) == _frozen(Q3_EVEN)
    result = exhaustive_optimal(SearchParams(q=3, n=13))
    assert sorted(c.orbit_size for c in result.classes) == [8, 8, 8, 8]
    assert _as_set(result.configurations) == _frozen(Q3_ODD)


def test_exhaustive_four_queens_on_9x9_has_attacking_optimum():
    result = exhaustive_optimal(SearchParams(q=4, n=9))
    assert any(not is_nonattacking(c) for c in result.configurations)


def test_windowed_matches_exhaustive_when_optima_are_nonattacking():
    for q in (1, 2, 3):
        for n in range(4, 13):
            if q > n:
                continue
            full = exhaustive_optimal(SearchParams(q=q, n=n))
            windowed = windowed_optimal(SearchParams(q=q, n=n, mode="windowed", window=n))
            if all(is_nonattacking(c) for c in full.configurations):
                assert windowed.max_cover == full.max_cover, (q, n)
                assert _as_set(windowed.configurations) == _as_set(full.configurations)
            else:
                assert windowed.max_cover <= full.max_cover


def test_optimal_sets_closed_under_symmetry():
    board = BoardSpec(11)
    result = exhaustive_optimal(SearchParams(q=2, n=11))
    members = set(_as_set(result.configurations))
    for c in result.configurations:
        for image in brute_images(c, board):
            assert image in members


def test_exhaustive_budget_holds_inside_the_recursion():
    # No subset-count estimate refuses the search up front: it runs until the
    # node budget is spent (the last level may add up to q ties at once).
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_optimal(SearchParams(q=6, n=21, budget=1000))
    assert 1000 < err.value.nodes <= 1000 + 6
    assert err.value.budget == 1000


def test_exhaustive_search_is_not_refused_by_subset_count():
    # C(900, 4) is about 2.7e10 subsets, yet the bound finishes in a few
    # hundred nodes.
    result = exhaustive_optimal(SearchParams(q=4, n=30, budget=10_000))
    assert result.nodes <= 10_000
    assert all(brute_cover(c, BoardSpec(30)) == result.max_cover for c in result.configurations)


def _brute_argmax(subsets, board):
    """Plain enumeration: every subset reaching the largest brute-force cover."""
    scored = [(brute_cover(Configuration.of(s), board), tuple(sorted(s))) for s in subsets]
    top = max(c for c, _ in scored)
    return top, sorted(s for c, s in scored if c == top)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 6)).filter(
        lambda qn: qn[0] <= qn[1] ** 2 and comb(qn[1] ** 2, qn[0]) <= 2500
    )
)
def test_exhaustive_matches_plain_enumeration(qn):
    q, n = qn
    board = BoardSpec(n)
    top, argmax = _brute_argmax(combinations(list(board.squares()), q), board)
    result = exhaustive_optimal(SearchParams(q=q, n=n))
    assert result.max_cover == top
    assert _as_set(result.configurations) == argmax


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(3, 7), st.integers(1, 7)).filter(
        lambda qnw: qnw[2] <= qnw[1]
    )
)
def test_windowed_matches_plain_enumeration(qnw):
    q, n, window = qnw
    board = BoardSpec(n)

    def nonattacking_subsets(squares):
        return [
            c for c in combinations(squares, q)
            if not any(brute_attacks(a, b) for a, b in combinations(c, 2))
        ]

    try:
        result = windowed_optimal(SearchParams(q=q, n=n, mode="windowed", window=window))
    except DomainError:
        assert not nonattacking_subsets(list(board.squares()))
        return
    # The final window is a centered box of side window_used; enumerate its
    # non-attacking q-subsets, counting cover on the whole board.
    used = result.window_used
    radius = (used - 1) // 2 if n % 2 else used // 2 - 1
    box = [s for s in board.squares() if brute_center_distance(board, s) <= radius]
    top, argmax = _brute_argmax(nonattacking_subsets(box), board)
    assert result.max_cover == top
    assert _as_set(result.configurations) == argmax


# Node counts at workers=1, with the second-level stabilizer skips and with
# them turned off.  A change to the branch-and-bound that claims to keep its
# search order and bound must keep these counts exactly; the unskipped counts
# also show that the skips change nothing else in the walk.  The counts follow
# the candidate order (_Engine) and the children's tie order too, so a change
# that reorders either on purpose re-pins both.  The test ids name each case
# by mode, q and n (by q and radius for the loss route), never by a count,
# so a re-pin renames no test.
_COVER_NODES = {
    ("windowed", 5, 17): 205,
    ("windowed", 5, 18): 344,
    ("windowed", 6, 21): 12_179,
    ("windowed", 6, 22): 7_281,
    ("windowed", 7, 24): 16_115,
    ("windowed", 7, 25): 8_546,
    ("exhaustive", 2, 10): 12,
    ("exhaustive", 3, 9): 128,
    ("exhaustive", 4, 30): 213,
}


def _no_stabilizer_skips(monkeypatch):
    monkeypatch.setattr(queencover.search, "_stabilizer_skip", lambda *args: None)


@pytest.mark.parametrize(
    "mode, q, n, unskipped_nodes",
    [
        pytest.param("windowed", 5, 17, 423, id="windowed-5-17"),
        pytest.param("windowed", 5, 18, 498, id="windowed-5-18"),
        pytest.param("windowed", 6, 21, 22_086, id="windowed-6-21"),
        pytest.param("windowed", 6, 22, 10_154, id="windowed-6-22"),
        pytest.param("windowed", 7, 24, 23_048, id="windowed-7-24"),
        pytest.param("windowed", 7, 25, 16_677, id="windowed-7-25"),
        pytest.param("exhaustive", 2, 10, 14, id="exhaustive-2-10"),
        pytest.param("exhaustive", 3, 9, 249, id="exhaustive-3-9"),
        pytest.param("exhaustive", 4, 30, 284, id="exhaustive-4-30"),
    ],
)
def test_cover_route_node_counts_are_pinned(mode, q, n, unskipped_nodes, monkeypatch):
    params = SearchParams(q=q, n=n, mode=mode, workers=1)
    skipped = run_search(params)
    assert skipped.nodes == _COVER_NODES[mode, q, n]
    _no_stabilizer_skips(monkeypatch)
    unskipped = run_search(params)
    assert unskipped.nodes == unskipped_nodes
    assert unskipped.configurations == skipped.configurations


@pytest.mark.parametrize(
    "n, square, radius, kinds",
    [
        # The odd board's center: all eight symmetries fix it and its list.
        (17, (0, 0), 3, TRANSFORM_KINDS),
        (17, (0, 0), None, TRANSFORM_KINDS),
        # A canonical axis square: its ring's corners come before it, so its
        # mirror keeps the exhaustive list as well as the non-attacking one.
        (17, (-1, 0), 3, ("identity", "mirror-y")),
        (17, (-1, 0), None, ("identity", "mirror-y")),
        # An even board's ring corner, on its diagonal.
        (18, (-1, -1), 3, ("identity", "mirror-diag")),
        (18, (-1, -1), None, ("identity", "mirror-diag")),
        # The axis square of the next ring, after all of that ring's other orbits.
        (17, (-2, 0), None, ("identity", "mirror-y")),
    ],
)
def test_stabilizer_skips_keep_the_best_ranked_member_of_each_orbit(n, square, radius, kinds):
    # kinds is the group G0 of the first queen `square`: the symmetries that
    # fix it and map its second-level list onto itself.  A radius of None is
    # the exhaustive search: the whole board, the outermost box, attacks allowed.
    eng = _engine(n, BoardSpec(n).box_radius(n) if radius is None else radius)
    pos = {s: i for i, s in enumerate(eng.order)}
    j0 = pos[square]
    assert eng.in_f[j0]
    allowed = None if radius is None else _partners(eng)[j0]
    avail = [i for i in range(j0 + 1, len(eng.order)) if allowed is None or i in allowed]
    c = eng.board.lo + eng.board.hi
    orbits = {frozenset(pos[BRUTE_SYMMETRIES[k](c, *eng.order[j])] for k in kinds) for j in avail}
    assert set().union(*orbits) == set(avail)
    # Children of equal score rank by ascending index.
    skip = _stabilizer_skip(eng.perms, j0)
    kept = {j for j in avail if skip is None or not skip(j)}
    assert kept == {min(orbit) for orbit in orbits}


def test_candidate_order_keeps_orbits_contiguous():
    # The candidates before every canonical square are whole orbits, so each
    # first queen's skip group is its full stabilizer, on every box.
    for n in range(1, 16):
        board = BoardSpec(n)
        for radius in range(board.box_radius(n) + 1):
            eng = _engine(n, radius)
            W = len(eng.order)
            for j0 in (j for j in range(W) if eng.in_f[j]):
                assert all(h[i] < j0 for h in eng.perms for i in range(j0))
                stabilizer = [h for h in eng.perms[1:] if h[j0] == j0]
                # skip(j) asks exactly whether an image of j under j0's
                # stabilizer has a lower index.
                skip = _stabilizer_skip(eng.perms, j0)
                assert (skip is None) == (not stabilizer)
                if skip is not None:
                    for j in range(W):
                        assert skip(j) == any(h[j] < j for h in stabilizer)


def test_stabilizer_skips_leave_every_result_unchanged(monkeypatch):
    cases = [("exhaustive", q, n) for q in (2, 3, 4) for n in range(4, 12)]
    cases += [("windowed", q, n) for q in (4, 5) for n in range(9, 15)]

    def results():
        cover = [run_search(SearchParams(q=q, n=n, mode=mode)) for mode, q, n in cases]
        loss = [loss_minimal_patterns(q, radius) for q in (3, 4, 5) for radius in (2, 3)]
        fields = [(r.max_cover, r.configurations, r.window_used, r.window_retries) for r in cover]
        return fields, loss

    skipped = results()
    _no_stabilizer_skips(monkeypatch)
    assert results() == skipped


def test_node_budget_holds_inside_the_recursion():
    with pytest.raises(BudgetExceededError) as err:
        windowed_optimal(SearchParams(q=6, n=21, mode="windowed", budget=1000))
    assert 1000 < err.value.nodes <= 1000 + 6
    assert err.value.budget == 1000


def test_window_retries_share_one_node_budget():
    grown = windowed_optimal(SearchParams(q=6, n=21, mode="windowed"))
    last = windowed_optimal(
        SearchParams(q=6, n=21, mode="windowed", window=grown.window_used)
    )
    assert grown.window_retries == 1 and last.window_retries == 0
    # The grown search ran the final window after a smaller one and counts both.
    assert grown.nodes > last.nodes
    with pytest.raises(BudgetExceededError) as err:
        windowed_optimal(SearchParams(q=6, n=21, mode="windowed", budget=last.nodes))
    assert last.nodes < err.value.nodes <= last.nodes + 6


@pytest.mark.parametrize("mode, q, n", [("exhaustive", 4, 30), ("windowed", 6, 21)])
def test_a_serial_search_counts_its_nodes_exactly(mode, q, n):
    # A serial search counts its nodes as the growth of its one tally slot,
    # across every window of the call: (6,21) grows its window once.  The
    # count is exact, so a budget of that many nodes suffices and one fewer
    # stops the search at its last node.
    result = run_search(SearchParams(q=q, n=n, mode=mode))
    assert result.window_retries == (mode == "windowed")
    again = run_search(SearchParams(q=q, n=n, mode=mode, budget=result.nodes))
    assert again.nodes == result.nodes and again.classes == result.classes
    with pytest.raises(BudgetExceededError) as err:
        run_search(SearchParams(q=q, n=n, mode=mode, budget=result.nodes - 1))
    assert (err.value.nodes, err.value.budget) == (result.nodes, result.nodes - 1)


def test_fork_join_shards_share_one_node_budget():
    # The shards of a workers=2 run spend the one budget between them; each
    # alone stays under it (together they visit about 12,200 nodes; the
    # largest shard of the final window takes about 5,700 on top of the
    # first window's 3,400).
    for workers in (1, 2):
        with pytest.raises(BudgetExceededError) as err:
            windowed_optimal(
                SearchParams(q=6, n=21, mode="windowed", budget=10_000, workers=workers)
            )
        assert err.value.nodes > 10_000
        assert err.value.budget == 10_000


def test_budget_error_survives_pickling():
    # A shard's child process sends its BudgetExceededError back to the caller pickled.
    err = pickle.loads(pickle.dumps(BudgetExceededError("aborted", 1001, 1000)))
    assert (str(err), err.nodes, err.budget) == ("aborted", 1001, 1000)


def test_worker_count_does_not_change_results():
    # Each fork-join shard skips its own first queens' stabilizer images.
    for mode, q, n in (("exhaustive", 3, 9), ("windowed", 6, 21), ("windowed", 7, 25)):
        base = run_search(SearchParams(q=q, n=n, mode=mode, workers=1))
        multi = run_search(SearchParams(q=q, n=n, mode=mode, workers=2))
        assert base.max_cover == multi.max_cover
        assert _as_set(base.configurations) == _as_set(multi.configurations)
        assert base.classes == multi.classes
        assert base.window_used == multi.window_used
        assert base.window_retries == multi.window_retries


def test_fork_join_forks_one_child_per_shard_but_the_callers(monkeypatch):
    # Exhaustive (2,4) has 3 canonical first queens, so 3 shards at workers=4:
    # the caller runs one of them and forks a child for each of the others.
    real = os.fork
    forked = []

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    base = exhaustive_optimal(SearchParams(q=2, n=4, workers=1))
    assert forked == []
    multi = exhaustive_optimal(SearchParams(q=2, n=4, workers=4))
    assert len(forked) == 2
    assert multi.max_cover == base.max_cover and multi.classes == base.classes


def test_worker_count_sizes_nothing_beyond_the_shards():
    # The shards are dealt over min(workers, first queens), so a huge worker
    # count allocates nothing in proportion to it.
    base = exhaustive_optimal(SearchParams(q=2, n=4, workers=1))
    multi = exhaustive_optimal(SearchParams(q=2, n=4, workers=10**9))
    assert multi.max_cover == base.max_cover and multi.classes == base.classes
    assert _as_set(multi.configurations) == _as_set(base.configurations)


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_join_leaves_no_process_behind():
    windowed_optimal(SearchParams(q=6, n=21, mode="windowed", workers=2))
    _assert_no_child_process()
    with pytest.raises(BudgetExceededError):
        windowed_optimal(SearchParams(q=6, n=21, mode="windowed", budget=10_000, workers=2))
    _assert_no_child_process()


def test_more_shards_than_cores_keep_results_and_one_budget():
    # Five shards on a two-core machine: the shards' tally slots must still
    # add up to one budget (each shard alone stays far under 10,000 nodes),
    # and the racy incumbent hint must not lose an optimum.
    base = windowed_optimal(SearchParams(q=6, n=21, mode="windowed", workers=1))
    multi = windowed_optimal(SearchParams(q=6, n=21, mode="windowed", workers=5))
    assert multi.max_cover == base.max_cover and multi.classes == base.classes
    assert _as_set(multi.configurations) == _as_set(base.configurations)
    with pytest.raises(BudgetExceededError) as err:
        windowed_optimal(SearchParams(q=6, n=21, mode="windowed", budget=10_000, workers=5))
    # The raising shard last read the other shards' slots at most a batch
    # of theirs ago.
    assert 10_000 < err.value.nodes <= 10_000 + 5 * queencover.search._TALLY_BATCH
    _assert_no_child_process()


def test_windowed_five_queens_matches_known_classes():
    odd = windowed_optimal(SearchParams(q=5, n=17, mode="windowed"))
    assert sorted(c.orbit_size for c in odd.classes) == [2, 8]
    assert len(odd.configurations) == 10
    even = windowed_optimal(SearchParams(q=5, n=18, mode="windowed"))
    assert sorted(c.orbit_size for c in even.classes) == [8] * 5
    assert len(even.configurations) == 40


def test_full_board_five_queens_on_17x17():
    # The side-7 window sees 10 of these; the other 10 sit at radius 6.
    result = exhaustive_optimal(SearchParams(q=5, n=17))
    assert result.max_cover == 233
    assert len(result.configurations) == 20
    assert sorted(c.orbit_size for c in result.classes) == [2, 2, 8, 8]
    board = BoardSpec(17)
    assert all(brute_cover(c, board) == 233 for c in result.configurations)


def test_full_board_six_queens_on_21x21_beats_the_window():
    # Each optimum is a central five-queen cluster plus one corner queen,
    # outside every window the windowed search grows to.
    result = exhaustive_optimal(SearchParams(q=6, n=21))
    assert result.max_cover == 347
    assert len(result.configurations) == 16 and len(result.classes) == 2
    board = BoardSpec(21)
    assert all(brute_cover(c, board) == 347 for c in result.configurations)
    assert windowed_optimal(SearchParams(q=6, n=21, mode="windowed")).max_cover == 346


def test_nine_queen_witness_on_28x28_lies_outside_the_window():
    # It reaches the windowed (9,28) maximum, 660, from outside the side-12
    # window (radius 5), and the windowed maximum of B_29, 697; the heavy
    # acceptance tier checks that the windowed members miss it.
    witness = Configuration.of(Q9_N28_WITNESS)
    assert is_nonattacking(witness)
    assert not any(brute_attacks(a, b) for a, b in combinations(witness.queens, 2))
    for n, cover in ((28, 660), (29, 697)):
        board = BoardSpec(n)
        assert cover_count(witness, board) == cover
        assert brute_cover(witness, board) == cover
    board = BoardSpec(28)
    assert max(brute_center_distance(board, s) for s in witness.queens) == 12
    assert board.box_radius(12) == 5


def test_finish_refuses_a_cover_its_representatives_miss():
    # _finish counts the cover of one member per orbit; claiming one loss
    # less, one square more than the (5,17) window's optimum, must fail that
    # count.
    params = SearchParams(q=5, n=17, mode="windowed")
    result = windowed_optimal(params)
    eng = _engine(17, BoardSpec(17).box_radius(result.window_used))
    loss, sels, _ = _run_problem(eng, 0, _partners(eng), params.q, params.budget, params.workers, 0)
    extra = (result.nodes, result.window_used, result.window_retries)
    assert _finish(params, eng, loss, sels, *extra) == result
    with pytest.raises(InvariantError, match="does not reach cover 234"):
        _finish(params, eng, loss - 1, sels, *extra)


def test_windowed_grows_a_window_without_nonattacking_subsets():
    # The 2x2 center of B_4 holds no non-attacking pair.
    result = windowed_optimal(SearchParams(q=2, n=4, mode="windowed", window=1))
    assert result.window_retries >= 1 and result.configurations
    with pytest.raises(DomainError):
        windowed_optimal(SearchParams(q=3, n=3, mode="windowed", window=3))


def test_windowed_boundary_retry_is_recorded():
    # A deliberately tight window forces at least one enlargement.
    result = windowed_optimal(SearchParams(q=2, n=11, mode="windowed", window=3))
    ample = windowed_optimal(SearchParams(q=2, n=11, mode="windowed", window=9))
    assert result.window_retries >= 1
    assert result.max_cover == ample.max_cover
    assert _as_set(result.configurations) == _as_set(ample.configurations)


def test_fundamental_classes_partition_and_validate():
    board = BoardSpec(9)
    center = Configuration.of([(0, 0)])
    classes = fundamental_classes([center], board)
    assert classes[0].orbit_size == 1 and classes[0].stabilizer_order == 8
    with pytest.raises(DomainError):
        fundamental_classes([Configuration.of([(9, 9)])], board)
    result = exhaustive_optimal(SearchParams(q=2, n=10))
    classes = fundamental_classes(result.configurations, BoardSpec(10))
    assert sum(c.orbit_size for c in classes) == len(result.configurations)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 13])
def test_engine_perms_agree_with_transform_square(n):
    # Both read geometry.SYMMETRIES, so each is held to conftest's own table.
    eng = _engine(n, BoardSpec(n).box_radius(n))
    board = eng.board
    p, c = board.parity_offset, board.lo + board.hi
    assert len(eng.perms) == len(TRANSFORM_KINDS)
    for kind, perm in zip(TRANSFORM_KINDS, eng.perms):
        assert sorted(perm) == list(range(len(eng.order))), kind
        for j, s in enumerate(eng.order):
            image = BRUTE_SYMMETRIES[kind](c, *s)
            assert eng.order[perm[j]] == image == transform_square(kind, p, s), (kind, s)
    canonical = [
        all(eng.order.index(f(c, *s)) >= j for f in BRUTE_SYMMETRIES.values())
        for j, s in enumerate(eng.order)
    ]
    assert eng.in_f == canonical


@pytest.mark.parametrize("n", range(1, 13))
def test_engine_lines_and_free_are_row_major(n):
    # Candidate indices are center-out, mask bits row-major: lines[j] is the
    # line union of order[j], own bit included, and free[j], read from those
    # bits, is the box candidates that order[j] does not attack.
    eng = _engine(n, BoardSpec(n).box_radius(n))
    board = eng.board
    squares = list(board.squares())
    for j, a in enumerate(eng.order):
        expected = sum(1 << k for k, s in enumerate(squares) if s == a or brute_attacks(a, s))
        assert eng.lines[j] == expected, a
    for radius in range(board.box_radius(n) + 1):
        sub = _engine(n, radius)
        box = sub.order
        assert _partners(sub) == [
            frozenset(i for i, b in enumerate(box) if b != a and not brute_attacks(a, b))
            for a in box
        ], radius


def test_line_masks_hold_all_but_the_center_loss():
    # The cover routes minimize cl[j] + popcount(lines[j] & m) and read cover
    # as q(4n - 3) minus that loss, which needs |L(j)| = 4n - 3 - cl(j) for
    # every candidate of every engine: the box engines, the whole board last.
    for n in range(1, 31):
        for radius in range(BoardSpec(n).box_radius(n) + 1):
            eng = _Engine(n, radius)
            for j, mask in enumerate(eng.lines):
                assert mask.bit_count() == 4 * n - 3 - eng.cl[j], (n, radius, eng.order[j])


@pytest.mark.parametrize("n", range(1, 16))
def test_box_engines_are_the_whole_board_engine_cut_at_the_box(n):
    # A centered box is a prefix of the center-out order that the eight
    # symmetries map onto itself, so its engine is the whole board's cut.
    # The whole board is the outermost box: its order holds every square once.
    board = BoardSpec(n)
    full = _engine(n, board.box_radius(n))
    assert sorted(full.order) == sorted(board.squares())
    p = board.parity_offset
    for radius in range(board.box_radius(n) + 1):
        eng = _engine(n, radius)
        W = len(eng.order)
        assert W == (2 * radius + 1 + p) ** 2, radius
        assert eng.order == full.order[:W]
        assert eng.cl == full.cl[:W] and eng.cl_prefix == full.cl_prefix[: W + 1]
        assert eng.lines == full.lines[:W]
        assert eng.in_f == full.in_f[:W]
        assert eng.perms == tuple(perm[:W] for perm in full.perms)
        assert eng.pos == {s: j for j, s in enumerate(eng.order)}


def _assert_classes_are_brute_orbits(result):
    board = BoardSpec(result.params.n)
    members = set(_as_set(result.configurations))
    covered: set = set()
    for cls in result.classes:
        orbit = brute_orbit(cls.representative.queens, board)
        assert cls.representative.queens == min(orbit)
        assert cls.orbit_size == len(orbit)
        assert orbit <= members and not orbit & covered
        covered |= orbit
    assert covered == members
    assert [c.representative.queens for c in result.classes] == sorted(
        c.representative.queens for c in result.classes
    )
    assert fundamental_classes(result.configurations, board) == result.classes


@pytest.mark.parametrize("q,n", [(1, 9), (1, 10), (2, 10), (2, 11), (3, 13), (4, 9), (4, 12)])
def test_exhaustive_classes_are_brute_orbits(q, n):
    _assert_classes_are_brute_orbits(exhaustive_optimal(SearchParams(q=q, n=n)))


@pytest.mark.parametrize("q,n", [(3, 9), (3, 10), (5, 17), (5, 18)])
def test_windowed_classes_are_brute_orbits(q, n):
    _assert_classes_are_brute_orbits(windowed_optimal(SearchParams(q=q, n=n, mode="windowed")))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.data())
def test_fundamental_classes_match_brute_orbits(n, data):
    # Arbitrary inputs, not closed under symmetry: classes come in the order
    # of each orbit's least input configuration.
    board = BoardSpec(n)
    squares = list(board.squares())
    q = data.draw(st.integers(1, min(3, len(squares))))
    subset = st.lists(st.sampled_from(squares), min_size=q, max_size=q, unique=True)
    configs = [Configuration.of(c) for c in data.draw(st.lists(subset, max_size=6))]
    classes = fundamental_classes(configs, board)
    assert [(c.representative.queens, c.orbit_size) for c in classes] == brute_classes(
        configs, board
    )
    assert all(c.orbit_size * c.stabilizer_order == 8 for c in classes)


def test_box_orbits_match_brute_orbits():
    # Seeded configurations of centered boxes, attacking and not, through the
    # box engines' key-space orbit pass: each orbit comes as ascending key
    # tuples whose members map back to sorted squares, and each class is its
    # brute orbit with the least member as representative.
    rng = random.Random(2508)
    for n in range(1, 15):
        board = BoardSpec(n)
        for radius in range(5):
            box = [s for s in board.squares() if brute_center_distance(board, s) <= radius]
            configs = []
            for _ in range(6):
                q = rng.randint(1, min(4, len(box)))
                configs.append(Configuration.of(rng.sample(box, q)))
                kept = []
                for s in rng.sample(box, len(box)):
                    if len(kept) < q and not any(brute_attacks(s, c) for c in kept):
                        kept.append(s)
                configs.append(Configuration.of(kept))
            eng = _engine(n, radius)
            pool = sorted({c.queens for c in configs})
            found = _orbit_classes(eng, [_selection(eng, radius, queens) for queens in pool])
            classes = [_class_of(eng, orbit) for orbit in found]
            assert [(c.representative.queens, c.orbit_size) for c in classes] == brute_classes(
                configs, board
            ), (n, radius)
            assert all(list(orbit) == sorted(set(orbit)) for orbit in found)
            members = [tuple(eng.by_lex[k] for k in m) for orbit in found for m in orbit]
            assert all(list(m) == sorted(m) for m in members)
            assert len(members) == len(set(members)) == sum(c.orbit_size for c in classes)
            expected = set()
            for c in classes:
                orbit = brute_orbit(c.representative.queens, board)
                assert c.representative.queens == min(orbit)
                assert c.orbit_size * c.stabilizer_order == 8
                expected |= orbit
            assert set(members) == expected


def test_border_certificate_examples():
    knight = Configuration.of([(-1, 0), (0, 2), (1, -1), (2, 1)])
    assert border_certificate(knight, BoardSpec(11))
    assert border_certificate(Configuration.of([(0, 0)]), BoardSpec(7))
    # (0,0) and (1,2) both attack (3,0), which sits on the border ring of B_7.
    assert not border_certificate(Configuration.of([(0, 0), (1, 2)]), BoardSpec(5))
    with pytest.raises(DomainError):
        border_certificate(Configuration.of([(0, 0), (2, 2)]), BoardSpec(9))
    with pytest.raises(DomainError):
        border_certificate(Configuration.of([(99, 99)]), BoardSpec(9))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.data())
def test_border_certificate_matches_brute_ring(n, data):
    # Feasible non-attacking configurations: each drawn square is kept when
    # no earlier kept one attacks it.
    board = BoardSpec(n)
    coord = st.integers(board.lo, board.hi)
    kept = []
    for s in data.draw(st.lists(st.tuples(coord, coord), max_size=6)):
        if s not in kept and not any(brute_attacks(s, c) for c in kept):
            kept.append(s)
    config = Configuration.of(kept)
    ring = brute_ring(BoardSpec(n + 2))
    expected = all(brute_attack_number(config, s) <= 1 for s in ring)
    assert border_certificate(config, board) == expected


def test_nonattacking_threshold_q2():
    report = nonattacking_threshold(2, 4, 14)
    assert report.n1_candidate == 9
    assert report.empirical
    assert report.n_lo == 4 and report.n_hi == 14
    flags = {e.n: e.all_nonattacking for e in report.entries}
    assert not flags[8] and flags[9]


@pytest.mark.parametrize("q, n_hi", [(2, 10), (3, 10), (4, 11)])
def test_scan_reads_attacks_from_class_representatives(q, n_hi):
    # all_nonattacking is read from the representatives: the symmetries map
    # lines to lines, so every orbit member agrees with its representative.
    run = functools.lru_cache(maxsize=None)(run_search)
    report = nonattacking_threshold(q, q + 1, n_hi, runner=run)
    assert {e.all_nonattacking for e in report.entries} == {False, True}
    for e in report.entries:
        result = run(SearchParams(q=q, n=e.n))
        assert e.all_nonattacking == all(is_nonattacking(c) for c in result.configurations)
        for c in result.configurations:
            (cls,) = fundamental_classes([c], BoardSpec(e.n))
            assert is_nonattacking(c) == is_nonattacking(cls.representative)


def test_stabilizing_threshold_q2():
    report = stabilizing_threshold(2, 6, 16)
    assert report.n2_combined == 10
    assert report.n2_even == 10
    assert report.n2_odd == 11


@pytest.mark.parametrize("n_lo, n_hi", [(0, 3), (-1, 3), (-2, 3), (True, 3), (1.0, 3), (2, 3.0)])
def test_threshold_scans_refuse_bad_board_sides(n_lo, n_hi):
    # Sides 0 and -1 used to be reported as skipped, -2 raised mid-scan, True
    # scanned from 1 and a float died with TypeError.
    for scan in (nonattacking_threshold, stabilizing_threshold):
        with pytest.raises(DomainError, match="n_(lo|hi) must be"):
            scan(2, n_lo, n_hi)


@pytest.mark.parametrize("scan", [nonattacking_threshold, stabilizing_threshold])
@pytest.mark.parametrize("name, value", [("workers", 0), ("budget", -5)])
def test_threshold_scans_refuse_bad_workers_and_budget(scan, name, value):
    # Five queens fit on no side up to 2, so every board is skipped: the bad
    # value used to come back as a report of skip warnings.
    with pytest.raises(DomainError, match=f"^{name} must be >= 1"):
        scan(5, 1, 2, **{name: value})


def test_exact_threshold_scans_q5():
    # Empirical, valid only within [9, 21]: n=9 has attacking optima, and the
    # 20 optima of n=17 (10 outside the side-7 window) keep odd N2 at 19.
    run = functools.lru_cache(maxsize=None)(run_search)
    n1 = nonattacking_threshold(5, 9, 21, runner=run)
    assert n1.empirical and n1.n1_candidate == 10
    n2 = stabilizing_threshold(5, 9, 21, runner=run)
    assert n2.empirical
    assert (n2.n2_even, n2.n2_odd, n2.n2_combined) == (18, 19, 18)
    assert n1.warnings == n2.warnings == ()


def test_loss_minimal_small_cases():
    single = loss_minimal_patterns(1, 2)
    assert single.odd.min_total == 0
    assert single.even.min_total == 1
    pairs = loss_minimal_patterns(2, 3)
    assert pairs.odd.min_total == 14
    assert pairs.even.min_total == 14


def test_loss_minimal_rejects_a_box_without_nonattacking_subsets():
    # The 3x3 odd box holds no three mutually non-attacking queens, but the
    # 4x4 even box does; only when neither parity has one is the call refused.
    for q, even_total in ((3, 34), (4, 60)):
        scan = loss_minimal_patterns(q, 1)
        assert scan.odd is None
        assert scan.even.min_total == even_total
    with pytest.raises(DomainError):
        loss_minimal_patterns(5, 1)
    # Boxes far too small for q queens are refused the same way.
    for q, radius in ((10, 0), (12, 0), (16, 1)):
        with pytest.raises(DomainError, match="no centered box"):
            loss_minimal_patterns(q, radius)


def test_loss_route_budget_holds_inside_the_recursion():
    with pytest.raises(BudgetExceededError) as err:
        loss_minimal_patterns(5, 4, budget=1000)
    assert 1000 < err.value.nodes <= 1001
    assert err.value.budget == 1000


def test_loss_route_parities_share_one_node_budget():
    # Each parity's scan alone fits the budget (on (5,4) the odd one takes
    # 396 nodes and the even one 606), but the call must count both.
    _, odd = _loss_scan_parity(5, 4, True, DEFAULT_BUDGET, 0)
    _, both = _loss_scan_parity(5, 4, False, DEFAULT_BUDGET, odd)
    budget = max(odd, both - odd)
    with pytest.raises(BudgetExceededError) as err:
        loss_minimal_patterns(5, 4, budget=budget)
    assert err.value.nodes == budget + 1


def test_loss_route_counts_first_queens():
    # q = 1 places only first queens; each parity enters one, so a budget of
    # one node is spent by the odd scan and the even scan's first queen
    # exceeds it.
    with pytest.raises(BudgetExceededError) as err:
        loss_minimal_patterns(1, 3, budget=1)
    assert err.value.nodes == 2


def test_loss_route_rejects_budgets_below_one_node():
    # The same rule as SearchParams: a budget that cannot pay for one node
    # is a bad argument, not an aborted scan.
    for budget in (0, -1):
        with pytest.raises(DomainError, match="budget must be >= 1"):
            loss_minimal_patterns(2, 3, budget=budget)


@pytest.mark.parametrize("radius", [True, 1.0, "2"])
def test_loss_route_refuses_a_non_integer_radius(radius):
    # True used to run as radius 1, 1.0 to fail on a queen coordinate and
    # "2" with a bare TypeError.
    with pytest.raises(DomainError, match="radius must be an integer"):
        loss_minimal_patterns(2, radius)


_LOSS_NODES = {(5, 4): (396, 606), (6, 3): (649, 1_695), (6, 5): (5_730, 6_015)}


@pytest.mark.parametrize(
    "q, radius, odd_nodes, even_nodes",
    [
        pytest.param(5, 4, 714, 817, id="5-4"),
        pytest.param(6, 3, 1_317, 2_458, id="6-3"),
        pytest.param(6, 5, 11_031, 8_377, id="6-5"),
    ],
)
def test_loss_route_node_counts_are_pinned(q, radius, odd_nodes, even_nodes, monkeypatch):
    # Per parity, each scan counting from zero, with the skips and without
    # them; see the cover route's pins.
    def nodes():
        _, odd = _loss_scan_parity(q, radius, True, DEFAULT_BUDGET, 0)
        _, even = _loss_scan_parity(q, radius, False, DEFAULT_BUDGET, 0)
        return odd, even

    assert nodes() == _LOSS_NODES[q, radius]
    _no_stabilizer_skips(monkeypatch)
    assert nodes() == (odd_nodes, even_nodes)


def _loss_engine(radius, odd):
    # The loss route's box engine on the parity's stable board of the box.
    board = queencover.loss.stable_board(Configuration.of([(-radius, -radius)]), odd)
    return _engine(board.n, radius)


def test_line_masks_meet_on_pair_crossings():
    # The loss route scores on the engine's line masks: on its stable board
    # two non-attacking box squares' lines must meet exactly on their pair
    # crossings, at least 10 of them.  The radii reach boxes (r = 4 even,
    # r = 5) whose crossings leave a board of side 4r + 10, so a too-small
    # board would drop some.
    pairs = 0
    for odd in (True, False):
        for radius in range(6):
            eng = _loss_engine(radius, odd)
            # The parity's engine holds exactly the box's squares.
            board, box = eng.board, eng.order
            assert set(box) == {
                s for s in board.squares() if brute_center_distance(board, s) <= radius
            }
            bit = {s: 1 << k for k, s in enumerate(board.squares())}
            for (i, a), (j, b) in combinations(enumerate(box), 2):
                if brute_attacks(a, b):
                    continue
                crossings = set(queencover.coverage.pair_crossings(a, b))
                assert crossings <= bit.keys() and len(crossings) >= 10, (odd, radius, a, b)
                expected = sum(bit[s] for s in crossings)
                assert eng.lines[i] & eng.lines[j] == expected, (odd, radius, a, b)
                pairs += 1
    assert pairs == 21_164


def test_kernel_score_is_the_total_loss():
    # Placed in any order, a non-attacking subset's kernel scores,
    # cl[j] + popcount(lines[j] & m), sum to its total loss on the stable
    # board, which the attack-field oracle computes.
    rng = random.Random(3201)
    for odd in (True, False):
        eng = _loss_engine(4, odd)
        W = len(eng.order)
        for q in range(2, 7):
            for _ in range(12):
                sel = []
                while len(sel) < q:  # restart from an empty set when stuck
                    sel = []
                    for j in rng.sample(range(W), W):
                        if not any(brute_attacks(eng.order[j], eng.order[i]) for i in sel):
                            sel.append(j)
                            if len(sel) == q:
                                break
                score = m = 0
                for j in sel:
                    score += eng.cl[j] + (eng.lines[j] & m).bit_count()
                    m |= eng.lines[j]
                breakdown = queencover.loss.total_loss(
                    Configuration.of(eng.order[j] for j in sel), eng.board
                )
                assert breakdown.stable
                assert score == breakdown.total, (odd, q, sel)


def test_loss_route_never_counts_cover(monkeypatch):
    # The loss route shares its branch-and-bound and line masks with the
    # cover routes but is still an independent oracle: it must reach its
    # answer without the cover kernels (cover_count, attack_field) or a
    # stairs build.
    expected = loss_minimal_patterns(4, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("the loss route called a refused function")

    for module, name in (
        (queencover.search, "cover_count"),
        (queencover.coverage, "cover_count"),
        (queencover.search, "stairs"),
        (queencover.search, "stairs_details"),
        (queencover.search, "centralize"),
        (queencover.coverage, "attack_field"),
        (queencover.loss, "attack_field"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert loss_minimal_patterns(4, 3) == expected


def test_cover_routes_build_no_stairs_pattern(monkeypatch):
    # Both cover routes start from an empty incumbent and build no stairs
    # placement; their optima are frozen here.
    def refuse(*args, **kwargs):
        raise AssertionError("the cover route built a stairs placement")

    monkeypatch.setattr(queencover.search, "stairs", refuse)
    monkeypatch.setattr(queencover.search, "centralize", refuse)
    frozen = {
        SearchParams(q=3, n=9): (
            66, 16, [(((-4, -4), (-1, 1), (1, 0)), 8), (((-4, -4), (0, 1), (2, 0)), 8)]
        ),
        SearchParams(q=5, n=17, mode="windowed"): (
            233,
            10,
            [
                (((-2, -2), (-1, 0), (0, 2), (1, -1), (2, 1)), 8),
                (((-2, -1), (-1, 2), (0, 0), (1, -2), (2, 1)), 2),
            ],
        ),
    }
    for params, (cover, count, classes) in frozen.items():
        result = run_search(params)
        assert result.max_cover == cover
        assert len(result.configurations) == count
        assert [(c.representative.queens, c.orbit_size) for c in result.classes] == classes


def _plain_loss_minimum(q, radius, odd):
    """Least total loss and its canonical patterns over the box, or None.

    Enumerates the non-attacking q-subsets of the centered box and scores
    each by the brute attack counter on a region holding every pair
    crossing (coordinates within [-3r - 1, 3r + 2]) plus the center loss.
    """
    board = BoardSpec(4 * radius + (9 if odd else 10))
    box = [s for s in board.squares() if brute_center_distance(board, s) <= radius]
    span = range(-3 * radius - 1, 3 * radius + 3)
    scored = []
    for queens in combinations(box, q):
        if any(brute_attacks(a, b) for a, b in combinations(queens, 2)):
            continue
        config = Configuration.of(queens)
        internal = sum(
            max(brute_attack_number(config, (x, y)) - 1, 0) for x in span for y in span
        )
        central = sum((0 if odd else 1) + 2 * brute_center_distance(board, s) for s in queens)
        scored.append((internal + central, pattern_of(config).canonical().offsets))
    if not scored:
        return None
    top = min(t for t, _ in scored)
    return top, sorted({p for t, p in scored if t == top})


def test_loss_route_matches_plain_enumeration():
    # The loss route shares its branch-and-bound with the cover routes, so
    # this enumeration is its independent check: every q = 1..5 at every
    # radius 0..2.  (5, 2) is the first case with two patterns per parity.
    for q in range(1, 6):
        for radius in range(3):
            plain = {odd: _plain_loss_minimum(q, radius, odd) for odd in (True, False)}
            if plain[True] is None and plain[False] is None:
                with pytest.raises(DomainError):
                    loss_minimal_patterns(q, radius)
                continue
            scan = loss_minimal_patterns(q, radius)
            for odd, side in ((True, scan.odd), (False, scan.even)):
                got = None if side is None else (side.min_total, [p.offsets for p in side.patterns])
                assert got == plain[odd], (q, radius, odd)


def test_loss_minimal_knight_square_is_optimal_for_four_queens():
    scan = loss_minimal_patterns(4, 4)
    assert scan.even.min_total == 60
    assert scan.odd.min_total == 60
    knight = knight_square().canonical().offsets
    assert knight in [p.offsets for p in scan.even.patterns]
    assert [p.offsets for p in scan.odd.patterns] == [knight]


def test_loss_route_agrees_with_cover_route():
    # Cross-oracle duality: loss-minimal patterns equal cover-optimal patterns.
    for q, n_odd, n_even, radius in ((2, 13, 14, 3), (3, 13, 14, 4)):
        scan = loss_minimal_patterns(q, radius)
        for parity, n in (("odd", n_odd), ("even", n_even)):
            result = exhaustive_optimal(SearchParams(q=q, n=n))
            cover_patterns = {pattern_of(c).canonical().offsets for c in result.configurations}
            loss_patterns = {p.offsets for p in getattr(scan, parity).patterns}
            assert cover_patterns == loss_patterns, (q, parity)


def test_pattern_fingerprint_translation_invariance():
    a = [FundamentalClass(Configuration.of([(0, 0), (1, 2)]), 8, 1)]
    b = [FundamentalClass(Configuration.of([(5, -3), (6, -1)]), 8, 1)]
    assert canonical_pattern_fingerprint(a) == canonical_pattern_fingerprint(b)


def test_pattern_fingerprint_counts_every_orbit_member():
    # One pattern per class, counted with its orbit size, hashes the same
    # multiset as normalizing every configuration of the optimal set with
    # the square-by-square oracle.
    for q, n in ((2, 10), (3, 13), (4, 9)):
        result = exhaustive_optimal(SearchParams(q=q, n=n))
        canon = sorted(brute_canonical(pattern_of(c)).offsets for c in result.configurations)
        expected = hashlib.sha256(repr(canon).encode()).hexdigest()
        assert canonical_pattern_fingerprint(result.classes) == expected, (q, n)


# Literal digests: stored threshold records carry them, so a faster canonical
# form or fingerprint must reproduce them byte for byte.
_FINGERPRINTS = {
    ("exhaustive", 4, 13): "b567b90cecc4803f6d16f6088a8723f8acff9c52cff8df20902161fcef9d23a1",
    ("exhaustive", 3, 13): "9623b135d2d472cf618693ebbaf6b76654638e03e5320f3e5442b72db6ec4985",
    ("windowed", 7, 24): "2bee152f9f3fb2ab37ce8799cef6506ca07306b349accb8e0120266c8bbeedc8",
}
# Per criterion-4 scan: the digest of its entries' fingerprints, space-joined.
_SCAN_FINGERPRINTS = {
    (nonattacking_threshold, 2, 4, 14): "af61f31fce4b6cfe6b81894ca08240b371840c5e440c60e9c2ac50a3b86e221b",
    (nonattacking_threshold, 3, 4, 14): "2ccab2d6574d816135b5e3884cfc2fc0b564ba8fae69cc61a3bef773f1dedd04",
    (nonattacking_threshold, 4, 5, 13): "f09088b243bcb615cd161935398f2e3752a8a894bde97ff1d2b901bf02746c96",
    (stabilizing_threshold, 2, 6, 16): "bd3eee2ac46d3bab3f204fd129c04cef495bb853535e645f3e434fbf2dc9b9bf",
    (stabilizing_threshold, 3, 6, 18): "8a97a87f64f6209f3018f8cb1b10e6d6db412c95aef599cb5ef4f1088bacabad",
    (stabilizing_threshold, 4, 8, 20): "2f7a2fbf244130283a8a50e65f00af7b27297353122ff43edb26183c9fd006d6",
}


def test_pattern_fingerprints_are_pinned():
    for (mode, q, n), digest in _FINGERPRINTS.items():
        result = run_search(SearchParams(q=q, n=n, mode=mode))
        assert canonical_pattern_fingerprint(result.classes) == digest, (mode, q, n)
    run = functools.lru_cache(maxsize=None)(run_search)
    for (scan, q, n_lo, n_hi), digest in _SCAN_FINGERPRINTS.items():
        report = scan(q, n_lo, n_hi, runner=run)
        joined = " ".join(e.pattern_fingerprint for e in report.entries)
        assert hashlib.sha256(joined.encode()).hexdigest() == digest, (scan.__name__, q)
