"""Record round-trips, validation failures and the result cache."""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queencover.search
import queencover.serialization
from queencover import (
    Pattern,
    RecordError,
    SearchParams,
    UnsupportedSchemaError,
    exhaustive_optimal,
    is_nonattacking,
    nonattacking_threshold,
    run_search,
    stabilizing_threshold,
    windowed_optimal,
)
from queencover.constructions import canonical_offsets
from queencover.serialization import (
    SCHEMA_VERSION,
    ResultCache,
    engine_fingerprint,
    optimal_set_record,
    params_fingerprint,
    parse_lines,
    record_to_optimal_set,
    to_json_line,
)


@pytest.fixture(scope="module")
def small_result():
    return exhaustive_optimal(SearchParams(q=2, n=10))


def test_round_trip_identity(small_result):
    line = to_json_line(optimal_set_record(small_result))
    record = parse_lines(line.encode())[0]
    rebuilt = record_to_optimal_set(record)
    assert rebuilt.max_cover == small_result.max_cover
    assert rebuilt.configurations == small_result.configurations
    assert rebuilt.classes == small_result.classes
    assert rebuilt.params.problem_key() == small_result.params.problem_key()
    assert to_json_line(optimal_set_record(rebuilt)) == line


def test_stable_record_is_deterministic(small_result):
    again = exhaustive_optimal(SearchParams(q=2, n=10, workers=2))
    assert to_json_line(optimal_set_record(small_result)) == to_json_line(
        optimal_set_record(again)
    )


def test_record_rejects_duplicate_queen(small_result):
    record = optimal_set_record(small_result)
    record["classes"][0]["representative"] = [[0, 0], [0, 0]]
    with pytest.raises(RecordError, match=r"classes\[0\]\.representative.*duplicate"):
        record_to_optimal_set(record)


def test_record_rejects_unsorted_configuration(small_result):
    record = optimal_set_record(small_result)
    record["classes"][0]["representative"].reverse()
    with pytest.raises(RecordError, match=r"classes\[0\]\.representative.*sorted"):
        record_to_optimal_set(record)


def test_record_rejects_unknown_schema(small_result):
    record = optimal_set_record(small_result)
    record["schema_version"] += 1
    with pytest.raises(UnsupportedSchemaError):
        record_to_optimal_set(record)


def test_record_rejects_bad_class_arithmetic(small_result):
    record = optimal_set_record(small_result)
    record["classes"][0]["orbit_size"] = 5
    with pytest.raises(RecordError, match="orbit_size"):
        record_to_optimal_set(record)


def _center_record(**fields) -> dict:
    """A valid q=1 record on B_3, whose one optimum is the center; fields replace keys."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "search_result",
        "params": {"q": 1, "n": 3, "mode": "exhaustive", "window": None},
        "max_cover": 9,
        "classes": [{"representative": [[0, 0]], "orbit_size": 1, "stabilizer_order": 8}],
    }
    return {**record, **fields}


def _cls(rep, orbit_size):
    return {"representative": rep, "orbit_size": orbit_size, "stabilizer_order": 8 // orbit_size}


# The windowed (2,17) result with window 9: found in its first window, so
# window_used 9 after no retry, with both representatives within radius 2.
_Q2_N17 = {
    "params": {"q": 2, "n": 17, "mode": "windowed", "window": 9},
    "max_cover": 116,
    "classes": [_cls([[-2, -1], [0, 0]], 8), _cls([[-1, -1], [0, 1]], 8)],
    "window_used": 9,
}


@pytest.mark.parametrize("value", [False, True])
@pytest.mark.parametrize("edit", ["representative", "orbit_size", "stabilizer_order"])
def test_record_rejects_booleans_as_integers(edit, value):
    # JSON booleans decode to bool, an int subclass, but are no coordinates
    # or counts.
    record = _center_record()
    record_to_optimal_set(record)
    cls = record["classes"][0]
    cls[edit] = [[value, value]] if edit == "representative" else value
    with pytest.raises(RecordError, match=rf"^classes\[0\].*{edit}"):
        record_to_optimal_set(record)


def test_window_fields_must_match_the_mode():
    # Window 1 on B_3 starts on the center square, touches its boundary and
    # grows once, to the board: window_used 3 after one retry.
    windowed = {"q": 1, "n": 3, "mode": "windowed", "window": 1}
    record_to_optimal_set(_center_record(params=windowed, window_used=3, window_retries=1))
    record_to_optimal_set(_center_record(window_used=None, window_retries=0))
    for record, field in [
        (_center_record(window_used=3), "window_used"),
        (_center_record(window_retries=1), "window_retries"),
        (_center_record(params=windowed), "window_used"),
        (_center_record(params=windowed, window_used=None), "window_used"),
        (_center_record(params=windowed, window_used=2), "window_used"),
        (_center_record(params=windowed, window_used=5), "window_used"),
    ]:
        with pytest.raises(RecordError, match=f"^{field}: "):
            record_to_optimal_set(record)


def test_windowed_representatives_must_lie_in_the_window():
    # A windowed record's orbits are rebuilt on its window's box, so a
    # representative on B_5 but outside the 3x3 window is refused.
    windowed = {"q": 1, "n": 5, "mode": "windowed", "window": 3}
    corner = [_cls([[-2, -2]], 4)]
    record_to_optimal_set(_center_record(params=windowed, window_used=3))
    record_to_optimal_set(_center_record(params=windowed, window_used=5, classes=corner))
    with pytest.raises(RecordError, match=r"^classes: .*centered box of radius 1 on B_5"):
        record_to_optimal_set(_center_record(params=windowed, window_used=3, classes=corner))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"configurations": [[[0, 0]], [[-1, -1]]]}, "unknown field 'configurations'"),
        ({"classes": [_cls([[-1, -1], [0, 0]], 4)]}, r"classes\[0\]\.representative: .*1 queens"),
        ({"classes": [_cls([[7, 7]], 1)]}, r"classes: .*not feasible on B_3"),
        ({"classes": [_cls([[-1, -1]], 1)]}, "classes: not the sorted orbits"),
        ({"classes": [_cls([[1, 1]], 4)]}, "classes: not the sorted orbits"),
        ({"classes": [_cls([[-1, -1]], 4), _cls([[1, 1]], 4)]}, "classes: not the sorted orbits"),
        ({"classes": [_cls([[0, 0]], 1), _cls([[-1, -1]], 4)]}, "classes: not the sorted orbits"),
        ({"classes": [_cls([[0, 0]], 1), _cls([[0, 0]], 1)]}, "classes: not the sorted orbits"),
        ({"classes": []}, "classes: must be a non-empty list"),
        ({**_Q2_N17, "window_used": 5}, "window_used: must be a side from 9 to 17"),
        ({**_Q2_N17, "window_retries": 7}, "window_retries: must be at most 0"),
    ],
    ids=[
        "configuration-outside-the-classes", "two-queens-for-q-1", "queen-off-the-board",
        "corner-with-orbit-1", "non-least-representative", "two-representatives-of-one-orbit",
        "classes-out-of-order", "repeated-class", "no-classes",
        "window-below-the-first-window", "more-retries-than-rings-grown",
    ],
)
def test_record_classes_must_be_their_own_orbits(fields, message):
    # The classes are refused unless they equal the classes rebuilt from
    # their representatives; sorted and least, they decode.  Window fields
    # that no search produces are refused too.
    record_to_optimal_set(_center_record(classes=[_cls([[-1, -1]], 4), _cls([[0, 0]], 1)]))
    record_to_optimal_set(_center_record(**_Q2_N17))
    with pytest.raises(RecordError, match=message):
        record_to_optimal_set(_center_record(**fields))


@pytest.mark.parametrize(
    "drop, extra",
    [("window", {}), (None, {"budget": 10}), (None, {"junk": 0})],
    ids=["no-window", "budget", "junk"],
)
def test_record_params_must_be_the_encoded_fields(drop, extra):
    # A windowed record without its window used to decode with the default
    # window, and extra keys were ignored.
    record = optimal_set_record(windowed_optimal(SearchParams(q=5, n=17, mode="windowed")))
    record_to_optimal_set(record)
    params = record["params"]
    params.pop(drop, None)
    params.update(extra)
    with pytest.raises(RecordError, match="^params: fields must be q, n, mode and window"):
        record_to_optimal_set(record)


def test_windowed_record_must_name_its_window():
    # A windowed record edited to `"window": null` would decode with the
    # default window min(q + 3, n) = 5, not the 9 it was searched with.
    record = _center_record(**_Q2_N17)
    record_to_optimal_set(record)
    record["params"] = {**record["params"], "window": None}
    with pytest.raises(RecordError, match="^params: "):
        record_to_optimal_set(record)


def test_version_1_record_is_refused(small_result):
    record = {
        **optimal_set_record(small_result),
        "schema_version": 1,
        "configurations": [[list(s) for s in c.queens] for c in small_result.configurations],
    }
    with pytest.raises(UnsupportedSchemaError, match="schema_version 1"):
        record_to_optimal_set(record)


@pytest.mark.parametrize(
    "params",
    [
        SearchParams(q=2, n=6),
        SearchParams(q=5, n=17, mode="windowed"),
        SearchParams(q=5, n=18, mode="windowed"),
    ],
    ids=["exhaustive-2-6", "windowed-5-17", "windowed-5-18"],
)
def test_round_trip_rebuilds_the_orbit_members(params):
    result = (exhaustive_optimal if params.mode == "exhaustive" else windowed_optimal)(params)
    if params.mode == "exhaustive":
        # Some optima of (2,6) attack each other, unlike any windowed optimum.
        assert not all(is_nonattacking(c) for c in result.configurations)
    record = optimal_set_record(result)
    assert record["schema_version"] == SCHEMA_VERSION == 2
    assert "configurations" not in record
    line = to_json_line(record)
    rebuilt = record_to_optimal_set(parse_lines(line.encode())[0])
    assert rebuilt.configurations == result.configurations
    assert rebuilt.classes == result.classes
    assert (rebuilt.window_used, rebuilt.window_retries) == (result.window_used, result.window_retries)
    assert to_json_line(optimal_set_record(rebuilt)) == line


@pytest.mark.parametrize(
    "params",
    [SearchParams(q=2, n=9), SearchParams(q=2, n=9, mode="windowed")],
    ids=["exhaustive", "windowed"],
)
def test_decoding_reuses_the_engine_its_search_built(params):
    # A record decodes on the engine its search finished on, so a warm
    # rescan through the result cache builds no engine of its own.
    engines = queencover.search._engine
    engines.cache_clear()
    record = optimal_set_record(run_search(params))
    built = engines.cache_info().misses
    record_to_optimal_set(record)
    assert engines.cache_info().misses == built


def test_whole_board_searches_and_decoding_share_one_engine():
    # The whole board is the outermost box, so an exhaustive search, a
    # windowed search whose window is the board and the decoding of the
    # exhaustive record all run on one engine, built once.
    engines = queencover.search._engine
    engines.cache_clear()
    record = optimal_set_record(exhaustive_optimal(SearchParams(q=3, n=9)))
    windowed_optimal(SearchParams(q=3, n=9, mode="windowed", window=9))
    record_to_optimal_set(record)
    info = engines.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_parse_error_names_byte_offset():
    data = b'{"schema_version":1}\n{"broken\n'
    with pytest.raises(RecordError, match=r"byte 2[0-9]"):
        parse_lines(data)


@pytest.mark.parametrize(
    "line, at",
    [
        (b'{"a":"bc" x}', b"x"),
        (b' \t {"a":"bc" x}', b"x"),
        # Two 2-byte characters before the error: character 10, byte 12.
        ('{"a":"\u00e9\u00e9" x}'.encode(), b"x"),
        (b'  {"a":"\xff"}', b"\xff"),
    ],
    ids=["ascii", "indented", "non-ascii", "invalid-utf-8"],
)
def test_parse_error_offsets_count_bytes(line, at):
    data = b'{"schema_version":1}\n' + line + b"\n"
    with pytest.raises(RecordError) as err:
        parse_lines(data)
    assert str(err.value) == f"parse error at byte {data.index(at)}"


@given(
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        min_size=0,
        max_size=6,
        unique=True,
    )
)
@settings(max_examples=200, deadline=None)
def test_json_lines_round_trip_any_payload(queens):
    record = {
        "schema_version": 1,
        "kind": "probe",
        "queens": sorted(map(list, queens)),
    }
    line = to_json_line(record)
    assert parse_lines(line.encode()) == [record]
    assert to_json_line(parse_lines(line.encode())[0]) == line


def test_fingerprint_depends_on_params_not_workers():
    a = params_fingerprint(SearchParams(q=2, n=10, workers=1))
    b = params_fingerprint(SearchParams(q=2, n=10, workers=4, budget=123456))
    c = params_fingerprint(SearchParams(q=2, n=11))
    assert a == b != c
    assert len(engine_fingerprint()) == 64


def test_digests_are_sha256_of_their_inputs():
    # hashlib is imported where it hashes; the digests, and so every cache
    # file name (test_cache_round_trip), stay those of the same inputs.
    h = hashlib.sha256()
    for path in sorted(Path(queencover.serialization.__file__).parent.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    assert engine_fingerprint() == h.hexdigest()
    params = SearchParams(q=2, n=10)
    blob = engine_fingerprint() + json.dumps(params.problem_key(), sort_keys=True)
    assert params_fingerprint(params) == hashlib.sha256(blob.encode()).hexdigest()


def test_cache_round_trip(tmp_path, small_result):
    cache = ResultCache(tmp_path)
    assert cache.get(small_result.params) is None
    path = cache.put(small_result, timing_s=0.25)
    assert path.name == params_fingerprint(small_result.params)
    # The cache file adds timing and nodes to the stable record, which has neither.
    stable = optimal_set_record(small_result)
    assert "timing_s" not in stable and "nodes" not in stable
    assert json.loads(path.read_text()) == {**stable, "timing_s": 0.25, "nodes": small_result.nodes}
    hit = cache.get(small_result.params)
    assert hit is not None
    assert hit.max_cover == small_result.max_cover
    assert hit.configurations == small_result.configurations
    assert cache.get(SearchParams(q=2, n=12)) is None
    leftovers = [p for p in path.parent.iterdir() if p.name.startswith(".tmp-")]
    assert not leftovers


def test_cache_rejects_mismatched_fingerprint(tmp_path, small_result):
    cache = ResultCache(tmp_path)
    path = cache.put(small_result)
    record = json.loads(path.read_text())
    other = params_fingerprint(SearchParams(q=2, n=12))
    (tmp_path / other).write_text(json.dumps(record) + "\n")
    with pytest.raises(RecordError, match="fingerprint"):
        cache.get(SearchParams(q=2, n=12))


def test_cache_refuses_a_record_of_other_params(tmp_path):
    # The file name is the query's fingerprint, and the record's own
    # fingerprint field can be edited to match it: (2,13)'s record under
    # (2,12)'s name would answer with B_13's max cover, 84 against 76.
    cache = ResultCache(tmp_path)
    path = cache.put(exhaustive_optimal(SearchParams(q=2, n=13)))
    record = json.loads(path.read_text())
    other = params_fingerprint(SearchParams(q=2, n=12))
    record["fingerprint"] = other
    (tmp_path / other).write_text(json.dumps(record) + "\n")
    assert cache.get(SearchParams(q=2, n=13)).max_cover == 84
    with pytest.raises(RecordError, match=r"holds the result of .*'n': 13.*, not .*'n': 12"):
        cache.get(SearchParams(q=2, n=12))


@pytest.mark.parametrize(
    "value, ok",
    [
        ("not a time", False),
        (-5.0, False),
        (True, False),
        (float("nan"), False),
        (float("inf"), False),
        ([1], False),
        (None, True),
        (0, True),
        (0.25, True),
    ],
)
def test_timing_must_be_null_or_a_finite_number(tmp_path, small_result, value, ok):
    # A hand-edited cache file used to carry any timing through.  json writes
    # NaN and Infinity as bare tokens and parses them back as floats.
    cache = ResultCache(tmp_path)
    path = cache.put(small_result)
    record = json.loads(path.read_text())
    record["timing_s"] = value
    path.write_text(json.dumps(record) + "\n")
    decoded = parse_lines(path.read_bytes())[0]
    if ok:
        assert record_to_optimal_set(decoded) == small_result
        assert cache.get(small_result.params) == small_result
        return
    message = r"^timing_s: must be null or a finite number >= 0$"
    with pytest.raises(RecordError, match=message):
        record_to_optimal_set(decoded)
    with pytest.raises(RecordError, match=message):
        cache.get(small_result.params)


def test_scans_wrap_no_member_cold_or_warm(tmp_path):
    # A scan counts each optimal set from its orbit sizes, searched or read
    # back from the cache, so no result wraps its members until they are read.
    cache = ResultCache(tmp_path)
    seen = []

    def runner(params):
        result = cache.get(params)
        if result is None:
            result = run_search(params)
            cache.put(result)
        seen.append(result)
        return result

    cold = nonattacking_threshold(2, 4, 10, runner=runner)
    warm = nonattacking_threshold(2, 4, 10, runner=runner)
    assert cold == warm and len(seen) == 2 * len(cold.entries)
    # The first half were searched, the second half read from the cache.
    assert all("configurations" not in vars(result) for result in seen)
    for entry, result in zip(cold.entries + warm.entries, seen):
        assert len(result.configurations) == sum(c.orbit_size for c in result.classes)
        assert entry.optimal_count == len(result.configurations)
        queens = [c.queens for c in result.configurations]
        assert queens == sorted(queens)


def test_warm_scans_build_no_pattern(tmp_path, monkeypatch):
    # A rescan from the cache rebuilds each optimal set and fingerprints its
    # classes without a single Pattern.
    cache = ResultCache(tmp_path)

    def runner(params):
        result = cache.get(params)
        if result is None:
            result = run_search(params)
            cache.put(result)
        return result

    cold = [nonattacking_threshold(3, 4, 10, runner=runner), stabilizing_threshold(2, 6, 12, runner=runner)]
    built = []
    post_init = Pattern.__post_init__

    def counting(self):
        built.append(self.offsets)
        post_init(self)

    monkeypatch.setattr(Pattern, "__post_init__", counting)
    warm = [nonattacking_threshold(3, 4, 10, runner=runner), stabilizing_threshold(2, 6, 12, runner=runner)]
    assert warm == cold
    assert built == []


# Acceptance criterion 4's six scans.
_CRITERION_4 = (
    (nonattacking_threshold, 2, 4, 14),
    (nonattacking_threshold, 3, 4, 14),
    (nonattacking_threshold, 4, 5, 13),
    (stabilizing_threshold, 2, 6, 16),
    (stabilizing_threshold, 3, 6, 18),
    (stabilizing_threshold, 4, 8, 20),
)


def test_pattern_memo_changes_no_fingerprint(tmp_path):
    # Cold and then warm through one cache, every fingerprint is the hash of
    # the patterns that the unmemoized canonical_offsets gives, each counted
    # with its orbit size; the warm pass reads them from the bounded memo.
    memo = queencover.search._canonical_of
    memo.cache_clear()
    cache = ResultCache(tmp_path)
    results = {}

    def runner(params):
        result = cache.get(params)
        if result is None:
            result = run_search(params)
            cache.put(result)
        results[params.q, params.n] = result
        return result

    for _ in ("cold", "warm"):
        for scan, q, n_lo, n_hi in _CRITERION_4:
            for entry in scan(q, n_lo, n_hi, runner=runner).entries:
                counts = Counter()
                for c in results[q, entry.n].classes:
                    counts[canonical_offsets(c.representative.queens)] += c.orbit_size
                expected = hashlib.sha256(repr(sorted(counts.elements())).encode()).hexdigest()
                assert entry.pattern_fingerprint == expected, (scan.__name__, q, entry.n)
    info = memo.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
    assert info.hits >= info.currsize  # the warm pass alone hits every one
