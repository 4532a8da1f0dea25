"""Record round-trips, validation failures and the result cache."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import queencover.search
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
        "params": {"q": 1, "n": 3, "mode": "exhaustive"},
        "max_cover": 9,
        "classes": [{"representative": [[0, 0]], "orbit_size": 1, "stabilizer_order": 8}],
    }
    return {**record, **fields}


def _cls(rep, orbit_size):
    return {"representative": rep, "orbit_size": orbit_size, "stabilizer_order": 8 // orbit_size}


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
    windowed = {"q": 1, "n": 3, "mode": "windowed", "window": 3}
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
    ],
    ids=[
        "configuration-outside-the-classes", "two-queens-for-q-1", "queen-off-the-board",
        "corner-with-orbit-1", "non-least-representative", "two-representatives-of-one-orbit",
        "classes-out-of-order", "repeated-class", "no-classes",
    ],
)
def test_record_classes_must_be_their_own_orbits(fields, message):
    # The classes are refused unless they equal the classes rebuilt from
    # their representatives; sorted and least, they decode.
    record_to_optimal_set(_center_record(classes=[_cls([[-1, -1]], 4), _cls([[0, 0]], 1)]))
    with pytest.raises(RecordError, match=message):
        record_to_optimal_set(_center_record(**fields))


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


def test_parse_error_names_byte_offset():
    data = b'{"schema_version":1}\n{"broken\n'
    with pytest.raises(RecordError, match=r"byte 2[0-9]"):
        parse_lines(data)


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
    assert all("configurations" not in vars(result) for result in seen)
    for entry, result in zip(cold.entries + warm.entries, seen):
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
