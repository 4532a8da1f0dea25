"""Record round-trips, validation failures and the result cache."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queencover import (
    RecordError,
    SearchParams,
    UnsupportedSchemaError,
    exhaustive_optimal,
)
from queencover.serialization import (
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
    record["configurations"][0] = [[0, 0], [0, 0]]
    with pytest.raises(RecordError, match="duplicate"):
        record_to_optimal_set(record)


def test_record_rejects_unsorted_configuration(small_result):
    record = optimal_set_record(small_result)
    record["configurations"][0].reverse()
    with pytest.raises(RecordError, match=r"configurations\[0\].*sorted"):
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


@pytest.mark.parametrize("value", [False, True])
@pytest.mark.parametrize("edit", ["configuration", "representative", "orbit_size"])
def test_record_rejects_booleans_as_integers(edit, value):
    # JSON booleans decode to bool, an int subclass, but are no coordinates
    # or counts.
    record = {
        "schema_version": 1,
        "kind": "search_result",
        "params": {"q": 1, "n": 3, "mode": "exhaustive"},
        "max_cover": 9,
        "configurations": [[[0, 0]]],
        "classes": [{"representative": [[0, 0]], "orbit_size": 1, "stabilizer_order": 8}],
    }
    record_to_optimal_set(record)
    if edit == "configuration":
        record["configurations"][0] = [[value, value]]
    elif edit == "representative":
        record["classes"][0]["representative"] = [[value, value]]
    else:
        record["classes"][0]["orbit_size"] = value
    with pytest.raises(RecordError):
        record_to_optimal_set(record)


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
