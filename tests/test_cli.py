"""End-to-end CLI behavior via subprocess: formats, cache, exit codes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import queencover.cli
from queencover.search import OptimalSet, SearchParams, run_search
from queencover.serialization import SCHEMA_VERSION, params_fingerprint

KNIGHT = "(-1,0);(0,2);(1,-1);(2,1)"

# The subprocess imports queencover from this checkout's src, ahead of any
# other copy, whether or not pytest itself was started with it on the path.
SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args, check=False):
    result = subprocess.run(
        [sys.executable, "-m", "queencover", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=ENV,
    )
    if check and result.returncode != 0:
        raise AssertionError(f"CLI failed ({result.returncode}): {result.stderr}")
    return result


def test_import_does_not_load_numpy():
    # multiprocessing too: no code path of the package imports it.
    code = (
        "import sys, queencover, queencover.cli; "
        "print('numpy' in sys.modules, 'multiprocessing' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


def test_fork_join_search_loads_neither_multiprocessing_nor_ctypes():
    # The fork-join shares its state through one anonymous mmap, not
    # multiprocessing's ctypes values.
    code = (
        "import sys, contextlib, io, queencover.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = queencover.cli.main("
        "['search', '--workers', '2', '--q', '6', '--n', '21', '--mode', 'windowed'])\n"
        "print(code, 'multiprocessing' in sys.modules, 'ctypes' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 False False"


def test_serial_search_loads_none_of_the_fork_join_modules():
    # mmap, pickle and signal serve only a fork-join's shards.
    code = (
        "import sys, queencover\n"
        "queencover.run_search(queencover.SearchParams(q=3, n=9))\n"
        "queencover.run_search(queencover.SearchParams(q=6, n=21, mode='windowed'))\n"
        "queencover.loss_minimal_patterns(4, 3)\n"
        "print([m for m in ('mmap', 'pickle', 'signal') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# Run in a fresh interpreter: prints, as its last line, which of these modules
# were loaded after importing the package, after six commands that hash
# nothing (text-format search and structured fundamentals print no
# fingerprint), and after opening a result cache.
_FOOTPRINT = """
import json, sys
from io import StringIO
from contextlib import redirect_stdout
LOADED = ("_hashlib", "hashlib", "logging")
loaded = lambda: [m for m in LOADED if m in sys.modules]
import queencover, queencover.cli
for name in ("geometry", "coverage", "loss", "constructions", "search", "serialization"):
    __import__("queencover." + name)
stages = {"import": loaded()}
record, cache, knight = sys.argv[1:]
with redirect_stdout(StringIO()):
    codes = [
        queencover.cli.main(argv)
        for argv in (
            ["cover", "--config", knight, "--n", "10"],
            ["loss", "--config", knight],
            ["render", "--config", knight, "--n", "6", "--annotate", "attack-numbers"],
            ["verify", "--input", record],
            ["search", "--q", "2", "--n", "6"],
            ["--format", "structured", "fundamentals", "--input", record],
        )
    ]
stages["commands"] = loaded()
from queencover.serialization import ResultCache
ResultCache(cache)
stages["cache"] = loaded()
print(json.dumps({"codes": codes, **stages}))
"""


def test_only_hashing_loads_hashlib_and_nothing_loads_logging(tmp_path):
    # hashlib's OpenSSL backend maps about 3.5 MB, so only a cache or a
    # fingerprint may load it; the package has no logging at all.
    from queencover.search import SearchParams, exhaustive_optimal
    from queencover.serialization import optimal_set_record, to_json_line

    record = tmp_path / "record"
    record.write_text(to_json_line(optimal_set_record(exhaustive_optimal(SearchParams(q=2, n=6)))) + "\n")
    result = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(record), str(tmp_path / "cache"), KNIGHT],
        capture_output=True, text=True, timeout=60, env=ENV,
    )
    assert result.returncode == 0, result.stderr
    stages = json.loads(result.stdout.splitlines()[-1])
    assert stages["codes"] == [0, 0, 0, 0, 0, 0]
    assert stages["import"] == [] and stages["commands"] == []
    assert "hashlib" in stages["cache"] and "logging" not in stages["cache"]


def test_cover_example():
    result = run_cli("cover", "--config", KNIGHT, "--n", "12", check=True)
    assert "cover: 120" in result.stdout


def test_cover_structured():
    result = run_cli("--format", "structured", "cover", "--config", KNIGHT, "--n", "10", check=True)
    payload = json.loads(result.stdout)
    assert payload["cover"] == 88  # (4 * 10 - 3) * 4 - 60
    assert payload["attack_histogram"] == {"1": 48, "2": 28, "3": 4, "4": 4}
    assert payload["schema_version"] == SCHEMA_VERSION


# Each subcommand's arguments and the kind of its structured records;
# RECORD stands for a file holding one search record.
_STRUCTURED_KINDS = {
    "search": (["--q", "2", "--n", "6"], "search_result"),
    "cover": (["--config", KNIGHT, "--n", "10"], "cover"),
    "loss": (["--config", KNIGHT], "loss"),
    "thresholds": (
        ["--q", "2", "--kind", "stabilizing", "--n-lo", "3", "--n-hi", "5"], "threshold_report"
    ),
    "stairs": (["--q", "5"], "stairs"),
    "fundamentals": (["--input", "RECORD"], "fundamentals"),
    "render": (["--config", KNIGHT, "--n", "6"], "render"),
    "verify": (["--input", "RECORD"], "verify"),
}


@pytest.mark.parametrize("command", list(_STRUCTURED_KINDS))
def test_structured_records_carry_the_schema_version_and_their_kind(command, tmp_path):
    from queencover.serialization import optimal_set_record, to_json_line

    record = tmp_path / "record"
    record.write_text(to_json_line(optimal_set_record(run_search(SearchParams(q=2, n=6)))) + "\n")
    args, kind = _STRUCTURED_KINDS[command]
    args = [str(record) if a == "RECORD" else a for a in args]
    out = run_cli("--format", "structured", command, *args, check=True).stdout
    payloads = [json.loads(line) for line in out.splitlines()]
    assert payloads
    assert [(p["schema_version"], p["kind"]) for p in payloads] == [(SCHEMA_VERSION, kind)] * len(payloads)


def test_stairs_table_row():
    result = run_cli("stairs", "--q", "8", check=True)
    assert "internal loss: 222" in result.stdout
    assert "total odd: 272" in result.stdout
    assert "total even: 272" in result.stdout


def test_search_reports_two_classes():
    result = run_cli("search", "--q", "2", "--n", "10", "--mode", "exhaustive", check=True)
    assert "max cover: 60" in result.stdout
    assert "optimal configurations: 16" in result.stdout
    assert "classes: 2" in result.stdout
    assert result.stdout.count("orbit 8") == 2


def test_text_search_counts_optima_without_reading_members(tmp_path, monkeypatch, capsys):
    # The text count is the classes' summed orbit sizes, the same searched
    # and read back through a warm cache, and neither reads a member.
    expected = len(run_search(SearchParams(q=3, n=13)).members)
    read = []
    members = OptimalSet.members

    def counting(self):
        read.append(self.params)
        return members.func(self)

    monkeypatch.setattr(OptimalSet, "members", property(counting))
    args = ["--cache-dir", str(tmp_path), "search", "--q", "3", "--n", "13"]
    assert queencover.cli.main(args) == 0
    cold = capsys.readouterr().out
    assert queencover.cli.main(args) == 0
    warm = capsys.readouterr().out
    assert f"optimal configurations: {expected}\n" in cold
    assert warm == cold and read == []


def test_cache_file_of_other_params_is_an_input_error(tmp_path):
    # A record whose fingerprint field was edited to another query's file
    # name used to answer that query: (2,13)'s max cover 84 for B_12.
    run_cli("--cache-dir", str(tmp_path), "search", "--q", "2", "--n", "13", check=True)
    (path,) = tmp_path.iterdir()
    record = json.loads(path.read_text())
    name = params_fingerprint(SearchParams(q=2, n=12))
    record["fingerprint"] = name
    (tmp_path / name).write_text(json.dumps(record) + "\n")
    result = run_cli("--cache-dir", str(tmp_path), "search", "--q", "2", "--n", "12")
    assert result.returncode == 2, result.stdout
    assert result.stderr.startswith("error: cache file ") and "holds the result of" in result.stderr
    assert result.stdout == ""


def test_windowed_search_is_labelled_window_relative():
    result = run_cli("search", "--q", "5", "--n", "17", "--mode", "windowed", check=True)
    assert "max cover: 233" in result.stdout
    label = next(line for line in result.stdout.splitlines() if line.startswith("window used"))
    assert "within the window" in label and "not certified for B_17" in label
    exact = run_cli("search", "--q", "5", "--n", "17", check=True)
    assert "window used" not in exact.stdout


def test_search_has_no_require_nonattacking_flag():
    result = run_cli("search", "--q", "2", "--n", "10", "--require-nonattacking")
    assert result.returncode == 2


def test_search_structured_deterministic():
    args = ("--format", "structured", "search", "--q", "3", "--n", "9")
    first = run_cli(*args, check=True).stdout
    second = run_cli(*args, check=True).stdout
    with_workers = run_cli("--workers", "2", *args, check=True).stdout
    assert first == second == with_workers
    payload = json.loads(first)
    assert payload["kind"] == "search_result"
    assert "timing_s" not in payload and "nodes" not in payload


def test_render_annotated_knight():
    result = run_cli(
        "render", "--config", KNIGHT, "--n", "10", "--annotate", "attack-numbers",
        check=True,
    )
    grid = result.stdout
    assert grid.count("Q") == 4
    assert grid.count("4") == 4
    assert grid.count("3") == 4
    assert grid.count("2") == 28


def test_render_annotated_matches_per_square_counts():
    # B_60 with queens on its edges and thirteen queens on the lines through
    # (0, 0), two of them corners, so (0, 0) is drawn "*": the row-wise
    # render must draw the same grid as reading every square's count.
    from queencover import BoardSpec, Configuration, attack_field
    from queencover.cli import render_board

    board = BoardSpec(60)
    config = Configuration.of(
        [(5, 0), (-5, 0), (0, 5), (0, -5), (5, 5), (-5, -5), (5, -5), (-5, 5), (10, 0), (0, 10), (10, 10)]
        + [(-29, -29), (30, 30), (30, -29), (-29, 17)]
    )
    field = attack_field(config, board)

    def cell(s):
        if s in config:
            return "Q"
        a = field.count(s)
        return str(a) if 2 <= a <= 9 else "*" if a > 9 else "."

    xs = range(board.lo, board.hi + 1)
    expected = [
        ("0" if y == 0 else " ") + " " + " ".join(cell((x, y)) for x in xs)
        for y in range(board.hi, board.lo - 1, -1)
    ]
    rows = render_board(config, board, annotate="attack-numbers").splitlines()
    assert rows[:-1] == expected
    assert field.count((0, 0)) == 13 and "*" in rows[30]


def test_render_empty_board():
    result = run_cli("render", "--config", "", "--n", "3", check=True)
    assert result.stdout.count(".") == 9
    assert "Q" not in result.stdout


def test_render_single_queen():
    result = run_cli("render", "--config", "(0,0)", "--n", "3", check=True)
    rows = result.stdout.splitlines()
    assert rows[1].startswith("0")
    assert "Q" in rows[1]


def test_loss_reports_both_parities():
    result = run_cli("--format", "structured", "loss", "--config", KNIGHT, check=True)
    payload = json.loads(result.stdout)
    totals = {d["parity"]: d["total"] for d in payload["breakdowns"]}
    assert totals == {"odd": 60, "even": 60}
    assert all(d["stable"] for d in payload["breakdowns"])


def test_loss_default_boards_are_stable_for_both_parities():
    # The pair crosses at (3, 8), one row above B_14 (rows -6..7).
    result = run_cli("--format", "structured", "loss", "--config", "(-2,3);(3,2)", check=True)
    payload = json.loads(result.stdout)
    by_parity = {d["parity"]: d for d in payload["breakdowns"]}
    assert by_parity["odd"]["n"] == 19 and by_parity["even"]["n"] == 16
    assert by_parity["odd"]["internal"] == by_parity["even"]["internal"] == 12
    assert all(d["stable"] for d in payload["breakdowns"])


def test_thresholds_nonattacking():
    result = run_cli(
        "thresholds", "--q", "2", "--kind", "nonattacking", "--n-lo", "4", "--n-hi", "14",
        check=True,
    )
    assert "N1 candidate: 9" in result.stdout
    result = run_cli(
        "--format", "structured", "thresholds", "--q", "2", "--kind", "nonattacking",
        "--n-lo", "4", "--n-hi", "14", check=True,
    )
    payload = json.loads(result.stdout)
    assert set(payload) == {
        "schema_version", "kind", "threshold", "q", "n_lo", "n_hi", "empirical",
        "n1_candidate", "n2_odd", "n2_even", "n2_combined", "warnings", "entries",
    }
    entry_keys = {
        "n", "max_cover", "optimal_count", "all_nonattacking", "class_sizes",
        "pattern_fingerprint",
    }
    assert [e["n"] for e in payload["entries"]] == list(range(4, 15))
    assert all(set(e) == entry_keys for e in payload["entries"])
    assert payload["kind"] == "threshold_report"
    assert payload["threshold"] == "nonattacking"
    assert payload["n1_candidate"] == 9
    assert payload["empirical"] is True


def test_cache_hits_are_byte_identical(tmp_path):
    args = (
        "--format", "structured", "--cache-dir", str(tmp_path),
        "search", "--q", "2", "--n", "10",
    )
    first = run_cli(*args, check=True)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout


def test_verify_accepts_cached_result_and_rejects_tampering(tmp_path):
    run_cli(
        "--cache-dir", str(tmp_path), "search", "--q", "2", "--n", "10", check=True
    )
    path = next(tmp_path.iterdir())
    ok = run_cli("verify", "--input", str(path))
    assert ok.returncode == 0
    assert "OK" in ok.stdout
    record = json.loads(path.read_text())
    record["max_cover"] += 1
    path.write_text(json.dumps(record) + "\n")
    bad = run_cli("verify", "--input", str(path))
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout


def test_verify_structured_reports_each_mismatch(tmp_path):
    run_cli("--cache-dir", str(tmp_path), "search", "--q", "2", "--n", "6", check=True)
    path = next(tmp_path.iterdir())
    args = ("--format", "structured", "verify", "--input", str(path))
    ok = run_cli(*args)
    assert ok.returncode == 0
    assert json.loads(ok.stdout) == {
        "schema_version": SCHEMA_VERSION, "kind": "verify", "checked": 12, "mismatches": []
    }
    record = json.loads(path.read_text())
    record["max_cover"] += 1
    path.write_text(json.dumps(record) + "\n")
    bad = run_cli(*args)
    assert bad.returncode == 1
    payload = json.loads(bad.stdout)
    assert payload["checked"] == 12 and len(payload["mismatches"]) == 12
    stored = record["max_cover"]
    assert payload["mismatches"][3] == {
        "record": 0, "configuration": 3, "stored": stored, "recomputed": stored - 1
    }


def test_fundamentals_prints_class_table(tmp_path):
    # Both formats restate the stored searches: the text class lines equal
    # those of `search`, the structured fields equal the stored record's.
    searches = [("--q", "2", "--n", "10"), ("--q", "5", "--n", "17", "--mode", "windowed")]
    class_lines = []
    stored = []
    for i, args in enumerate(searches):
        cache = tmp_path / f"cache{i}"
        text = run_cli("--cache-dir", str(cache), "search", *args, check=True).stdout
        class_lines += [line for line in text.splitlines() if line.startswith("  class ")]
        stored.append(json.loads(next(cache.iterdir()).read_text()))
    path = tmp_path / "results"
    path.write_text("".join(json.dumps(r) + "\n" for r in stored))

    text = run_cli("fundamentals", "--input", str(path), check=True).stdout
    assert "max_cover=60" in text and "orbit 8" in text
    assert [line for line in text.splitlines() if line.startswith("  class ")] == class_lines
    assert len(class_lines) == 4

    out = run_cli("--format", "structured", "fundamentals", "--input", str(path), check=True)
    records = [json.loads(line) for line in out.stdout.splitlines()]
    assert len(records) == len(stored)
    for record, source in zip(records, stored):
        assert record["kind"] == "fundamentals"
        for key in ("params", "max_cover", "classes"):
            assert record[key] == source[key]


def test_exit_codes():
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("cover", "--config", "(1;2)", "--n", "5").returncode == 2
    assert run_cli("search", "--q", "6", "--n", "21", "--budget", "1000").returncode == 3
    assert run_cli("cover", "--config", "(0,0)", "--n", "0").returncode == 2
    assert run_cli("verify", "--input", "/nonexistent/file").returncode == 2
    assert run_cli("search", "--q", "2", "--n", "9", "--window", "5").returncode == 2
    result = run_cli(
        "thresholds", "--q", "2", "--kind", "nonattacking", "--n-lo", "0", "--n-hi", "3"
    )
    assert result.returncode == 2 and result.stderr.startswith("error: n_lo must be >= 1")
    result = run_cli(
        "thresholds", "--q", "5", "--kind", "nonattacking", "--n-lo", "1", "--n-hi", "2",
        "--workers", "0",
    )
    assert result.returncode == 2 and result.stderr.startswith("error: workers must be >= 1")


def test_unreadable_paths_are_input_errors(tmp_path):
    # A directory as --input, and an existing file as --cache-dir.
    for args in (
        ("verify", "--input", str(tmp_path)),
        ("fundamentals", "--input", str(tmp_path)),
        ("search", "--q", "2", "--n", "5", "--cache-dir", __file__),
    ):
        result = run_cli(*args)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


def test_corrupt_result_file_parse_error(tmp_path):
    path = tmp_path / "broken"
    path.write_bytes(b'{"schema_version":1,"kind":"search_result"\n')
    result = run_cli("verify", "--input", str(path))
    assert result.returncode == 2
    assert "byte" in result.stderr


@pytest.mark.parametrize("fmt", ["text", "structured"])
@pytest.mark.parametrize("command", ["verify", "fundamentals"])
@pytest.mark.parametrize("content", [b"", b"\n  \n\n"], ids=["empty", "blank-lines"])
def test_result_file_without_records_is_an_input_error(tmp_path, command, fmt, content):
    # A truncated result file must not pass as "0 configurations checked".
    path = tmp_path / "results"
    path.write_bytes(content)
    result = run_cli("--format", fmt, command, "--input", str(path))
    assert result.returncode == 2, result.stdout
    assert result.stderr == f"error: {path} holds no records\n"
    assert result.stdout == ""


def test_unsupported_schema_version(tmp_path):
    # The version-1 layout, which stored every orbit member.
    record = {
        "schema_version": 1,
        "kind": "search_result",
        "params": {"q": 1, "n": 3, "mode": "exhaustive"},
        "max_cover": 9,
        "configurations": [[[0, 0]]],
        "classes": [{"representative": [[0, 0]], "orbit_size": 1, "stabilizer_order": 8}],
    }
    path = tmp_path / "future"
    path.write_text(json.dumps(record) + "\n")
    result = run_cli("verify", "--input", str(path))
    assert result.returncode == 2
    assert "schema_version" in result.stderr


def _center_record() -> dict:
    """A valid q=1 record on B_3, whose one optimum is the center."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "search_result",
        "params": {"q": 1, "n": 3, "mode": "exhaustive", "window": None},
        "max_cover": 9,
        "classes": [{"representative": [[0, 0]], "orbit_size": 1, "stabilizer_order": 8}],
    }


def _assert_input_error(tmp_path, record: dict, field: str) -> None:
    """verify and fundamentals both exit 2 on the record, naming the field."""
    stored = tmp_path / "record"
    stored.write_text(json.dumps(record) + "\n")
    for command in ("verify", "fundamentals"):
        result = run_cli(command, "--input", str(stored))
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: {field}"), result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("params", "q"), "1", "params: q "),
        (("params", "n"), "3", "params: n "),
        (("params",), 7, "params: "),
        (("classes", 0), 7, "classes[0]: "),
        (("max_cover",), True, "max_cover: "),
        (("window_used",), [1], "window_used: "),
        (("window_used",), 4, "window_used: "),
        (("window_retries",), "x", "window_retries: "),
        (("nodes",), -1, "nodes: "),
        (("params", "window"), 3, "params: window requires mode='windowed'"),
    ],
    ids=[
        "q-string", "n-string", "params-number", "class-number", "max-cover-bool",
        "window-list", "window-above-n", "retries-string", "nodes-negative",
        "exhaustive-params-window",
    ],
)
def test_malformed_record_is_an_input_error(tmp_path, path, value, field):
    record = _center_record()
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    _assert_input_error(tmp_path, record, field)


@pytest.mark.parametrize(
    "edits, field",
    [
        ({"window_used": 3}, "window_used: "),
        ({"window_retries": 1}, "window_retries: "),
        ({"params": {"q": 1, "n": 3, "mode": "windowed", "window": 3}}, "window_used: "),
        (
            {"params": {"q": 1, "n": 3, "mode": "windowed", "window": 3}, "window_used": 2},
            "window_used: ",
        ),
    ],
    ids=["exhaustive-with-window", "exhaustive-with-retries", "windowed-null", "windowed-parity"],
)
def test_window_fields_that_contradict_the_mode_are_input_errors(tmp_path, edits, field):
    _assert_input_error(tmp_path, {**_center_record(), **edits}, field)


def test_edited_cache_record_is_an_input_error(tmp_path):
    # A cache hit goes through the same decoder as `verify`: an edited
    # window_used or window_retries is refused, not printed.
    args = ("--cache-dir", str(tmp_path), "search", "--q", "2", "--n", "6", "--mode", "windowed")
    run_cli(*args, check=True)
    path = next(tmp_path.iterdir())
    record = json.loads(path.read_text())
    record.update(window_used=[1], window_retries="x")
    path.write_text(json.dumps(record) + "\n")
    result = run_cli(*args)
    assert result.returncode == 2, result.stdout
    assert result.stderr.startswith("error: ")
    assert "window used" not in result.stdout


def test_closed_stdout_exits_quietly():
    # About 320 KB of output, more than a pipe holds, so the CLI is still
    # writing when the reader closes the pipe after the first line.
    with subprocess.Popen(
        [sys.executable, "-m", "queencover", "render", "--config", "(0,0)", "--n", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    ) as proc:
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert stderr == b""


def test_tracer_bindings_name_existing_attributes():
    # perfbench/tracer.py wraps these names on the imported modules for
    # `perfbench/run.py --trace 1`; a binding that looks unused inside the
    # package (search.pair_crossings, loss.pair_crossings) must stay.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for caller, attr, _ in tracer.BINDINGS:
        module = importlib.import_module(f"queencover.{caller}")
        assert callable(getattr(module, attr, None)), f"queencover.{caller}.{attr}"
    for modname, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"queencover.{modname}"), cls_name)
        assert meth in vars(cls), f"queencover.{modname}.{cls_name}.{meth}"


def test_benchmark_checker_selftest_passes():
    # The benchmark's checkers run on this checkout's src; a program change
    # that breaks them fails here first.
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
        env=ENV,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all checker self-tests passed" in result.stdout.splitlines()
