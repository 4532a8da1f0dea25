"""Stable result records, fingerprinting and the on-disk result cache.

Records are single-line JSON with sorted keys.  Every record, a search
record or a structured CLI output, is its fields plus schema_version and
kind, added by make_record.  A parse error names the byte it occurs at.  A
search record stores an optimal set once, as its fundamental classes.
Decoding checks them in the package's one orbit pass (search._orbit_classes)
on the engine the search finished on, the window's box for a windowed
record: each representative lies on that box, is the least image of its
orbit and comes after the previous class's, its orbit size is its number of
images, and no image lies in an earlier class's orbit.  The OptimalSet keeps
the orbits that pass found as key tuples; its members are mapped to squares
and wrapped as Configurations only when its configurations are read.
Identical inputs must produce bit-identical structured output, so the stable
record view excludes volatile metadata (wall-clock timing, node counts);
those are kept only inside cache files.  Cache files are keyed by a
fingerprint covering both the problem parameters and a content hash of this
package's sources, so results from older code never satisfy a query.  The
source hash is bound when a cache opens; hashlib, whose OpenSSL backend maps
about 3.5 MB, loads only where something is hashed, so a run that opens no
cache and computes no fingerprint never loads it.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Optional

from .coverage import Configuration
from .errors import DomainError, RecordError, UnsupportedSchemaError
from .geometry import BoardSpec, Square
from .search import (
    FundamentalClass,
    OptimalSet,
    SearchParams,
    _engine,
    _orbit_classes,
    _selection,
)

SCHEMA_VERSION = 2

# A search record's fields: the stable record's, then the cache file's extras.
_FIELDS = {
    "schema_version", "kind", "fingerprint", "params", "max_cover", "classes",
    "window_used", "window_retries", "timing_s", "nodes",
}


@lru_cache(maxsize=1)
def engine_fingerprint() -> str:
    """Content hash of this package's source files."""
    # Imported here: hashlib loads OpenSSL, and only fingerprints need it.
    import hashlib

    pkg = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def params_fingerprint(params: SearchParams) -> str:
    """Cache key: engine hash plus the result-determining parameters."""
    import hashlib

    blob = engine_fingerprint() + json.dumps(params.problem_key(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def encode_squares(squares: Iterable[Square]) -> list[list[int]]:
    """The on-disk form of a sequence of squares: a list of [x, y] pairs."""
    return [[x, y] for x, y in squares]


def _decode_config(payload, where: str) -> Configuration:
    # Exact type tests: a JSON `false` decodes to a bool, an int subclass.
    if type(payload) is not list or not all(
        type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
        for p in payload
    ):
        raise RecordError(f"{where}: configuration must be a list of [x, y] pairs")
    try:
        return Configuration(tuple(tuple(p) for p in payload))
    except DomainError as e:
        raise RecordError(f"{where}: {e}") from e


def result_fields(result: OptimalSet) -> dict:
    """The params, max_cover and classes of a result's record; hashes nothing."""
    return {
        "params": result.params.problem_key(),
        "max_cover": result.max_cover,
        "classes": [
            {
                "representative": encode_squares(c.representative.queens),
                "orbit_size": c.orbit_size,
                "stabilizer_order": c.stabilizer_order,
            }
            for c in result.classes
        ],
    }


def make_record(kind: str, fields: dict) -> dict:
    """A record of the given kind: its fields, then schema_version and kind over them."""
    return {**fields, "schema_version": SCHEMA_VERSION, "kind": kind}


def optimal_set_record(result: OptimalSet) -> dict:
    """JSON-ready record for one search result, deterministic for its parameters."""
    return make_record(
        "search_result",
        {
            "fingerprint": params_fingerprint(result.params),
            **result_fields(result),
            "window_used": result.window_used,
            "window_retries": result.window_retries,
        },
    )


def to_json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def parse_lines(data: bytes) -> list[dict]:
    """Parse line-delimited JSON records, reporting absolute byte offsets."""
    records = []
    offset = 0
    for raw in data.split(b"\n"):
        stripped = raw.strip()
        if stripped:
            try:
                records.append(json.loads(stripped.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError) as e:
                if isinstance(e, UnicodeDecodeError):
                    pos = e.start
                else:
                    # A JSONDecodeError counts characters of the decoded line.
                    pos = len(e.doc[: e.pos].encode("utf-8"))
                raise RecordError(
                    f"parse error at byte {offset + len(raw) - len(raw.lstrip()) + pos}"
                ) from e
        offset += len(raw) + 1
    return records


def record_to_optimal_set(record: dict) -> OptimalSet:
    """Rebuild an OptimalSet from a record; a malformed record raises RecordError.

    Schema version, field names and types and the window fields against the
    mode and the window are checked; params must hold exactly q, n, mode and
    window, go through SearchParams' own validation and equal its resolved
    problem key, as the encoder writes them.  The classes must be their own
    sorted orbits, each representative params.q queens on B_n, within
    window_used for a windowed record, checked in one orbit pass (module
    docstring) whose orbit keys the OptimalSet keeps, its configurations
    left unbuilt until read.  timing_s must be null or a finite number >= 0.
    Cover is not checked.
    """
    if not isinstance(record, dict):
        raise RecordError("record must be an object")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    if record.get("kind") != "search_result":
        raise RecordError(f"unexpected record kind {record.get('kind')!r}")
    unknown = record.keys() - _FIELDS
    if unknown:
        raise RecordError(f"unknown field {min(unknown)!r}")
    for key in ("params", "max_cover", "classes"):
        if key not in record:
            raise RecordError(f"missing field {key!r}")
    p = record["params"]
    if not isinstance(p, dict):
        raise RecordError("params: must be an object")
    if p.keys() != {"q", "n", "mode", "window"}:
        raise RecordError(f"params: fields must be q, n, mode and window, got {list(p)}")
    try:
        params = SearchParams(**p)
    except DomainError as e:
        raise RecordError(f"params: {e}") from e
    # The encoder writes the resolved fields: a windowed record's window is
    # never null, so one that is would decode with the default window.
    if params.problem_key() != p:
        raise RecordError(f"params: must be resolved as {params.problem_key()}, got {p}")
    if type(record["max_cover"]) is not int:
        raise RecordError("max_cover: must be an integer")
    counts = {key: record.get(key, 0) for key in ("window_retries", "nodes")}
    for key, value in counts.items():
        if not (type(value) is int and value >= 0):
            raise RecordError(f"{key}: must be an integer >= 0")
    timing = record.get("timing_s")
    # JSON's NaN and Infinity parse as floats; neither passes the bounds.
    if timing is not None and not (type(timing) in (int, float) and 0 <= timing < float("inf")):
        raise RecordError("timing_s: must be null or a finite number >= 0")
    window_used, n = record.get("window_used"), params.n
    board = BoardSpec(n)
    if params.mode == "exhaustive":
        if window_used is not None:
            raise RecordError("window_used: must be null in exhaustive mode")
        if counts["window_retries"]:
            raise RecordError("window_retries: must be 0 in exhaustive mode")
    else:
        # The search starts on its window's box and grows it a ring per retry.
        start = board.box_radius(params.window)
        side = board.box_side(start)
        if not (type(window_used) is int and side <= window_used <= n and (n - window_used) % 2 == 0):
            raise RecordError(f"window_used: must be a side from {side} to {n} of the parity of n")
        grown = board.box_radius(window_used) - start
        if counts["window_retries"] > grown:
            raise RecordError(f"window_retries: must be at most {grown}, the rings grown")
    if not isinstance(record["classes"], list) or not record["classes"]:
        raise RecordError("classes: must be a non-empty list")
    classes = []
    for i, cls in enumerate(record["classes"]):
        if not isinstance(cls, dict):
            raise RecordError(f"classes[{i}]: must be an object")
        rep = _decode_config(cls.get("representative"), f"classes[{i}].representative")
        if len(rep) != params.q:
            raise RecordError(f"classes[{i}].representative: must hold {params.q} queens")
        size = cls.get("orbit_size")
        stab = cls.get("stabilizer_order")
        if type(size) is not int or type(stab) is not int or size * stab != 8:
            raise RecordError(f"classes[{i}]: orbit_size x stabilizer_order must be 8")
        classes.append(FundamentalClass(rep, size, stab))
    # One orbit pass on the box engine the search finished on: the window's,
    # so a windowed record's representatives must lie in the window.  It
    # skips a representative whose orbit an earlier class holds, so the
    # classes are their own orbits when it finds one per class, each led by
    # its representative's keys, as large as the class says, ascending.
    radius = board.box_radius(window_used or n)
    eng = _engine(n, radius)
    try:
        sels = [_selection(eng, radius, c.representative.queens) for c in classes]
    except DomainError as e:
        raise RecordError(f"classes: {e}") from e
    orbits = _orbit_classes(eng, sels)
    lex = eng.lex
    # A representative is sorted, and keys order as squares: its key tuple.
    least = [tuple([lex[j] for j in sel]) for sel in sels]
    if (
        len(orbits) != len(classes)
        or any(o[0] != k or len(o) != c.orbit_size for o, k, c in zip(orbits, least, classes))
        or any(a >= b for a, b in zip(least, least[1:]))
    ):
        raise RecordError("classes: not the sorted orbits of least representatives")
    return OptimalSet(
        params=params,
        max_cover=record["max_cover"],
        classes=tuple(classes),
        orbit_keys=tuple(orbits),
        by_lex=eng.by_lex,
        window_used=window_used,
        window_retries=counts["window_retries"],
        nodes=counts["nodes"],
    )


@dataclass
class ResultCache:
    """One file per fingerprint; atomic writes; safe for concurrent processes.

    Every key hashes the package's sources, so the cache binds that hash,
    and loads hashlib, when it opens rather than at its first lookup.
    """

    directory: Path

    def __post_init__(self):
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        engine_fingerprint()

    def _path(self, fingerprint: str) -> Path:
        return self.directory / fingerprint

    def get(self, params: SearchParams) -> Optional[OptimalSet]:
        path = self._path(params_fingerprint(params))
        if not path.exists():
            return None
        records = parse_lines(path.read_bytes())
        if len(records) != 1:
            raise RecordError(f"cache file {path.name} must hold exactly one record")
        record = records[0]
        result = record_to_optimal_set(record)
        if record.get("fingerprint") != path.name:
            raise RecordError(f"cache file {path.name} fingerprint mismatch")
        # The name is the fingerprint of the query, but the record's own
        # fingerprint field could be edited to match it.
        asked, held = params.problem_key(), result.params.problem_key()
        if held != asked:
            raise RecordError(f"cache file {path.name} holds the result of {held}, not {asked}")
        return result

    def put(self, result: OptimalSet, timing_s: Optional[float] = None) -> Path:
        """Write the stable record plus the search's timing and node count."""
        record = {**optimal_set_record(result), "timing_s": timing_s, "nodes": result.nodes}
        path = self._path(record["fingerprint"])
        data = (to_json_line(record) + "\n").encode()
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path
