"""Stable result records, fingerprinting and the on-disk result cache.

Records are single-line JSON with sorted keys and an explicit schema version.
A search record stores an optimal set once, as its fundamental classes;
decoding rebuilds the orbit members from the representatives in one orbit
pass (search.orbits) and hands them, in orbit order, to the OptimalSet as
tuples of squares, wrapped as Configurations only when read.
Identical inputs must produce bit-identical structured output, so the stable
record view excludes volatile metadata (wall-clock timing, node counts);
those are kept only inside cache files.  Cache files are keyed by a
fingerprint covering both the problem parameters and a content hash of this
package's sources, so results from older code never satisfy a query.
"""

from __future__ import annotations

import hashlib
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
from .search import FundamentalClass, OptimalSet, SearchParams, orbits

SCHEMA_VERSION = 2

# A search record's fields: the stable record's, then the cache file's extras.
_FIELDS = {
    "schema_version", "kind", "fingerprint", "params", "max_cover", "classes",
    "window_used", "window_retries", "timing_s", "nodes",
}


@lru_cache(maxsize=1)
def engine_fingerprint() -> str:
    """Content hash of this package's source files."""
    pkg = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def params_fingerprint(params: SearchParams) -> str:
    """Cache key: engine hash plus the result-determining parameters."""
    blob = engine_fingerprint() + json.dumps(params.problem_key(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def encode_squares(squares: Iterable[Square]) -> list[list[int]]:
    """The on-disk form of a sequence of squares: a list of [x, y] pairs."""
    return [[x, y] for x, y in squares]


def _is_int(value) -> bool:
    # bool is an int subclass, but a JSON `true` is no count.
    return isinstance(value, int) and not isinstance(value, bool)


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


def optimal_set_record(result: OptimalSet) -> dict:
    """JSON-ready record for one search result, deterministic for its parameters."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "search_result",
        "fingerprint": params_fingerprint(result.params),
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
        "window_used": result.window_used,
        "window_retries": result.window_retries,
    }


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
                pos = getattr(e, "pos", getattr(e, "start", 0))
                raise RecordError(
                    f"parse error at byte {offset + len(raw) - len(raw.lstrip()) + pos}"
                ) from e
        offset += len(raw) + 1
    return records


def record_to_optimal_set(record: dict) -> OptimalSet:
    """Rebuild an OptimalSet from a record; a malformed record raises RecordError.

    Schema version, field names and types and the window fields against the
    mode are checked; params go through SearchParams' own validation.  The
    classes must equal those rebuilt from their representatives, each params.q
    queens on B_n, and the members are those of the same orbit pass, left
    unwrapped until configurations is read.  Cover is not checked.
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
    try:
        params = SearchParams(q=p["q"], n=p["n"], mode=p["mode"], window=p.get("window"))
    except KeyError as e:
        raise RecordError(f"missing field params.{e.args[0]!r}") from e
    except DomainError as e:
        raise RecordError(f"params: {e}") from e
    if not _is_int(record["max_cover"]):
        raise RecordError("max_cover: must be an integer")
    counts = {key: record.get(key, 0) for key in ("window_retries", "nodes")}
    for key, value in counts.items():
        if not (_is_int(value) and value >= 0):
            raise RecordError(f"{key}: must be an integer >= 0")
    window_used, n = record.get("window_used"), params.n
    if params.mode == "exhaustive":
        if window_used is not None:
            raise RecordError("window_used: must be null in exhaustive mode")
        if counts["window_retries"]:
            raise RecordError("window_retries: must be 0 in exhaustive mode")
    elif not (_is_int(window_used) and 1 <= window_used <= n and (n - window_used) % 2 == 0):
        raise RecordError(f"window_used: must be a side from 1 to {n} of the parity of n")
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
        if not _is_int(size) or not _is_int(stab) or size * stab != 8:
            raise RecordError(f"classes[{i}]: orbit_size x stabilizer_order must be 8")
        classes.append(FundamentalClass(rep, size, stab))
    try:
        members, rebuilt = orbits((c.representative for c in classes), BoardSpec(n))
    except DomainError as e:
        raise RecordError(f"classes: {e}") from e
    if rebuilt != classes:
        raise RecordError("classes: not the sorted orbits of least representatives")
    return OptimalSet(
        params=params,
        max_cover=record["max_cover"],
        classes=tuple(classes),
        members=tuple(members),
        window_used=window_used,
        window_retries=counts["window_retries"],
        nodes=counts["nodes"],
    )


@dataclass
class ResultCache:
    """One file per fingerprint; atomic writes; safe for concurrent processes."""

    directory: Path

    def __post_init__(self):
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)

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
