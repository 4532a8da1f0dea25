"""Stable result records, fingerprinting and the on-disk result cache.

Records are single-line JSON with sorted keys and an explicit schema version.
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
from .geometry import Square
from .search import FundamentalClass, OptimalSet, SearchParams

SCHEMA_VERSION = 1


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


def _decode_config(payload, where: str) -> Configuration:
    if not isinstance(payload, list) or not all(
        isinstance(p, list) and len(p) == 2 and isinstance(p[0], int) and isinstance(p[1], int)
        for p in payload
    ):
        raise RecordError(f"{where}: configuration must be a list of [x, y] pairs")
    try:
        return Configuration(tuple(tuple(p) for p in payload))
    except DomainError as e:
        raise RecordError(f"{where}: {e}") from e


def optimal_set_record(
    result: OptimalSet, timing_s: Optional[float] = None, volatile: bool = False
) -> dict:
    """JSON-ready record for one search result.

    With volatile=False the record is deterministic for identical parameters;
    volatile=True additionally embeds timing and node counts (cache files).
    """
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "search_result",
        "fingerprint": params_fingerprint(result.params),
        "params": result.params.problem_key(),
        "max_cover": result.max_cover,
        "configurations": [encode_squares(c.queens) for c in result.configurations],
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
    if volatile:
        record["timing_s"] = timing_s
        record["nodes"] = result.nodes
    return record


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


def _decode_record(
    record: dict,
) -> tuple[tuple[Configuration, ...], tuple[FundamentalClass, ...]]:
    """Check schema version, field types and structural invariants; decode once."""
    if not isinstance(record, dict):
        raise RecordError("record must be an object")
    version = record.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedSchemaError(
            f"unsupported schema_version {version!r}; this build reads {SCHEMA_VERSION}"
        )
    if record.get("kind") != "search_result":
        raise RecordError(f"unexpected record kind {record.get('kind')!r}")
    for key in ("params", "max_cover", "configurations", "classes"):
        if key not in record:
            raise RecordError(f"missing field {key!r}")
    params = record["params"]
    for key in ("q", "n", "mode"):
        if key not in params:
            raise RecordError(f"missing field params.{key!r}")
    if not isinstance(record["max_cover"], int):
        raise RecordError("max_cover: must be an integer")
    configs = tuple(
        _decode_config(payload, f"configurations[{i}]")
        for i, payload in enumerate(record["configurations"])
    )
    if len({c.queens for c in configs}) != len(configs):
        raise RecordError("configurations: duplicate entries")
    classes = []
    for i, cls in enumerate(record["classes"]):
        rep = _decode_config(cls.get("representative"), f"classes[{i}].representative")
        size = cls.get("orbit_size")
        stab = cls.get("stabilizer_order")
        if not isinstance(size, int) or not isinstance(stab, int) or size * stab != 8:
            raise RecordError(f"classes[{i}]: orbit_size x stabilizer_order must be 8")
        classes.append(FundamentalClass(rep, size, stab))
    if sum(c.orbit_size for c in classes) != len(configs):
        raise RecordError("classes: orbit sizes do not sum to the configuration count")
    return configs, tuple(classes)


def record_to_optimal_set(record: dict) -> OptimalSet:
    """Rebuild an OptimalSet (without volatile metadata) from a record, validated."""
    configurations, classes = _decode_record(record)
    p = record["params"]
    params = SearchParams(
        q=p["q"],
        n=p["n"],
        mode=p["mode"],
        window=p.get("window"),
    )
    return OptimalSet(
        params=params,
        max_cover=record["max_cover"],
        configurations=configurations,
        classes=classes,
        window_used=record.get("window_used"),
        window_retries=record.get("window_retries", 0),
        nodes=record.get("nodes", 0),
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
        if record.get("fingerprint") != path.name:
            raise RecordError(f"cache file {path.name} fingerprint mismatch")
        return record_to_optimal_set(record)

    def put(self, result: OptimalSet, timing_s: Optional[float] = None) -> Path:
        record = optimal_set_record(result, timing_s=timing_s, volatile=True)
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
