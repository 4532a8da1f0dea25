"""In-memory span tracing at queencover's module boundaries.

The tracer wraps functions as the calling module has them bound (so
``search.cover_count`` and ``coverage.cover_count`` are traced separately and
each span knows which module it was called through), records one span per
call (name, caller module, start, end, parent) in flat arrays, and computes
self time as a span's duration minus the part covered by its direct children.
No file of the package is changed: wrappers are installed on the imported
module objects and removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
from array import array
from time import perf_counter_ns

# (calling module, bound name, layer of the callee).  Every public function a
# queencover module calls from another module, plus the entry points the
# benchmark itself calls.  Per-square geometry predicates (board_contains,
# chebyshev_center_distance, transform_square, center_loss_of_square,
# attacks) are left unwrapped: they run hundreds of thousands of times per
# round, a span would cost more than the call, and no per-layer metric reads
# them.
BINDINGS = (
    # search -> constructions / coverage, and search's public entry points
    ("search", "centralize", "constructions"),
    ("search", "pattern_of", "constructions"),
    ("search", "stairs", "constructions"),
    ("search", "stairs_details", "constructions"),
    ("search", "cover_count", "coverage"),
    ("search", "is_nonattacking", "coverage"),
    ("search", "pair_crossings", "coverage"),
    ("search", "run_search", "search"),
    ("search", "windowed_optimal", "search"),
    ("search", "exhaustive_optimal", "search"),
    ("search", "fundamental_classes", "search"),
    ("search", "canonical_pattern_fingerprint", "search"),
    ("search", "nonattacking_threshold", "search"),
    ("search", "stabilizing_threshold", "search"),
    ("search", "loss_minimal_patterns", "search"),
    # constructions -> coverage / loss
    ("constructions", "is_nonattacking", "coverage"),
    ("constructions", "center_loss", "loss"),
    ("constructions", "internal_loss_stable", "loss"),
    # loss -> coverage, and loss's entry points (also reached loss -> loss)
    ("loss", "attack_field", "coverage"),
    ("loss", "is_nonattacking", "coverage"),
    ("loss", "pair_crossings", "coverage"),
    ("loss", "internal_loss", "loss"),
    ("loss", "overlap_concentration", "loss"),
    ("loss", "total_loss", "loss"),
    ("loss", "is_stable_board", "loss"),
    ("loss", "internal_loss_stable", "loss"),
    ("loss", "predicted_cover", "loss"),
    # coverage entry points the benchmark and search (via the module) call
    ("coverage", "cover_count", "coverage"),
    ("coverage", "attack_field", "coverage"),
    ("coverage", "is_nonattacking", "coverage"),
    ("coverage", "pair_crossings", "coverage"),
)

# (module, class, method, layer): methods called across modules.
METHODS = (
    ("constructions", "Pattern", "canonical", "constructions"),
    ("serialization", "ResultCache", "get", "serialization"),
    ("serialization", "ResultCache", "put", "serialization"),
)


class Tracer:
    """Spans in flat arrays: name id, caller id, start ns, end ns, parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.via = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self.last_closed = -1
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, text: str) -> int:
        i = self._ids.get(text)
        if i is None:
            i = self._ids[text] = len(self.names)
            self.names.append(text)
        return i

    def span(self, name: str, via: str = "bench"):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name), self._id(via))

    def _open(self, name_id: int, via_id: int) -> int:
        k = len(self.start)
        self.name.append(name_id)
        self.via.append(via_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(k)
        self.start.append(perf_counter_ns())
        return k

    def _close(self, k: int) -> None:
        self.end[k] = perf_counter_ns()
        self._stack.pop()
        self.last_closed = k

    def wrap(self, fn, name: str, via: str):
        name_id, via_id = self._id(name), self._id(via)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            k = open_(name_id, via_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(k)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every binding in BINDINGS and METHODS on the given modules."""
        for caller, attr, layer in BINDINGS:
            mod = modules[caller]
            fn = getattr(mod, attr)
            self._undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(fn, f"{layer}.{attr}", caller))
        for modname, cls_name, meth, layer in METHODS:
            cls = getattr(modules[modname], cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(fn, f"{layer}.{cls_name}.{meth}", "any"))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, fn = self._undo.pop()
            setattr(obj, attr, fn)

    def self_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for k, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[k] - self.start[k]
        return own

    def write(self, path) -> None:
        """One JSON object: the name table and one [name, via, start_us,
        end_us, parent] row per span, times relative to the first span."""
        t0 = self.start[0] if len(self.start) else 0
        rows = [
            [self.name[k], self.via[k], (self.start[k] - t0) / 1e3, (self.end[k] - t0) / 1e3, self.parent[k]]
            for k in range(len(self.start))
        ]
        with open(path, "w") as f:
            json.dump({"names": self.names, "spans": rows}, f, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name_id", "via_id", "k")

    def __init__(self, tracer: Tracer, name_id: int, via_id: int):
        self.tracer, self.name_id, self.via_id = tracer, name_id, via_id

    def __enter__(self):
        self.k = self.tracer._open(self.name_id, self.via_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.k)
        return False
