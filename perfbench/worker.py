"""One round of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

A round imports queencover from the checkout's ``src``, builds the
workload's inputs and a fresh temporary cache directory (set-up), then runs
the cold pass (``solve_s``), the rescan (``rescan_s``) and the checks.  With
``--setup-only`` it stops after set-up.  With ``--trace 1`` the tracer wraps the
package's module boundaries for the two timed passes and the line carries
the per-layer metrics; the spans are written under ``.perfbench-out``.
``run.py`` starts this script and reads the line; the monotonic clock it
reports is the same clock in both processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

MODULES = ("geometry", "coverage", "loss", "constructions", "search", "serialization")


def import_package() -> tuple[types.SimpleNamespace, float]:
    """Import queencover from the checkout's src; (modules, seconds)."""
    src = ROOT / "src"
    if not (src / "queencover" / "__init__.py").is_file():
        raise SystemExit(f"queencover sources not found under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import importlib

    mods = {name: importlib.import_module(f"queencover.{name}") for name in MODULES}
    import_s = time.perf_counter() - t0
    if Path(mods["search"].__file__).resolve().parent != (src / "queencover").resolve():
        raise SystemExit("queencover was imported from outside the checkout")
    return types.SimpleNamespace(**mods), import_s


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(tracer, stats, import_s: float, cache_dir: Path) -> dict:
    """Per-layer metrics from the round's spans and the workload's counts."""
    names = tracer.names
    own = tracer.self_ns()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    span_name = [names[i] for i in tracer.name]
    span_via = [names[i] for i in tracer.via]

    def spans(*wanted, via=None):
        return [
            k for k, nm in enumerate(span_name) if nm in wanted and (via is None or span_via[k] == via)
        ]

    def under(k: int, label: str) -> bool:
        p = tracer.parent[k]
        while p >= 0:
            if span_name[p] == label:
                return True
            p = tracer.parent[p]
        return False

    def total_s(ks) -> float:
        return _sum(dur[k] for k in ks) / 1e9

    def per_call(ks, scale: float) -> float:
        return total_s(ks) * scale / len(ks) if ks else 0.0

    m: dict = {}
    searches = spans("search.windowed_optimal", "search.exhaustive_optimal")
    single = [k for k in searches if not under(k, "op.pool_search")]
    m["search.nodes"] = stats.nodes
    m["search.nodes_per_s"] = stats.nodes / total_s(single) if single else 0.0
    search_own = [
        k
        for k, nm in enumerate(span_name)
        if nm.startswith("search.")
        and nm
        not in ("search.loss_minimal_patterns", "search.fundamental_classes", "search.canonical_pattern_fingerprint")
    ]
    m["search.self_s"] = _sum(own[k] for k in search_own) / 1e9
    m["search.search_calls"] = len(searches)
    m["search.window_retries"] = stats.window_retries
    ks = spans("search.fundamental_classes")
    m["search.fundamental_classes_s"], m["search.fundamental_classes_calls"] = total_s(ks), len(ks)
    ks = spans("search.canonical_pattern_fingerprint")
    m["search.pattern_fingerprint_s"], m["search.pattern_fingerprint_calls"] = total_s(ks), len(ks)
    t1, t2 = stats.pool_t1, stats.pool_t2
    m["search.pool_speedup"] = t1 / t2 if t2 else 0.0
    m["search.pool_overhead_s"] = t2 - t1 / 2 if t2 else 0.0
    m["search.pool_runs"] = stats.pool_runs
    ks = spans("search.loss_minimal_patterns")
    m["search.loss_route_s"], m["search.loss_route_calls"] = _sum(own[k] for k in ks) / 1e9, len(ks)
    ks = spans("coverage.pair_crossings")
    m["coverage.pair_crossings_s"], m["coverage.pair_crossings_calls"] = total_s(ks), len(ks)
    for layer, fn in (
        ("coverage", "cover_count"),
        ("coverage", "attack_field"),
        ("coverage", "is_nonattacking"),
        ("loss", "total_loss"),
        ("loss", "internal_loss_stable"),
        ("loss", "is_stable_board"),
        ("loss", "predicted_cover"),
    ):
        ks = spans(f"{layer}.{fn}")
        m[f"{layer}.{fn}_us"], m[f"{layer}.{fn}_calls"] = per_call(ks, 1e6), len(ks)
    ks = spans("constructions.stairs", "constructions.stairs_details", "constructions.centralize", via="search")
    m["constructions.seed_s"], m["constructions.seed_calls"] = total_s(ks), len(ks)
    ks = spans("constructions.pattern_of", "constructions.Pattern.canonical")
    m["constructions.pattern_of_s"], m["constructions.pattern_of_calls"] = total_s(ks), len(ks)
    ks = spans("serialization.ResultCache.put")
    m["serialization.put_ms"], m["serialization.put_calls"] = per_call(ks, 1e3), len(ks)
    ks = stats.hit_spans
    m["serialization.get_ms"], m["serialization.get_calls"] = per_call(ks, 1e3), len(ks)
    files = [p for p in cache_dir.rglob("*") if p.is_file()] if cache_dir.exists() else []
    m["serialization.record_kb"] = _sum(p.stat().st_size for p in files) / 1024 / len(files) if files else 0.0
    m["setup.import_s"] = import_s
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    qc, import_s = import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    traced = bool(args.trace) and not args.setup_only
    probe = None if traced else SpeedProbe()
    if probe is not None:
        probe.start()
    OUT.mkdir(exist_ok=True)
    setup0 = time.perf_counter_ns()
    tmp = Path(tempfile.mkdtemp(prefix="round-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](qc, args.seed, tmp)
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(vars(qc))
        ops = workloads.Ops(tracer)
        ready = time.monotonic()
        line = {"ready": ready, "setup_scale": 1.0}
        if probe is not None:
            probe.calibrate()
            line["setup_scale"] = probe.factor(setup0, time.perf_counter_ns())
        if not args.setup_only:
            t0 = time.perf_counter_ns()
            workload.cold(ops)
            t1 = time.perf_counter_ns()
            solve_wall = (t1 - t0) / 1e9
            rescans = []  # (start ns, end ns) per warm pass
            for _ in range(workload.rescan_passes):
                r0 = time.perf_counter_ns()
                workload.rescan(ops)
                rescans.append((r0, time.perf_counter_ns()))
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rescan_wall = statistics.median((r1 - r0) / 1e9 for r0, r1 in rescans)
            if probe is None:
                solve_s, rescan_s = solve_wall, rescan_wall
            else:
                probe.stop()
                solve_s = probe.rescale(t0, t1)
                rescan_s = statistics.median(probe.rescale(*r) for r in rescans)
            if tracer is not None:
                tracer.uninstall()
                line["layers"] = layer_metrics(tracer, workload.stats, import_s, tmp / "cache")
                tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            problems = workload.check()
            line.update(
                solve_s=solve_s,
                rescan_s=rescan_s,
                solve_wall_s=solve_wall,
                peak_rss_mb=peak_kb / 1024,
                attempted=ops.attempted,
                failed=ops.failed,
                errors=ops.errors[:10],
                problems=problems[:20],
                nodes=workload.stats.nodes,
            )
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
