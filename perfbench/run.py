"""queencover benchmark: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each round is a fresh ``worker.py``
process, so the package's lru_cache tables start cold as they do for a CLI
user.  Rounds repeat until S seconds of rounds have passed (at least one
round; a round is never cut).  Untraced runs first
start a few set-up-only processes, which add samples of the set-up time.
The last line of standard output is one JSON object: correct, attempted,
failed and the metrics, end-to-end ones with --trace 0 and per-layer ones
with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (needs HERE on sys.path)

SETUP_SAMPLES = 8  # set-up-only processes per run, for the set-up time median
LIMIT_S = 170.0  # a run must end within 180 s


def declared_metrics() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and per-layer metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{args.workload}: a round overran the {LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited with code {proc.returncode}")
    line = json.loads(out.strip().splitlines()[-1])
    line["setup_s"] = (line["ready"] - started) * line["setup_scale"]
    line["process_s"] = time.monotonic() - started
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "queencover" / "__init__.py").is_file():
        print(f"error: no queencover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()

    t_start = time.monotonic()
    deadline = t_start + LIMIT_S
    setups = [] if args.trace else [spawn(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES)]
    rounds = []
    t_rounds = time.monotonic()
    while True:
        rounds.append(spawn(args, deadline, setup_only=False))
        now = time.monotonic()
        longest = max(r["process_s"] for r in rounds)
        if now - t_rounds >= args.seconds or now + 1.5 * longest > deadline:
            break

    correct = True
    for r in rounds:
        for text in r["errors"] + r["problems"]:
            print(f"{args.workload}: {text}", file=sys.stderr)
        correct = correct and not r["problems"]
    if args.trace:
        samples = {name: [r["layers"][name] for r in rounds] for name in per_layer}
        units = per_layer
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in setups + rounds],
            "solve_s": [r["solve_s"] for r in rounds],
            "rescan_s": [r["rescan_s"] for r in rounds],
            "peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        }
        units = end_to_end
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit} for name, unit in units.items()}
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
        f"solve_s {[round(r['solve_s'], 3) for r in rounds]} "
        f"(wall {[round(r['solve_wall_s'], 3) for r in rounds]}), nodes {[r['nodes'] for r in rounds]}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
