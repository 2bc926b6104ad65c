"""Time the compiled simulation kernels against the plain-Python fallback.

Both backends run the same fixed-step workloads (no stop rule, so the work
is identical either way).  `--compare` re-launches this script in two child
processes, one per backend, and prints a small table with the speedup; when
numba is not installed both children run the plain-Python kernels, so only
that column (named "numpy", after `backend()`) is shown.

    python3 benchmarks/bench_sim.py --compare
    POPGAMES_NO_NUMBA=1 python3 benchmarks/bench_sim.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from popgames import builtin, run
from popgames._kernels import backend
from popgames.sim import InteractionGraph

WORKLOADS = ("multiset", "ring")


def time_workload(name: str, population: int, steps: int, repeats: int) -> float:
    protocol = builtin("pavlov-pd")
    init = {"D": population}
    graph = InteractionGraph.ring(population) if name == "ring" else None
    # one short run to absorb any one-time compilation cost
    run(protocol, init, seed=0, max_steps=min(steps, 1000), stop=None, graph=graph)
    best = None
    for r in range(repeats):
        t0 = time.perf_counter()
        result = run(
            protocol, init, seed=r + 1, max_steps=steps, stop=None, graph=graph)
        elapsed = time.perf_counter() - t0
        if result.steps != steps:
            raise RuntimeError(f"{name}: expected {steps} steps, ran {result.steps}")
        if best is None or elapsed < best:
            best = elapsed
    return best


def measure(args) -> dict:
    results = {
        name: time_workload(name, args.population, args.steps, args.repeats)
        for name in WORKLOADS
    }
    return {
        "backend": backend(),
        "population": args.population,
        "steps": args.steps,
        "results": results,
    }


def compare(args) -> None:
    rows = {}
    base_argv = [
        sys.executable, os.path.abspath(__file__),
        "--population", str(args.population),
        "--steps", str(args.steps),
        "--repeats", str(args.repeats),
        "--json",
    ]
    for flag in ("0", "1"):
        env = dict(os.environ, POPGAMES_NO_NUMBA=flag)
        proc = subprocess.run(
            base_argv, env=env, capture_output=True, text=True, check=True)
        payload = json.loads(proc.stdout)
        rows[payload["backend"]] = payload["results"]
    print(f"population {args.population}, {args.steps} steps per run, "
          f"best of {args.repeats}")
    both = len(rows) == 2
    header = f"{'workload':<10} " + "".join(f"{b:>12}" for b in rows)
    print(header + (f"{'speedup':>10}" if both else ""))
    for name in WORKLOADS:
        times = [rows[b][name] for b in rows]
        cells = "".join(f"{t:>11.3f}s" for t in times)
        if both:
            speedup = times[1] / times[0] if times[0] > 0 else float("inf")
            cells += f"{speedup:>9.1f}x"
        print(f"{name:<10} {cells}")
    if not both:
        (missing,) = {"numba", "numpy"} - set(rows)
        print(f"{missing} backend not available: no comparison")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=200)
    parser.add_argument("--steps", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable single-backend report")
    parser.add_argument("--compare", action="store_true",
                        help="run both backends in child processes")
    args = parser.parse_args(argv)
    if args.compare:
        compare(args)
        return 0
    payload = measure(args)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"backend: {payload['backend']}")
        for name, elapsed in payload["results"].items():
            rate = args.steps / elapsed
            print(f"  {name:<10} {elapsed:8.3f}s  ({rate:,.0f} steps/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
