"""Time the compiled simulation kernels against the plain-Python fallback.

Both backends run the same fixed-step workloads (no stop rule, so the work
is identical either way), `--repeats` times each.  Each workload reports its
best repeat and the median and quartiles of all of them: on a shared host
single repeats swing by 2x, and the quartiles show how far a change has to
move the median to be seen.  `--compare` re-launches this script in two
child processes, one per backend, and prints a small table with the speedup
of the medians; when numba is not installed both children run the
plain-Python kernels, so only that column (named "numpy", after
`backend()`) is shown.

    python3 benchmarks/bench_sim.py --compare
    POPGAMES_NO_NUMBA=1 python3 benchmarks/bench_sim.py
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from popgames import builtin, run
from popgames._kernels import backend
from popgames.sim import InteractionGraph

WORKLOADS = ("multiset", "ring")


def time_workload(name: str, population: int, steps: int, repeats: int) -> list[float]:
    """The seconds of each of `repeats` runs of `steps` steps."""
    protocol = builtin("pavlov-pd")
    init = {"D": population}
    graph = InteractionGraph.ring(population) if name == "ring" else None
    # one short run to absorb any one-time compilation cost
    run(protocol, init, seed=0, max_steps=min(steps, 1000), stop=None, graph=graph)
    times = []
    for r in range(repeats):
        t0 = time.perf_counter()
        result = run(
            protocol, init, seed=r + 1, max_steps=steps, stop=None, graph=graph)
        times.append(time.perf_counter() - t0)
        if result.steps != steps:
            raise RuntimeError(f"{name}: expected {steps} steps, ran {result.steps}")
    return times


def summary(times: list[float]) -> dict[str, float]:
    """Best, lower quartile, median and upper quartile of `times`, in seconds."""
    if len(times) == 1:
        q1 = median = q3 = times[0]
    else:
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"best": min(times), "q1": q1, "median": median, "q3": q3}


def measure(args) -> dict:
    results = {
        name: summary(time_workload(name, args.population, args.steps, args.repeats))
        for name in WORKLOADS
    }
    return {
        "backend": backend(),
        "population": args.population,
        "steps": args.steps,
        "repeats": args.repeats,
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
          f"{args.repeats} repeats: best and median seconds")
    both = len(rows) == 2
    header = f"{'workload':<10} " + "".join(f"{b:>18}" for b in rows)
    print(header + (f"{'speedup':>10}" if both else ""))
    for name in WORKLOADS:
        stats = [rows[b][name] for b in rows]
        cells = "".join(f"{s['best']:>9.3f} {s['median']:>7.3f}s" for s in stats)
        if both:
            slow, fast = stats[1]["median"], stats[0]["median"]
            speedup = slow / fast if fast > 0 else float("inf")
            cells += f"{speedup:>9.1f}x"
        print(f"{name:<10} {cells}")
    if not both:
        (missing,) = {"numba", "numpy"} - set(rows)
        print(f"{missing} backend not available: no comparison")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--population", type=int, default=200)
    parser.add_argument("--steps", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable single-backend report")
    parser.add_argument("--compare", action="store_true",
                        help="run both backends in child processes")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.compare:
        compare(args)
        return 0
    payload = measure(args)
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"backend: {payload['backend']}, {args.repeats} repeats, steps/s")
        for name, stats in payload["results"].items():
            best, q1, median, q3 = (
                args.steps / stats[key] for key in ("best", "q3", "median", "q1"))
            print(f"  {name:<10} best {best:,.0f}  median {median:,.0f}"
                  f"  quartiles {q1:,.0f}-{q3:,.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
