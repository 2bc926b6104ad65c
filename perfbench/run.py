"""End-to-end benchmark of the popgames commands, with a traced per-layer run.

    python3 perfbench/run.py                          # all three workloads, a table
    python3 perfbench/run.py --workload mc-pavlov --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload search-2state --trace 1
    python3 perfbench/run.py --profile                # top cProfile entries per workload
    python3 perfbench/run.py --compare A.json B.json  # two saved results, same backend only

Each command runs in a fresh interpreter (``perfbench/child.py``), one at a
time, again and again on the same inputs until `--seconds` are used; every
repeat's answer is checked before its time counts, and repeats must agree
byte for byte.  End-to-end metrics are medians over the repeats:

  wall_s       launch to exit, interpreter start-up included
  setup_s      launch until popgames is imported and the inputs are parsed
  peak_rss_mb  the child's peak resident memory (VmHWM), in MiB
  work_per_s   the workload's unit of work / (wall_s - setup_s): trials
               (mc-pavlov), candidates (search-2state), protocols
               (pavcheck-3state)

`--trace 1` alternates untraced and traced commands; the traced ones wrap the
package's public functions from outside (``perfbench/tracer.py``) and give
the per-layer metrics, and their call counts must match the known work.

With `--workload W`, the last line of output is one JSON object: correct,
attempted, failed and metrics; without it, the run ends with the table alone.
The results, with the environment (backend, versions, CPUs, commit, seed),
are also written to perfbench/out/results-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
MIN_REPEATS = 3

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "work_per_s": "1/s"}

PER_LAYER = (
    "cli.main.self_s",
    "formats.parse_protocol.self_s",
    "sim.monte_carlo.self_s",
    "sim.run.calls",
    "sim.run.self_s",
    "kernels.run_multiset.calls",
    "kernels.run_multiset.self_s",
    "kernels.run_multiset.steps",
    "kernels.run_multiset.ns_per_step",
    "core.successors.calls",
    "core.successors.self_s",
    "core.successors.out",
    "verify.reachable.calls",
    "verify.reachable.self_s",
    "verify.reachable.configs",
    "verify.bottom_sccs.calls",
    "verify.bottom_sccs.self_s",
    "verify.stably_computes.calls",
    "verify.stably_computes.self_s",
    "verify.stably_computes.inputs",
    "verify.iter_search_pavlovian.self_s",
    "search.candidates",
    "search.pavlovian",
    "search.found",
    "search.found_frac",
    "pavcheck.check_pavlovian.calls",
    "pavcheck.check_pavlovian.self_s",
    "pavcheck.check_pavlovian.witnesses",
    "pavcheck.check_pavlovian.refusals",
    "pavcheck.build_constraints.self_s",
    "pavcheck.solve_order_constraints.self_s",
    "pavcheck.witness_reproduces.self_s",
    "games.derive_protocol.calls",
    "games.derive_protocol.self_s",
    "trace.overhead_frac",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ns_per_step"):
        return "ns"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# one command


class Sample:
    def __init__(self, traced: bool):
        self.traced = traced
        self.error: str | None = None
        self.wall_s = self.setup_s = self.rss_mb = self.cpu_s = 0.0
        self.work = 0.0
        self.marks: dict = {}


def spawn(argv: list[str], stdout_path: str, stderr_path: str):
    """Start the child, wait for it; (launch time, wall seconds, exit code, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    start = monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = monotonic() - start
    return start, wall, os.waitstatus_to_exitcode(status), usage


def run_command(child_args: list[str], workdir: str, traced: bool,
                profile: str | None = None) -> tuple[Sample, str | None]:
    """One child command; the sample and its standard output, None if it failed."""
    sample = Sample(traced)
    paths = {k: os.path.join(workdir, k) for k in ("stdout", "stderr", "marks.json", "spans.json")}
    if os.path.exists(paths["marks.json"]):
        os.remove(paths["marks.json"])
    argv = [sys.executable, os.path.join(HERE, "child.py"), ROOT, paths["marks.json"]]
    if traced:
        argv += ["--trace", paths["spans.json"]]
    if profile:
        argv += ["--profile", profile]
    start, sample.wall_s, code, usage = spawn(argv + child_args, paths["stdout"], paths["stderr"])
    sample.cpu_s = usage.ru_utime + usage.ru_stime
    if os.path.exists(paths["marks.json"]):
        with open(paths["marks.json"], encoding="utf-8") as handle:
            sample.marks = json.load(handle)
    if code != 0 or "ready" not in sample.marks:
        with open(paths["stderr"], encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-800:]
        sample.error = f"exit code {code}: {tail.strip()}"
        return sample, None
    sample.setup_s = sample.marks["ready"] - start
    sample.rss_mb = sample.marks["peak_rss_mib"]
    with open(paths["stdout"], encoding="utf-8") as handle:
        return sample, handle.read()


class Runner:
    """Repeats one workload's command and checks every answer."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.child_args = workload.prepare(workdir, seed)
        self.oracles = workloads.load_oracles(ROOT)
        self.reference: workloads.Outcome | None = None
        self.samples: list[Sample] = []
        self.backend: str | None = None

    def once(self, traced: bool) -> None:
        sample, output = run_command(self.child_args, self.workdir, traced)
        self.samples.append(sample)
        self.backend = sample.marks.get("backend", self.backend)
        if output is None:
            return
        try:
            outcome = self.workload.check(output, self.seed, self.oracles)
            if self.reference is None:
                if self.workload.deep_check is not None:
                    self.workload.deep_check(outcome, self.oracles)
                self.reference = outcome
            workloads.expect(outcome.digest == self.reference.digest,
                             "output differs from the first repeat's")
            if traced:
                workloads.expect_counts(sample.marks["trace"],
                                        self.workload.trace_counts(outcome.facts))
            sample.work = outcome.work
        except (workloads.CheckFailed, ValueError, KeyError, IndexError) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"

    def run(self, seconds: float, trace: bool) -> None:
        """Repeat until the next round would end after `seconds`."""
        start = monotonic()
        rounds: list[float] = []
        warmed = False
        while True:
            t0 = monotonic()
            self.once(traced=False)
            if trace:
                self.once(traced=True)
            if self.backend == "numba" and not warmed:
                # a JIT backend compiles on first use: that round is not timed
                warmed = True
                self.samples.clear()
                start = monotonic()
                continue
            rounds.append(monotonic() - t0)
            elapsed = monotonic() - start
            if (len(rounds) >= (1 if trace else MIN_REPEATS)
                    and elapsed + statistics.median(rounds) > seconds):
                break

    # -- results -----------------------------------------------------------

    def good(self, traced: bool) -> list[Sample]:
        return [s for s in self.samples if s.error is None and s.traced == traced]

    def end_to_end(self) -> dict:
        good = self.good(traced=False)
        return {
            "wall_s": statistics.median(s.wall_s for s in good),
            "setup_s": statistics.median(s.setup_s for s in good),
            "peak_rss_mb": statistics.median(s.rss_mb for s in good),
            "work_per_s": statistics.median(s.work / (s.wall_s - s.setup_s) for s in good),
        }

    def per_layer(self) -> dict:
        traced = self.good(traced=True)
        per_sample = []
        for s in traced:
            t = dict(s.marks["trace"])
            steps = t.get("kernels.run_multiset.steps", 0)
            t["kernels.run_multiset.ns_per_step"] = (
                t.get("kernels.run_multiset.self_s", 0) * 1e9 / steps if steps else 0.0)
            candidates = t.get("search.candidates", 0)
            t["search.found_frac"] = t.get("search.found", 0) / candidates if candidates else 0.0
            per_sample.append(t)
        out = {m: statistics.median(t.get(m, 0.0) for t in per_sample)
               for m in PER_LAYER if m != "trace.overhead_frac"}
        untraced = statistics.median(s.wall_s for s in self.good(traced=False))
        out["trace.overhead_frac"] = statistics.median(s.wall_s for s in traced) / untraced - 1
        return out


# ---------------------------------------------------------------------------
# environment and reports


def git_commit(root: str) -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int, backend: str | None) -> dict:
    return {
        "backend": backend,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload, seed, os.path.join(OUT, workload.name))
    runner.run(seconds, trace)
    attempted = len(runner.samples)
    errors = [s.error for s in runner.samples if s.error is not None]
    result = {
        "workload": workload.name,
        "environment": environment(seed, runner.backend),
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors,
        "samples": [
            {"traced": s.traced, "wall_s": s.wall_s, "setup_s": s.setup_s, "cpu_s": s.cpu_s,
             "peak_rss_mb": s.rss_mb, "work": s.work, "error": s.error}
            for s in runner.samples
        ],
        "metrics": {},
    }
    if not errors:
        metrics = runner.per_layer() if trace else runner.end_to_end()
        result["metrics"] = {k: {"value": v, "unit": unit_of(k) if trace else E2E_UNITS[k]}
                             for k, v in metrics.items()}
        if not trace:
            result["throughput"] = {f"{workload.unit}_per_s": metrics["work_per_s"]}
            steps = runner.reference.facts.get("steps")
            if steps is not None:
                result["throughput"]["steps_per_s"] = statistics.median(
                    steps / (s.wall_s - s.setup_s) for s in runner.good(traced=False))
    return result


def summary_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def describe(result: dict) -> list[str]:
    env = result["environment"]
    lines = [f"# {result['workload']}: backend {env['backend']}, seed {env['seed']}, "
             f"{result['attempted']} commands, {result['failed']} failed"]
    lines += [f"#   error: {e}" for e in result["errors"][:5]]
    for name, metric in result["metrics"].items():
        lines.append(f"#   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result.get("throughput", {}).items():
        lines.append(f"#   {name:<40} {value:>14.6g} 1/s")
    return lines


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def compare(path_a: str, path_b: str) -> int:
    """Print metric changes between two saved results of the same backend."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    backends = {r["environment"]["backend"] for r in (*a["results"], *b["results"])}
    if len(backends) != 1:
        print(f"error: refusing to compare results from backends {sorted(map(str, backends))}",
              file=sys.stderr)
        return 2
    before = {(r["workload"], r["environment"]["seed"]): r for r in a["results"]}
    for r in b["results"]:
        old = before.get((r["workload"], r["environment"]["seed"]))
        if old is None:
            continue
        for name, metric in r["metrics"].items():
            if name in old["metrics"]:
                x, y = old["metrics"][name]["value"], metric["value"]
                change = f"{(y - x) / x:+.1%}" if x else "n/a"
                print(f"{r['workload']:<16} {name:<40} {x:>12.6g} {y:>12.6g} {change:>8}")
    return 0


def profile(names: list[str], table: dict) -> int:
    for name in names:
        workload = table[name]
        workdir = os.path.join(OUT, name)
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(OUT, f"profile-{name}.txt")
        sample, _ = run_command(workload.prepare(workdir, workloads.DEFAULT_SEED),
                                workdir, traced=False, profile=path)
        if sample.error is not None:
            print(f"error: {name}: {sample.error}", file=sys.stderr)
            return 1
        print(f"# {name}: {path}")
        with open(path, encoding="utf-8") as handle:
            print(handle.read())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.compare:
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "popgames", "__init__.py")):
        print(f"error: no popgames sources under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "tests", "oracles.py")):
        print(f"error: no test oracles at {ROOT}/tests/oracles.py", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    table = workloads.build(args.tiny)
    names = list(table) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: {', '.join(table)}",
              file=sys.stderr)
        return 2
    if args.profile:
        return profile(names, table)

    results = []
    for name in names:
        result = measure(table[name], args.seed, args.seconds, bool(args.trace))
        results.append(result)
        print("\n".join(describe(result)), flush=True)
    write_json(os.path.join(OUT, f"results-trace{args.trace}.json"), {"results": results})
    if len(results) == 1:
        print(summary_line(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
