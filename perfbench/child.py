"""One timed command in a fresh interpreter.

    python3 perfbench/child.py ROOT MARKS [--trace PATH] [--profile PATH] cli ARGS...
    python3 perfbench/child.py ROOT MARKS [--trace PATH] [--profile PATH] pavcheck K STRIDE

`cli ARGS` runs ``popgames ARGS`` exactly as the console script does, with
the package imported from ROOT/src.  `pavcheck K STRIDE` runs the exact
Pavlovian check on every STRIDE-th symmetric deterministic K-state dynamics
and prints one JSON line per protocol.  MARKS receives the monotonic clock
at the moment the inputs are ready (the command enters its compute layer),
from which the parent takes the set-up time, and the exit code, the backend
and the peak resident memory.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _mark_on_call(module, attr: str, marks: dict) -> None:
    """Record the first time `module.attr` is entered, then call through."""
    inner = getattr(module, attr)

    def entered(*args, **kwargs):
        marks.setdefault("ready", time.clock_gettime(time.CLOCK_MONOTONIC))
        return inner(*args, **kwargs)

    setattr(module, attr, entered)


# the CLI binding each command hands its parsed inputs to
_COMPUTE_ENTRY = {
    "simulate": "monte_carlo",
    "search": "iter_search_pavlovian",
}


def _run_cli(argv: list[str], marks: dict) -> int:
    from popgames import cli

    _mark_on_call(cli, _COMPUTE_ENTRY[argv[0]], marks)
    return cli.main(argv)


def _run_pavcheck(state_count: int, stride: int, marks: dict) -> int:
    import workloads
    from popgames import pavcheck

    protocols = workloads.dynamics(state_count, stride)
    marks["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    lines = []
    for protocol in protocols:
        result = pavcheck.check_pavlovian(protocol, pavcheck.EXACT)
        lines.append(json.dumps(workloads.pavcheck_record(result)))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _peak_rss_mib() -> float:
    """Resident high-water mark of this process image (VmHWM).  wait4's
    ru_maxrss is not used: exec folds the spawning parent's high-water mark
    into it, so a small child would report the parent's size."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    root, marks_path, rest = argv[0], argv[1], argv[2:]
    options = {}
    while rest and rest[0] in ("--trace", "--profile"):
        options[rest[0]] = rest[1]
        rest = rest[2:]
    sys.path.insert(0, os.path.join(root, "src"))
    import popgames

    tracer = None
    if "--trace" in options:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    marks: dict = {"backend": popgames.backend()}
    if rest[0] == "cli":
        work = lambda: _run_cli(rest[1:], marks)  # noqa: E731
    else:
        work = lambda: _run_pavcheck(int(rest[1]), int(rest[2]), marks)  # noqa: E731

    if "--profile" in options:
        import cProfile
        import pstats

        profile = cProfile.Profile()
        code = profile.runcall(work)
        with open(options["--profile"], "w", encoding="utf-8") as handle:
            stats = pstats.Stats(profile, stream=handle)
            stats.sort_stats("tottime").print_stats(25)
            stats.sort_stats("cumulative").print_stats(25)
    else:
        code = work()
    sys.stdout.flush()
    marks["code"] = code
    marks["peak_rss_mib"] = _peak_rss_mib()
    if tracer is not None:
        marks["trace"] = tracer.summary()
        marks["bindings"] = tracer.bindings
        tracer.write_spans(options["--trace"])
    with open(marks_path, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
