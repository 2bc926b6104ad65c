"""Randomized execution of protocols under uniform random scheduling.

Complete-graph populations step on count vectors; arbitrary interaction
graphs step per vertex (uniform edge, then uniform orientation).  Identity
interactions count as steps: the clock ticks on every drawn pair.  Reported
statistics follow that convention.

Stop rules decide when a run counts as stabilized:
  - "silent": no applicable ordered pair can change anything,
  - ("window", w): configuration output defined and constant over the last
    w configurations of the trace,
  - ("target", {state: count}): exact count vector reached,
  - None: run to max_steps,
  - any callable f(protocol, trace) -> bool, checked before every step on the
    count vectors seen so far.  `trace` is the run's own list, which grows by
    one entry per step: the rule must not change it, and must copy what it
    keeps past its call.

A built-in stop rule is checked before the step budget, so max_steps=0 on a
silent start reports stabilized with 0 steps; record_trace changes only the
trace field of the result.  A target must be a configuration of the
population, max_steps must be >= 0, and interaction graphs must be connected.
max_steps, seed and trials must be integers; a seed is taken mod 2^64.

Equal (protocol, init, seed, max_steps, stop) always reproduce the same
RunResult, whichever kernel backend is active.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from . import _kernels as k
from .core import (
    Config,
    Protocol,
    ProtocolError,
    _checked_config,
    _checked_int,
    config_of,
    histogram,
    output_of_config,
    strongly_connected_components,
)

StopRule = str | tuple | Callable | None

DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class InteractionGraph:
    """Connected undirected interaction topology: vertices 0..vertex_count-1,
    no self-loops, no duplicate edges.  Each edge is a pair of integer
    endpoints (read as `core._checked_int` reads them), kept as a tuple of
    ints."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertex_count", _checked_int(self.vertex_count, "vertex count"))
        if self.vertex_count < 2:
            raise ProtocolError("graph needs at least 2 vertices")
        seen = set()
        neighbours = [[] for _ in range(self.vertex_count)]
        edges = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ProtocolError(f"edge {edge!r} is not a pair of vertices") from None
            u = _checked_int(u, f"endpoint of edge {edge!r}")
            v = _checked_int(v, f"endpoint of edge {edge!r}")
            edges.append((u, v))
            if u == v:
                raise ProtocolError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ProtocolError(f"edge ({u},{v}) out of range")
            key = frozenset((u, v))
            if key in seen:
                raise ProtocolError(f"duplicate edge ({u},{v})")
            seen.add(key)
            neighbours[u].append(v)
            neighbours[v].append(u)
        object.__setattr__(self, "edges", tuple(edges))
        reached = next(c for c in strongly_connected_components(neighbours) if 0 in c)
        if len(reached) < self.vertex_count:
            apart = min(set(range(self.vertex_count)) - set(reached))
            raise ProtocolError(
                f"graph is not connected: vertex {apart} cannot be reached from vertex 0"
            )

    @classmethod
    def ring(cls, n: int) -> "InteractionGraph":
        n = _checked_int(n, "vertex count")
        if n == 2:
            return cls(2, ((0, 1),))
        return cls(n, tuple((u, (u + 1) % n) for u in range(n)))


@dataclass(frozen=True)
class RunResult:
    steps: int
    stabilized: bool
    final_config: Config
    output: int | None
    final_states: tuple[int, ...] | None = None
    trace: tuple[Config, ...] | None = None


@dataclass(frozen=True)
class StatsReport:
    """Monte Carlo aggregate; step statistics cover stabilized trials only."""

    trials: int
    successes: int
    mean_steps: float | None
    median_steps: float | None
    p95_steps: float | None
    seed: int
    runs: tuple[RunResult, ...]


# ---------------------------------------------------------------------------
# kernel inputs


def _stop_params(
    protocol: Protocol, stop: StopRule, population: int
) -> tuple[int, int, list[int]]:
    n = protocol.state_count
    target = [0] * n
    if stop is None or callable(stop):
        return k.STOP_NONE, 0, target
    if stop == "silent":
        return k.STOP_SILENT, 0, target
    if isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "window":
        window = _checked_int(stop[1], "window", 1)
        if protocol.output_map is None:
            raise ProtocolError("window stop rule needs a total output map")
        return k.STOP_WINDOW, window, target
    if isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "target":
        try:
            for state, count in stop[1].items():
                target[protocol.index(state)] = operator.index(count)
            valid = min(target) >= 0 and sum(target) == population
        except TypeError:  # a count that is not an integer, such as 2.5
            valid = False
        if not valid:
            raise ProtocolError(
                f"target {dict(stop[1])!r} is not a configuration of {population} agents"
            )
        return k.STOP_TARGET, 0, target
    raise ProtocolError(f"unknown stop rule {stop!r}")


def counts_to_vertex_states(counts: Sequence[int]) -> list[int]:
    """Deterministic spread of a count vector over vertices, in state order."""
    return [q for q, count in enumerate(counts) for _ in range(count)]


# ---------------------------------------------------------------------------
# single runs


def run(
    protocol: Protocol,
    init,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop: StopRule = "silent",
    graph: InteractionGraph | None = None,
    record_trace: bool = False,
) -> RunResult:
    """Execute one run.  `init` is a count vector or {state: count} mapping;
    with `graph` it may instead be a per-vertex state-name sequence."""
    max_steps = _checked_int(max_steps, "max_steps", 0)
    seed = _checked_int(seed, "seed")
    offsets, succ_a, succ_b, identity_only, out_bits = protocol._kernel_tables

    states = None
    if isinstance(init, Mapping):
        counts = config_of(protocol, init)
    elif (
        graph is not None
        and len(init) == graph.vertex_count
        and all(isinstance(s, str) for s in init)
    ):
        states = [protocol.index(s) for s in init]
        counts = histogram(protocol, states)
    else:
        counts = _checked_config(protocol, init)
    if graph is not None and states is None:
        if sum(counts) != graph.vertex_count:
            raise ProtocolError(f"population {sum(counts)} != {graph.vertex_count} vertices")
        states = counts_to_vertex_states(counts)
    stop_mode, window, target = _stop_params(protocol, stop, sum(counts))
    # only the window rule reads the output bookkeeping
    out = output_of_config(protocol, counts) if stop_mode == k.STOP_WINDOW else None
    prev_out, run_len = (-1, 0) if out is None else (out, 1)

    rng = k.seed_state(seed)
    counts = k.kernel_input(counts)
    kernel_args = (offsets, succ_a, succ_b, identity_only, out_bits,
                   stop_mode, window, k.kernel_input(target))
    if graph is None:
        kernel = k.run_multiset
        kernel_args = (counts, *kernel_args)
    else:
        kernel = k.run_graph
        states = k.kernel_input(states)
        kernel_args = (states, counts, k.kernel_input(graph.edges), *kernel_args)
    # One step per kernel call while a trace is kept or a callable stop rule
    # looks at it; otherwise the whole budget in one call.  The kernel is
    # always entered, so its built-in stop rule is checked even at max_steps=0.
    stop_rule = stop if callable(stop) else None
    stepwise = record_trace or stop_rule is not None
    chunk = 1 if stepwise else max_steps
    trace = [tuple(map(int, counts))] if stepwise else None
    steps = 0
    stabilized = stop_rule is not None and stop_rule(protocol, trace)
    while not stabilized:
        done, stabilized, run_len, prev_out = kernel(
            *kernel_args, min(chunk, max_steps - steps), rng, run_len, prev_out
        )
        steps += int(done)
        if done and stepwise:
            trace.append(tuple(map(int, counts)))
            if stop_rule is not None:
                stabilized = stop_rule(protocol, trace)
        if steps >= max_steps:
            break

    final_config = tuple(map(int, counts))
    output = None if protocol.output_map is None else output_of_config(protocol, final_config)
    return RunResult(
        steps=steps,
        stabilized=bool(stabilized),
        final_config=final_config,
        output=output,
        final_states=tuple(map(int, states)) if states is not None else None,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# Monte Carlo


def _step_summary(steps: Sequence[int]) -> tuple[float, float, float]:
    """Mean, median and 95th percentile of a sorted non-empty list of step
    counts, equal to numpy's float64 `mean`, `median` and `percentile(.., 95)`
    (linear method) while sum(steps) < 2**53, where numpy's float sum is exact."""
    n = len(steps)
    mid = n // 2
    median = float(steps[mid]) if n % 2 else (steps[mid - 1] + steps[mid]) / 2
    index = (n - 1) * 0.95
    lo = int(index)
    a, b = float(steps[lo]), float(steps[min(lo + 1, n - 1)])
    t = index - lo
    # numpy's lerp, which interpolates from the nearer of the two ends
    p95 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return sum(steps) / n, median, p95


def monte_carlo(
    protocol: Protocol,
    init,
    graph: InteractionGraph | None = None,
    trials: int = 100,
    seed: int = 0,
    max_steps: int = DEFAULT_MAX_STEPS,
    stop: StopRule = "silent",
) -> StatsReport:
    """Independent trials with per-trial seeds drawn from the master seed's
    splitmix64 stream; aggregation is order-independent."""
    trials = _checked_int(trials, "trials", 1)
    seed = _checked_int(seed, "seed")
    master = k.seed_state(seed)
    trial_seeds = [int(k.next_u64(master)) for _ in range(trials)]
    runs = tuple(
        run(protocol, init, seed=s, max_steps=max_steps, stop=stop, graph=graph)
        for s in trial_seeds
    )
    stabilized_steps = sorted(r.steps for r in runs if r.stabilized)
    if stabilized_steps:
        mean, median, p95 = _step_summary(stabilized_steps)
    else:
        mean = median = p95 = None
    return StatsReport(
        trials=trials,
        successes=len(stabilized_steps),
        mean_steps=mean,
        median_steps=median,
        p95_steps=p95,
        seed=seed,
        runs=runs,
    )
