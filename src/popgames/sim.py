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
    trace of count vectors seen so far.

Equal (protocol, init, seed, max_steps, stop) always reproduce the same
RunResult, whichever kernel backend is active.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from . import _kernels as k
from .core import Config, Protocol, ProtocolError, output_of_config

StopRule = str | tuple | Callable | None

DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected interaction topology: vertices 0..vertex_count-1, no self-loops."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.vertex_count < 2:
            raise ProtocolError("graph needs at least 2 vertices")
        if not self.edges:
            raise ProtocolError("graph needs at least one edge")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ProtocolError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ProtocolError(f"edge ({u},{v}) out of range")
            key = frozenset((u, v))
            if key in seen:
                raise ProtocolError(f"duplicate edge ({u},{v})")
            seen.add(key)

    @classmethod
    def complete(cls, n: int) -> "InteractionGraph":
        return cls(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))

    @classmethod
    def ring(cls, n: int) -> "InteractionGraph":
        if n == 2:
            return cls(2, ((0, 1),))
        return cls(n, tuple((u, (u + 1) % n) for u in range(n)))

    def isolated_vertices(self) -> tuple[int, ...]:
        touched = {u for e in self.edges for u in e}
        return tuple(v for v in range(self.vertex_count) if v not in touched)


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
# protocol tables in kernel form


def _tables(protocol: Protocol):
    n = protocol.state_count
    offsets = np.zeros(n * n + 1, dtype=np.int64)
    firsts: list[int] = []
    seconds: list[int] = []
    identity_only = np.zeros(n * n, dtype=np.uint8)
    for q1 in range(n):
        for q2 in range(n):
            p = q1 * n + q2
            succs = sorted(protocol.rules[(q1, q2)])
            if succs == [(q1, q2)]:
                identity_only[p] = 1
            for a, b in succs:
                firsts.append(a)
                seconds.append(b)
            offsets[p + 1] = len(firsts)
    out_bits = np.full(n, -1, dtype=np.int64)
    if protocol.output_map is not None:
        for q in range(n):
            out_bits[q] = protocol.output_map[q]
    return (
        offsets,
        np.array(firsts, dtype=np.int64),
        np.array(seconds, dtype=np.int64),
        identity_only,
        out_bits,
    )


def _stop_params(protocol: Protocol, stop: StopRule, out_bits) -> tuple[int, int, np.ndarray]:
    n = protocol.state_count
    target = np.zeros(n, dtype=np.int64)
    if stop is None or callable(stop):
        return k.STOP_NONE, 0, target
    if stop == "silent":
        return k.STOP_SILENT, 0, target
    if isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "window":
        window = int(stop[1])
        if window < 1:
            raise ProtocolError("window must be >= 1")
        if (out_bits < 0).any():
            raise ProtocolError("window stop rule needs a total output map")
        return k.STOP_WINDOW, window, target
    if isinstance(stop, tuple) and len(stop) == 2 and stop[0] == "target":
        for state, count in stop[1].items():
            target[protocol.index(state)] = count
        return k.STOP_TARGET, 0, target
    raise ProtocolError(f"unknown stop rule {stop!r}")


def _as_counts(protocol: Protocol, init) -> np.ndarray:
    n = protocol.state_count
    if isinstance(init, Mapping):
        counts = np.zeros(n, dtype=np.int64)
        for state, count in init.items():
            counts[protocol.index(state)] += count
    else:
        if len(init) != n:
            raise ProtocolError(f"count vector length {len(init)} != {n} states")
        counts = np.array(init, dtype=np.int64)
    if (counts < 0).any():
        raise ProtocolError("negative count")
    if counts.sum() < 2:
        raise ProtocolError("population must have at least 2 agents")
    return counts


def counts_to_vertex_states(counts: Sequence[int]) -> np.ndarray:
    """Deterministic spread of a count vector over vertices, in state order."""
    return np.repeat(np.arange(len(counts), dtype=np.int64), counts)


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
    offsets, succ_a, succ_b, identity_only, out_bits = _tables(protocol)
    stop_mode, window, target = _stop_params(protocol, stop, out_bits)

    states = None
    if graph is not None:
        if (
            not isinstance(init, Mapping)
            and len(init) == graph.vertex_count
            and all(isinstance(s, str) for s in init)
        ):
            states = np.array([protocol.index(s) for s in init], dtype=np.int64)
            counts = np.bincount(states, minlength=protocol.state_count).astype(np.int64)
        else:
            counts = _as_counts(protocol, init)
            if counts.sum() != graph.vertex_count:
                raise ProtocolError(
                    f"population {counts.sum()} != {graph.vertex_count} vertices"
                )
            states = counts_to_vertex_states(counts)
    else:
        counts = _as_counts(protocol, init)

    with k.overflow_ok():
        return _drive(
            protocol,
            counts,
            states,
            graph,
            (offsets, succ_a, succ_b, identity_only, out_bits),
            stop_mode,
            window,
            target,
            seed,
            max_steps,
            stop if callable(stop) else None,
            record_trace,
        )


def _drive(
    protocol,
    counts,
    states,
    graph,
    tables,
    stop_mode,
    window,
    target,
    seed,
    max_steps,
    stop_callable,
    record_trace,
):
    offsets, succ_a, succ_b, identity_only, out_bits = tables
    rng = k.seed_state(seed)
    edges = (
        np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
        if graph is not None
        else None
    )

    prev_out = np.int64(k._config_output(counts, out_bits))
    run_len = np.int64(1) if prev_out >= 0 else np.int64(0)

    def kernel(budget, run_len, prev_out):
        if graph is None:
            return k.run_multiset(
                counts, offsets, succ_a, succ_b, identity_only, out_bits,
                stop_mode, np.int64(window), target, np.int64(budget),
                rng, run_len, prev_out,
            )
        return k.run_graph(
            states, counts, edges, offsets, succ_a, succ_b, identity_only,
            out_bits, stop_mode, np.int64(window), target, np.int64(budget),
            rng, run_len, prev_out,
        )

    trace: list[Config] = [tuple(int(c) for c in counts)]
    steps = 0
    stabilized = False

    if stop_callable is None and not record_trace:
        steps, stabilized, run_len, prev_out = kernel(max_steps, run_len, prev_out)
        steps = int(steps)
    else:
        while True:
            if stop_callable is not None and stop_callable(protocol, tuple(trace)):
                stabilized = True
                break
            if steps >= max_steps:
                break
            done, stabilized, run_len, prev_out = kernel(1, run_len, prev_out)
            run_len, prev_out = np.int64(run_len), np.int64(prev_out)
            if int(done) == 0:
                # built-in stop fired before the step
                break
            steps += 1
            trace.append(tuple(int(c) for c in counts))
            if stabilized:
                break

    final_config = tuple(int(c) for c in counts)
    output = (
        output_of_config(protocol, final_config)
        if protocol.output_map is not None
        else None
    )
    return RunResult(
        steps=steps,
        stabilized=bool(stabilized),
        final_config=final_config,
        output=output,
        final_states=tuple(int(s) for s in states) if states is not None else None,
        trace=tuple(trace) if record_trace else None,
    )


# ---------------------------------------------------------------------------
# stop rules in protocol terms


def stop_output_window(protocol: Protocol, trace: Sequence[Config], window: int) -> bool:
    """True iff the last `window` configurations all carry the same defined output."""
    if window < 1:
        raise ProtocolError("window must be >= 1")
    if len(trace) < window:
        return False
    outputs = {output_of_config(protocol, c) for c in trace[-window:]}
    return len(outputs) == 1 and None not in outputs


# ---------------------------------------------------------------------------
# Monte Carlo


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
    if trials < 1:
        raise ProtocolError("trials must be >= 1")
    with k.overflow_ok():
        master = k.seed_state(seed)
        trial_seeds = [int(k.next_u64(master)) for _ in range(trials)]
    runs = tuple(
        run(protocol, init, seed=s, max_steps=max_steps, stop=stop, graph=graph)
        for s in trial_seeds
    )
    stabilized_steps = sorted(r.steps for r in runs if r.stabilized)
    if stabilized_steps:
        arr = np.array(stabilized_steps, dtype=np.float64)
        mean = float(arr.mean())
        median = float(np.median(arr))
        p95 = float(np.percentile(arr, 95))
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
