import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from popgames import NUMBA_ENABLED, backend, builtin, monte_carlo, run, symmetrize
from popgames.core import Protocol, complete
from popgames.sim import InteractionGraph
import popgames._kernels as kernels

# (builtin protocol, init, ring size or None for the complete graph,
# max_steps, stop rule, record_trace); BATTERY runs each for seeds 0..4
CASES = [
    ("pavlov-pd", {"D": 5}, None, 3000, "silent", False),
    ("pavlov-pd", {"D": 6}, 6, 3000, "silent", False),
    ("majority", {"0": 3, "1": 2}, None, 3000, "silent", False),
    ("majority", {"0": 3, "1": 1}, None, 400, ("window", 8), False),
    ("leader-pavlovian", {"L1": 2, "N": 2}, None, 300, None, False),
    ("majority", {"0": 2, "1": 2}, None, 60, None, True),
    ("pavlov-pd", {"D": 4}, None, 2000, ("target", {"C": 4}), False),
]
SEEDS = range(5)

BATTERY = f"""
import dataclasses, json
from popgames import builtin, run
from popgames.sim import InteractionGraph

out = []
for seed in {SEEDS!r}:
    for key, init, ring, max_steps, stop, record_trace in {CASES!r}:
        graph = None if ring is None else InteractionGraph.ring(ring)
        result = run(builtin(key), init, seed=seed, max_steps=max_steps,
                     stop=stop, graph=graph, record_trace=record_trace)
        out.append(dataclasses.asdict(result))
print(json.dumps(out))
"""


# BATTERY's output, recorded on the plain-Python backend; every backend must
# reproduce it byte for byte
GOLDEN_TRACES = Path(__file__).with_name("golden_traces.json")


def run_battery(no_numba: bool) -> str:
    env = dict(os.environ)
    env.pop("POPGAMES_NO_NUMBA", None)
    if no_numba:
        env["POPGAMES_NO_NUMBA"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", BATTERY],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_backends_produce_identical_traces():
    with_numba = run_battery(no_numba=False)
    without = run_battery(no_numba=True)
    assert with_numba == without
    assert json.loads(with_numba) == json.loads(GOLDEN_TRACES.read_text())


def test_battery_matches_golden_traces(capsys):
    exec(BATTERY, {})  # the same script, in this process
    assert json.loads(capsys.readouterr().out) == json.loads(GOLDEN_TRACES.read_text())


def reference(protocol, counts, seed, max_steps, stop, ring, record_trace):
    """`oracles.reference_run` on the arguments `run` takes, with a
    {state: count} init or target turned into a count vector."""

    def vector(mapping):
        out = [0] * protocol.state_count
        for state, count in mapping.items():
            out[protocol.index(state)] += count
        return out

    if isinstance(counts, dict):
        counts = vector(counts)
    if isinstance(stop, tuple) and stop[0] == "target":
        stop = ("target", vector(stop[1]))
    edges = None if ring is None else InteractionGraph.ring(ring).edges
    return oracles.reference_run(
        protocol.rules, protocol.output_map, counts, seed, max_steps,
        stop, edges, record_trace,
    )


def test_reference_simulator_reproduces_golden_traces():
    golden = iter(json.loads(GOLDEN_TRACES.read_text()))
    for seed in SEEDS:
        for key, init, ring, max_steps, stop, record_trace in CASES:
            got = reference(builtin(key), init, seed, max_steps, stop, ring, record_trace)
            assert json.loads(json.dumps(got)) == next(golden), (key, seed)


@st.composite
def simulations(draw):
    """A random 2-4-state protocol, often nondeterministic, with a total
    output map; 2-8 agents on the complete graph or a ring; any built-in
    stop rule."""
    k = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    rules = {
        (q1, q2): draw(st.one_of(st.just({(q1, q2)}), st.sets(pairs, min_size=1, max_size=3)))
        for q1 in range(k)
        for q2 in range(k)
    }
    states = tuple(f"s{q}" for q in range(k))
    protocol = Protocol(
        name="random",
        states=states,
        rules=complete(rules, k),
        output_map=tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))),
    )
    population = draw(st.integers(2, 8))
    agents = st.lists(st.integers(0, k - 1), min_size=population, max_size=population)
    counts = [0] * k
    for q in draw(agents):
        counts[q] += 1
    stop = draw(st.sampled_from(["silent", "window", "target", None]))
    if stop == "window":
        stop = ("window", draw(st.integers(1, 6)))
    elif stop == "target":
        target = {}
        for q in draw(agents):
            target[states[q]] = target.get(states[q], 0) + 1
        stop = ("target", target)
    return (
        protocol,
        counts,
        draw(st.integers(0, 2**64 - 1)),
        draw(st.integers(0, 80)),
        stop,
        draw(st.sampled_from([None, population])),
        draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(simulations())
def test_run_matches_reference_simulator(case):
    protocol, counts, seed, max_steps, stop, ring, record_trace = case
    graph = None if ring is None else InteractionGraph.ring(ring)
    result = run(protocol, counts, seed=seed, max_steps=max_steps, stop=stop,
                 graph=graph, record_trace=record_trace)
    assert dataclasses.asdict(result) == reference(*case)


# (protocol, init, ring size or None, max_steps, stop rule): trials share one
# protocol object, and so its kernel tables
MONTE_CARLO_CASES = [
    (builtin("pavlov-pd"), {"D": 3}, None, 2000, "silent"),
    # nondeterministic: most pairs draw their successor
    (symmetrize(builtin("or")), {"0": 2, "1'": 2}, None, 60, ("window", 5)),
    (builtin("pavlov-pd"), {"D": 5}, 5, 2000, "silent"),
]


def test_monte_carlo_matches_reference_simulator_trial_by_trial():
    trials, seed = 30, 11
    for protocol, init, ring, max_steps, stop in MONTE_CARLO_CASES:
        graph = None if ring is None else InteractionGraph.ring(ring)
        report = monte_carlo(protocol, init, graph=graph, trials=trials, seed=seed,
                             max_steps=max_steps, stop=stop)
        trial_seeds = oracles.splitmix64_stream(seed, trials)
        for result, trial_seed in zip(report.runs, trial_seeds, strict=True):
            expected = reference(protocol, init, trial_seed, max_steps, stop, ring, False)
            assert dataclasses.asdict(result) == expected, (protocol.name, trial_seed)


def test_kernel_tables_are_built_once_per_protocol_object(monkeypatch):
    builds = []
    build = kernels._tables

    def counted(protocol):
        builds.append(protocol)
        return build(protocol)

    monkeypatch.setattr(kernels, "_tables", counted)
    pd = dataclasses.replace(builtin("pavlov-pd"), output_map=(1, 0))
    monte_carlo(pd, {"D": 3}, trials=25, seed=3)
    monte_carlo(pd, {"D": 3}, trials=25, seed=4, stop=("window", 3))
    assert builds == [pd]

    # a copy with other rules or another output map reads its own tables:
    # it runs as a protocol made afresh from the same fields does
    frozen = complete({}, 2)  # every pair keeps its states
    stop = ("window", 4)
    for copy in (dataclasses.replace(pd, rules=frozen),
                 dataclasses.replace(pd, output_map=(1, 1))):
        fresh = Protocol(copy.name, copy.states, dict(copy.rules), output_map=copy.output_map)
        report = monte_carlo(copy, {"D": 3}, trials=25, seed=5, stop=stop)
        assert report == monte_carlo(fresh, {"D": 3}, trials=25, seed=5, stop=stop)
        assert report != monte_carlo(pd, {"D": 3}, trials=25, seed=5, stop=stop)
    # pd, then each copy and each fresh protocol, once
    assert len(builds) == len({id(p) for p in builds}) == 5


def test_fallback_flag_selects_numpy_backend():
    env = dict(os.environ, POPGAMES_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from popgames import backend, NUMBA_ENABLED;"
         "print(backend(), NUMBA_ENABLED)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == ["numpy", "False"]


def test_backend_reports_current_mode():
    expected = "numba" if NUMBA_ENABLED else "numpy"
    assert backend() == expected


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        state = kernels.seed_state(seed)
        got = [int(kernels.next_u64(state)) for _ in range(50)]
        assert got == oracles.splitmix64_stream(seed, 50), seed


def test_seed_state_shape_and_determinism():
    a = kernels.seed_state(7)
    b = kernels.seed_state(7)
    if NUMBA_ENABLED:
        assert isinstance(a, np.ndarray) and a.dtype == np.uint64 and a.shape == (1,)
    else:
        assert isinstance(a, list) and len(a) == 1 and type(a[0]) is int
    assert int(kernels.next_u64(a)) == int(kernels.next_u64(b))
    wrapped = kernels.seed_state(2**64 + 7)
    fresh = kernels.seed_state(7)
    assert [int(kernels.next_u64(wrapped)) for _ in range(5)] == [
        int(kernels.next_u64(fresh)) for _ in range(5)
    ]


def test_rand_below_range_and_determinism():
    state = kernels.seed_state(123)
    state2 = kernels.seed_state(123)
    draws = [int(kernels.rand_below(state, 7)) for _ in range(200)]
    again = [int(kernels.rand_below(state2, 7)) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    assert draws == again


def test_rand_below_matches_reference_modulus():
    ref = [value % 9 for value in oracles.splitmix64_stream(5, 100)]
    state = kernels.seed_state(5)
    got = [int(kernels.rand_below(state, 9)) for _ in range(100)]
    assert got == ref
