import dataclasses
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency

import oracles
from oracles import stop_output_window
from popgames import (
    ProtocolError,
    builtin,
    config_of,
    monte_carlo,
    run,
)
from popgames.core import histogram
from popgames.sim import InteractionGraph, _step_summary, counts_to_vertex_states


def test_interaction_graph_validation():
    with pytest.raises(ProtocolError):
        InteractionGraph(1, ((0, 0),))
    with pytest.raises(ProtocolError):
        InteractionGraph(3, ())
    with pytest.raises(ProtocolError):
        InteractionGraph(3, ((1, 1),))
    with pytest.raises(ProtocolError):
        InteractionGraph(3, ((0, 3),))
    with pytest.raises(ProtocolError):
        InteractionGraph(3, ((0, 1), (1, 0)))
    with pytest.raises(ProtocolError, match="vertex 1 cannot be reached"):
        InteractionGraph(4, ((0, 3), (1, 2)))


def test_graph_vertex_counts_must_be_integers():
    for build in (
        lambda: InteractionGraph(2.5, ((0, 1),)),
        lambda: InteractionGraph("2", ((0, 1),)),
        lambda: InteractionGraph.ring(2.5),
        lambda: InteractionGraph("3", oracles.complete_edges(3)),
    ):
        with pytest.raises(ProtocolError, match="vertex count must be an integer"):
            build()
    graph = InteractionGraph(np.int64(3), ((0, 1), (1, 2)))
    assert type(graph.vertex_count) is int
    assert graph == InteractionGraph(3, ((0, 1), (1, 2)))


def test_graph_edges_are_pairs_of_integers():
    for edges, message in (
        (((0, 1.0), (1, 2)), r"endpoint of edge \(0, 1.0\) must be an integer, got 1.0"),
        (((0, "1"), (1, 2)), r"endpoint of edge \(0, '1'\) must be an integer, got '1'"),
        (((0, 1), (1, 2), (2,)), r"edge \(2,\) is not a pair of vertices"),
        (((0, 1), (0, 1, 2)), r"edge \(0, 1, 2\) is not a pair of vertices"),
        (((0, 1), 2), r"edge 2 is not a pair of vertices"),
    ):
        with pytest.raises(ProtocolError, match=message):
            InteractionGraph(3, edges)
    graph = InteractionGraph(3, ((0, True), [np.int64(1), 2]))
    assert graph.edges == ((0, 1), (1, 2))
    assert all(type(end) is int for edge in graph.edges for end in edge)
    assert graph == InteractionGraph(3, ((0, 1), (1, 2)))


def test_graph_constructors():
    assert len(InteractionGraph(5, oracles.complete_edges(5)).edges) == 10
    assert len(InteractionGraph.ring(5).edges) == 5
    assert InteractionGraph.ring(2).edges == ((0, 1),)
    with pytest.raises(ProtocolError, match="vertex 3 cannot be reached"):
        InteractionGraph(4, ((0, 1), (1, 2)))


def test_run_reproducible():
    maj = builtin("majority")
    a = run(maj, {"0": 3, "1": 2}, seed=9, record_trace=True)
    b = run(maj, {"0": 3, "1": 2}, seed=9, record_trace=True)
    assert a == b
    c = run(maj, {"0": 3, "1": 2}, seed=10, record_trace=True)
    assert a.trace[0] == c.trace[0]


def test_or_all_zero_is_already_silent():
    result = run(builtin("or"), {"0": 4}, seed=3)
    assert result.stabilized
    assert result.steps == 0
    assert result.output == 0


def test_pd_all_c_ring_absorbing():
    pd = builtin("pavlov-pd")
    result = run(pd, {"C": 8}, seed=1, graph=InteractionGraph.ring(8))
    assert result.stabilized
    assert result.steps == 0
    assert result.final_config == config_of(pd, {"C": 8})


def test_pd_complete_reaches_all_c():
    pd = builtin("pavlov-pd")
    for seed in range(10):
        result = run(pd, {"D": 3}, seed=seed, max_steps=100_000)
        assert result.stabilized
        assert result.final_config == config_of(pd, {"C": 3})
        assert result.output is None  # no output map on the bare dynamics


def test_population_conserved_along_trace():
    maj = builtin("majority")
    result = run(maj, {"0": 4, "1": 3}, seed=5, stop=None, max_steps=60,
                 record_trace=True)
    assert len(result.trace) == 61
    assert all(sum(c) == 7 for c in result.trace)
    assert result.trace[-1] == result.final_config


def test_trace_steps_are_single_interactions():
    maj = builtin("majority")
    result = run(maj, {"0": 3, "1": 3}, seed=2, stop=None, max_steps=40,
                 record_trace=True)
    k = len(maj.states)
    for before, after in zip(result.trace, result.trace[1:]):
        if before == after:
            continue
        reachable = {
            oracles.counts_of(t, k)
            for t in oracles.agent_successors(
                maj.rules, counts_to_agents(before)
            )
        }
        assert after in reachable


def counts_to_agents(counts):
    agents = []
    for state, count in enumerate(counts):
        agents.extend([state] * count)
    return tuple(agents)


def test_graph_mode_tracks_vertices():
    maj = builtin("majority")
    g = InteractionGraph.ring(5)
    result = run(maj, {"0": 3, "1": 2}, seed=4, graph=g, stop=None, max_steps=25)
    assert result.final_states is not None
    assert len(result.final_states) == 5
    assert tuple(histogram(maj, result.final_states)) == result.final_config


def test_graph_mode_vertex_sequence_init():
    maj = builtin("majority")
    g = InteractionGraph.ring(3)
    result = run(maj, ["0", "1", "0"], seed=0, graph=g, stop=None, max_steps=0)
    assert result.final_states == (2, 3, 2)
    assert result.final_config == (0, 0, 2, 1)


def test_graph_mode_count_mapping_spread_in_state_order():
    maj = builtin("majority")
    g = InteractionGraph.ring(3)
    result = run(maj, {"0": 2, "1": 1}, seed=0, graph=g, stop=None, max_steps=0)
    assert result.final_states == (2, 2, 3)
    assert list(counts_to_vertex_states((1, 0, 2))) == [0, 2, 2]


def test_graph_mode_size_mismatch():
    with pytest.raises(ProtocolError):
        run(builtin("or"), {"0": 3}, graph=InteractionGraph.ring(4))
    with pytest.raises(ProtocolError):
        run(builtin("or"), ["0", "1"], graph=InteractionGraph.ring(3))


def test_invalid_inits():
    p = builtin("or")
    with pytest.raises(ProtocolError):
        run(p, {"z": 3})
    with pytest.raises(ProtocolError):
        run(p, {"0": 1})
    with pytest.raises(ProtocolError):
        run(p, (1, 2, 3))
    with pytest.raises(ProtocolError):
        run(p, {"0": -2, "1": 4})


def test_stop_rule_validation():
    p = builtin("or")
    with pytest.raises(ProtocolError):
        run(p, {"0": 3}, stop=("window", 0))
    with pytest.raises(ProtocolError):
        run(p, {"0": 3}, stop=("target", {"z": 1}))
    with pytest.raises(ProtocolError):
        run(p, {"0": 3}, stop="quiet")
    with pytest.raises(ProtocolError):
        run(builtin("pavlov-pd"), {"D": 3}, stop=("window", 4))
    with pytest.raises(ProtocolError, match="not a configuration of 3 agents"):
        run(builtin("pavlov-pd"), {"D": 3}, stop=("target", {"C": 5}), max_steps=2000)
    with pytest.raises(ProtocolError, match="not a configuration of 3 agents"):
        run(builtin("pavlov-pd"), {"D": 3}, stop=("target", {"C": 4, "D": -1}))
    # counts are read as the start's are: refused, never truncated
    for count in (2.5, "2"):
        with pytest.raises(ProtocolError, match="not a configuration of 3 agents"):
            run(builtin("pavlov-pd"), {"D": 3}, stop=("target", {"C": count, "D": 1}))
    for window in (2.5, "3"):
        with pytest.raises(ProtocolError, match="window must be an integer"):
            run(p, {"0": 2, "1": 1}, stop=("window", window), seed=1)


def test_negative_max_steps_rejected():
    pd = builtin("pavlov-pd")
    with pytest.raises(ProtocolError, match="max_steps"):
        run(pd, {"D": 3}, max_steps=-5)
    with pytest.raises(ProtocolError, match="max_steps"):
        monte_carlo(pd, {"D": 3}, trials=2, max_steps=-1)


def test_run_and_monte_carlo_read_their_numbers_as_integers():
    """max_steps, seed and trials are refused, naming the argument, unless
    they are integers: 2.5 is not truncated and "3" is not parsed."""
    pd = builtin("pavlov-pd")
    for bad in (2.5, "3"):
        for kwargs in (dict(max_steps=bad), dict(seed=bad)):
            name = next(iter(kwargs))
            with pytest.raises(ProtocolError, match=f"{name} must be an integer"):
                run(pd, {"D": 3}, stop=None, **kwargs)
            with pytest.raises(ProtocolError, match=f"{name} must be an integer"):
                monte_carlo(pd, {"D": 3}, trials=2, **kwargs)
        with pytest.raises(ProtocolError, match="trials must be an integer"):
            monte_carlo(pd, {"D": 3}, trials=bad)
    # a negative seed is taken mod 2^64
    assert run(pd, {"D": 3}, seed=-1) == run(pd, {"D": 3}, seed=2**64 - 1)
    assert monte_carlo(pd, {"D": 3}, trials=3, seed=-1).runs == monte_carlo(
        pd, {"D": 3}, trials=3, seed=2**64 - 1
    ).runs


def _never(protocol, trace):
    return False


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("max_steps", [0, 1, 5, 200])
@pytest.mark.parametrize("ring", [False, True], ids=["multiset", "ring"])
@pytest.mark.parametrize(
    "stop",
    ["silent", ("window", 3), ("target", {"Y": 3, "0": 1}), None, _never],
    ids=["silent", "window", "target", "none", "callable"],
)
def test_trace_changes_only_the_trace(stop, ring, max_steps, seed):
    maj = builtin("majority")
    # {"Y": 3, "0": 1} is already silent, already at its target and already
    # shows the constant output 1
    for init in ({"Y": 3, "0": 1}, {"0": 2, "1": 2}):
        kwargs = dict(seed=seed, max_steps=max_steps, stop=stop,
                      graph=InteractionGraph.ring(4) if ring else None)
        plain = run(maj, init, **kwargs)
        traced = run(maj, init, record_trace=True, **kwargs)
        assert dataclasses.replace(traced, trace=None) == plain
        assert len(traced.trace) == traced.steps + 1
        assert traced.trace[-1] == traced.final_config


def test_stop_none_runs_to_cutoff():
    result = run(builtin("pavlov-pd"), {"D": 4}, seed=6, stop=None, max_steps=37)
    assert result.steps == 37
    assert not result.stabilized


def test_target_stop():
    result = run(builtin("or"), {"0": 2, "1": 1}, seed=0,
                 stop=("target", {"1": 3}), max_steps=10_000)
    assert result.stabilized
    assert result.final_config == (0, 3)


def test_window_stop_majority():
    maj = builtin("majority")
    result = run(maj, {"0": 3, "1": 1}, seed=8, stop=("window", 6),
                 max_steps=100_000, record_trace=True)
    assert result.stabilized
    assert result.output == 1
    assert stop_output_window(maj, result.trace, 6)
    assert not stop_output_window(maj, result.trace[:1], 6)


def test_callable_stop_sees_trace_prefix():
    maj = builtin("majority")
    full = run(maj, {"0": 3, "1": 2}, seed=12, stop=None, max_steps=30,
               record_trace=True)

    def after_five(protocol, trace):
        return len(trace) > 5

    capped = run(maj, {"0": 3, "1": 2}, seed=12, stop=after_five,
                 max_steps=30, record_trace=True)
    assert capped.stabilized
    assert capped.steps == 5
    assert capped.trace == full.trace[:6]


def test_a_callable_stop_rule_sees_each_prefix_once():
    """The rule is called before every step, on the configurations so far:
    traces of length 1, 2, 3, ..., each a prefix of the recorded trace."""
    seen = []

    def record(protocol, trace):
        seen.append((len(trace), trace[-1]))
        return False

    result = run(builtin("pavlov-pd"), {"D": 6}, seed=3, stop=record, max_steps=40,
                 record_trace=True)
    assert result.steps == 40
    assert [length for length, _ in seen] == list(range(1, 42))
    assert [last for _, last in seen] == list(result.trace)
    assert dataclasses.replace(result, trace=None) == run(
        builtin("pavlov-pd"), {"D": 6}, seed=3, stop=_never, max_steps=40
    )


def test_stop_silent_predicate():
    def silent(protocol, config):
        # the silent stop rule is checked before the step budget
        return run(protocol, config, max_steps=0).stabilized

    maj = builtin("majority")
    assert silent(maj, config_of(maj, {"Y": 3, "0": 1}))
    assert not silent(maj, config_of(maj, {"0": 1, "1": 1}))
    lp = builtin("leader-pavlovian")
    assert not silent(lp, config_of(lp, {"L1": 1, "N": 2}))
    assert silent(builtin("or"), (4, 0))


def test_stop_output_window_trivial_cases():
    p = builtin("or")
    constant = [(0, 3)] * 4
    assert stop_output_window(p, constant, 4)
    assert stop_output_window(p, constant, 2)
    assert not stop_output_window(p, constant[:1], 2)
    mixed_tail = [(0, 3), (1, 2)]
    assert not stop_output_window(p, mixed_tail, 2)
    with pytest.raises(ProtocolError):
        stop_output_window(p, constant, 0)


def test_monte_carlo_single_trial():
    report = monte_carlo(builtin("pavlov-pd"), {"D": 3}, trials=1, seed=5,
                         max_steps=100_000)
    assert report.trials == 1
    assert len(report.runs) == 1
    assert report.successes == 1
    assert report.mean_steps == report.median_steps == float(report.runs[0].steps)


def test_monte_carlo_reproducible_and_bounds():
    maj = builtin("majority")
    a = monte_carlo(maj, {"0": 3, "1": 2}, trials=40, seed=77)
    b = monte_carlo(maj, {"0": 3, "1": 2}, trials=40, seed=77)
    assert a == b
    assert a.successes <= a.trials
    assert a.seed == 77
    assert all(r.output == 1 for r in a.runs if r.stabilized)


def test_monte_carlo_no_successes_gives_null_stats():
    report = monte_carlo(builtin("pavlov-pd"), {"D": 4}, trials=5, seed=1,
                         stop=None, max_steps=50)
    assert report.successes == 0
    assert report.mean_steps is None
    assert report.median_steps is None
    assert report.p95_steps is None


def numpy_summary(steps):
    a = np.array(steps, dtype=np.float64)
    return float(np.mean(a)), float(np.median(a)), float(np.percentile(a, 95))


@st.composite
def step_lists(draw):
    """Sorted step counts up to 10^9: hypothesis's own short lists, or a drawn
    length of 1-3,000 filled from a drawn seed, with few or many ties."""
    values = st.integers(0, 10**9)
    if draw(st.booleans()):
        return sorted(draw(st.lists(values, min_size=1, max_size=3000)))
    n = draw(st.integers(1, 3000))
    top = draw(st.sampled_from([1, 40, 10**4, 10**9]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return sorted(rng.randint(0, top) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(step_lists())
def test_step_summary_equals_numpy(steps):
    assert _step_summary(steps) == numpy_summary(steps)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 2500])
def test_step_summary_equals_numpy_at_fixed_lengths(n):
    rng = random.Random(n)
    for top in (1, 40, 10**9):
        steps = sorted(rng.randint(0, top) for _ in range(n))
        assert _step_summary(steps) == numpy_summary(steps)


def test_monte_carlo_statistics_equal_numpy():
    report = monte_carlo(builtin("pavlov-pd"), {"D": 5}, trials=300, seed=3)
    steps = sorted(r.steps for r in report.runs if r.stabilized)
    assert report.successes == len(steps) > 0
    got = (report.mean_steps, report.median_steps, report.p95_steps)
    assert got == numpy_summary(steps)


def test_monte_carlo_rejects_zero_trials():
    with pytest.raises(ProtocolError):
        monte_carlo(builtin("or"), {"0": 3}, trials=0)


def test_pd_ring_always_stabilizes_at_all_c():
    pd = builtin("pavlov-pd")
    report = monte_carlo(pd, {"D": 10}, graph=InteractionGraph.ring(10),
                         trials=50, seed=3)
    assert report.successes == 50
    all_c = config_of(pd, {"C": 10})
    assert all(r.final_config == all_c for r in report.runs)


def test_multiset_and_graph_modes_agree_in_distribution(kernels_warm):
    # Same protocol, same start, complete graph: both schedulers induce the
    # same Markov chain on count vectors; compare 3-step outcome frequencies.
    maj = builtin("majority")
    start = {"0": 2, "1": 2}
    g = InteractionGraph(4, oracles.complete_edges(4))
    trials = 12_000
    multiset = Counter(
        run(maj, start, seed=s, stop=None, max_steps=3).final_config
        for s in range(trials)
    )
    vertex = Counter(
        run(maj, start, seed=s, stop=None, max_steps=3, graph=g).final_config
        for s in range(trials, 2 * trials)
    )
    support = sorted(set(multiset) | set(vertex))
    table = [
        [multiset.get(c, 0) for c in support],
        [vertex.get(c, 0) for c in support],
    ]
    # Merge sparse columns so chi-square expectations stay healthy.
    merged = [[], []]
    spill = [0, 0]
    for col in range(len(support)):
        if multiset.get(support[col], 0) + vertex.get(support[col], 0) >= 40:
            merged[0].append(table[0][col])
            merged[1].append(table[1][col])
        else:
            spill[0] += table[0][col]
            spill[1] += table[1][col]
    if spill[0] + spill[1]:
        merged[0].append(spill[0])
        merged[1].append(spill[1])
    _, p_value, _, _ = chi2_contingency(merged)
    assert p_value > 0.01, (p_value, merged)
