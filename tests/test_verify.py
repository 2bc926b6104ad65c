"""Exhaustive verification: predicate language, reachability, bottom SCCs,
stable computation and leader election, and the small-protocol search."""

import dataclasses
import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgames import (
    BudgetExceeded,
    PredicateError,
    Protocol,
    ProtocolError,
    bottom_sccs,
    builtin,
    candidate_count,
    complete,
    config_of,
    eval_predicate,
    initial_config,
    make_protocol,
    monte_carlo,
    output_of_config,
    parse_predicate,
    predicate_symbols,
    reachable,
    stable_leader,
    stably_computes,
    symmetrize,
)
from popgames import verify
from popgames.pavcheck import EXACT, check_pavlovian, witness_reproduces
from popgames.sim import InteractionGraph
from popgames.verify import (
    And, Comparison, Congruence, LinearForm, Not, Or, iter_search_pavlovian,
)

import oracles


# ---------------------------------------------------------------------------
# predicate language


def test_parse_threshold_comparison():
    expr = parse_predicate("n_1 >= 1")
    assert expr == Comparison(LinearForm((("1", 1),), -1), ">=")
    assert eval_predicate(expr, {"1": 1}) == 1
    assert eval_predicate(expr, {"0": 4}) == 0
    assert eval_predicate(expr, {}) == 0


def test_parse_two_sided_comparison():
    expr = parse_predicate("n_0 >= n_1")
    assert expr == Comparison(LinearForm((("0", 1), ("1", -1)), 0), ">=")
    assert eval_predicate(expr, {"0": 2, "1": 2}) == 1
    assert eval_predicate(expr, {"0": 1, "1": 2}) == 0
    # absent symbols count as zero
    assert eval_predicate(expr, {"0": 1}) == 1
    assert eval_predicate(expr, {"1": 1}) == 0


def test_parse_congruence():
    expr = parse_predicate("n_1 mod 2 = 1")
    assert expr == Congruence(LinearForm((("1", 1),), 0), 2, 1)
    assert eval_predicate(expr, {"1": 3}) == 1
    assert eval_predicate(expr, {"1": 2}) == 0
    # residues are reduced into range
    assert parse_predicate("n_1 mod 2 = 3") == parse_predicate("n_1 mod 2 = 1")
    assert parse_predicate("n_1 mod 2 = -1") == parse_predicate("n_1 mod 2 = 1")


def test_linear_arithmetic_and_coefficients():
    expr = parse_predicate("2*n_a - 3*n_b + 1 > 0")
    assert eval_predicate(expr, {"a": 2, "b": 1}) == 1
    assert eval_predicate(expr, {"a": 1, "b": 1}) == 0
    folded = parse_predicate("n_a + n_a = 2")
    assert folded == Comparison(LinearForm((("a", 2),), -2), "=")
    assert eval_predicate(parse_predicate("-n_a + 2 > 0"), {"a": 1}) == 1
    assert eval_predicate(parse_predicate("3 >= 2"), {}) == 1


def test_double_equals_is_single_equals():
    assert parse_predicate("n_1 == 1") == parse_predicate("n_1 = 1")


def test_boolean_precedence_not_over_and_over_or():
    expr = parse_predicate("!n_a >= 1 && n_b >= 1 || n_c >= 1")
    assert isinstance(expr, Or)
    assert isinstance(expr.left, And)
    assert isinstance(expr.left.left, Not)
    assert eval_predicate(expr, {"a": 1, "b": 1}) == 0
    assert eval_predicate(expr, {"b": 1}) == 1
    assert eval_predicate(expr, {"a": 1, "c": 1}) == 1


def test_parentheses_regroup():
    flat = parse_predicate("n_a >= 1 && n_b >= 1 || n_c >= 1")
    grouped = parse_predicate("n_a >= 1 && (n_b >= 1 || n_c >= 1)")
    counts = {"c": 1}
    assert eval_predicate(flat, counts) == 1
    assert eval_predicate(grouped, counts) == 0


@pytest.mark.parametrize(
    "text, position",
    [
        ("foo >= 1", 0),
        ("n_ >= 1", 0),
        ("n_1 >= foo", 7),
        ("n_1 >=", 6),
        ("n_1 mod 1 = 0", 4),
        ("(n_1 >= 1", 9),
        ("n_1 >= 1 )", 9),
        ("n_1 ! 1", 4),
        ("", 0),
        ("2 * 3 > 1", 4),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(PredicateError) as err:
        parse_predicate(text)
    assert err.value.position == position
    assert f"position {position}" in str(err.value)


@pytest.mark.parametrize(
    "text, position",
    [("n_1 >= ²", 7), ("n_1 >= 1²", 8), ("n_1 mod ² = 1", 8), ("½ * n_1 > 0", 0),
     pytest.param("n_1 >= " + "1" * 5000, 7, id="n_1 >= <5000 digits>-7")],
)
def test_non_decimal_numerics_are_refused_with_a_position(text, position):
    # `²` and `½` are numerics but not decimal digits, which `int` refuses, as
    # it refuses a run of more digits than its limit
    with pytest.raises(PredicateError) as err:
        parse_predicate(text)
    assert err.value.position == position


# Predicate trees as tuples, rendered as text and evaluated here, apart from
# the package: ("cmp", lin, op, lin), ("mod", lin, modulus, residue, eq),
# ("not", t), ("par", t), and (op, t, t) for && and ||.  A linear form is a
# list of terms (sign, kind, c, symbol), kind "c", "n" (n_symbol) or "c*n".
SYMBOLS = ("0", "1", "a", "x_2")
SIGNED = st.tuples(st.sampled_from(["", "+", "-"]), st.integers(0, 9))
LINEAR = st.lists(
    st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["c", "n", "c*n"]),
        st.integers(0, 12),
        st.sampled_from(SYMBOLS),
    ),
    min_size=1,
    max_size=3,
)
ATOMS = st.one_of(
    st.tuples(st.just("cmp"), LINEAR, st.sampled_from(["<", "<=", "=", "==", ">=", ">"]), LINEAR),
    st.tuples(st.just("mod"), LINEAR, SIGNED, SIGNED, st.sampled_from(["=", "=="])),
)
TREES = st.recursive(
    ATOMS,
    lambda tree: st.one_of(
        st.tuples(st.sampled_from(["not", "par"]), tree),
        st.tuples(st.sampled_from(["&&", "||"]), tree, tree),
    ),
    max_leaves=6,
)


def _signed(sign, digits):
    return -digits if sign == "-" else digits


def _linear_value(terms, counts):
    total = 0
    for sign, kind, c, x in terms:
        count = counts.get(x, 0)
        total += _signed(sign, {"c": c, "n": count, "c*n": c * count}[kind])
    return total


def _holds(tree, counts):
    tag = tree[0]
    if tag == "cmp":
        d = _linear_value(tree[1], counts) - _linear_value(tree[3], counts)
        return {"<": d < 0, "<=": d <= 0, "=": d == 0, "==": d == 0,
                ">=": d >= 0, ">": d > 0}[tree[2]]
    if tag == "mod":
        modulus, residue = _signed(*tree[2]), _signed(*tree[3])
        return _linear_value(tree[1], counts) % modulus == residue % modulus
    if tag == "not":
        return not _holds(tree[1], counts)
    if tag == "par":
        return _holds(tree[1], counts)
    left, right = _holds(tree[1], counts), _holds(tree[2], counts)
    return left and right if tag == "&&" else left or right


def _moduli(tree):
    if tree[0] == "mod":
        return [_signed(*tree[2])]
    if tree[0] == "cmp":
        return []
    return [m for child in tree[1:] for m in _moduli(child)]


def _render(tree, space):
    """The text of `tree`, with `space()` around each token.  A child is put
    in parentheses only where precedence needs them: an || under && or !,
    and an && under !."""
    def lin(terms):
        return "".join(
            (sign or ("+" if i else "")) + space()
            + {"c": f"{c}", "n": f"n_{x}", "c*n": f"{c}{space()}*{space()}n_{x}"}[kind]
            + space()
            for i, (sign, kind, c, x) in enumerate(terms)
        )

    def child(sub, wrapped):
        text = _render(sub, space)
        return f"({space()}{text}{space()})" if sub[0] in wrapped else text

    tag = tree[0]
    if tag == "cmp":
        return lin(tree[1]) + tree[2] + space() + lin(tree[3])
    if tag == "mod":
        (msign, m), (rsign, r) = tree[2], tree[3]
        return f"{lin(tree[1])} mod {msign}{m}{space()}{tree[4]}{space()}{rsign}{r}"
    if tag == "not":
        return "!" + space() + child(tree[1], ("&&", "||"))
    if tag == "par":
        return f"({space()}{_render(tree[1], space)}{space()})"
    wrapped = ("||",) if tag == "&&" else ()
    return child(tree[1], wrapped) + space() + tag + space() + child(tree[2], wrapped)


@settings(max_examples=300, deadline=None)
@given(TREES, st.lists(st.dictionaries(st.sampled_from(SYMBOLS), st.integers(0, 30)),
                       min_size=1, max_size=4), st.data())
def test_drawn_predicates_read_as_drawn(tree, counts_list, data):
    spaces = st.sampled_from(["", " ", "  ", "\t", "\n"])
    text = _render(tree, lambda: data.draw(spaces))
    if any(m < 2 for m in _moduli(tree)):
        with pytest.raises(PredicateError, match="modulus must be >= 2"):
            parse_predicate(text)
        return
    expr = parse_predicate(text)
    for counts in counts_list:
        assert eval_predicate(expr, counts) == _holds(tree, counts), (text, counts)


def test_predicate_symbols():
    expr = parse_predicate("n_1 >= 1 && !(n_0 + 2*n_2 > 3)")
    assert predicate_symbols(expr) == {"0", "1", "2"}


# ---------------------------------------------------------------------------
# reachability


def tree_path(graph, config):
    """The BFS-tree path from the root (id 0) to `config`, read from the
    graph's `configs` and `parent` fields."""
    path, i = [], graph.configs.index(config)
    while i >= 0:
        path.append(graph.configs[i])
        i = graph.parent[i]
    return tuple(reversed(path))


def failures(verdict):
    return [r for r in verdict.per_input if not r.passed]


def assert_valid_path(graph, path):
    assert path[0] == graph.configs[0]
    for a, b in zip(path, path[1:]):
        assert b in graph.nodes[a]


def test_reachable_or_three_configs():
    p = builtin("or")
    graph = reachable(p, initial_config(p, {"0": 2, "1": 1}))
    assert graph.configs[0] == (2, 1)
    assert set(graph.nodes) == {(2, 1), (1, 2), (0, 3)}
    for node, succs in graph.nodes.items():
        assert set(succs) <= set(graph.nodes)
        assert all(sum(s) == 3 for s in succs)
    assert tree_path(graph, (0, 3)) == ((2, 1), (1, 2), (0, 3))


def test_reachable_identity_only_is_a_point():
    idle = make_protocol("idle", ("a", "b"), [])
    graph = reachable(idle, (1, 1))
    assert set(graph.nodes) == {(1, 1)}
    assert bottom_sccs(graph) == [frozenset({(1, 1)})]


def test_reachable_leader_flip():
    p = builtin("leader-pavlovian")
    graph = reachable(p, config_of(p, {"L1": 2, "N": 1}))
    assert (0, 2, 1) in graph.nodes
    assert_valid_path(graph, tree_path(graph, (0, 2, 1)))


def test_reachable_rejects_tiny_population():
    p = builtin("or")
    with pytest.raises(ProtocolError):
        reachable(p, (1, 0))


def test_reachable_budget():
    p = builtin("leader-pavlovian")
    with pytest.raises(BudgetExceeded) as err:
        reachable(p, config_of(p, {"L1": 3, "N": 3}), budget=2)
    assert err.value.budget == 2


def test_budget_counts_the_root():
    majority = builtin("majority")
    with pytest.raises(BudgetExceeded):
        reachable(majority, (2, 0, 0, 0), 0)
    assert reachable(majority, (2, 0, 0, 0), 1).configs == ((2, 0, 0, 0),)
    with pytest.raises(BudgetExceeded):
        reachable(majority, (2, 0, 0, 0), 0)


def test_reachable_from_every_start_or():
    p = builtin("or")
    graphs = [reachable(p, start) for start in oracles.compositions(3, 2)]
    assert {c for graph in graphs for c in graph.configs} == {(3, 0), (2, 1), (1, 2), (0, 3)}
    assert {scc for graph in graphs for scc in bottom_sccs(graph)} == {
        frozenset({(0, 3)}), frozenset({(3, 0)})
    }
    majority = builtin("majority")
    with pytest.raises(BudgetExceeded):
        reachable(majority, initial_config(majority, {"0": 25, "1": 25}), budget=10)


def test_pd_ring_per_vertex_bottoms():
    pd = builtin("pavlov-pd")
    ring = oracles.oriented(InteractionGraph.ring(3).edges)
    graph = oracles.agent_full_graph(pd.rules, 2, 3, ring)
    assert len(graph) == 8
    # C is state 0: mutual cooperation is the one absorbing component
    assert oracles.bottom_sccs_of(graph) == [frozenset({(0, 0, 0)})]


def test_one_state_graph_is_its_root():
    one = make_protocol("one", ("a",), [])
    graph = reachable(one, (3,))
    assert graph.configs == ((3,),) and graph.parent == (-1,)
    assert tree_path(graph, (3,)) == ((3,),)
    assert bottom_sccs(graph) == [frozenset({(3,)})]


@st.composite
def random_protocols(draw):
    """A 2-4-state protocol whose pairs are identities, swaps or random
    (often nondeterministic) successor sets."""
    k = draw(st.integers(2, 4))
    state = st.integers(0, k - 1)
    rules = {}
    for q1 in range(k):
        for q2 in range(k):
            kind = draw(st.sampled_from(("identity", "swap", "random")))
            if kind == "swap":
                rules[(q1, q2)] = {(q2, q1)}
            elif kind == "random":
                rules[(q1, q2)] = draw(
                    st.sets(st.tuples(state, state), min_size=1, max_size=3)
                )
    return Protocol(name="random", states=tuple(f"q{i}" for i in range(k)),
                    rules=complete(rules, k))


@st.composite
def protocols_and_starts(draw):
    """A random protocol and an agent tuple of 2-6."""
    protocol = draw(random_protocols())
    state = st.integers(0, protocol.state_count - 1)
    return protocol, tuple(draw(st.lists(state, min_size=2, max_size=6)))


@settings(max_examples=100, deadline=None)
@given(protocols_and_starts())
def test_reachable_matches_agent_semantics(case):
    """The numbered BFS against the per-agent oracle projected to counts:
    nodes, successor lists, BFS paths, bottom SCCs and the budget edge."""
    protocol, agents = case
    k = protocol.state_count
    agent_graph = oracles.agent_reachable(protocol.rules, agents)
    projected = {}
    for node, succs in agent_graph.items():
        projected[oracles.counts_of(node, k)] = sorted(
            {oracles.counts_of(s, k) for s in succs}
        )

    init = oracles.counts_of(agents, k)
    graph = reachable(protocol, init)
    assert set(graph.nodes) == set(projected)
    for config, succs in graph.nodes.items():
        assert list(succs) == projected[config]
    for config in graph.nodes:
        path = tree_path(graph, config)
        assert path[0] == init and path[-1] == config
        assert all(b in projected[a] for a, b in zip(path, path[1:]))
    got = bottom_sccs(graph)
    assert set(got) == {
        frozenset(oracles.counts_of(node, k) for node in comp)
        for comp in oracles.bottom_sccs_of(agent_graph)
    }
    assert got == sorted(got, key=min)

    assert len(reachable(protocol, init, budget=len(projected)).nodes) == len(projected)
    with pytest.raises(BudgetExceeded):
        reachable(protocol, init, budget=len(projected) - 1)


def test_bottom_scc_weak_xor_pair():
    p = builtin("weak-xor")
    graph = reachable(p, initial_config(p, {"1": 2}))
    assert bottom_sccs(graph) == [frozenset({(2, 0)})]


def test_bottom_scc_two_leader_cycle():
    p = builtin("leader-pavlovian")
    graph = reachable(p, config_of(p, {"L1": 2}))
    assert bottom_sccs(graph) == [frozenset({(2, 0, 0), (0, 2, 0)})]


# ---------------------------------------------------------------------------
# explorations and checks shared between protocols of one dynamics


def oracle_nodes(protocol, start):
    """The per-agent graph from `start` projected to counts: each
    configuration and its sorted successor configurations."""
    k = protocol.state_count
    agents = tuple(q for q, c in enumerate(start) for _ in range(c))
    nodes = {}
    for node, succs in oracles.agent_reachable(protocol.rules, agents).items():
        nodes[oracles.counts_of(node, k)] = tuple(
            sorted({oracles.counts_of(s, k) for s in succs})
        )
    return nodes


def oracle_passes(protocol, predicate, sizes):
    """Per input label: every bottom-SCC configuration of the per-agent graph
    outputs the predicate's value."""
    expr = parse_predicate(predicate)
    alphabet = protocol.input_alphabet
    out = {}
    for n in sizes:
        for counts in oracles.compositions(n, len(alphabet)):
            label = tuple(zip(alphabet, counts))
            expected = eval_predicate(expr, dict(label))
            agents = tuple(protocol.input_map[s] for s, c in label for _ in range(c))
            graph = oracles.agent_reachable(protocol.rules, agents)
            out[label] = all(
                oracles.config_output(
                    protocol.output_map, oracles.counts_of(node, protocol.state_count)
                ) == expected
                for comp in oracles.bottom_sccs_of(graph)
                for node in comp
            )
    return out


def test_interleaved_dynamics_get_their_own_answers():
    """or, and, or again, then or's dynamics under another output map: all
    four share their starts, and every answer is the oracle's, or for the
    Pavlovian check a witness that re-derives the protocol."""
    a, b = builtin("or"), builtin("and")
    a_flipped = dataclasses.replace(a, name="or-flipped", output_map=(1, 0))
    sizes = (2, 3, 4)
    starts = [c for n in sizes for c in oracles.compositions(n, 2)]
    witnesses = []
    for protocol, predicate in (
        (a, "n_1 >= 1"), (b, "n_0 = 0"), (a, "n_1 >= 1"), (a_flipped, "n_1 = 0"),
    ):
        for start in starts:
            graph = reachable(protocol, start)
            assert graph.nodes == oracle_nodes(protocol, start)
            assert set(bottom_sccs(graph)) == oracles.project_bottoms(
                protocol.rules, tuple(q for q, c in enumerate(start) for _ in range(c)), 2
            )
        verdict = stably_computes(protocol, predicate, sizes)
        assert {r.input: r.passed for r in verdict.per_input} == oracle_passes(
            protocol, predicate, sizes
        )
        witness = check_pavlovian(protocol)
        assert witness_reproduces(witness, protocol, EXACT)
        witnesses.append(witness)
    assert witnesses[0] != witnesses[1]
    assert witnesses[0] == witnesses[2] == witnesses[3]


def test_explored_graphs_are_read_only_values():
    protocol = builtin("weak-xor")
    graph = reachable(protocol, (1, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        graph.configs = ()
    assert isinstance(graph.configs, tuple) and isinstance(graph.succ[0], tuple)
    bottoms = bottom_sccs(graph)
    expected = list(bottoms)
    bottoms.append(frozenset({(3, 0)}))
    bottoms[0] = frozenset()
    assert bottom_sccs(graph) == expected
    # the same dynamics from the same start, under other maps: one graph
    other = dataclasses.replace(protocol, name="weak-xor-flipped", output_map=(1, 0))
    assert reachable(other, (1, 2)) is graph


def test_a_repeated_exploration_keeps_its_budget():
    protocol = builtin("leader-pavlovian")
    start = config_of(protocol, {"L1": 3, "N": 3})
    size = len(reachable(protocol, start).configs)
    assert len(reachable(protocol, start, budget=size).configs) == size
    for budget in (size - 1, 1, 0):
        with pytest.raises(BudgetExceeded) as err:
            reachable(protocol, start, budget=budget)
        assert err.value.budget == budget


def test_exploration_memo_is_bounded():
    verdict = stably_computes(symmetrize(builtin("majority")), "n_0 >= n_1", range(2, 11))
    assert verdict.passed
    held = sum(len(g.configs) for g in verify._explored.graphs.values())
    assert held == verify._explored.held
    assert 0 < held <= verify.EXPLORED_CAP


def test_threads_alternating_dynamics_get_their_own_answers():
    """Two threads walk or and and in opposite orders, with a short switch
    interval so that they interleave inside the calls."""
    protocols = {"or": (builtin("or"), "n_1 >= 1"), "and": (builtin("and"), "n_0 = 0")}
    sizes = (2, 3)
    starts = [c for n in sizes for c in oracles.compositions(n, 2)]
    expected = {}
    for name, (protocol, predicate) in protocols.items():
        witness = check_pavlovian(protocol)
        assert witness_reproduces(witness, protocol, EXACT)
        expected[name] = (
            [oracle_nodes(protocol, s) for s in starts],
            oracle_passes(protocol, predicate, sizes),
            witness,
        )
    assert expected["or"][2] != expected["and"][2]
    errors = []

    def walk(order):
        for _ in range(150):
            for name in order:
                protocol, predicate = protocols[name]
                nodes, passes, witness = expected[name]
                if [dict(reachable(protocol, s).nodes) for s in starts] != nodes:
                    errors.append((name, "reachable"))
                verdict = stably_computes(protocol, predicate, sizes)
                if {r.input: r.passed for r in verdict.per_input} != passes:
                    errors.append((name, "stably_computes"))
                if check_pavlovian(protocol) != witness:
                    errors.append((name, "check_pavlovian"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=walk, args=(order,))
            for order in (("or", "and"), ("and", "or"))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


# ---------------------------------------------------------------------------
# each graph's first bottom violation, kept per (measure, expected value)


FIVE_STATES = Protocol("five", tuple("abcde"), complete({}, 5))


def explore_elsewhere():
    """Explore a 5-state protocol, whose move table no drawn or builtin
    protocol below has, so that `reachable` explores their graphs afresh."""
    reachable(FIVE_STATES, (2, 0, 0, 0, 0))


@st.composite
def protocols_with_inputs(draw):
    """A `random_protocols` protocol, deterministic or not, with input
    symbols 0 and 1 bound to drawn states and no output map."""
    protocol = draw(random_protocols())
    state = st.integers(0, protocol.state_count - 1)
    return dataclasses.replace(
        protocol, input_alphabet=("0", "1"), input_map={"0": draw(state), "1": draw(state)}
    )


@settings(max_examples=40, deadline=None)
@given(protocols_with_inputs())
def test_verdicts_on_checked_graphs_match_fresh_verdicts_and_the_oracle(protocol):
    """Every output map under two predicates, one after another on shared
    graphs: each verdict's JSON equals the verdict's on freshly explored
    graphs, and it passes on exactly the inputs whose per-agent bottom SCCs
    carry the predicate's value throughout."""
    sizes = (2, 3, 4)
    k = protocol.state_count
    bottoms = {}  # input label -> the per-agent bottom SCCs, as count vectors
    for n in sizes:
        for counts in oracles.compositions(n, 2):
            label = tuple(zip(("0", "1"), counts))
            agents = tuple(protocol.input_map[s] for s, c in label for _ in range(c))
            graph = oracles.agent_reachable(protocol.rules, agents)
            bottoms[label] = [
                [oracles.counts_of(node, k) for node in comp]
                for comp in oracles.bottom_sccs_of(graph)
            ]
    payloads = {}
    for predicate in ("n_1 >= 1", "n_0 > n_1"):
        expr = parse_predicate(predicate)
        for bits in itertools.product((0, 1), repeat=k):
            attached = dataclasses.replace(protocol, output_map=bits)
            verdict = stably_computes(attached, expr, sizes)
            payloads[bits, predicate] = verdict.as_dict(attached)
            assert {r.input: r.passed for r in verdict.per_input} == {
                label: all(
                    oracles.config_output(bits, config) == eval_predicate(expr, dict(label))
                    for comp in comps
                    for config in comp
                )
                for label, comps in bottoms.items()
            }
    for (bits, predicate), payload in payloads.items():
        attached = dataclasses.replace(protocol, output_map=bits)
        explore_elsewhere()
        assert stably_computes(attached, predicate, sizes).as_dict(attached) == payload


def test_leader_and_output_checks_of_one_graph_get_their_own_answers():
    """From any start with a 1, or ends with every agent in state 1: its
    output is 1, as n_1 >= 1 expects, but its count of leader state 1 is n,
    not 1.  Both checks expect 1 on the same graphs, and neither reads the
    other's answer, in either order."""
    p = builtin("or")
    sizes = (2, 3, 4)
    explore_elsewhere()
    fresh_leader = stable_leader(p, ["1"], sizes)
    explore_elsewhere()
    fresh_output = stably_computes(p, "n_1 >= 1", sizes)
    assert fresh_output.passed and not fresh_leader.passed
    for result in fresh_leader.per_input:
        cex = result.counterexample
        assert cex.property == "leader-count"
        assert cex.actual == sum(dict(result.input).values())
    for _ in range(2):
        assert stably_computes(p, "n_1 >= 1", sizes) == fresh_output
        assert stable_leader(p, ["1"], sizes) == fresh_leader


def test_a_failing_input_on_a_checked_graph_shares_its_counterexample():
    """weak-xor fails n_1 mod 2 = 1 on odd counts of 1.  Checking its graphs
    again with the same output map and expected values, under another
    protocol name, hands back the same Counterexample objects; the other
    expected value gets its own."""
    p = builtin("weak-xor")
    sizes = (3, 4, 5)
    first = stably_computes(p, "n_1 mod 2 = 1", sizes)
    again = stably_computes(dataclasses.replace(p, name="weak-xor-again"), "n_1 mod 2 = 1", sizes)
    assert failures(first)
    assert first == again
    for a, b in zip(first.per_input, again.per_input):
        assert a.counterexample is b.counterexample
    flipped = stably_computes(p, "n_1 mod 2 = 0", sizes)
    for a, b in zip(first.per_input, flipped.per_input):
        if not a.passed and not b.passed:
            assert (a.counterexample.expected, b.counterexample.expected) == (1, 0)


# ---------------------------------------------------------------------------
# stable computation


def test_or_and_majority_verify():
    sizes = range(2, 6)
    assert stably_computes(builtin("or"), "n_1 >= 1", sizes).passed
    assert stably_computes(builtin("and"), "n_0 = 0", sizes).passed
    assert stably_computes(builtin("majority"), "n_0 >= n_1", sizes).passed


def test_weak_xor_fails_on_odd_ones():
    verdict = stably_computes(builtin("weak-xor"), "n_1 mod 2 = 1", range(2, 6))
    assert not verdict.passed
    assert verdict.sizes == (2, 3, 4, 5)
    for result in verdict.per_input:
        ones = dict(result.input)["1"]
        assert result.passed == (ones % 2 == 0)
    failure = failures(verdict)[0]
    cex = failure.counterexample
    assert cex.expected == 1
    assert cex.actual is None  # both output classes survive in the residue
    assert cex.property == "output"


def test_counterexample_path_is_an_execution():
    p = builtin("weak-xor")
    verdict = stably_computes(p, "n_1 mod 2 = 1", (5,))
    for result in failures(verdict):
        init = initial_config(p, dict(result.input))
        graph = reachable(p, init)
        cex = result.counterexample
        assert cex.config in {c for scc in bottom_sccs(graph) for c in scc}
        assert_valid_path(graph, cex.path)
        assert cex.path[-1] == cex.config


def test_verdict_as_dict():
    p = builtin("or")
    verdict = stably_computes(p, "n_1 >= 1", (2, 3))
    payload = verdict.as_dict(p)
    assert payload["passed"] is True
    assert payload["sizes"] == [2, 3]
    assert payload["note"] == "exhaustive over the listed population sizes only"
    assert len(payload["inputs"]) == 3 + 4
    assert {"input": "0:2", "passed": True} in payload["inputs"]


def test_verdicts_share_read_only_passing_results():
    first = stably_computes(builtin("or"), "n_1 >= 1", (2, 3))
    other = dataclasses.replace(builtin("or"), name="or-again")
    again = stably_computes(other, "n_1 >= 1", (2, 3))
    assert first == again and first.passed
    for result in first.per_input:
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.passed = False
    assert first == again


def test_input_labels_skip_zero_counts():
    verdict = stably_computes(builtin("or"), "n_1 >= 1", (2,))
    labels = {r.input_label() for r in verdict.per_input}
    assert labels == {"0:2", "0:1,1:1", "1:2"}


def test_stably_computes_validation():
    with pytest.raises(ProtocolError):
        stably_computes(builtin("or"), "n_2 >= 1", (3,))
    with pytest.raises(ProtocolError):
        stably_computes(builtin("or"), "n_1 >= 1", ())
    with pytest.raises(ProtocolError):
        stably_computes(builtin("or"), "n_1 >= 1", (1, 2))
    bare = builtin("leader-pavlovian")  # no input or output map
    with pytest.raises(ProtocolError):
        stably_computes(bare, "n_1 >= 1", (3,))
    silent = dataclasses.replace(builtin("or"), output_map=None)
    with pytest.raises(ProtocolError, match="protocol 'or' has no output map"):
        stably_computes(silent, "n_1 >= 1", (3,))


def test_stably_computes_budget_propagates():
    with pytest.raises(BudgetExceeded):
        stably_computes(builtin("or"), "n_1 >= 1", (3,), budget=2)


SIZE_CHECKS = {
    "stably_computes": lambda sizes: stably_computes(builtin("or"), "n_1 >= 1", sizes),
    "stable_leader": lambda sizes: stable_leader(builtin("leader-classic"), ["L"], sizes),
    "iter_search_pavlovian": lambda sizes: next(iter_search_pavlovian(2, "n_1 >= 1", sizes)),
}


@pytest.mark.parametrize("entry", sorted(SIZE_CHECKS))
@pytest.mark.parametrize("sizes, message", [
    ([2.5], "population size 2.5 is not an integer"),
    (["3"], "population size '3' is not an integer"),
    ([2, 3.0], "population size 3.0 is not an integer"),
    ([3, 3], "population size 3 is listed twice"),
    ([2, 4, 2], "population size 2 is listed twice"),
])
def test_sizes_are_integers_listed_once(entry, sizes, message):
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        SIZE_CHECKS[entry](sizes)


def test_sizes_are_read_as_python_ints():
    class Size:
        def __init__(self, n):
            self.n = n

        def __index__(self):
            return self.n

    verdict = stably_computes(builtin("or"), "n_1 >= 1", [Size(2), Size(3)])
    assert verdict.sizes == (2, 3) and all(type(n) is int for n in verdict.sizes)
    assert len(verdict.per_input) == 3 + 4


@pytest.mark.parametrize("budget", ["5", 10.5, 2.5, None])
def test_budgets_are_integers(budget):
    message = f"^budget must be an integer, got {budget!r}$"
    with pytest.raises(ProtocolError, match=message):
        reachable(builtin("or"), (2, 1), budget)
    with pytest.raises(ProtocolError, match=message):
        stably_computes(builtin("or"), "n_1 >= 1", (3,), budget)
    with pytest.raises(ProtocolError, match=message):
        stable_leader(builtin("leader-classic"), ["L"], (3,), budget=budget)
    with pytest.raises(ProtocolError, match=message):
        next(iter_search_pavlovian(2, "n_1 >= 1", (2, 3), budget=budget))


def test_accepts_parsed_predicates():
    expr = parse_predicate("n_1 >= 1")
    assert stably_computes(builtin("or"), expr, (2, 3)).passed


# ---------------------------------------------------------------------------
# leader election


def test_leader_counterexamples_count_each_leader_state_once():
    p = builtin("leader-pavlovian")
    for leaders in (("L1", "L2"), ("L1", "L2", "L1")):
        verdict = stable_leader(p, leaders, (2, 3))
        for result in failures(verdict):
            cex = result.counterexample
            assert cex.actual == cex.config[p.index("L1")] + cex.config[p.index("L2")]
            assert cex.actual != 1
        assert {r.input_label() for r in failures(verdict)} == {"L1:2", "L2:2"}


def test_stable_leader_refuses_a_repeated_initial_state():
    p = builtin("leader-pavlovian")
    with pytest.raises(ProtocolError, match="initial state 'L1' is listed twice"):
        stable_leader(p, ("L1", "L2"), (3,), initial_states=("L1", "N", "L1"))


def test_stable_leader_refuses_to_check_no_start():
    """Without a leader among the allowed initial states no start has a
    leader, and a verdict over no input would pass having checked nothing."""
    p = builtin("leader-classic")
    for leaders, pool in (([], None), (["L"], ["N"]), ([], ["L", "N"])):
        with pytest.raises(ProtocolError, match="no start has a leader"):
            stable_leader(p, leaders, range(2, 5), initial_states=pool)


def test_pavlovian_leader_election_small_sizes():
    p = builtin("leader-pavlovian")
    verdict = stable_leader(p, ("L1", "L2"), (3, 4, 5))
    assert verdict.passed
    # every initial multiset containing a leader is enumerated, no others
    assert len(verdict.per_input) == 9 + 14 + 20
    for result in verdict.per_input:
        counts = dict(result.input)
        assert counts["L1"] + counts["L2"] >= 1


def test_two_agent_leader_failure():
    p = builtin("leader-pavlovian")
    verdict = stable_leader(p, ("L1", "L2"), (2,))
    assert not verdict.passed
    assert {r.input_label() for r in failures(verdict)} == {"L1:2", "L2:2"}
    cex = failures(verdict)[0].counterexample
    assert cex.property == "leader-count"
    assert cex.actual == 2
    assert cex.config in {(2, 0, 0), (0, 2, 0)}


def test_classic_leader_election():
    verdict = stable_leader(builtin("leader-classic"), ("L",), (2, 3, 4))
    assert verdict.passed


def test_leader_initial_state_restriction():
    p = builtin("leader-pavlovian")
    verdict = stable_leader(p, ("L1", "L2"), (3,), initial_states=("L1", "N"))
    assert verdict.passed
    assert [r.input for r in verdict.per_input] == [
        (("L1", 1), ("N", 2)),
        (("L1", 2), ("N", 1)),
        (("L1", 3), ("N", 0)),
    ]


# ---------------------------------------------------------------------------
# invariants


def permuted_copy(protocol: Protocol, perm: tuple[int, ...]) -> Protocol:
    """The same dynamics with states renamed to t<i> and reindexed by perm
    (perm[new] = old)."""
    inv = {old: new for new, old in enumerate(perm)}
    rules = {
        (inv[a], inv[b]): frozenset((inv[c], inv[d]) for c, d in succs)
        for (a, b), succs in protocol.rules.items()
    }
    return Protocol(
        name=protocol.name + "-renamed",
        states=tuple(f"t{i}" for i in range(len(perm))),
        rules=rules,
        input_alphabet=protocol.input_alphabet,
        input_map={s: inv[q] for s, q in protocol.input_map.items()},
        output_map=tuple(protocol.output_map[old] for old in perm),
    )


def verdict_shape(verdict):
    return [(r.input, r.passed) for r in verdict.per_input]


def test_verdicts_invariant_under_state_renaming():
    cases = [
        (builtin("or"), "n_1 >= 1"),
        (builtin("and"), "n_0 = 0"),
        (builtin("weak-xor"), "n_1 mod 2 = 1"),
    ]
    for protocol, predicate in cases:
        flipped = permuted_copy(protocol, (1, 0))
        assert verdict_shape(stably_computes(protocol, predicate, (2, 3, 4))) == \
            verdict_shape(stably_computes(flipped, predicate, (2, 3, 4)))

    rng = random.Random(0xBEEF)
    majority = builtin("majority")
    base = verdict_shape(stably_computes(majority, "n_0 >= n_1", (2, 3, 4)))
    for _ in range(3):
        perm = list(range(4))
        rng.shuffle(perm)
        renamed = permuted_copy(majority, tuple(perm))
        assert verdict_shape(stably_computes(renamed, "n_0 >= n_1", (2, 3, 4))) == base


def test_bottom_sccs_match_per_agent_reference():
    """The count-vector graph and a per-agent graph over labelled agents must
    agree on bottom SCCs once agent tuples are projected down to counts."""
    protocols = [
        builtin("or"),
        builtin("and"),
        builtin("weak-xor"),
        builtin("pavlov-pd"),
        builtin("leader-pavlovian"),
    ]
    for protocol in protocols:
        k = protocol.state_count
        for n in (2, 3, 4):
            for init in oracles.compositions(n, k):
                graph = reachable(protocol, init)
                got = {frozenset(scc) for scc in bottom_sccs(graph)}
                agents = tuple(q for q, c in enumerate(init) for _ in range(c))
                want = oracles.project_bottoms(protocol.rules, agents, k)
                assert got == want, (protocol.name, init)


def search_2state_candidates():
    """Every candidate of `search --states 2 --alphabet 0,1,2`: each
    symmetric deterministic rule table on two states, with each input map
    and each output map."""
    alphabet = ("0", "1", "2")
    for rules in oracles.symmetric_tables(2):
        for iota in itertools.product(range(2), repeat=len(alphabet)):
            for omega in itertools.product((0, 1), repeat=2):
                yield Protocol(
                    name="candidate",
                    states=("s0", "s1"),
                    rules=rules,
                    input_alphabet=alphabet,
                    input_map=dict(zip(alphabet, iota)),
                    output_map=omega,
                )


def projected_graph(rules, agents, k):
    """The per-agent graph from `agents` projected to count vectors: each
    configuration's successor configurations, and the bottom SCCs, each
    sorted, in the order of their least configurations."""
    graph = oracles.agent_reachable(rules, agents)
    succ = {}
    for node, out in graph.items():
        succ.setdefault(oracles.counts_of(node, k), set()).update(
            oracles.counts_of(s, k) for s in out
        )
    bottoms = {
        tuple(sorted({oracles.counts_of(node, k) for node in comp}))
        for comp in oracles.bottom_sccs_of(graph)
    }
    return succ, sorted(bottoms, key=lambda scc: scc[0])


def distances(succ, start):
    """Breadth-first distance from `start` to every configuration."""
    dist, frontier = {start: 0}, [start]
    for node in frontier:
        for nxt in succ[node]:
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                frontier.append(nxt)
    return dist


def assert_verdict_is_the_oracles(protocol, sizes, graphs):
    """`stably_computes(protocol, "n_1 >= 1", sizes)` against the per-agent
    semantics, input by input: pass or fail and, for a failure, the first
    failing configuration scanning the bottom SCCs by least configuration
    and each one sorted, its expected and actual output, and a shortest
    execution from the start that ends there.  `graphs` keeps the projected
    graphs by dynamics and start.  Returns the number of inputs checked."""
    k = protocol.state_count
    verdict = stably_computes(protocol, "n_1 >= 1", sizes)
    assert verdict.sizes == sizes
    results = iter(verdict.per_input)
    for n in sizes:
        for counts in oracles.compositions(n, len(protocol.input_alphabet)):
            label = tuple(zip(protocol.input_alphabet, counts))
            expected = 1 if dict(label)["1"] >= 1 else 0
            agents = tuple(sorted(
                protocol.input_map[s] for s, c in label for _ in range(c)
            ))
            key = (tuple(sorted(protocol.rules.items())), agents)
            if key not in graphs:
                graphs[key] = projected_graph(protocol.rules, agents, k)
            succ, bottoms = graphs[key]
            failing = next(
                (
                    (config, actual)
                    for scc in bottoms
                    for config in scc
                    if (actual := oracles.config_output(protocol.output_map, config))
                    != expected
                ),
                None,
            )
            result = next(results)
            assert result.input == label
            assert result.passed == (failing is None)
            if failing is None:
                assert result.counterexample is None
                continue
            cex = result.counterexample
            assert (cex.config, cex.actual) == failing
            assert (cex.expected, cex.property) == (expected, "output")
            start = oracles.counts_of(agents, k)
            assert cex.path[0] == start and cex.path[-1] == cex.config
            assert all(b in succ[a] for a, b in zip(cex.path, cex.path[1:]))
            assert len(cex.path) - 1 == distances(succ, start)[cex.config]
    assert next(results, None) is None
    assert verdict.passed == all(r.passed for r in verdict.per_input)
    return len(verdict.per_input)


def test_search_2state_verdicts_match_the_per_agent_semantics():
    """Every 2-state candidate of `search --alphabet 0,1,2` on n_1 >= 1."""
    graphs = {}
    checked = sum(
        assert_verdict_is_the_oracles(protocol, (2, 3, 4), graphs)
        for protocol in search_2state_candidates()
    )
    assert checked == 512 * (6 + 10 + 15)


def test_3state_verdicts_match_the_per_agent_semantics():
    """Every 199th symmetric deterministic 3-state dynamics, with inputs 0
    and 1 on states 0 and 1, under every output map: these graphs often
    hold several bottom SCCs, so the scan order shows."""
    graphs = {}
    for rules in itertools.islice(oracles.symmetric_tables(3), 0, None, 199):
        for omega in itertools.product((0, 1), repeat=3):
            protocol = Protocol(
                name="sample",
                states=("s0", "s1", "s2"),
                rules=rules,
                input_alphabet=("0", "1"),
                input_map={"0": 0, "1": 1},
                output_map=omega,
            )
            assert_verdict_is_the_oracles(protocol, (2, 3, 4), graphs)


def test_output_of_config_is_the_set_rule():
    """`output_of_config` reads the output bits and gives what the set rule
    of `oracles.config_output` gives (the one bit every present agent
    shares, else None) on every configuration of 2 to 6 agents and the
    empty one, for every 0/1 output map on up to 3 states."""
    for k in (1, 2, 3):
        states = tuple(f"q{i}" for i in range(k))
        for bits in itertools.product((0, 1), repeat=k):
            protocol = Protocol(name="bits", states=states, rules=complete({}, k),
                                output_map=bits)
            for n in (0, 2, 3, 4, 5, 6):
                for config in oracles.compositions(n, k):
                    want = oracles.config_output(bits, config)
                    got = output_of_config(protocol, config)
                    assert (type(got), got) == (type(want), want), (bits, config)


def test_simulation_agrees_with_verification(kernels_warm):
    """Trials on inputs the exhaustive check certifies must report the
    predicate value in at least 99% of runs."""
    cases = [
        ("or", "n_1 >= 1", {"0": 2, "1": 1}, "silent"),
        ("or", "n_1 >= 1", {"0": 3}, "silent"),
        ("majority", "n_0 >= n_1", {"0": 2, "1": 1}, ("window", 20)),
        ("majority", "n_0 >= n_1", {"0": 1, "1": 2}, ("window", 20)),
        ("majority", "n_0 >= n_1", {"0": 2, "1": 2}, ("window", 20)),
    ]
    for key, predicate, init, stop in cases:
        protocol = builtin(key)
        n = sum(init.values())
        assert stably_computes(protocol, predicate, (n,)).passed
        expected = eval_predicate(parse_predicate(predicate), init)
        report = monte_carlo(protocol, init, trials=1000, seed=11, stop=stop)
        agree = sum(1 for r in report.runs if r.stabilized and r.output == expected)
        assert agree >= 990, (key, init, agree)


# ---------------------------------------------------------------------------
# search


def test_candidate_count():
    assert candidate_count(1, 1) == 2
    assert candidate_count(2, 2) == 256
    assert candidate_count(3, 1) == 472392


def test_search_two_states_finds_or():
    findings = list(iter_search_pavlovian(
        2, "n_1 >= 1", (2, 3), alphabet=("0", "1")))
    assert findings
    or_rules = builtin("or").rules
    structures = []
    for protocol, witness in findings:
        assert protocol.states == ("s0", "s1")
        assert witness_reproduces(witness, protocol, EXACT)
        assert stably_computes(protocol, "n_1 >= 1", (2, 3)).passed
        structures.append(
            (protocol.rules, protocol.input_map, protocol.output_map))
    assert (or_rules, {"0": 0, "1": 1}, (0, 1)) in structures


def test_search_refuses_a_bad_alphabet():
    for alphabet in (("0", "1", "1"), ("0", "", "1"), ("0", "a b"), ("=",)):
        with pytest.raises(ProtocolError, match="input symbol"):
            next(iter_search_pavlovian(2, "n_1 >= 1", (2, 3), alphabet=alphabet))


def test_search_reads_its_state_count_as_an_integer():
    for count in (2.5, "2"):
        with pytest.raises(ProtocolError, match="state count must be an integer"):
            next(iter_search_pavlovian(count, "n_1 >= 1", (2,)))
    with pytest.raises(ProtocolError, match="state count must be >= 1, got 0"):
        next(iter_search_pavlovian(0, "n_1 >= 1", (2,)))


def test_search_one_state_finds_nothing_nonconstant():
    assert list(iter_search_pavlovian(
        1, "n_1 >= 1", (2, 3), alphabet=("0", "1"))) == []
    # default alphabet comes from the predicate; parity varies with size
    assert list(iter_search_pavlovian(1, "n_1 mod 2 = 1", (2, 3))) == []


def test_search_two_states_parity_recorded():
    # Whether any two-state derived protocol computes odd parity on these
    # sizes is an empirical question; we record the answer instead of
    # pinning it.  Every finding that does come back must check out.
    findings = list(iter_search_pavlovian(2, "n_1 mod 2 = 1", range(2, 7)))
    print(f"recorded: {len(findings)} two-state parity finding(s) on sizes 2..6")
    for protocol, witness in findings:
        assert witness_reproduces(witness, protocol, EXACT)
        assert stably_computes(protocol, "n_1 mod 2 = 1", range(2, 7)).passed


def test_search_budget():
    with pytest.raises(BudgetExceeded) as err:
        list(iter_search_pavlovian(3, "n_1 >= 1", (2,), budget=100))
    assert err.value.budget == 100
