"""A protocol's rule table is checked once and then shared, read-only, by
every protocol built on it, with the move table and the mirror scan that
depend on it alone."""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgames import (
    Protocol,
    ProtocolError,
    builtin,
    complete,
    iter_search_pavlovian,
    make_protocol,
    reachable,
    stably_computes,
    successors,
    symmetry_violation,
)
from popgames import core
from popgames.core import _checked_config
from popgames.pavcheck import EXACT, SUBSET, check_pavlovian

FIVE_STATES = make_protocol("five", ("a", "b", "c", "d", "e"), [("a", "a", "b", "b")])


def explore_elsewhere():
    """Explore a 5-state protocol, whose move table no drawn protocol has,
    so that `reachable` explores the next graphs afresh."""
    reachable(FIVE_STATES, (2, 0, 0, 0, 0))


@st.composite
def drawn_tables(draw):
    """States, a rule table, an input map for symbols 0 and 1 and output
    bits of a 2-4-state protocol.  The table is deterministic or not, and
    symmetric (each pair's mirror gets the mirrored set) or not, so both
    answers of the mirror scan and of the Pavlovian check occur."""
    k = draw(st.integers(2, 4))
    state = st.integers(0, k - 1)
    deterministic = draw(st.booleans())
    symmetric = draw(st.booleans())
    successor_sets = st.sets(
        st.tuples(state, state), min_size=1, max_size=1 if deterministic else 3
    )
    rules = {}
    for q1 in range(k):
        for q2 in range(q1 if symmetric else 0, k):
            succs = draw(successor_sets)
            if symmetric and q1 == q2:
                succs = {(a, a) for a, _ in succs} if deterministic else succs | {
                    (b, a) for a, b in succs
                }
            rules[(q1, q2)] = frozenset(succs)
            if symmetric:
                rules[(q2, q1)] = frozenset((b, a) for a, b in succs)
    input_map = {"0": draw(state), "1": draw(state)}
    bits = tuple(draw(st.lists(st.sampled_from((0, 1)), min_size=k, max_size=k)))
    return tuple(f"q{i}" for i in range(k)), rules, input_map, bits


@settings(max_examples=60, deadline=None)
@given(drawn_tables())
def test_a_protocol_on_a_shared_table_answers_as_one_built_afresh(case):
    """The same protocol built from a dict, on another protocol's table and
    from a fresh dict of the same rules: equal, with equal move tables,
    mirror scans, Pavlovian answers in both modes and verdicts."""
    states, rules, input_map, bits = case
    fields = dict(
        name="drawn", states=states, input_alphabet=("0", "1"), input_map=input_map,
        output_map=bits,
    )
    first = Protocol(rules=rules, **fields)
    other = Protocol(name="other", states=states, rules=rules)
    shared = Protocol(rules=other.rules, **fields)
    fresh = Protocol(rules=dict(rules), **fields)
    built = (first, shared, fresh)
    assert first == shared == fresh
    assert shared.rules is other.rules and shared.moves is other.moves
    assert first.moves == shared.moves == fresh.moves
    assert symmetry_violation(first) == symmetry_violation(shared) == symmetry_violation(fresh)
    for mode in (EXACT, SUBSET):
        answers = [check_pavlovian(p, mode) for p in built]
        assert answers[0] == answers[1] == answers[2]
    verdicts = []
    for p in built:
        explore_elsewhere()
        verdicts.append(stably_computes(p, "n_1 >= 1", (2, 3)).as_dict(p))
    assert verdicts[0] == verdicts[1] == verdicts[2]


def test_a_protocols_rule_table_refuses_every_change():
    """A change would leave the protocol's move table, its kernel tables and
    every protocol sharing the table stale, so each mutating method raises;
    `dict(...)` and `.copy()` give a plain dict to change."""
    p = builtin("or")
    before, moves = dict(p.rules), p.moves
    identity = frozenset({(0, 0)})
    changes = [
        lambda r: r.__setitem__((0, 1), identity),
        lambda r: r.__delitem__((0, 1)),
        lambda r: r.update({(0, 1): identity}),
        lambda r: r.pop((0, 1)),
        lambda r: r.popitem(),
        lambda r: r.clear(),
        lambda r: r.setdefault((0, 1), identity),
        lambda r: r.__ior__({(0, 1): identity}),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="read-only"):
            change(p.rules)
    with pytest.raises(TypeError, match="read-only"):
        p.rules[(0, 1)] = identity
    assert p.rules == before and p.moves is moves
    assert successors(p, (1, 1)) == {(0, 2)}
    for plain in (dict(p.rules), p.rules.copy()):
        assert type(plain) is dict
        plain[(0, 1)] = identity
    assert p.rules == before


def test_a_protocol_pickles_copies_and_converts_as_before():
    """pickle, deepcopy and copy give an equal protocol whose table is
    read-only and checked, so replacing a map on it checks only the maps;
    `dataclasses.asdict` gives a plain, mutable dict of the rules, from
    which the protocol is built again."""
    p = builtin("majority")
    moves = p.moves
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert twin == p and repr(twin) == repr(p)
        assert type(twin.rules) is type(p.rules)
        assert twin.moves == moves
        assert symmetry_violation(twin) == symmetry_violation(p)
        with pytest.raises(TypeError, match="read-only"):
            twin.rules[(0, 0)] = frozenset({(0, 0)})
        assert dataclasses.replace(twin, name="again").rules is twin.rules
    fields = dataclasses.asdict(p)
    assert type(fields["rules"]) is dict and fields["rules"] == p.rules
    assert Protocol(**fields) == p
    fields["rules"][(0, 0)] = frozenset({(1, 1)})
    assert Protocol(**fields).rules[(0, 0)] == frozenset({(1, 1)})


@pytest.fixture
def checked(monkeypatch):
    """The arguments of every `core._check_rules` call from here on."""
    calls = []
    check_rules = core._check_rules

    def counted(*args):
        calls.append(args)
        return check_rules(*args)

    monkeypatch.setattr(core, "_check_rules", counted)
    return calls


def test_a_reused_table_skips_only_the_rule_check(checked):
    """A protocol built on another protocol's table for as many states
    skips `_check_rules`, but still refuses repeated state names; one built
    for another state count is checked in full, with the full check's
    message."""
    two = Protocol(name="two", states=("a", "b"), rules=complete({}, 2))
    checked.clear()
    assert Protocol(name="again", states=("x", "y"), rules=two.rules).rules is two.rules
    assert dataclasses.replace(two, output_map=(0, 1)).rules is two.rules
    assert checked == []
    with pytest.raises(ProtocolError, match=re.escape("duplicate state names in ('a', 'a')")):
        Protocol(name="p", states=("a", "a"), rules=two.rules)
    with pytest.raises(ProtocolError, match=re.escape("duplicate state names in ('a', 'a')")):
        dataclasses.replace(two, states=("a", "a"))
    with pytest.raises(ProtocolError, match=re.escape("rule table misses the pair (0, 2)")):
        Protocol(name="three", states=("a", "b", "c"), rules=two.rules)
    with pytest.raises(ProtocolError, match=re.escape("has the pair (0, 1), not a pair")):
        dataclasses.replace(two, states=("a",))
    assert len(checked) == 2
    copied = Protocol(name="copied", states=("a", "b"), rules=dict(two.rules))
    assert copied.rules is not two.rules and len(checked) == 3


def test_a_search_checks_each_rule_table_once(checked):
    """`search --states 2` over three symbols has 512 candidates on 16
    dynamics, all Pavlovian: one check per dynamics and one per witness
    re-derivation, not one per candidate."""
    findings = list(iter_search_pavlovian(2, "n_1 >= 1", (2, 3), alphabet=("0", "1", "2")))
    assert findings
    assert len(checked) == 32


def test_checked_config_keeps_an_exact_tuple_and_refuses_as_before():
    p = builtin("or")
    config = (2, 1)
    assert _checked_config(p, config) is config
    np = pytest.importorskip("numpy")
    for counts in ((True, 1), [2, 1], (np.int64(2), np.int64(1)), range(2, 0, -1)):
        got = _checked_config(p, counts)
        assert type(got) is tuple and [type(c) for c in got] == [int, int]
        assert got == tuple(int(c) for c in counts)
    refused = [
        ((2.0, 1), "counts must be integers, got (2.0, 1)"),
        ((3, -1), "negative count for state '1'"),
        ((2, 1, 0), "count vector length 3 != 2 states"),
        ((2,), "count vector length 1 != 2 states"),
        ((1, 0), "population must have at least 2 agents, got 1"),
        ([1, 0], "population must have at least 2 agents, got 1"),
    ]
    for counts, message in refused:
        with pytest.raises(ProtocolError, match=re.escape(message)):
            _checked_config(p, counts)
