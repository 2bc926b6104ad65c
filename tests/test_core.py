import dataclasses
import random
import re

import pytest

import oracles
from popgames import (
    Protocol,
    ProtocolError,
    builtin,
    complete,
    config_of,
    config_to_dict,
    initial_config,
    is_deterministic,
    is_symmetric,
    make_protocol,
    output_of_config,
    reachable,
    run,
    successors,
    symmetry_violation,
)
from popgames.core import attach_io


def test_complete_fills_identity_pairs():
    rules = {(0, 1): {(1, 1)}, (1, 0): {(1, 1)}}
    total = complete(rules, 2)
    assert total[(0, 0)] == frozenset({(0, 0)})
    assert total[(1, 1)] == frozenset({(1, 1)})
    assert total[(0, 1)] == frozenset({(1, 1)})
    assert set(total) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_complete_empty_rules_all_identity():
    total = complete({}, 2)
    assert all(total[(a, b)] == frozenset({(a, b)}) for a in range(2) for b in range(2))


def test_complete_idempotent():
    rules = {(0, 1): {(1, 1), (0, 0)}}
    once = complete(rules, 2)
    assert complete(once, 2) == once


def test_complete_rejects_out_of_range():
    with pytest.raises(ProtocolError, match=re.escape("has the pair (0, 5), not a pair of states")):
        complete({(0, 5): {(0, 0)}}, 2)
    with pytest.raises(ProtocolError, match=re.escape("maps the pair (0, 1) to (0, 9), not a pair")):
        complete({(0, 1): {(0, 9)}}, 2)


def test_majority_unlisted_pair_is_identity():
    maj = builtin("majority")
    y, zero = maj.index("Y"), maj.index("0")
    assert maj.rules[(y, zero)] == frozenset({(y, zero)})


def test_is_deterministic():
    assert is_deterministic(builtin("majority"))
    assert is_deterministic(builtin("leader-classic"))
    both = make_protocol(
        "nd", ["a", "b"], [("a", "b", "a", "a"), ("a", "b", "b", "b")]
    )
    assert not is_deterministic(both)


def test_is_symmetric():
    assert not is_symmetric(builtin("leader-classic"))
    assert is_symmetric(builtin("leader-pavlovian"))
    single = make_protocol("one", ["q"], [])
    assert is_symmetric(single)


def test_symmetry_violation_tuple():
    classic = builtin("leader-classic")
    bad = symmetry_violation(classic)
    assert bad is not None
    q1, q2, a, b = bad
    assert (b, a) not in classic.rules[(q2, q1)]
    assert symmetry_violation(builtin("or")) is None


def test_initial_config():
    p = builtin("or")
    assert initial_config(p, {"0": 3, "1": 1}) == (3, 1)
    maj = builtin("majority")
    assert initial_config(maj, {"0": 2, "1": 2}) == (0, 0, 2, 2)


def test_initial_config_errors():
    p = builtin("or")
    with pytest.raises(ProtocolError):
        initial_config(p, {})
    with pytest.raises(ProtocolError):
        initial_config(p, {"0": 1})
    with pytest.raises(ProtocolError):
        initial_config(p, {"2": 3})
    with pytest.raises(ProtocolError):
        initial_config(p, {"0": -1, "1": 3})
    for count in ("3", 2.5):
        with pytest.raises(ProtocolError, match="counts must be integers, got .* for symbol '0'"):
            initial_config(p, {"0": count, "1": 1})


def test_initial_config_requires_input_map():
    bare = make_protocol("bare", ["a", "b"], [])
    with pytest.raises(ProtocolError):
        initial_config(bare, {"a": 2})


def test_successors_leader_two_leaders():
    lp = builtin("leader-pavlovian")
    config = config_of(lp, {"L1": 2})
    succ = successors(lp, config)
    assert succ == {config_of(lp, {"L2": 2})}


def test_successors_identity_only():
    p = builtin("or")
    config = config_of(p, {"0": 4})
    assert successors(p, config) == {config}


def test_successors_majority_mixed_pair():
    maj = builtin("majority")
    config = config_of(maj, {"0": 1, "1": 1})
    assert successors(maj, config) == {config_of(maj, {"N": 1, "Y": 1})}


def test_successors_preserve_population():
    rng = random.Random(7)
    for proto_key in ("or", "majority", "leader-pavlovian", "pavlov-pd"):
        p = builtin(proto_key)
        for _ in range(20):
            counts = tuple(rng.randrange(4) for _ in p.states)
            if sum(counts) < 2:
                continue
            for nxt in successors(p, counts):
                assert sum(nxt) == sum(counts)


def test_successors_match_per_agent_reference():
    # Anonymous multiset semantics must agree with an agent-array reference.
    rng = random.Random(11)
    for proto_key in ("or", "majority", "leader-pavlovian", "pavlov-pd"):
        p = builtin(proto_key)
        k = len(p.states)
        for _ in range(15):
            n = rng.randrange(2, 6)
            agents = tuple(rng.randrange(k) for _ in range(n))
            counts = oracles.counts_of(agents, k)
            expected = {
                oracles.counts_of(t, k)
                for t in oracles.agent_successors(p.rules, agents)
            }
            assert successors(p, counts) == expected


def test_output_of_config():
    maj = builtin("majority")
    assert output_of_config(maj, config_of(maj, {"Y": 3, "0": 2})) == 1
    assert output_of_config(maj, config_of(maj, {"Y": 1, "N": 1})) is None
    p = builtin("or")
    assert output_of_config(p, (0, 5)) == 1
    for config in ((1,), (1, 1, 1), (0, 2, 0)):
        with pytest.raises(ProtocolError, match="needs one count per state"):
            output_of_config(p, config)


def test_output_of_config_requires_output_map():
    bare = make_protocol("bare", ["a", "b"], [])
    with pytest.raises(ProtocolError):
        output_of_config(bare, (1, 1))


def test_config_helpers_round_trip():
    maj = builtin("majority")
    d = {"N": 1, "0": 2}
    config = config_of(maj, d)
    assert config == (1, 0, 2, 0)
    assert config_to_dict(maj, config) == d


def test_make_protocol_validation():
    with pytest.raises(ProtocolError):
        make_protocol("dup", ["a", "a"], [])
    with pytest.raises(ProtocolError):
        make_protocol("", [], [])
    with pytest.raises(ProtocolError):
        make_protocol("bad", ["a"], [("a", "a", "a", "z")])
    with pytest.raises(ProtocolError):
        make_protocol("bad-out", ["a", "b"], [], outputs={"a": 1})
    with pytest.raises(ProtocolError):
        make_protocol("bad-bit", ["a", "b"], [], outputs={"a": 2, "b": 0})


def test_make_protocol_refuses_symbols_a_file_cannot_hold():
    for symbol in ("", "a b", "a\tb", "a=b", "#", "x#"):
        with pytest.raises(ProtocolError, match="input symbol"):
            make_protocol("sym", ["a"], [], inputs={symbol: "a"})
    with pytest.raises(ProtocolError, match="unknown state 'z'"):
        make_protocol("sym", ["a"], [], inputs={"0": "z"})


def test_attach_io_checks_pairs_once_each():
    bare = make_protocol("bare", ["a", "b"], [("a", "b", "b", "b")])
    full = make_protocol(
        "bare", ["a", "b"], [("a", "b", "b", "b")],
        inputs={"1": "b", "0": "a"}, outputs={"a": 0, "b": 1},
    )
    assert attach_io(bare, [("1", "b"), ("0", "a")], [("a", 0), ("b", 1)]) == full
    assert attach_io(bare, {"1": "b", "0": "a"}, {"b": 1, "a": 0}) == full
    assert attach_io(bare) == bare
    assert full.input_alphabet == ("1", "0")
    refused = [
        ([("0", "a"), ("0", "b")], None, "duplicate input symbol '0'"),
        (None, [("a", 0), ("b", 1), ("a", 1)], "duplicate output for state 'a'"),
        (None, [("a", 0)], "output map misses state 'b'"),
        (None, [("a", 0), ("c", 1)], "output for unknown state 'c'"),
        (None, [("a", "1"), ("b", 0)], "output bit for 'a' must be 0 or 1"),
        (None, [("a", 1), ("b", 0.0)], "output bit for 'b' must be 0 or 1, got 0.0"),
    ]
    for inputs, outputs, message in refused:
        with pytest.raises(ProtocolError, match=message):
            attach_io(bare, inputs, outputs)


def test_protocol_checks_its_maps_when_built_or_replaced():
    """Every output bit is the int 0 or 1, one per state, and the input map
    binds exactly the alphabet's symbols to state indices; `Protocol(...)`
    and `dataclasses.replace` refuse anything else, naming the state or
    symbol, so no later reader meets a bare IndexError or KeyError."""
    fields = dict(
        name="p", states=("a", "b"), rules=complete({}, 2),
        input_alphabet=("0", "1"), input_map={"0": 0, "1": 1}, output_map=(0, 1),
    )
    good = Protocol(**fields)
    assert Protocol(name="p", states=("a",), rules=complete({}, 1)).input_map is None
    refused = [
        (dict(output_map=(True, 0)), "output bit for 'a' must be 0 or 1, got True"),
        (dict(output_map=(0, 1.0)), "output bit for 'b' must be 0 or 1, got 1.0"),
        (dict(output_map=(0.0, 1)), "output bit for 'a' must be 0 or 1, got 0.0"),
        (dict(output_map=(0, "1")), "output bit for 'b' must be 0 or 1, got '1'"),
        (dict(output_map=(2, 0)), "output bit for 'a' must be 0 or 1, got 2"),
        (dict(output_map=(1,)), "output map misses state 'b'"),
        (dict(output_map=(0, 1, 1)), "output map has 3 bits for 2 states"),
        (dict(input_map={"0": 0}), "input map misses symbol '1'"),
        (dict(input_map={"0": 0, "1": 1, "2": 0}), "input '2' is not in the input alphabet"),
        (dict(input_map={"0": 0, "1": 2}), "input '1' bound to 2, not a state index"),
        (dict(input_map={"0": -1, "1": 1}), "input '0' bound to -1, not a state index"),
        (dict(input_map={"0": 0, "1": 1.0}), "input '1' bound to 1.0, not a state index"),
        (dict(input_map={"0": 0, "1": "b"}), "input '1' bound to 'b', not a state index"),
        (dict(input_map=None), "input map misses symbol '0'"),
    ]
    for change, message in refused:
        with pytest.raises(ProtocolError, match=re.escape(message)):
            Protocol(**{**fields, **change})
        with pytest.raises(ProtocolError, match=re.escape(message)):
            dataclasses.replace(good, **change)


def test_protocol_refuses_a_rule_table_that_is_not_total():
    """A rule table has exactly one key per ordered pair of state indices,
    each mapped to a non-empty set of such pairs; `Protocol(...)` and
    `dataclasses.replace` name the first missing pair, an extra key or the
    pair with a bad successor set, so no later reader meets a bare KeyError
    or steps to a state that does not exist.  `complete` refuses a bad
    successor set with the same message, and state names may not repeat."""
    total = complete({}, 2)
    refused = [
        ({}, "rule table misses the pair (0, 0)"),
        ({(0, 0): total[(0, 0)], (1, 1): total[(1, 1)]}, "rule table misses the pair (0, 1)"),
        ({**total, (2, 0): frozenset({(0, 0)})},
         "rule table has the pair (2, 0), not a pair of states"),
        ({**total, "ab": frozenset({(0, 0)})}, "rule table has the pair 'ab', not a pair of states"),
    ]
    bad_successors = [
        ({**total, (0, 0): frozenset()}, "rule table maps the pair (0, 0) to no successor"),
        ({**total, (0, 1): frozenset({(1, 0), (0, 7)})},
         "rule table maps the pair (0, 1) to (0, 7), not a pair of states"),
        ({**total, (1, 0): frozenset({(1,)})},
         "rule table maps the pair (1, 0) to (1,), not a pair of states"),
    ]
    good = Protocol(name="p", states=("a", "b"), rules=total)
    for rules, message in refused + bad_successors:
        with pytest.raises(ProtocolError, match=re.escape(message)):
            Protocol(name="p", states=("a", "b"), rules=rules)
        with pytest.raises(ProtocolError, match=re.escape(message)):
            dataclasses.replace(good, rules=rules)
    for rules, message in bad_successors:
        with pytest.raises(ProtocolError, match=re.escape(message)):
            complete(rules, 2)
    with pytest.raises(ProtocolError, match=re.escape("rule table maps the pair (0, 0) to")):
        Protocol(name="p", states=("a", "b"), rules={**total, (0, 0): ((0, 0),)})
    with pytest.raises(ProtocolError, match=re.escape("duplicate state names in ('a', 'a')")):
        Protocol(name="p", states=("a", "a"), rules=total)
    with pytest.raises(ProtocolError, match=re.escape("duplicate state names in ('a', 'a')")):
        dataclasses.replace(good, states=("a", "a"))
    assert Protocol(name="none", states=(), rules={}).rules == {}


def test_config_of_names_a_negative_state():
    with pytest.raises(ProtocolError, match="negative count for state 'Y'"):
        config_of(builtin("majority"), {"N": 3, "Y": -1})


def test_count_vectors_are_checked_alike_everywhere():
    p = builtin("or")
    refused = [
        (initial_config, {"0": 2.5, "1": 1}, "counts must be integers"),
        (config_of, {"0": 2.5, "1": 1}, "counts must be integers"),
        (run, {"0": 2.5, "1": 1}, "counts must be integers"),
        (reachable, (3, -1), "negative count for state '1'"),
        (run, (3, -1), "negative count for state '1'"),
        (config_of, {"1": 1}, "at least 2 agents, got 1"),
        (reachable, (1, 0), "at least 2 agents, got 1"),
        (run, (2, 1, 0), "count vector length 3 != 2 states"),
    ]
    for call, init, message in refused:
        with pytest.raises(ProtocolError, match=message):
            call(p, init)
    assert [type(c) for c in reachable(p, (True, 2)).configs[0]] == [int, int]


def test_rule_accumulation():
    p = make_protocol(
        "acc", ["a", "b"], [("a", "b", "a", "a"), ("a", "b", "b", "b")]
    )
    assert p.rules[(0, 1)] == frozenset({(0, 0), (1, 1)})


def test_protocol_frozen():
    p = builtin("or")
    with pytest.raises(AttributeError):
        p.name = "other"


def test_index_lookup():
    p = builtin("majority")
    assert p.states[p.index("Y")] == "Y"
    with pytest.raises(ProtocolError):
        p.index("missing")
