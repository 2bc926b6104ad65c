import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from popgames import (
    ALL_TIES,
    EXACT,
    SUBSET,
    ConstraintSystem,
    NotPavlovian,
    Protocol,
    ProtocolError,
    UnsatCertificate,
    Witness,
    build_constraints,
    builtin,
    check_pavlovian,
    default_mode,
    derive_protocol,
    format_certificate,
    make_game,
    make_protocol,
    solve_order_constraints,
    witness_reproduces,
)
from popgames.pavcheck import DELTA, format_var, mat


def all_two_state_protocols():
    """All 16 symmetric deterministic protocols over two states: free choices
    are the two diagonal successors (2 each) and the one unordered
    off-diagonal joint successor (4)."""
    protos = []
    for d0, d1, (a, b) in itertools.product(
        range(2), range(2), itertools.product(range(2), repeat=2)
    ):
        names = ["x", "y"]
        rules = [
            ("x", "x", names[d0], names[d0]),
            ("y", "y", names[d1], names[d1]),
            ("x", "y", names[a], names[b]),
            ("y", "x", names[b], names[a]),
        ]
        protos.append(make_protocol(f"p{d0}{d1}{a}{b}", names, rules))
    return protos


def test_build_constraints_or_protocol():
    system = build_constraints(builtin("or"), SUBSET)
    assert (mat(0, 1), DELTA) in system.strict
    assert (DELTA, mat(1, 1)) in system.nonstrict
    assert (DELTA, mat(0, 0)) in system.nonstrict


def test_build_constraints_cycle3_strict_chain(cycle3):
    system = build_constraints(cycle3, EXACT)
    assert (mat(2, 0), mat(1, 0)) in system.strict
    assert (mat(0, 0), mat(2, 0)) in system.strict
    assert (mat(1, 0), mat(0, 0)) in system.strict


def test_build_constraints_identity_only():
    p = make_protocol("still", ["a", "b"], [])
    system = build_constraints(p, EXACT)
    assert not system.strict
    assert system.nonstrict == {
        (DELTA, mat(i, j)) for i in range(2) for j in range(2)
    }


def test_build_constraints_rejects_asymmetric():
    with pytest.raises(ProtocolError):
        build_constraints(builtin("leader-classic"), SUBSET)


def test_build_constraints_rejects_unknown_mode():
    with pytest.raises(ProtocolError):
        build_constraints(builtin("or"), "fuzzy")


def test_constraint_system_rejects_undeclared_vars():
    with pytest.raises(ProtocolError, match="'zz'"):
        ConstraintSystem(variables=("a", "b"), nonstrict={("a", "zz")})
    with pytest.raises(ProtocolError, match="'zz'"):
        ConstraintSystem(variables=("a", "b"), strict={("zz", "b")})


def test_solve_strict_two_cycle():
    system = ConstraintSystem(
        variables=("a", "b"), nonstrict={("b", "a")}, strict={("a", "b")}
    )
    result = solve_order_constraints(system)
    assert isinstance(result, UnsatCertificate)
    assert result.cycle[0] == result.cycle[-1]
    assert any(result.strict_steps)
    assert result.check_against(system)


def test_solve_single_nonstrict_edge():
    system = ConstraintSystem(variables=("a", "b"), nonstrict={("a", "b")})
    assignment = solve_order_constraints(system)
    assert isinstance(assignment, dict)
    assert system.satisfied_by(assignment)


def test_hand_built_two_state_witness_satisfies_system():
    # Flip on loss everywhere except the both-down pair.
    p = make_protocol(
        "flip",
        ["+", "-"],
        [("+", "+", "-", "-"), ("+", "-", "-", "+"), ("-", "+", "+", "-")],
    )
    system = build_constraints(p, EXACT)
    assignment = solve_order_constraints(system)
    assert isinstance(assignment, dict)
    hand_built = {
        mat(0, 0): 0,
        mat(0, 1): 0,
        mat(1, 0): 0,
        mat(1, 1): 2,
        DELTA: 1,
    }
    assert system.satisfied_by(hand_built)


def test_certificate_check_against_rejects_fabrications():
    system = ConstraintSystem(
        variables=("a", "b", "c"), nonstrict={("b", "a")}, strict={("a", "b")}
    )
    good = solve_order_constraints(system)
    assert good.check_against(system)
    assert not UnsatCertificate(cycle=("a", "b"), strict_steps=(True,)).check_against(
        system
    )
    assert not UnsatCertificate(
        cycle=("a", "b", "a"), strict_steps=(False, False)
    ).check_against(system)
    assert not UnsatCertificate(
        cycle=("a", "c", "a"), strict_steps=(True, False)
    ).check_against(system)


def test_all_sixteen_two_state_protocols_have_witnesses():
    for p in all_two_state_protocols():
        found = check_pavlovian(p, EXACT)
        assert isinstance(found, Witness), p.name
        rederived = derive_protocol(found.to_game(), ALL_TIES)
        assert rederived.rules == p.rules, p.name


def test_cycle3_not_pavlovian(cycle3):
    found = check_pavlovian(cycle3)
    assert isinstance(found, NotPavlovian)
    assert found.reason == "unsatisfiable comparisons"
    cert = found.certificate
    assert cert is not None
    assert cert.check_against(build_constraints(cycle3, EXACT))
    # The impossibility lives entirely in the column of plays against q0.
    assert {v for v in cert.cycle} == {mat(0, 0), mat(1, 0), mat(2, 0)}
    assert all(v[2] == 0 for v in cert.cycle)


def test_cycle3_certificate_deterministic(cycle3):
    first = check_pavlovian(cycle3).certificate
    second = check_pavlovian(cycle3).certificate
    assert first == second
    rendered = format_certificate(first, cycle3.states)
    assert rendered.count("<") == 3
    assert "q0]" in rendered


def test_majority_witness():
    found = check_pavlovian(builtin("majority"))
    assert isinstance(found, Witness)
    assert witness_reproduces(found, builtin("majority"), EXACT)
    game = builtin("majority-game")
    system = build_constraints(builtin("majority"), EXACT)
    hand = {
        mat(i, j): game.payoff[i][j]
        for i in range(4)
        for j in range(4)
    }
    hand[DELTA] = game.threshold
    assert system.satisfied_by(hand)


def test_leader_pavlovian_witness_and_builtin_game_matrix():
    lp = builtin("leader-pavlovian")
    found = check_pavlovian(lp)
    assert isinstance(found, Witness)
    system = build_constraints(lp, EXACT)
    game = builtin("leader-game")
    hand = {mat(i, j): game.payoff[i][j] for i in range(3) for j in range(3)}
    hand[DELTA] = game.threshold
    assert system.satisfied_by(hand)


def test_classic_leader_not_symmetric():
    found = check_pavlovian(builtin("leader-classic"))
    assert isinstance(found, NotPavlovian)
    assert found.reason == "not symmetric"
    assert found.violating_tuple is not None


def test_exact_mode_requires_factoring():
    p = make_protocol(
        "entangled",
        ["a", "b"],
        [
            ("a", "b", "a", "a"),
            ("a", "b", "b", "b"),
            ("b", "a", "a", "a"),
            ("b", "a", "b", "b"),
        ],
    )
    found = check_pavlovian(p, EXACT)
    assert isinstance(found, NotPavlovian)
    assert "factor" in found.reason
    assert found.violating_tuple is not None


def test_stay_and_move_conflict():
    p = make_protocol(
        "torn", ["a", "b"], [("a", "a", "a", "a"), ("a", "a", "b", "b")]
    )
    found = check_pavlovian(p, SUBSET)
    assert isinstance(found, NotPavlovian)
    cert = found.certificate
    assert cert is not None
    assert DELTA in cert.cycle
    assert cert.check_against(build_constraints(p, SUBSET))


def test_default_mode():
    assert default_mode(builtin("majority")) == EXACT
    nd = make_protocol(
        "nd", ["a", "b"], [("a", "b", "a", "a"), ("a", "b", "b", "b"),
                           ("b", "a", "a", "a"), ("b", "a", "b", "b")]
    )
    assert default_mode(nd) == SUBSET


def test_witness_values_are_small_integers():
    for key in ("or", "and", "weak-xor", "majority", "leader-pavlovian"):
        found = check_pavlovian(builtin(key))
        assert isinstance(found, Witness)
        bound = len(found.states) ** 2 + 1
        for row in found.matrix:
            for value in row:
                assert isinstance(value, int)
                assert 0 <= value <= bound
        assert isinstance(found.threshold, int)


def random_system(rng, var_count=5, edge_count=7):
    variables = tuple(f"v{i}" for i in range(var_count))
    nonstrict, strict = set(), set()
    for _ in range(edge_count):
        u, v = rng.sample(variables, 2)
        if rng.random() < 0.5:
            strict.add((u, v))
        else:
            nonstrict.add((u, v))
    return ConstraintSystem(variables, nonstrict, strict)


def test_solver_sound_and_monotone():
    rng = random.Random(97)
    unsat_seen = 0
    for _ in range(200):
        system = random_system(rng)
        outcome = solve_order_constraints(system)
        if isinstance(outcome, dict):
            assert system.satisfied_by(outcome)
        else:
            unsat_seen += 1
            assert outcome.check_against(system)
            u, v = rng.sample(system.variables, 2)
            again = solve_order_constraints(ConstraintSystem(
                system.variables, system.nonstrict | {(u, v)}, system.strict
            ))
            assert isinstance(again, UnsatCertificate)
    assert unsat_seen > 10


def test_random_game_round_trip_subset():
    rng = random.Random(101)
    for _ in range(60):
        k = rng.randrange(2, 5)
        payoff = [[rng.randrange(10) for _ in range(k)] for _ in range(k)]
        g = make_game("rand", [f"s{i}" for i in range(k)], payoff, rng.randrange(10))
        derived = derive_protocol(g, ALL_TIES)
        found = check_pavlovian(derived, SUBSET)
        assert isinstance(found, Witness)
        assert witness_reproduces(found, derived, SUBSET)


def test_witness_to_game_and_format_var():
    found = check_pavlovian(builtin("or"))
    game = found.to_game("or-witness")
    assert game.strategies == ("0", "1")
    assert format_var(mat(0, 1), ("0", "1")) == "M[0,1]"
    assert format_var(DELTA, ("0", "1")) == "threshold"


@st.composite
def symmetric_protocols(draw):
    """Symmetric rule tables on 1 to 3 states.  Either every pair draws one
    successor pair (a diagonal one of the form (d, d)), or each unordered
    pair draws up to three and a diagonal set is closed under swapping; the
    mirror pair gets the mirrored set."""
    k = draw(st.integers(1, 3))
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
    deterministic = draw(st.booleans())
    rules = {}
    for q in range(k):
        for r in range(q, k):
            if deterministic:
                a, b = draw(pairs)
                succs = {(a, a) if q == r else (a, b)}
            else:
                succs = draw(st.sets(pairs, min_size=1, max_size=3))
                if q == r:
                    succs |= {(b, a) for a, b in succs}
            rules[(q, r)] = frozenset(succs)
            rules[(r, q)] = frozenset((b, a) for a, b in succs)
    return Protocol("drawn", tuple(f"s{i}" for i in range(k)), rules)


@st.composite
def derived_protocols(draw):
    """Tie-keeping derivations of 2- and 3-strategy games over {0, 1, 2}:
    Pavlovian, and nondeterministic wherever a column ties."""
    k = draw(st.integers(2, 3))
    values = st.integers(0, 2)
    payoff = [[draw(values) for _ in range(k)] for _ in range(k)]
    game = make_game("drawn", [f"s{i}" for i in range(k)], payoff, draw(values))
    return derive_protocol(game, ALL_TIES)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(symmetric_protocols(), derived_protocols()), st.sampled_from([EXACT, SUBSET])
)
def test_numbered_systems_match_the_definition(protocol, mode):
    k = protocol.state_count
    system = build_constraints(protocol, mode)
    assert system.ranked == (DELTA,) + tuple(mat(i, j) for i in range(k) for j in range(k))
    nonstrict, strict = oracles.comparison_system(protocol.rules, k, mode == EXACT)
    assert system.nonstrict == nonstrict
    assert system.strict == strict

    solved = solve_order_constraints(system)
    found = check_pavlovian(protocol, mode)
    if isinstance(found, Witness):
        assert system.satisfied_by(solved)
        assignment = {mat(i, j): found.matrix[i][j] for i in range(k) for j in range(k)}
        assignment[DELTA] = found.threshold
        assert system.satisfied_by(assignment)
    elif found.certificate is not None:
        assert found.certificate == solved
        assert found.certificate.check_against(build_constraints(protocol, mode))
    else:
        assert mode == EXACT and "factor" in found.reason
