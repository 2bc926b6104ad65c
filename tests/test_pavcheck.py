import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from popgames import (
    ALL_TIES,
    EXACT,
    LOWEST_INDEX,
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
    pavcheck,
    solve_order_constraints,
    witness_reproduces,
)
from popgames.pavcheck import DELTA, _matrix_variables, format_var, mat


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
    # the witness holds integers; the game it hands out holds Fractions
    assert all(isinstance(v, int) for row in found.matrix for v in row)
    assert all(isinstance(v, Fraction) for row in game.payoff for v in row)
    assert isinstance(game.threshold, Fraction)
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
    assert system.variables == (DELTA,) + tuple(mat(i, j) for i in range(k) for j in range(k))
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


def one_block(system):
    """The same comparisons as `system`, built with the public constructor:
    one block over the whole graph."""
    return ConstraintSystem(system.variables, system.nonstrict, system.strict)


@st.composite
def multi_block_systems(draw):
    """Systems over the variables of a k-strategy game whose blocks share
    only the threshold (id 0).  Each matrix entry joins one block or none,
    and each block draws comparisons among its entries and the threshold.
    Most comparisons point up a drawn order of levels, so long strict
    chains through the threshold occur; the rest keep their drawn
    direction, which closes strict cycles.  Ties (u <= v and v <= u) and
    isolated variables occur too."""
    k = draw(st.integers(2, 4))
    block_count = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(-1, block_count - 1), min_size=k * k, max_size=k * k))
    blocks = []
    for b in range(block_count):
        ids = [0] + [x for x in range(1, k * k + 1) if owner[x - 1] == b]
        level = {x: (draw(st.integers(0, 4)), x) for x in ids}
        level[0] = (2, 0)
        edge = st.tuples(
            st.sampled_from(ids), st.sampled_from(ids), st.integers(0, 4), st.integers(0, 15)
        )
        le, lt = set(), set()
        for u, v, kind, upward in draw(
            st.lists(edge, min_size=len(ids) - 1, max_size=3 * len(ids))
        ):
            if upward and level[u] > level[v]:
                u, v = v, u
            if kind < 3 and u != v:
                lt.add((u, v))
            else:
                le.add((u, v))
                if kind == 4:
                    le.add((v, u))
        blocks.append((frozenset(le), frozenset(lt)))
    return ConstraintSystem._numbered(_matrix_variables(k), tuple(blocks))


@settings(max_examples=600, deadline=None)
@given(multi_block_systems())
def test_block_solves_compose_to_the_one_block_solve(system):
    solved = solve_order_constraints(system)
    expected = solve_order_constraints(one_block(system))
    assert solved == expected
    if isinstance(solved, dict):
        assert list(solved.items()) == list(expected.items())
        assert system.satisfied_by(solved)
    else:
        assert solved.check_against(system)


def test_block_composition_takes_the_longest_path_into_the_threshold():
    # Block 1 reaches the threshold over two strict steps (M00 < M01 < delta)
    # and block 2 over one (M11 < delta); block 2's M10 lies one strict step
    # above the threshold, so it ranks 2 + 1.
    blocks = (
        (frozenset(), frozenset({(1, 2), (2, 0)})),
        (frozenset({(0, 3)}), frozenset({(4, 0), (0, 3)})),
    )
    system = ConstraintSystem._numbered(_matrix_variables(2), blocks)
    solved = solve_order_constraints(system)
    assert solved == solve_order_constraints(one_block(system))
    assert solved == {mat(0, 0): 0, mat(0, 1): 1, mat(1, 0): 3, mat(1, 1): 0, DELTA: 2}


def test_block_refusal_closes_the_least_strict_edge_of_all_blocks():
    # both blocks close a strict cycle; the second holds the least edge
    blocks = (
        (frozenset({(4, 3)}), frozenset({(3, 4)})),
        (frozenset({(2, 1)}), frozenset({(1, 2)})),
    )
    system = ConstraintSystem._numbered(_matrix_variables(2), blocks)
    found = solve_order_constraints(system)
    assert found == solve_order_constraints(one_block(system))
    assert found.cycle == (mat(0, 0), mat(0, 1), mat(0, 0))


def sample_dynamics(rng, k):
    """A uniformly drawn symmetric deterministic k-state rule table."""
    rules = {}
    for q in range(k):
        for r in range(q, k):
            a, b = rng.randrange(k), rng.randrange(k)
            if q == r:
                b = a
            rules[(q, r)] = frozenset({(a, b)})
            rules[(r, q)] = frozenset({(b, a)})
    return Protocol(f"dyn{k}", tuple(f"s{i}" for i in range(k)), rules)


def sample_nondeterministic(rng, k):
    """A drawn symmetric k-state rule table whose pairs have one to three
    successors each; a diagonal set is closed under swapping."""
    rules = {}
    for q in range(k):
        for r in range(q, k):
            succs = {(rng.randrange(k), rng.randrange(k)) for _ in range(rng.randint(1, 3))}
            if q == r:
                succs |= {(b, a) for a, b in succs}
            rules[(q, r)] = frozenset(succs)
            rules[(r, q)] = frozenset((b, a) for a, b in succs)
    return Protocol(f"nd{k}", tuple(f"s{i}" for i in range(k)), rules)


def test_column_caches_agree_with_the_definition_after_evicting():
    """More distinct successor sets, columns and blocks than the caches
    hold, checked twice in the same order, so the second pass finds none of
    the first's entries: every system has the comparisons of the definition
    and solves as its one-block form does."""
    rng = random.Random(2011)
    protocols = [sample_nondeterministic(rng, 4) for _ in range(300)]
    protocols += [sample_dynamics(rng, 4) for _ in range(100)]
    caches = (pavcheck._first_agents, pavcheck._column_constraints, pavcheck._solve_block)
    misses = [cache.cache_info().misses for cache in caches]
    for _ in range(2):
        for protocol in protocols:
            for mode in (EXACT, SUBSET):
                system = build_constraints(protocol, mode)
                nonstrict, strict = oracles.comparison_system(protocol.rules, 4, mode == EXACT)
                assert (system.nonstrict, system.strict) == (nonstrict, strict)
                assert solve_order_constraints(system) == solve_order_constraints(one_block(system))
    for cache, before in zip(caches, misses):
        info = cache.cache_info()
        assert info.currsize == info.maxsize
        assert info.misses - before > 2 * info.maxsize


def sample_derivation(rng, k, mode):
    payoff = [[rng.randrange(4) for _ in range(k)] for _ in range(k)]
    game = make_game("rand", [f"s{i}" for i in range(k)], payoff, rng.randrange(4))
    return derive_protocol(game, mode)


def test_check_matches_the_one_block_solve_beyond_three_states():
    """4- and 5-state dynamics, which the golden records do not reach: drawn
    tables and lowest-index derivations in exact mode, tie-keeping
    derivations in subset mode."""
    rng = random.Random(2011)
    cases = []
    for k in (4, 5):
        cases += [(sample_dynamics(rng, k), EXACT) for _ in range(150)]
        cases += [(sample_derivation(rng, k, LOWEST_INDEX), EXACT) for _ in range(100)]
        cases += [(sample_derivation(rng, k, ALL_TIES), SUBSET) for _ in range(100)]
    witnesses = 0
    for protocol, mode in cases:
        k = protocol.state_count
        system = build_constraints(protocol, mode)
        assert len(system.blocks) == k
        reference = solve_order_constraints(one_block(system))
        found = check_pavlovian(protocol, mode)
        if isinstance(reference, dict):
            witnesses += 1
            assert found == Witness(
                states=protocol.states,
                matrix=tuple(tuple(reference[mat(i, j)] for j in range(k)) for i in range(k)),
                threshold=reference[DELTA],
            )
        else:
            assert found == NotPavlovian(
                reason="unsatisfiable comparisons", certificate=reference
            )
    # every derivation is Pavlovian; most drawn tables are not
    assert 400 <= witnesses < len(cases)



@st.composite
def rational_games(draw):
    """Games of 2 to 4 strategies with small rational payoffs and threshold,
    so that columns often tie."""
    k = draw(st.integers(2, 4))
    value = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    payoff = [[draw(value) for _ in range(k)] for _ in range(k)]
    return make_game("drawn", [f"s{i}" for i in range(k)], payoff, draw(value))


@settings(max_examples=300, deadline=None)
@given(rational_games())
def test_derive_then_check_round_trips(game):
    # the game itself satisfies both comparison systems, so both checks answer
    # with a witness, and the exact one's game re-derives the same rules
    derived = derive_protocol(game, ALL_TIES)
    found = check_pavlovian(derived, EXACT)
    assert isinstance(found, Witness)
    assert derive_protocol(found.to_game(), ALL_TIES).rules == derived.rules
    lowest = derive_protocol(game, LOWEST_INDEX)
    found = check_pavlovian(lowest, SUBSET)
    assert isinstance(found, Witness)
    assert witness_reproduces(found, lowest, SUBSET)


def test_constraint_system_lists_its_variables_in_id_order():
    system = ConstraintSystem([mat(1, 0), "x", DELTA, mat(0, 1)], [(mat(1, 0), "x")])
    assert system.variables == (DELTA, mat(0, 1), mat(1, 0), "x")
    assert system.blocks == ((frozenset({(2, 3)}), frozenset()),)
    assert solve_order_constraints(system) == {DELTA: 0, mat(0, 1): 0, mat(1, 0): 0, "x": 0}
