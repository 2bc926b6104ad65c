import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from popgames import (
    ALL_TIES,
    LOWEST_INDEX,
    ProtocolError,
    builtin,
    check_pavlovian,
    derive_protocol,
    is_deterministic,
    is_symmetric,
    make_game,
    prisoners_dilemma,
)
from popgames.pavcheck import SUBSET, NotPavlovian


def constant_game(value=1, threshold=0):
    return make_game(
        "flat", ["a", "b", "c"], [[value] * 3 for _ in range(3)], threshold
    )


# few distinct values, denominators that differ: columns full of ties
PAYOFF_POOL = tuple(Fraction(x) for x in ("-1/3", "0", "1/2", "1", "4/3", "2"))


@st.composite
def tie_heavy_games(draw):
    """Games of 1 to 4 strategies whose entries and threshold come from at
    most three values of `PAYOFF_POOL`."""
    k = draw(st.integers(1, 4))
    pool = draw(st.lists(st.sampled_from(PAYOFF_POOL), min_size=1, max_size=3, unique=True))
    values = st.sampled_from(pool)
    payoff = [[draw(values) for _ in range(k)] for _ in range(k)]
    return make_game("drawn", [f"s{i}" for i in range(k)], payoff, draw(values))


@settings(max_examples=500, deadline=None)
@given(tie_heavy_games(), st.sampled_from([ALL_TIES, LOWEST_INDEX]))
def test_derive_protocol_matches_per_pair_definition(game, mode):
    expected = oracles.wsls_rules(game.payoff, game.threshold, mode == LOWEST_INDEX)
    if expected is None:
        with pytest.raises(ProtocolError, match="1-strategy game"):
            derive_protocol(game, mode)
    else:
        assert derive_protocol(game, mode).rules == expected


def test_losing_in_a_one_strategy_game_raises():
    solo = make_game("solo", ["a"], [[0]], 1)
    for mode in (ALL_TIES, LOWEST_INDEX):
        with pytest.raises(ProtocolError, match="cannot exclude 'a' from a 1-strategy game"):
            derive_protocol(solo, mode)
    assert derive_protocol(make_game("solo", ["a"], [[1]], 1)).rules == {
        (0, 0): frozenset({(0, 0)})
    }


def test_derive_pd_rules():
    derived = derive_protocol(builtin("pd"), LOWEST_INDEX)
    assert derived.rules == builtin("pavlov-pd").rules
    assert derived.states == ("C", "D")


def test_derive_leader_rules():
    derived = derive_protocol(builtin("leader-game"), LOWEST_INDEX)
    assert derived.rules == builtin("leader-pavlovian").rules


def test_derive_majority_rules():
    derived = derive_protocol(builtin("majority-game"), LOWEST_INDEX)
    assert derived.rules == builtin("majority").rules


def test_derive_leaves_io_unset():
    derived = derive_protocol(builtin("pd"))
    assert derived.input_map is None
    assert derived.output_map is None
    assert derived.input_alphabet == ()


def test_derive_constant_game_identity_only():
    g = constant_game(value=5, threshold=3)
    derived = derive_protocol(g, ALL_TIES)
    assert all(succs == {pair} for pair, succs in derived.rules.items())


def test_derived_protocols_are_symmetric():
    rng = random.Random(19)
    for _ in range(40):
        k = rng.randrange(2, 5)
        payoff = [[rng.randrange(8) for _ in range(k)] for _ in range(k)]
        g = make_game("rand", [f"s{i}" for i in range(k)], payoff, rng.randrange(8))
        assert is_symmetric(derive_protocol(g, ALL_TIES))
        assert is_symmetric(derive_protocol(g, LOWEST_INDEX))


def test_lowest_index_mode_deterministic():
    rng = random.Random(23)
    for _ in range(40):
        k = rng.randrange(2, 5)
        payoff = [[rng.randrange(4) for _ in range(k)] for _ in range(k)]
        g = make_game("rand", [f"s{i}" for i in range(k)], payoff, rng.randrange(4))
        assert is_deterministic(derive_protocol(g, LOWEST_INDEX))


def test_joint_successors_are_cross_products():
    g = make_game("tie", ["a", "b", "c"], [[0, 2, 2], [1, 0, 0], [1, 0, 0]], 2)
    derived = derive_protocol(g, ALL_TIES)
    for succs in derived.rules.values():
        firsts = {x for x, _ in succs}
        seconds = {y for _, y in succs}
        assert succs == frozenset((x, y) for x in firsts for y in seconds)


def test_affine_rescale_invariance():
    rng = random.Random(31)
    for _ in range(30):
        k = rng.randrange(2, 5)
        payoff = [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(k)]
            for _ in range(k)
        ]
        g = make_game(
            "rand", [f"s{i}" for i in range(k)], payoff,
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 3)),
        )
        # x -> a*x + b with a > 0, on every payoff and the threshold
        a = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
        b = Fraction(rng.randrange(-20, 20))
        scaled = make_game(
            g.name, g.strategies, [[a * x + b for x in row] for row in g.payoff],
            a * g.threshold + b,
        )
        for mode in (ALL_TIES, LOWEST_INDEX):
            assert derive_protocol(g, mode).rules == derive_protocol(scaled, mode).rules


def test_derive_round_trips_through_check():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randrange(2, 5)
        payoff = [[rng.randrange(10) for _ in range(k)] for _ in range(k)]
        g = make_game("rand", [f"s{i}" for i in range(k)], payoff, rng.randrange(10))
        derived = derive_protocol(g, ALL_TIES)
        assert not isinstance(check_pavlovian(derived, SUBSET), NotPavlovian)


def test_prisoner_params_validation():
    prisoners_dilemma(5, 3, 1, 0)
    with pytest.raises(ProtocolError, match=r"need T > R > P > S, got T=3, R=5, P=1, S=0"):
        prisoners_dilemma(3, 5, 1, 0)
    with pytest.raises(ProtocolError, match=r"need T > R > P > S"):
        prisoners_dilemma(10, 6, 1, 3)
    with pytest.raises(ProtocolError, match=r"need 2R > T \+ S, got T=10, R=5, P=2, S=1"):
        prisoners_dilemma(10, 5, 2, 1)


def test_prisoners_dilemma_game():
    g = prisoners_dilemma()
    assert g == prisoners_dilemma(5, 3, 1, 0) == builtin("pd")
    assert g.strategies == ("C", "D")
    assert g.payoff == ((Fraction(3), Fraction(0)), (Fraction(5), Fraction(1)))
    assert g.threshold == Fraction(2)
    custom = prisoners_dilemma(5, 3, 1, 0, threshold=3)
    assert custom.threshold == Fraction(3)
    assert custom == builtin("pd", threshold=3)
    # string and Fraction arguments are converted like make_game's
    assert prisoners_dilemma("5", "3", "1/2", 0).payoff[1][1] == Fraction(1, 2)


def test_pd_default_threshold_separates_win_from_loss():
    rng = random.Random(53)
    for _ in range(25):
        s = Fraction(rng.randrange(0, 5))
        p = s + rng.randrange(1, 5)
        r = p + rng.randrange(1, 5)
        t = r + rng.randrange(1, 5)
        if 2 * r <= t + s:
            continue
        g = prisoners_dilemma(t, r, p, s)
        assert p < g.threshold <= r
        derived = derive_protocol(g, LOWEST_INDEX)
        assert derived.rules == builtin("pavlov-pd").rules


def test_make_game_validation():
    with pytest.raises(ProtocolError):
        make_game("bad", ["a", "b"], [[1, 2]], 0)
    with pytest.raises(ProtocolError):
        make_game("bad", ["a", "a"], [[1, 2], [3, 4]], 0)
    with pytest.raises(ProtocolError):
        make_game("bad", [], [], 0)


def test_game_payoffs_exact():
    g = make_game("exact", ["a", "b"], [["1/3", 2], [1, "0.2"]], "1/2")
    assert g.payoff[0][0] == Fraction(1, 3)
    assert g.payoff[1][1] == Fraction(1, 5)
    assert g.threshold == Fraction(1, 2)
