"""Built-in protocols and games, leader metadata, and symmetrization."""

import pytest

from popgames import (
    LOWEST_INDEX,
    ProtocolError,
    builtin,
    builtin_keys,
    derive_protocol,
    is_deterministic,
    is_symmetric,
    stable_leader,
    stably_computes,
    symmetrize,
)
from popgames.library import LEADERS


def identity(pair):
    a, b = pair
    return frozenset({(a, b)})


def test_builtin_keys():
    assert set(builtin_keys()) == {
        "or", "and", "weak-xor",
        "leader-classic", "leader-pavlovian", "majority", "pavlov-pd",
        "pd", "leader-game", "majority-game",
    }


def test_unknown_key():
    with pytest.raises(ProtocolError) as err:
        builtin("xor")
    assert "unknown builtin" in str(err.value)


def test_only_pd_takes_settings():
    for key in builtin_keys():
        if key != "pd":
            with pytest.raises(ProtocolError, match=f"builtin '{key}' takes no settings"):
                builtin(key, T=3)
    assert builtin("pd", T=5.5).payoff[1][0] == 5.5
    with pytest.raises(TypeError, match=r"^no setting 'X'; pd takes T, R, P, S, threshold$"):
        builtin("pd", X=1)


def test_builtins_are_fresh_copies():
    a, b = builtin("or"), builtin("or")
    assert a == b and a is not b


def test_leader_registry():
    assert LEADERS == {
        "leader-classic": ("L",),
        "leader-pavlovian": ("L1", "L2"),
    }
    for key, leaders in LEADERS.items():
        assert set(leaders) <= set(builtin(key).states)


def test_or_and_weak_xor_tables():
    p = builtin("or")
    assert p.states == ("0", "1")
    assert p.rules[(0, 1)] == frozenset({(1, 1)})
    assert p.rules[(1, 0)] == frozenset({(1, 1)})
    assert p.rules[(0, 0)] == identity((0, 0))
    assert p.rules[(1, 1)] == identity((1, 1))
    assert p.input_map == {"0": 0, "1": 1}
    assert p.output_map == (0, 1)

    q = builtin("and")
    assert q.rules[(0, 1)] == frozenset({(0, 0)})
    assert q.rules[(1, 0)] == frozenset({(0, 0)})

    x = builtin("weak-xor")
    assert x.rules[(1, 1)] == frozenset({(0, 0)})
    assert x.rules[(0, 1)] == identity((0, 1))
    assert x.output_map == (0, 1)


def test_majority_table():
    p = builtin("majority")
    assert p.states == ("N", "Y", "0", "1")
    s = p.index
    expected = {
        (s("N"), s("Y")): {(s("Y"), s("Y"))},
        (s("N"), s("0")): {(s("Y"), s("0"))},
        (s("Y"), s("1")): {(s("N"), s("1"))},
        (s("0"), s("1")): {(s("N"), s("Y"))},
    }
    for (a, b), succ in expected.items():
        assert p.rules[(a, b)] == frozenset(succ)
        mirrored = frozenset((d, c) for c, d in succ)
        assert p.rules[(b, a)] == mirrored
    # every other pair is untouched
    explicit = set(expected) | {(b, a) for a, b in expected}
    for a in range(4):
        for b in range(4):
            if (a, b) not in explicit:
                assert p.rules[(a, b)] == identity((a, b))
    assert p.input_map == {"0": s("0"), "1": s("1")}
    assert p.output_map == (0, 1, 1, 0)


def test_leader_pavlovian_table():
    p = builtin("leader-pavlovian")
    assert p.states == ("L1", "L2", "N")
    s = p.index
    expected = {
        ("L1", "L1"): ("L2", "L2"),
        ("L1", "L2"): ("L1", "N"),
        ("L1", "N"): ("N", "L2"),
        ("L2", "L1"): ("N", "L1"),
        ("L2", "L2"): ("L1", "L1"),
        ("L2", "N"): ("N", "L1"),
        ("N", "L1"): ("L2", "N"),
        ("N", "L2"): ("L1", "N"),
        ("N", "N"): ("N", "N"),
    }
    assert len(p.rules) == 9
    for (a, b), (c, d) in expected.items():
        assert p.rules[(s(a), s(b))] == frozenset({(s(c), s(d))})
    assert p.input_map is None and p.output_map is None


def test_pavlov_pd_table():
    p = builtin("pavlov-pd")
    assert p.states == ("C", "D")
    assert p.rules[(0, 1)] == frozenset({(1, 1)})
    assert p.rules[(1, 0)] == frozenset({(1, 1)})
    assert p.rules[(1, 1)] == frozenset({(0, 0)})
    assert p.rules[(0, 0)] == identity((0, 0))


def test_builtin_games():
    pd = builtin("pd")
    assert pd.strategies == ("C", "D")
    assert pd.payoff == ((3, 0), (5, 1))
    assert pd.threshold == 2
    custom = builtin("pd", T=8, R=5, P=2, S=1, threshold=4)
    assert custom.payoff == ((5, 1), (8, 2))
    assert custom.threshold == 4

    leader = builtin("leader-game")
    assert leader.strategies == ("L1", "L2", "N")
    assert leader.payoff == ((1, 4, 1), (3, 1, 1), (2, 1, 4))
    assert leader.threshold == 4

    majority = builtin("majority-game")
    assert majority.strategies == ("N", "Y", "0", "1")
    assert majority.payoff == ((3, 1, 1, 3), (2, 3, 3, 1), (2, 2, 2, 1), (2, 2, 1, 2))
    assert majority.threshold == 2


def test_games_rederive_their_protocols():
    pairs = [
        ("leader-game", "leader-pavlovian"),
        ("majority-game", "majority"),
        ("pd", "pavlov-pd"),
    ]
    for game_key, protocol_key in pairs:
        derived = derive_protocol(builtin(game_key), LOWEST_INDEX)
        assert derived.rules == builtin(protocol_key).rules, game_key


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_shape():
    doubled = symmetrize(builtin("or"))
    assert doubled.states == ("0", "1", "0'", "1'")
    assert is_symmetric(doubled)
    assert not is_deterministic(doubled)
    assert doubled.input_map == {"0": 0, "1": 1}
    assert doubled.output_map == (0, 1, 0, 1)


def test_symmetrize_without_io_maps():
    doubled = symmetrize(builtin("leader-classic"))
    assert doubled.states == ("L", "N", "L'", "N'")
    assert doubled.input_map is None and doubled.output_map is None


def test_symmetrize_rejects_nondeterministic():
    with pytest.raises(ProtocolError):
        symmetrize(symmetrize(builtin("or")))


def test_symmetrize_already_symmetric_still_doubles():
    doubled = symmetrize(builtin("pavlov-pd"))
    assert doubled.states == ("C", "D", "C'", "D'")
    assert is_symmetric(doubled)


def test_symmetrize_classic_leader_rules():
    doubled = symmetrize(builtin("leader-classic"))
    L, N, Lp, Np = 0, 1, 2, 3
    # twin swaps on the diagonal, the real interaction against your twin
    assert doubled.rules[(L, L)] == frozenset({(Lp, Lp)})
    assert doubled.rules[(Lp, Lp)] == frozenset({(L, L)})
    assert doubled.rules[(L, Lp)] == frozenset({(L, N)})
    assert doubled.rules[(Lp, L)] == frozenset({(N, L)})
    # conversions make primed and unprimed variants interchangeable
    assert (Lp, N) in doubled.rules[(L, N)]
    assert (L, N) in doubled.rules[(Lp, N)]
    assert (N, Lp) in doubled.rules[(N, L)]
    assert (N, L) in doubled.rules[(N, Lp)]
    # the off-diagonal interaction runs against the partner's twin
    assert (L, N) in doubled.rules[(L, Np)]
    assert (N, L) in doubled.rules[(Np, L)]


def test_symmetrized_protocols_still_compute(kernels_warm):
    sizes = (3, 4)
    assert stably_computes(symmetrize(builtin("or")), "n_1 >= 1", sizes).passed
    assert stably_computes(symmetrize(builtin("and")), "n_0 = 0", sizes).passed


def test_symmetrized_classic_leader_elects():
    doubled = symmetrize(builtin("leader-classic"))
    assert stable_leader(doubled, ("L", "L'"), (3, 4)).passed
    # two agents can get stuck swapping twins, exactly like the undoubled
    # pavlovian protocol
    assert not stable_leader(doubled, ("L", "L'"), (2,)).passed
