"""Built-in protocols and games, and the state-doubling symmetrization.

Every factory returns a fresh, independent value.  Protocols that compute a
predicate carry their input and output maps; the leader-election protocols
instead have leader-state metadata in LEADERS (the election property is about
states, not configuration outputs).
"""

from __future__ import annotations

from .core import Protocol, ProtocolError, complete, is_deterministic, make_protocol
from .games import Game, make_game, prisoners_dilemma

LEADERS: dict[str, tuple[str, ...]] = {
    "leader-classic": ("L",),
    "leader-pavlovian": ("L1", "L2"),
}


def _bit_protocol(name: str, rules: list[tuple[str, str, str, str]]) -> Protocol:
    """A protocol over states 0 and 1 in which input i starts in state i and
    state i outputs i."""
    return make_protocol(
        name, ("0", "1"), rules, inputs={"0": "0", "1": "1"}, outputs={"0": 0, "1": 1}
    )


def _or_protocol() -> Protocol:
    return _bit_protocol("or", [("0", "1", "1", "1"), ("1", "0", "1", "1")])


def _and_protocol() -> Protocol:
    return _bit_protocol("and", [("0", "1", "0", "0"), ("1", "0", "0", "0")])


def _weak_xor_protocol() -> Protocol:
    return _bit_protocol("weak-xor", [("1", "1", "0", "0")])


def _leader_classic_protocol() -> Protocol:
    return make_protocol("leader-classic", ("L", "N"), [("L", "L", "L", "N")])


def _leader_pavlovian_protocol() -> Protocol:
    rules = [
        ("L1", "L1", "L2", "L2"),
        ("L1", "L2", "L1", "N"),
        ("L1", "N", "N", "L2"),
        ("L2", "L1", "N", "L1"),
        ("L2", "L2", "L1", "L1"),
        ("L2", "N", "N", "L1"),
        ("N", "L1", "L2", "N"),
        ("N", "L2", "L1", "N"),
    ]
    return make_protocol("leader-pavlovian", ("L1", "L2", "N"), rules)


def _majority_protocol() -> Protocol:
    rules = [
        ("N", "Y", "Y", "Y"),
        ("Y", "N", "Y", "Y"),
        ("N", "0", "Y", "0"),
        ("0", "N", "0", "Y"),
        ("Y", "1", "N", "1"),
        ("1", "Y", "1", "N"),
        ("0", "1", "N", "Y"),
        ("1", "0", "Y", "N"),
    ]
    return make_protocol(
        "majority",
        ("N", "Y", "0", "1"),
        rules,
        inputs={"0": "0", "1": "1"},
        outputs={"N": 0, "Y": 1, "0": 1, "1": 0},
    )


def _pavlov_pd_protocol() -> Protocol:
    rules = [
        ("C", "D", "D", "D"),
        ("D", "C", "D", "D"),
        ("D", "D", "C", "C"),
    ]
    return make_protocol("pavlov-pd", ("C", "D"), rules)


def _leader_game() -> Game:
    return make_game(
        "leader-game",
        ("L1", "L2", "N"),
        ((1, 4, 1), (3, 1, 1), (2, 1, 4)),
        4,
    )


def _majority_game() -> Game:
    return make_game(
        "majority-game",
        ("N", "Y", "0", "1"),
        ((3, 1, 1, 3), (2, 3, 3, 1), (2, 2, 2, 1), (2, 2, 1, 2)),
        2,
    )


_FACTORIES = {
    "or": _or_protocol,
    "and": _and_protocol,
    "weak-xor": _weak_xor_protocol,
    "leader-classic": _leader_classic_protocol,
    "leader-pavlovian": _leader_pavlovian_protocol,
    "majority": _majority_protocol,
    "pavlov-pd": _pavlov_pd_protocol,
    "pd": prisoners_dilemma,
    "leader-game": _leader_game,
    "majority-game": _majority_game,
}


def builtin_keys() -> tuple[str, ...]:
    return tuple(_FACTORIES)


def builtin(key: str, **kwargs) -> Protocol | Game:
    """Fresh copy of a named protocol or game; `pd` takes T/R/P/S/threshold."""
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ProtocolError(
            f"unknown builtin {key!r}; known: {', '.join(sorted(_FACTORIES))}"
        )
    return factory(**kwargs)


def symmetrize(protocol: Protocol) -> Protocol:
    """Double the state set with primed twins so that a deterministic protocol
    becomes a symmetric (nondeterministic) one simulating it.

    For every diagonal entry qq -> ab of the completed relation the result
    contains qq' -> ab, q'q -> ba, qq -> q'q', q'q' -> qq, and the four
    conversion families q g -> q' g, q' g -> q g, g q -> g q', g q' -> g q for
    every other state g.  For every off-diagonal pair qr -> ab, rq -> de it
    contains qr' -> ab, r'q -> ba, rq' -> de, q'r -> ed.  Inputs still map to
    unprimed states; each primed twin inherits its base state's output bit.
    """
    if not is_deterministic(protocol):
        raise ProtocolError(
            f"protocol {protocol.name!r} is nondeterministic; the doubling "
            "construction needs unique successors"
        )
    k = protocol.state_count
    primed = tuple(name + "'" for name in protocol.states)
    clash = set(primed) & set(protocol.states)
    if clash:
        raise ProtocolError(f"primed name already taken: {sorted(clash)}")
    states = protocol.states + primed

    def one(q1: int, q2: int) -> tuple[int, int]:
        (succ,) = protocol.rules[(q1, q2)]
        return succ

    rules: dict[tuple[int, int], set[tuple[int, int]]] = {}

    def add(pair, succ):
        rules.setdefault(pair, set()).add(succ)

    for q in range(k):
        a, b = one(q, q)
        qp = q + k
        add((q, qp), (a, b))
        add((qp, q), (b, a))
        add((q, q), (qp, qp))
        add((qp, qp), (q, q))
        for g in range(2 * k):
            if g == q or g == qp:
                continue
            add((q, g), (qp, g))
            add((qp, g), (q, g))
            add((g, q), (g, qp))
            add((g, qp), (g, q))
    for q in range(k):
        for r in range(q + 1, k):
            a, b = one(q, r)
            d, e = one(r, q)
            add((q, r + k), (a, b))
            add((r + k, q), (b, a))
            add((r, q + k), (d, e))
            add((q + k, r), (e, d))

    output_map = None
    if protocol.output_map is not None:
        output_map = tuple(protocol.output_map[q % k] for q in range(2 * k))
    return Protocol(
        name=protocol.name + "-symmetric",
        states=states,
        rules=complete({p: frozenset(s) for p, s in rules.items()}, 2 * k),
        input_alphabet=protocol.input_alphabet,
        input_map=dict(protocol.input_map) if protocol.input_map is not None else None,
        output_map=output_map,
    )
