"""Built-in protocols and games, and the state-doubling symmetrization.

`builtin` returns a fresh, independent value on every call.  Protocols that
compute a predicate carry their input and output maps; the leader-election
protocols instead have leader-state metadata in LEADERS (the election
property is about states, not configuration outputs).
"""

from __future__ import annotations

from .core import Protocol, ProtocolError, complete, is_deterministic, make_protocol
from .games import Game, make_game, prisoners_dilemma

LEADERS: dict[str, tuple[str, ...]] = {
    "leader-classic": ("L",),
    "leader-pavlovian": ("L1", "L2"),
}


# Every builtin, in listing order: its key, the constructor that builds it
# and the arguments that follow the name, which is the key.  "pd" has no
# arguments: `prisoners_dilemma` names its game and takes the settings
# T/R/P/S/threshold, which no other builtin takes.
_BUILTINS: dict[str, tuple] = {
    # in or, and and weak-xor, input i starts in state i and state i outputs i
    "or": (
        make_protocol,
        ("0", "1"),
        [("0", "1", "1", "1"), ("1", "0", "1", "1")],
        {"0": "0", "1": "1"},
        {"0": 0, "1": 1},
    ),
    "and": (
        make_protocol,
        ("0", "1"),
        [("0", "1", "0", "0"), ("1", "0", "0", "0")],
        {"0": "0", "1": "1"},
        {"0": 0, "1": 1},
    ),
    "weak-xor": (
        make_protocol, ("0", "1"), [("1", "1", "0", "0")], {"0": "0", "1": "1"}, {"0": 0, "1": 1}
    ),
    "leader-classic": (make_protocol, ("L", "N"), [("L", "L", "L", "N")]),
    "leader-pavlovian": (
        make_protocol,
        ("L1", "L2", "N"),
        [
            ("L1", "L1", "L2", "L2"),
            ("L1", "L2", "L1", "N"),
            ("L1", "N", "N", "L2"),
            ("L2", "L1", "N", "L1"),
            ("L2", "L2", "L1", "L1"),
            ("L2", "N", "N", "L1"),
            ("N", "L1", "L2", "N"),
            ("N", "L2", "L1", "N"),
        ],
    ),
    "majority": (
        make_protocol,
        ("N", "Y", "0", "1"),
        [
            ("N", "Y", "Y", "Y"),
            ("Y", "N", "Y", "Y"),
            ("N", "0", "Y", "0"),
            ("0", "N", "0", "Y"),
            ("Y", "1", "N", "1"),
            ("1", "Y", "1", "N"),
            ("0", "1", "N", "Y"),
            ("1", "0", "Y", "N"),
        ],
        {"0": "0", "1": "1"},
        {"N": 0, "Y": 1, "0": 1, "1": 0},
    ),
    "pavlov-pd": (
        make_protocol,
        ("C", "D"),
        [("C", "D", "D", "D"), ("D", "C", "D", "D"), ("D", "D", "C", "C")],
    ),
    "pd": (prisoners_dilemma,),
    "leader-game": (make_game, ("L1", "L2", "N"), ((1, 4, 1), (3, 1, 1), (2, 1, 4)), 4),
    "majority-game": (
        make_game,
        ("N", "Y", "0", "1"),
        ((3, 1, 1, 3), (2, 3, 3, 1), (2, 2, 2, 1), (2, 2, 1, 2)),
        2,
    ),
}


def builtin_keys() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(key: str, **settings) -> Protocol | Game:
    """Fresh copy of a named protocol or game; `pd` takes T/R/P/S/threshold,
    and any other builtin given a setting raises ProtocolError."""
    entry = _BUILTINS.get(key)
    if entry is None:
        raise ProtocolError(
            f"unknown builtin {key!r}; known: {', '.join(sorted(_BUILTINS))}"
        )
    build, *arguments = entry
    if not arguments:
        takes = build.__code__.co_varnames[: build.__code__.co_argcount]
        unknown = [name for name in settings if name not in takes]
        if unknown:
            raise TypeError(f"no setting {unknown[0]!r}; {key} takes {', '.join(takes)}")
        return build(**settings)
    if settings:
        raise ProtocolError(f"builtin {key!r} takes no settings")
    return build(key, *arguments)


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
