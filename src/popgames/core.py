"""Population protocol model: finitely many anonymous finite-state agents
updated by pairwise interactions.

A protocol is a finite state set, an optional input alphabet with an
initial-state map, an optional per-state output bit, and a joint transition
relation over ordered state pairs.  Configurations of a complete-graph
population are multisets of states, stored as count vectors; per-vertex
configurations for restricted interaction graphs live in :mod:`popgames.sim`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from operator import add


class ProtocolError(ValueError):
    """Structurally invalid protocol, configuration, or input."""


Pair = tuple[int, int]
Rules = dict[Pair, frozenset[Pair]]
Config = tuple[int, ...]


def _check_state(q: int, state_count: int) -> None:
    if not (0 <= q < state_count):
        raise ProtocolError(f"state index {q} out of range [0, {state_count})")


def complete(rules: Mapping[Pair, Iterable[Pair]], state_count: int) -> Rules:
    """Totalize a transition relation over ordered state pairs.

    Pairs absent from `rules` map to themselves; explicitly listed pairs
    keep their successor sets verbatim.  Empty explicit successor sets are
    rejected, they cannot arise from rule listings.
    """
    total: Rules = {}
    for (q1, q2), succs in rules.items():
        _check_state(q1, state_count)
        _check_state(q2, state_count)
        sset = frozenset((int(a), int(b)) for a, b in succs)
        for a, b in sset:
            _check_state(a, state_count)
            _check_state(b, state_count)
        if not sset:
            raise ProtocolError(f"empty successor set for pair ({q1}, {q2})")
        total[(q1, q2)] = sset
    for q1 in range(state_count):
        for q2 in range(state_count):
            total.setdefault((q1, q2), frozenset({(q1, q2)}))
    return total


@dataclass(frozen=True)
class Protocol:
    """A population protocol with a completed (total) transition relation.

    `input_map` and `output_map` may be absent: dynamics derived from a game
    carry no input/output attachment until one is supplied explicitly.
    """

    name: str
    states: tuple[str, ...]
    rules: Rules
    input_alphabet: tuple[str, ...] = ()
    input_map: Mapping[str, int] | None = None
    output_map: tuple[int, ...] | None = None

    def index(self, state: str) -> int:
        try:
            return self.states.index(state)
        except ValueError:
            raise ProtocolError(f"unknown state {state!r}") from None

    @property
    def state_count(self) -> int:
        return len(self.states)

    @cached_property
    def moves(self) -> tuple[tuple[int, int, int, bool, tuple[Config, ...]], ...]:
        """The count change of every successor, per unordered state pair.

        One entry (q1, q2, need, keeps, deltas) per q1 <= q2 covers both
        ordered pairs, which apply to the same configurations: those with an
        agent in q1 and `need` agents (2 when q1 = q2, else 1) in q2.  `keeps`
        says that an identity or swap successor leaves the configuration as
        it is; `deltas` are the other successors' count changes, distinct
        and sorted.
        """
        k = len(self.states)
        table = []
        for q1 in range(k):
            for q2 in range(q1, k):
                keeps = False
                deltas = set()
                pair_rules = self.rules.get((q1, q2), frozenset())
                for a, b in pair_rules | self.rules.get((q2, q1), frozenset()):
                    if sorted((a, b)) == [q1, q2]:
                        keeps = True
                        continue
                    delta = [0] * k
                    delta[q1] -= 1
                    delta[q2] -= 1
                    delta[a] += 1
                    delta[b] += 1
                    deltas.add(tuple(delta))
                need = 2 if q1 == q2 else 1
                table.append((q1, q2, need, keeps, tuple(sorted(deltas))))
        return tuple(table)

    @cached_property
    def _mirror_missing(self) -> tuple[int, int, int, int] | None:
        """`symmetry_violation`'s answer, computed once per protocol."""
        for (q1, q2), succs in self.rules.items():
            mirrored = self.rules[(q2, q1)]
            for a, b in succs:
                if (b, a) not in mirrored:
                    return (q1, q2, a, b)
        return None


def make_protocol(
    name: str,
    states: Iterable[str],
    rules: Iterable[tuple[str, str, str, str]],
    inputs: Mapping[str, str] | None = None,
    outputs: Mapping[str, int] | None = None,
) -> Protocol:
    """Build a protocol from state names and rule 4-tuples (q1, q2, q1', q2').

    Repeated rules for one ordered pair accumulate into a successor set.
    The rule table is identity-completed; `inputs` and `outputs` are
    attached and checked by `attach_io`.  The name and the state names must
    pass `check_name`, so that `print_protocol` writes text that parses back.
    """
    state_tab = tuple(states)
    if len(set(state_tab)) != len(state_tab):
        raise ProtocolError(f"duplicate state names in {state_tab}")
    if not state_tab:
        raise ProtocolError("a protocol needs at least one state")
    check_name(name, "protocol name", bindable=False)
    for state in state_tab:
        check_name(state, "state name")
    idx = {s: i for i, s in enumerate(state_tab)}

    def lookup(s: str) -> int:
        if s not in idx:
            raise ProtocolError(f"unknown state {s!r}")
        return idx[s]

    raw: dict[Pair, set[Pair]] = {}
    for q1, q2, a, b in rules:
        raw.setdefault((lookup(q1), lookup(q2)), set()).add((lookup(a), lookup(b)))
    bare = Protocol(name=name, states=state_tab, rules=complete(raw, len(state_tab)))
    return attach_io(bare, inputs, outputs)


def check_name(name: str, what: str, bindable: bool = True) -> None:
    """Refuse a name that a protocol or game file cannot hold: it must be a
    non-empty token with no whitespace or `#`, and with no `=` either when it
    can stand in an `inputs` or `outputs` binding (`bindable`), as input
    symbols, states and strategies can."""
    if (
        not isinstance(name, str)
        or name.split() != [name]
        or "#" in name
        or (bindable and "=" in name)
    ):
        banned = "whitespace, '=' or '#'" if bindable else "whitespace or '#'"
        raise ProtocolError(f"{what} {name!r} must be a non-empty token without {banned}")


def input_symbols(symbols: Iterable[str]) -> tuple[str, ...]:
    """The symbols as a tuple, once each checked by `check_name` and not
    repeated."""
    alphabet = tuple(symbols)
    for i, sym in enumerate(alphabet):
        check_name(sym, "input symbol")
        if sym in alphabet[:i]:
            raise ProtocolError(f"duplicate input symbol {sym!r}")
    return alphabet


def attach_io(
    protocol: Protocol,
    inputs: Mapping[str, str] | Iterable[tuple[str, str]] | None = None,
    outputs: Mapping[str, int] | Iterable[tuple[str, int]] | None = None,
) -> Protocol:
    """`protocol` with the given maps attached, each checked whole.

    `inputs` binds input symbols (see `input_symbols`) to state names and
    `outputs` every state name to its bit, 0 or 1.  Either is a mapping or a
    sequence of (key, value) pairs, in which no key may repeat; None leaves
    that map as it is.
    """
    changes = {}
    if inputs is not None:
        pairs = tuple(inputs.items() if isinstance(inputs, Mapping) else inputs)
        alphabet = input_symbols(sym for sym, _ in pairs)
        input_map = {}
        for sym, state in pairs:
            if state not in protocol.states:
                raise ProtocolError(f"input {sym!r} bound to unknown state {state!r}")
            input_map[sym] = protocol.states.index(state)
        changes.update(input_alphabet=alphabet, input_map=input_map)
    if outputs is not None:
        bits: dict[str, int] = {}
        for state, bit in outputs.items() if isinstance(outputs, Mapping) else outputs:
            if state not in protocol.states:
                raise ProtocolError(f"output for unknown state {state!r}")
            if bit not in (0, 1):
                raise ProtocolError(f"output bit for {state!r} must be 0 or 1, got {bit!r}")
            if state in bits:
                raise ProtocolError(f"duplicate output for state {state!r}")
            bits[state] = bit
        missing = [s for s in protocol.states if s not in bits]
        if missing:
            raise ProtocolError(f"output map misses state {missing[0]!r}")
        changes["output_map"] = tuple(bits[s] for s in protocol.states)
    return replace(protocol, **changes)


def is_deterministic(protocol: Protocol) -> bool:
    """True iff every completed successor set is a singleton."""
    return all(len(s) == 1 for s in protocol.rules.values())


def is_symmetric(protocol: Protocol) -> bool:
    """True iff the completed relation contains the mirror of each tuple."""
    return symmetry_violation(protocol) is None


def symmetry_violation(protocol: Protocol) -> tuple[int, int, int, int] | None:
    """Return a tuple (q1, q2, q1', q2') whose mirror is missing, or None."""
    return protocol._mirror_missing


def initial_config(protocol: Protocol, input_multiset: Mapping[str, int]) -> Config:
    """Apply the initial-state map to an input multiset, giving a count vector."""
    if protocol.input_map is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no input map")
    counts = [0] * protocol.state_count
    total = 0
    for sym, k in input_multiset.items():
        if sym not in protocol.input_map:
            raise ProtocolError(f"unknown input symbol {sym!r}")
        if k < 0:
            raise ProtocolError(f"negative count for symbol {sym!r}")
        counts[protocol.input_map[sym]] += k
        total += k
    if total < 2:
        raise ProtocolError(f"population must have at least 2 agents, got {total}")
    return tuple(counts)


def config_of(protocol: Protocol, state_multiset: Mapping[str, int]) -> Config:
    """Count vector for a multiset given by state name, for direct inits."""
    counts = [0] * protocol.state_count
    for st, k in state_multiset.items():
        k = int(k)
        if k < 0:
            raise ProtocolError(f"negative count for state {st!r}")
        counts[protocol.index(st)] += k
    return tuple(counts)


def config_to_dict(protocol: Protocol, config: Config) -> dict[str, int]:
    """Readable form of a count vector, zero entries omitted."""
    return {protocol.states[i]: c for i, c in enumerate(config) if c != 0}


def successors(protocol: Protocol, config: Config) -> set[Config]:
    """All configurations obtainable by one interaction of two distinct agents.

    An ordered state pair (q1, q2) is applicable when both states are present,
    with at least two agents required for q1 = q2.  The configuration itself is
    a successor whenever some applicable rule is an identity or a swap.
    """
    config = tuple(config)
    if len(config) != len(protocol.states):
        raise ProtocolError(
            f"configuration length {len(config)} != state count {protocol.state_count}"
        )
    out: set[Config] = set()
    for q1, q2, need, keeps, deltas in protocol.moves:
        if config[q1] == 0 or config[q2] < need:
            continue
        if keeps:
            out.add(config)
        for delta in deltas:
            out.add(tuple(map(add, config, delta)))
    return out


def output_of_config(protocol: Protocol, config: Config) -> int | None:
    """0 or 1 when all individual outputs agree, None when mixed or empty."""
    if protocol.output_map is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no output map")
    seen = {protocol.output_map[q] for q, c in enumerate(config) if c > 0}
    if len(seen) == 1:
        return seen.pop()
    return None


def histogram(protocol: Protocol, vertex_states: Iterable[int]) -> Config:
    """Count vector of a per-vertex state assignment."""
    counts = [0] * protocol.state_count
    for q in vertex_states:
        _check_state(q, protocol.state_count)
        counts[q] += 1
    return tuple(counts)


def strongly_connected_components(adjacency: Sequence[Sequence[int]]) -> list[list[int]]:
    """Iterative Tarjan over nodes 0..n-1 given as successor-id lists; SCCs
    in found order.

    Components come out in reverse topological order of the condensation: no
    component has an arc into a later one.  Roots are visited in id order and
    arcs in list order, so the output is deterministic.
    """
    n = len(adjacency)
    # A node's index is -1 until it is visited and n once its component is
    # complete, so `index[w] < lowlink[v]` holds only for nodes on the stack.
    index = [-1] * n
    lowlink = [0] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(adjacency[w])))
                    break
                if index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:
                work.pop()
                if lowlink[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
    return components
