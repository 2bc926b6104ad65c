"""Population protocol model: finitely many anonymous finite-state agents
updated by pairwise interactions.

A protocol is a finite state set, an optional input alphabet with an
initial-state map, an optional per-state output bit, and a joint transition
relation over ordered state pairs.  Configurations of a complete-graph
population are multisets of states, stored as count vectors; per-vertex
configurations for restricted interaction graphs live in :mod:`popgames.sim`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass


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

    def is_identity_pair(self, q1: int, q2: int) -> bool:
        return self.rules[(q1, q2)] == frozenset({(q1, q2)})

    def non_identity_pairs(self) -> list[Pair]:
        return sorted(p for p in self.rules if not self.is_identity_pair(*p))

    @property
    def state_count(self) -> int:
        return len(self.states)


def make_protocol(
    name: str,
    states: Iterable[str],
    rules: Iterable[tuple[str, str, str, str]],
    inputs: Mapping[str, str] | None = None,
    outputs: Mapping[str, int] | None = None,
) -> Protocol:
    """Build a protocol from state names and rule 4-tuples (q1, q2, q1', q2').

    Repeated rules for one ordered pair accumulate into a successor set.
    `inputs` maps input symbols to state names; `outputs` maps every state
    name to its output bit.  The rule table is identity-completed.
    """
    state_tab = tuple(states)
    if len(set(state_tab)) != len(state_tab):
        raise ProtocolError(f"duplicate state names in {state_tab}")
    if not state_tab:
        raise ProtocolError("a protocol needs at least one state")
    idx = {s: i for i, s in enumerate(state_tab)}

    def lookup(s: str) -> int:
        if s not in idx:
            raise ProtocolError(f"unknown state {s!r}")
        return idx[s]

    raw: dict[Pair, set[Pair]] = {}
    for q1, q2, a, b in rules:
        raw.setdefault((lookup(q1), lookup(q2)), set()).add((lookup(a), lookup(b)))
    completed = complete(raw, len(state_tab))

    input_alphabet: tuple[str, ...] = ()
    input_map: dict[str, int] | None = None
    if inputs is not None:
        input_alphabet = tuple(inputs)
        input_map = {sym: lookup(st) for sym, st in inputs.items()}

    output_map: tuple[int, ...] | None = None
    if outputs is not None:
        missing = set(state_tab) - set(outputs)
        if missing:
            raise ProtocolError(f"output map missing states: {sorted(missing)}")
        for s, bit in outputs.items():
            lookup(s)
            if bit not in (0, 1):
                raise ProtocolError(f"output bit for {s!r} must be 0 or 1, got {bit!r}")
        output_map = tuple(outputs[s] for s in state_tab)

    return Protocol(
        name=name,
        states=state_tab,
        rules=completed,
        input_alphabet=input_alphabet,
        input_map=input_map,
        output_map=output_map,
    )


def is_deterministic(protocol: Protocol) -> bool:
    """True iff every completed successor set is a singleton."""
    return all(len(s) == 1 for s in protocol.rules.values())


def is_symmetric(protocol: Protocol) -> bool:
    """True iff the completed relation contains the mirror of each tuple."""
    return symmetry_violation(protocol) is None


def symmetry_violation(protocol: Protocol) -> tuple[int, int, int, int] | None:
    """Return a tuple (q1, q2, q1', q2') whose mirror is missing, or None."""
    for (q1, q2), succs in protocol.rules.items():
        mirrored = protocol.rules[(q2, q1)]
        for a, b in succs:
            if (b, a) not in mirrored:
                return (q1, q2, a, b)
    return None


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
    a successor whenever some applicable rule is the identity.
    """
    if len(config) != protocol.state_count:
        raise ProtocolError(
            f"configuration length {len(config)} != state count {protocol.state_count}"
        )
    out: set[Config] = set()
    for (q1, q2), succs in protocol.rules.items():
        if config[q1] == 0 or config[q2] == 0:
            continue
        if q1 == q2 and config[q1] < 2:
            continue
        for a, b in succs:
            nxt = list(config)
            nxt[q1] -= 1
            nxt[q2] -= 1
            nxt[a] += 1
            nxt[b] += 1
            out.add(tuple(nxt))
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


def strongly_connected_components(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> list[list[Hashable]]:
    """Iterative Tarjan over an adjacency mapping; SCCs in found order.

    Every successor must itself be a key.  Components come out in reverse
    topological order of the condensation: no component has an arc into a
    later one.  Roots and arcs are visited in mapping and sequence order, so
    the output is deterministic for a deterministic mapping.
    """
    index: dict[Hashable, int] = {}
    lowlink: dict[Hashable, int] = {}
    on_stack: set[Hashable] = set()
    stack: list[Hashable] = []
    components: list[list[Hashable]] = []
    counter = 0

    for root in adjacency:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            advanced = False
            neighbors = adjacency[v]
            while ei < len(neighbors):
                w = neighbors[ei]
                ei += 1
                if w not in index:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
            if work:
                parent, _ = work[-1]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return components
