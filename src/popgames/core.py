"""Population protocol model: finitely many anonymous finite-state agents
updated by pairwise interactions.

A protocol is a finite state set, an optional input alphabet with an
initial-state map, an optional per-state output bit, and a joint transition
relation over ordered state pairs.  Configurations of a complete-graph
population are multisets of states, stored as count vectors; per-vertex
configurations for restricted interaction graphs live in :mod:`popgames.sim`.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import compress
from operator import add


class ProtocolError(ValueError):
    """Structurally invalid protocol, configuration, or input."""


class BudgetExceeded(Exception):
    """Raised when an exhaustive pass would outgrow its node or candidate budget."""

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget


Pair = tuple[int, int]
Rules = dict[Pair, frozenset[Pair]]
Config = tuple[int, ...]


def complete(rules: Mapping[Pair, Iterable[Pair]], state_count: int) -> Rules:
    """Totalize a transition relation over ordered state pairs.

    Pairs absent from `rules` map to themselves; explicitly listed pairs
    keep their successors verbatim, as a frozenset of tuples.  The result
    is checked as a `Protocol` checks its rule table (`_check_rules`).
    """
    total: Rules = {pair: frozenset(map(tuple, succs)) for pair, succs in rules.items()}
    for q1 in range(state_count):
        for q2 in range(state_count):
            total.setdefault((q1, q2), frozenset({(q1, q2)}))
    _check_rules(range(state_count), total)
    return total


@lru_cache(maxsize=None)
def _state_pairs(state_count: int) -> frozenset[Pair]:
    """Every ordered pair of state indices: the keys of a total rule table."""
    return frozenset((q1, q2) for q1 in range(state_count) for q2 in range(state_count))


def _check_rules(states: Sequence, rules: Mapping) -> None:
    """Refuse repeated state names, keys other than the ordered pairs of state
    indices, and a value that is not a non-empty set of such pairs.  A state
    index is an `int`: a float or a bool equal to one is refused."""
    if len(set(states)) != len(states):
        raise ProtocolError(f"duplicate state names in {tuple(states)}")
    pairs = _state_pairs(len(states))
    if rules.keys() != pairs:
        missing = pairs - rules.keys()
        if missing:
            raise ProtocolError(f"rule table misses the pair {min(missing)}")
        extra = min(map(repr, rules.keys() - pairs))
        raise ProtocolError(f"rule table has the pair {extra}, not a pair of states")
    for pair, succs in rules.items():
        q1, q2 = pair
        if type(q1) is not int or type(q2) is not int:
            raise ProtocolError(f"rule table has the pair {pair}, not a pair of states")
        if not isinstance(succs, (frozenset, set)):
            raise ProtocolError(f"rule table maps the pair {pair} to {succs!r}, not a set")
        if not succs:
            raise ProtocolError(f"rule table maps the pair {pair} to no successor")
        if not succs <= pairs:
            bad = min(map(repr, succs - pairs))
            raise ProtocolError(f"rule table maps the pair {pair} to {bad}, not a pair of states")
        for a, b in succs:
            if type(a) is not int or type(b) is not int:
                raise ProtocolError(
                    f"rule table maps the pair {pair} to {(a, b)}, not a pair of states"
                )


@dataclass(frozen=True)
class Protocol:
    """A population protocol with a completed (total) transition relation.

    `rules` has exactly one key per ordered pair of state indices.
    `input_map` and `output_map` may be absent: dynamics derived from a game
    carry no input/output attachment until one is supplied explicitly.  An
    output map holds one int, 0 or 1, per state; an input map binds exactly
    the symbols of `input_alphabet` (none without a map) to state indices.
    Building a protocol, `dataclasses.replace` too, checks the state names
    (none repeated), the whole rule table (`_check_rules`) and both maps.
    """

    name: str
    states: tuple[str, ...]
    rules: Rules
    input_alphabet: tuple[str, ...] = ()
    input_map: Mapping[str, int] | None = None
    output_map: tuple[int, ...] | None = None

    def __post_init__(self):
        _check_rules(self.states, self.rules)
        n = len(self.states)
        inputs = self.input_map or {}
        for sym in inputs:
            if sym not in self.input_alphabet:
                raise ProtocolError(f"input {sym!r} is not in the input alphabet")
        for sym in self.input_alphabet:
            if sym not in inputs:
                raise ProtocolError(f"input map misses symbol {sym!r}")
            q = inputs[sym]
            if type(q) is not int or not 0 <= q < n:
                raise ProtocolError(f"input {sym!r} bound to {q!r}, not a state index")
        bits = self.output_map
        if bits is not None:
            for state, bit in zip(self.states, bits):
                if type(bit) is not int or bit not in (0, 1):
                    raise ProtocolError(f"output bit for {state!r} must be 0 or 1, got {bit!r}")
            if len(bits) < n:
                raise ProtocolError(f"output map misses state {self.states[len(bits)]!r}")
            if len(bits) > n:
                raise ProtocolError(f"output map has {len(bits)} bits for {n} states")

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
                for a, b in self.rules[(q1, q2)] | self.rules[(q2, q1)]:
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
    def _kernel_tables(self) -> tuple:
        """`_kernels._tables` of this protocol, built on first use and
        shared by every later run of it.  The kernels load here, not with
        this module, so a program that never simulates never imports them."""
        from . import _kernels

        return _kernels._tables(self)

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
    pass `check_name`, and no state repeat, so that `print_protocol` writes
    text that parses back.
    """
    state_tab = tuple(states)
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
    `outputs` every state name to its bit, the int 0 or 1 (which `Protocol`
    checks).  Either is a mapping or a sequence of (key, value) pairs, in
    which no key may repeat; None leaves that map as it is.  Binding no
    symbols gives the input map None, as a protocol file without an
    `inputs` line does.
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
        changes.update(input_alphabet=alphabet, input_map=input_map or None)
    if outputs is not None:
        bits: dict[str, int] = {}
        for state, bit in outputs.items() if isinstance(outputs, Mapping) else outputs:
            if state not in protocol.states:
                raise ProtocolError(f"output for unknown state {state!r}")
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
    for sym, k in input_multiset.items():
        if sym not in protocol.input_map:
            raise ProtocolError(f"unknown input symbol {sym!r}")
        try:
            k = operator.index(k)
        except TypeError:
            raise ProtocolError(f"counts must be integers, got {k!r} for symbol {sym!r}") from None
        if k < 0:
            raise ProtocolError(f"negative count for symbol {sym!r}")
        counts[protocol.input_map[sym]] += k
    return _checked_config(protocol, counts)


def config_of(protocol: Protocol, state_multiset: Mapping[str, int]) -> Config:
    """Count vector for a multiset given by state name, for direct inits."""
    counts = [0] * protocol.state_count
    for st, k in state_multiset.items():
        counts[protocol.index(st)] = k
    return _checked_config(protocol, counts)


def _checked_int(value, what: str, minimum: int | None = None) -> int:
    """`value` as a Python int by `operator.index` (2.5 and "5" are refused,
    not truncated or parsed), and not below `minimum` when one is given;
    else ProtocolError naming `what`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ProtocolError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise ProtocolError(f"{what} must be >= {minimum}, got {n}")
    return n


def _checked_config(protocol: Protocol, counts: Sequence) -> Config:
    """`counts`, one per state, as a configuration of at least 2 agents:
    each count a Python int (by `operator.index`, so 2.5 is refused rather
    than truncated) and none negative; else ProtocolError."""
    try:
        config = tuple(map(operator.index, counts))
    except TypeError:
        raise ProtocolError(f"counts must be integers, got {counts!r}") from None
    if len(config) != len(protocol.states):
        raise ProtocolError(
            f"count vector length {len(config)} != {len(protocol.states)} states"
        )
    if min(config) < 0:
        state = protocol.states[config.index(min(config))]
        raise ProtocolError(f"negative count for state {state!r}")
    if sum(config) < 2:
        raise ProtocolError(f"population must have at least 2 agents, got {sum(config)}")
    return config


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
    """All agents in states with output bit 1: 1; none: 0; some, or no agents: None."""
    bits = protocol.output_map
    if bits is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no output map")
    if len(config) != len(bits):
        raise ProtocolError(f"configuration {config} needs one count per state")
    return _output_of_counts(bits, config)


def _output_of_counts(bits: Sequence[int], config: Config) -> int | None:
    """`output_of_config`'s rule on the output bits `bits`, one per state of
    `config`, which the caller has checked."""
    ones = sum(compress(config, bits))
    if ones == 0:
        return 0 if any(config) else None
    return 1 if ones == sum(config) else None


def histogram(protocol: Protocol, vertex_states: Iterable[int]) -> Config:
    """Count vector of a per-vertex state assignment."""
    counts = [0] * protocol.state_count
    for q in vertex_states:
        if not 0 <= q < len(counts):
            raise ProtocolError(f"state index {q} out of range [0, {len(counts)})")
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
