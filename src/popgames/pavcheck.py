"""Decide whether a symmetric protocol arises from threshold win-stay/lose-shift
play of some game, by synthesizing an integer payoff matrix and threshold.

Every requirement the derivation places on a candidate game is an order
comparison between two matrix entries or between an entry and the threshold,
never a sum.  Satisfiability over the rationals therefore reduces to
strict-cycle detection on the comparison graph, and a satisfying integer
assignment falls out of ranking the strongly connected components.  An
unsatisfiable system yields an explicit cycle of comparisons containing a
strict one, which doubles as a human-readable impossibility certificate.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from .core import (
    Protocol,
    ProtocolError,
    is_deterministic,
    strongly_connected_components,
    symmetry_violation,
)
from .games import ALL_TIES, Game, derive_protocol

EXACT = "exact"
SUBSET = "subset"

Var = Hashable
Edge = tuple[Var, Var]

# Variable keys: ("M", i, j) for matrix entries, "delta" for the threshold.
DELTA: Var = "delta"


def mat(i: int, j: int) -> Var:
    return ("M", i, j)


def _var_key(var: Var) -> tuple[int, str, int, int]:
    """Total order on variables so reported certificates never depend on
    set iteration order.  Falls back to repr for foreign variable kinds."""
    if var == DELTA:
        return (0, "", -1, -1)
    if isinstance(var, tuple) and len(var) == 3 and var[0] == "M":
        return (1, "", var[1], var[2])
    return (2, repr(var), -1, -1)


def _edge_key(edge: Edge) -> tuple:
    return (_var_key(edge[0]), _var_key(edge[1]))


@dataclass
class ConstraintSystem:
    """Order constraints over matrix-entry variables and the threshold."""

    variables: tuple[Var, ...]
    nonstrict: set[Edge] = field(default_factory=set)  # (u, v) meaning u <= v
    strict: set[Edge] = field(default_factory=set)  # (u, v) meaning u < v

    def add_le(self, u: Var, v: Var) -> None:
        self._check(u, v)
        self.nonstrict.add((u, v))

    def add_lt(self, u: Var, v: Var) -> None:
        self._check(u, v)
        self.strict.add((u, v))

    def _check(self, u: Var, v: Var) -> None:
        if u not in self._varset or v not in self._varset:
            raise ProtocolError(f"constraint references undeclared variable: {u} / {v}")

    @property
    def _varset(self) -> frozenset[Var]:
        return frozenset(self.variables)

    def satisfied_by(self, assignment: dict[Var, object]) -> bool:
        """Check a concrete assignment against every recorded comparison."""
        return all(
            assignment[u] <= assignment[v] for u, v in self.nonstrict
        ) and all(assignment[u] < assignment[v] for u, v in self.strict)


@dataclass(frozen=True)
class Witness:
    """Integer payoff matrix and threshold realizing a protocol."""

    states: tuple[str, ...]
    matrix: tuple[tuple[int, ...], ...]
    threshold: int

    def to_game(self, name: str = "witness") -> Game:
        from .games import make_game

        return make_game(name, self.states, self.matrix, self.threshold)


@dataclass(frozen=True)
class UnsatCertificate:
    """A comparison cycle containing a strict edge: no game can satisfy it.

    `cycle` lists variables with first = last; `edges[k]` records whether the
    step from cycle[k] to cycle[k+1] is strict.
    """

    cycle: tuple[Var, ...]
    strict_steps: tuple[bool, ...]

    def check_against(self, system: ConstraintSystem) -> bool:
        """Every step is a recorded edge, the cycle closes, one step is strict."""
        if len(self.cycle) < 2 or self.cycle[0] != self.cycle[-1]:
            return False
        if len(self.strict_steps) != len(self.cycle) - 1 or not any(self.strict_steps):
            return False
        for k, is_strict in enumerate(self.strict_steps):
            edge = (self.cycle[k], self.cycle[k + 1])
            pool = system.strict if is_strict else system.nonstrict
            if edge not in pool:
                return False
        return True


@dataclass(frozen=True)
class NotPavlovian:
    """Refusal with a reason: asymmetry, a non-product joint rule, or an
    unsatisfiable comparison system."""

    reason: str
    violating_tuple: tuple[int, int, int, int] | None = None
    certificate: UnsatCertificate | None = None


def agent_successors(protocol: Protocol, q1: int, q2: int) -> frozenset[int]:
    """The first agent's successor-state set on the ordered pair (q1, q2)."""
    return frozenset(a for a, _ in protocol.rules[(q1, q2)])


def build_constraints(protocol: Protocol, mode: str = SUBSET) -> ConstraintSystem:
    """Translate a symmetric protocol into order constraints on a payoff matrix.

    For each ordered pair (q1, q2) with first-agent successor set S:
      - S = {q1}: staying means winning, so M[q1][q2] >= threshold.
      - q1 not in S: moving means losing, so M[q1][q2] < threshold, and each
        s in S must be a best response against q2 among strategies != q1.
        In exact mode, strategies outside S (and != q1) must score strictly
        below, so the best-response set comes out as exactly S.
      - q1 in S together with other states: the agent would both stay and
        move on the same pair; an inconsistent threshold pair is emitted so
        the refusal flows through the ordinary certificate machinery.
    Symmetry makes the second agent's conditions the mirrored pairs' first-agent
    conditions, so one pass over ordered pairs covers both.
    """
    if mode not in (EXACT, SUBSET):
        raise ProtocolError(f"unknown constraint mode {mode!r}")
    bad = symmetry_violation(protocol)
    if bad is not None:
        raise ProtocolError(f"protocol is not symmetric, mirror of {bad} missing")
    n = protocol.state_count
    variables = tuple(mat(i, j) for i in range(n) for j in range(n)) + (DELTA,)
    system = ConstraintSystem(variables=variables)
    for q1 in range(n):
        for q2 in range(n):
            s_set = agent_successors(protocol, q1, q2)
            if s_set == {q1}:
                system.add_le(DELTA, mat(q1, q2))
                continue
            if q1 in s_set:
                system.add_le(DELTA, mat(q1, q2))
                system.add_lt(mat(q1, q2), DELTA)
                continue
            system.add_lt(mat(q1, q2), DELTA)
            for s in s_set:
                for z in range(n):
                    if z == q1 or z == s:
                        continue
                    system.add_le(mat(z, q2), mat(s, q2))
            if mode == EXACT:
                for z in range(n):
                    if z == q1 or z in s_set:
                        continue
                    for s in s_set:
                        system.add_lt(mat(z, q2), mat(s, q2))
    return system


def solve_order_constraints(
    system: ConstraintSystem,
) -> dict[Var, int] | UnsatCertificate:
    """Satisfy a system of <= / < comparisons with small integers, or certify
    that a cycle through a strict comparison makes it impossible.

    Strongly connected components of the full comparison graph must collapse
    to equal values; a strict edge inside one is the impossibility.  Otherwise
    components are ranked along longest paths in the condensation, strict
    edges forcing a rank increase, which yields values bounded by the number
    of variables.
    """
    adjacency: dict[Var, list[Var]] = {v: [] for v in system.variables}
    for u, v in sorted(system.nonstrict | system.strict, key=_edge_key):
        adjacency[u].append(v)

    components = strongly_connected_components(adjacency)
    comp_of = {v: ci for ci, comp in enumerate(components) for v in comp}

    for u, v in sorted(system.strict, key=_edge_key):
        if comp_of[u] == comp_of[v]:
            return _certificate(system, adjacency, comp_of, u, v)

    # Condensation DAG with strictness flags on the edges.
    comp_count = len(components)
    cond: dict[int, set[tuple[int, bool]]] = {c: set() for c in range(comp_count)}
    indeg = [0] * comp_count
    seen_edges: set[tuple[int, int, bool]] = set()
    for strictness, pool in ((False, system.nonstrict), (True, system.strict)):
        for u, v in pool:
            cu, cv = comp_of[u], comp_of[v]
            if cu == cv:
                continue
            key = (cu, cv, strictness)
            if key not in seen_edges:
                seen_edges.add(key)
                cond[cu].add((cv, strictness))
                indeg[cv] += 1

    rank = [0] * comp_count
    queue = [c for c in range(comp_count) if indeg[c] == 0]
    while queue:
        c = queue.pop()
        for d, strictness in cond[c]:
            need = rank[c] + (1 if strictness else 0)
            if need > rank[d]:
                rank[d] = need
            indeg[d] -= 1
            if indeg[d] == 0:
                queue.append(d)

    return {v: rank[comp_of[v]] for v in system.variables}


def _certificate(
    system: ConstraintSystem,
    adjacency: dict[Var, list[Var]],
    comp_of: dict[Var, int],
    u: Var,
    v: Var,
) -> UnsatCertificate:
    """Close the strict edge u < v into a cycle via a path v -> u inside its SCC."""
    target_comp = comp_of[u]
    parents: dict[Var, Var] = {v: v}
    frontier = [v]
    while frontier and u not in parents:
        nxt: list[Var] = []
        for x in frontier:
            for y in adjacency[x]:
                if comp_of[y] == target_comp and y not in parents:
                    parents[y] = x
                    nxt.append(y)
        frontier = nxt
    path = [u]
    while path[-1] != v:
        path.append(parents[path[-1]])
    path.reverse()  # v ... u

    # Cycle starts with the strict edge u -> v, then follows the path back to u.
    cycle = [u] + path
    strict_steps = [True]
    for k in range(1, len(cycle) - 1):
        edge = (cycle[k], cycle[k + 1])
        strict_steps.append(edge in system.strict)
    return UnsatCertificate(cycle=tuple(cycle), strict_steps=tuple(strict_steps))


def default_mode(protocol: Protocol) -> str:
    """Exact for deterministic protocols (round-trips without spurious ties),
    subset for nondeterministic ones."""
    return EXACT if is_deterministic(protocol) else SUBSET


def _is_cross_product(protocol: Protocol) -> tuple[int, int, int, int] | None:
    """A joint successor set must factor into per-agent choices to be realizable
    in exact mode.  Returns a missing combination, or None when all factor."""
    for (q1, q2), succs in protocol.rules.items():
        firsts = {a for a, _ in succs}
        seconds = {b for _, b in succs}
        for a in firsts:
            for b in seconds:
                if (a, b) not in succs:
                    return (q1, q2, a, b)
    return None


def check_pavlovian(
    protocol: Protocol, mode: str | None = None
) -> Witness | NotPavlovian:
    """Synthesize a payoff matrix and threshold realizing the protocol, or
    explain why none exists.

    In exact mode the derived best-response sets must reproduce each successor
    set exactly; in subset mode the derived sets may be supersets, leaving tie
    pruning to the protocol.  The default mode follows `default_mode`.  A
    returned witness is re-derived and compared before being handed out.
    """
    if mode is None:
        mode = default_mode(protocol)
    if mode not in (EXACT, SUBSET):
        raise ProtocolError(f"unknown check mode {mode!r}")

    bad = symmetry_violation(protocol)
    if bad is not None:
        return NotPavlovian(reason="not symmetric", violating_tuple=bad)

    if mode == EXACT:
        missing = _is_cross_product(protocol)
        if missing is not None:
            return NotPavlovian(
                reason="joint rule does not factor into independent per-agent choices",
                violating_tuple=missing,
            )

    system = build_constraints(protocol, mode)
    solved = solve_order_constraints(system)
    if isinstance(solved, UnsatCertificate):
        return NotPavlovian(reason="unsatisfiable comparisons", certificate=solved)

    n = protocol.state_count
    witness = Witness(
        states=protocol.states,
        matrix=tuple(tuple(solved[mat(i, j)] for j in range(n)) for i in range(n)),
        threshold=solved[DELTA],
    )
    if not witness_reproduces(witness, protocol, mode):
        raise RuntimeError(
            f"internal error: witness for {protocol.name!r} fails re-derivation"
        )
    return witness


def witness_reproduces(witness: Witness, protocol: Protocol, mode: str) -> bool:
    """Re-derive from the witness and compare against the protocol: equality in
    exact mode, successor-set containment in subset mode."""
    derived = derive_protocol(witness.to_game(), ALL_TIES)
    if mode == EXACT:
        return derived.rules == protocol.rules
    return all(
        protocol.rules[pair] <= derived.rules[pair] for pair in protocol.rules
    )


def format_var(var: Var, states: tuple[str, ...]) -> str:
    if var == DELTA:
        return "threshold"
    _, i, j = var
    return f"M[{states[i]},{states[j]}]"


def format_certificate(cert: UnsatCertificate, states: tuple[str, ...]) -> str:
    """Render a cycle like `M[a,b] < threshold <= M[a,b]`."""
    parts = [format_var(cert.cycle[0], states)]
    for k, is_strict in enumerate(cert.strict_steps):
        parts.append("<" if is_strict else "<=")
        parts.append(format_var(cert.cycle[k + 1], states))
    return " ".join(parts)
