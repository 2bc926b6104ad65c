"""Decide whether a symmetric protocol arises from threshold win-stay/lose-shift
play of some game, by synthesizing an integer payoff matrix and threshold.

Every requirement the derivation places on a candidate game is an order
comparison between two matrix entries or between an entry and the threshold,
never a sum.  Satisfiability over the rationals therefore reduces to
strict-cycle detection on the comparison graph, and a satisfying integer
assignment falls out of ranking the strongly connected components.  An
unsatisfiable system yields an explicit cycle of comparisons containing a
strict one, which doubles as a human-readable impossibility certificate.

Variables have one order, `_var_key`'s: the threshold first, then the matrix
row by row.  A system lists its variables, numbers them, solves them and
reports its answers in that order.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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
IdEdges = frozenset[tuple[int, int]]
Block = tuple[IdEdges, IdEdges]

# Variable keys: ("M", i, j) for matrix entries, "delta" for the threshold.
DELTA: Var = "delta"

# Bounds of the per-column caches: first-agent sets per joint successor set,
# and blocks and their solutions per column.
FIRSTS_CACHE = 256
COLUMN_CACHE = 1024


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


@lru_cache(maxsize=8)
def _matrix_variables(n: int) -> tuple[Var, ...]:
    """An n-state system's variables in id order: DELTA has id 0, M[i][j]
    has 1 + i·n + j."""
    return (DELTA,) + tuple(mat(i, j) for i in range(n) for j in range(n))


class ConstraintSystem:
    """Order comparisons between declared variables: (u, v) in `nonstrict`
    means u <= v, in `strict` u < v.

    `variables` lists the declared variables in `_var_key` order, and a
    variable's id is its place there.  Each comparison is stored once, as a
    pair of ids.  The comparisons come in `blocks`, pairs (le, lt) of id-pair
    sets for <= and <, and no two blocks share a variable but id 0; a system
    built here is one block.  `nonstrict` and `strict` are all blocks'
    comparisons as pairs of variables, built on first access.  A comparison
    naming an undeclared variable is refused.
    """

    def __init__(
        self,
        variables: Iterable[Var],
        nonstrict: Iterable[Edge] = (),
        strict: Iterable[Edge] = (),
    ) -> None:
        self.variables = tuple(sorted(variables, key=_var_key))
        order = {v: i for i, v in enumerate(self.variables)}
        try:
            le = frozenset((order[u], order[v]) for u, v in nonstrict)
            lt = frozenset((order[u], order[v]) for u, v in strict)
        except KeyError as missing:
            raise ProtocolError(
                f"constraint references undeclared variable: {missing.args[0]!r}"
            ) from None
        self.blocks: tuple[Block, ...] = ((le, lt),)

    @classmethod
    def _numbered(
        cls, variables: tuple[Var, ...], blocks: tuple[Block, ...]
    ) -> ConstraintSystem:
        """A system from blocks of comparisons that are already id pairs over
        `variables` and share no id but 0."""
        system = cls.__new__(cls)
        system.variables, system.blocks = variables, blocks
        return system

    @cached_property
    def nonstrict(self) -> frozenset[Edge]:
        var = self.variables
        return frozenset((var[u], var[v]) for le, _ in self.blocks for u, v in le)

    @cached_property
    def strict(self) -> frozenset[Edge]:
        var = self.variables
        return frozenset((var[u], var[v]) for _, lt in self.blocks for u, v in lt)

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
    conditions, so one pass over ordered pairs covers both.  Every comparison
    for (q1, q2) involves only column q2 and the threshold, so each column's
    comparisons (`_column_constraints`) are one block of the system.
    """
    if mode not in (EXACT, SUBSET):
        raise ProtocolError(f"unknown constraint mode {mode!r}")
    bad = symmetry_violation(protocol)
    if bad is not None:
        raise ProtocolError(f"protocol is not symmetric, mirror of {bad} missing")
    n = protocol.state_count
    firsts = tuple(map(_first_agents, map(protocol.rules.__getitem__, _column_major(n))))
    columns = [
        _column_constraints(n, q2, firsts[q2 * n : q2 * n + n], mode) for q2 in range(n)
    ]
    return ConstraintSystem._numbered(_matrix_variables(n), tuple(columns))


@lru_cache(maxsize=8)
def _column_major(n: int) -> tuple[tuple[int, int], ...]:
    """The ordered pairs of n states column by column: (q1, q2) has place
    q2·n + q1."""
    return tuple((q1, q2) for q2 in range(n) for q1 in range(n))


@lru_cache(maxsize=FIRSTS_CACHE)
def _first_agents(succs: frozenset[tuple[int, int]]) -> frozenset[int]:
    """The first agent's successor states in a joint successor set."""
    return frozenset([a for a, _ in succs])


@lru_cache(maxsize=COLUMN_CACHE)
def _column_constraints(
    n: int, q2: int, firsts: tuple[frozenset[int], ...], mode: str
) -> tuple[IdEdges, IdEdges]:
    """The comparisons `build_constraints` emits for the pairs (q1, q2) of an
    n-state protocol whose first agent goes to `firsts[q1]`, as the id pairs
    (le, lt) of a matrix system: the threshold is id 0, M[q1][q2] is id
    1 + q1·n + q2."""
    entry = [1 + z * n + q2 for z in range(n)]
    le: set[tuple[int, int]] = set()
    lt: set[tuple[int, int]] = set()
    for q1, s_set in enumerate(firsts):
        m = entry[q1]
        if s_set == {q1}:
            le.add((0, m))
            continue
        if q1 in s_set:
            le.add((0, m))
            lt.add((m, 0))
            continue
        lt.add((m, 0))
        for s in s_set:
            for z in range(n):
                if z == q1 or z == s:
                    continue
                le.add((entry[z], entry[s]))
        if mode == EXACT:
            for z in range(n):
                if z == q1 or z in s_set:
                    continue
                for s in s_set:
                    lt.add((entry[z], entry[s]))
    return frozenset(le), frozenset(lt)


def solve_order_constraints(
    system: ConstraintSystem,
) -> dict[Var, int] | UnsatCertificate:
    """Satisfy a system of <= / < comparisons with small integers, or certify
    that a cycle through a strict comparison makes it impossible.

    Strongly connected components of the comparison graph must collapse to
    equal values; a strict edge inside one is the impossibility.  Otherwise
    components are ranked along longest paths in the condensation, strict
    edges forcing a rank increase, which yields values bounded by the number
    of variables.  Ids follow `_var_key` order, so arcs are taken in that
    order and the certificate closes the least strict edge in it.

    Each block is solved by itself (`_solve_block`), once per distinct
    block.  Blocks share only id 0, and a simple cycle passes id 0 at most
    once, so every cycle lies in one block: the components, the strict
    edges inside them and the certificate's search are each block's own.
    Let D be id 0's component.  A path that leaves D never returns, so the
    longest path to a variable x either avoids D, a(x), or passes it,
    R + d(x), where R (`top`) is the longest path into D over all blocks and
    d(x) the longest path from D to x.  x's rank is the larger of the two.
    """
    solved = [_solve_block(le, lt) for le, lt in system.blocks]
    refusals = [s.refusal for s in solved if s.refusal is not None]
    if refusals:
        _, cycle, strict_steps = min(refusals)
        var = system.variables
        return UnsatCertificate(cycle=tuple([var[x] for x in cycle]), strict_steps=strict_steps)

    top = max([s.into_d for s in solved])
    # id 0 ranks R and ids that no block names rank 0 (a system without
    # variables reads none of this list)
    rank = [top] + [0] * (len(system.variables) - 1)
    for s in solved:
        for x, a, d in s.ranks:
            rank[x] = a if d < 0 else max(a, top + d)
    return dict(zip(system.variables, rank))


class _BlockSolution(NamedTuple):
    """One block solved by itself, over the system's ids.

    `refusal` is None, or the least strict edge inside a component with the
    certificate's cycle of ids and its strict steps.  Otherwise `into_d` is
    the longest path into D, id 0's component, and `ranks` lists each id
    but 0 that the block names with a(x), its longest path avoiding D (at
    least 0), and d(x), its longest path from D (-1 where there is none);
    a path's length is its count of strict edges.
    """

    refusal: tuple[tuple[int, int], tuple[int, ...], tuple[bool, ...]] | None
    into_d: int
    ranks: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=COLUMN_CACHE)
def _solve_block(le: IdEdges, lt: IdEdges) -> _BlockSolution:
    """Solve the comparisons u <= v for (u, v) in `le` and u < v in `lt`
    alone.  Cached: a block recurs in many systems, and `build_constraints`
    hands out the same sets for the same column."""
    named = {0}.union(*le, *lt)
    # an arc both <= and < is listed twice, which changes neither search
    adjacency: list[list[int]] = [[] for _ in range(max(named) + 1)]
    for u, v in le:
        adjacency[u].append(v)
    for u, v in lt:
        adjacency[u].append(v)
    for arcs in adjacency:
        arcs.sort()

    components = strongly_connected_components(adjacency)
    comp_of = [0] * len(adjacency)
    for ci, comp in enumerate(components):
        for v in comp:
            comp_of[v] = ci

    inside = [edge for edge in lt if comp_of[edge[0]] == comp_of[edge[1]]]
    if inside:
        u, v = min(inside)
        return _BlockSolution(((u, v), *_certificate(lt, adjacency, comp_of, u, v)), 0, ())

    # Condensation DAG with a rank step of 1 on strict edges.  Components
    # come out of Tarjan's search after every component they reach, so
    # taking them last-found first visits each one after its predecessors.
    out: list[set[tuple[int, int]]] = [set() for _ in components]
    for step, pool in ((0, le), (1, lt)):
        for u, v in pool:
            cu, cv = comp_of[u], comp_of[v]
            if cu != cv:
                out[cu].add((cv, step))
    zero = comp_of[0]
    into_d = 0
    a = [0] * len(components)
    d = [-1] * len(components)
    d[zero] = 0
    for c in reversed(range(len(components))):
        for e, step in out[c]:
            if d[c] >= 0 and d[c] + step > d[e]:
                d[e] = d[c] + step
            if c == zero:
                continue
            if e == zero:
                into_d = max(into_d, a[c] + step)
            elif a[c] + step > a[e]:
                a[e] = a[c] + step
    ranks = tuple([(x, a[comp_of[x]], d[comp_of[x]]) for x in sorted(named) if x != 0])
    return _BlockSolution(None, into_d, ranks)


def _certificate(
    strict: IdEdges,
    adjacency: list[list[int]],
    comp_of: list[int],
    u: int,
    v: int,
) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """Close the strict edge u < v into a cycle of ids via a path v -> u
    inside its SCC, with whether each step is strict."""
    target_comp = comp_of[u]
    parents = {v: v}
    frontier = [v]
    while frontier and u not in parents:
        nxt: list[int] = []
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
        strict_steps.append((cycle[k], cycle[k + 1]) in strict)
    return tuple(cycle), tuple(strict_steps)


def default_mode(protocol: Protocol) -> str:
    """Exact for deterministic protocols (round-trips without spurious ties),
    subset for nondeterministic ones."""
    return EXACT if is_deterministic(protocol) else SUBSET


def _is_cross_product(protocol: Protocol) -> tuple[int, int, int, int] | None:
    """A joint successor set must factor into per-agent choices to be realizable
    in exact mode.  Returns a missing combination, or None when all factor;
    a single successor pair always does."""
    for (q1, q2), succs in protocol.rules.items():
        if len(succs) == 1:
            continue
        firsts = {a for a, _ in succs}
        seconds = {b for _, b in succs}
        for a in firsts:
            for b in seconds:
                if (a, b) not in succs:
                    return (q1, q2, a, b)
    return None


# The last answer of `check_pavlovian` and its key, as one tuple that is
# read and replaced whole, so concurrent callers never pair one key with
# another's answer.
_last_check: tuple = (None, None)


def check_pavlovian(
    protocol: Protocol, mode: str | None = None
) -> Witness | NotPavlovian:
    """Synthesize a payoff matrix and threshold realizing the protocol, or
    explain why none exists.

    In exact mode the derived best-response sets must reproduce each successor
    set exactly; in subset mode the derived sets may be supersets, leaving tie
    pruning to the protocol.  The default mode follows `default_mode`.  A
    returned witness is re-derived and compared before being handed out.

    The answer depends only on the states, the rule table and the mode, so
    the last one is kept: checking the same dynamics again, with any input
    and output maps, returns it at once.
    """
    global _last_check
    if mode is None:
        mode = default_mode(protocol)
    if mode not in (EXACT, SUBSET):
        raise ProtocolError(f"unknown check mode {mode!r}")
    key = (protocol.states, tuple(protocol.rules.items()), mode)
    last_key, last_answer = _last_check
    if last_key == key:
        return last_answer

    answer = _check(protocol, mode)
    _last_check = (key, answer)
    return answer


def _check(protocol: Protocol, mode: str) -> Witness | NotPavlovian:
    # a protocol keeps its symmetry verdict, which `build_constraints` reads
    # again for its own callers
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

    # the solution lists the threshold (id 0), then the matrix row by row
    n = protocol.state_count
    values = list(solved.values())
    witness = Witness(
        states=protocol.states,
        matrix=tuple([tuple(values[1 + i * n : 1 + i * n + n]) for i in range(n)]),
        threshold=values[0],
    )
    if not witness_reproduces(witness, protocol, mode):
        raise RuntimeError(
            f"internal error: witness for {protocol.name!r} fails re-derivation"
        )
    return witness


def witness_reproduces(witness: Witness, protocol: Protocol, mode: str) -> bool:
    """Re-derive from the witness and compare against the protocol: equality in
    exact mode, successor-set containment in subset mode.  `derive_protocol`
    reads each payoff's numerator and denominator, which integers have too,
    so the game is made from the witness's integers as they are."""
    game = Game("witness", witness.states, witness.matrix, witness.threshold)
    derived = derive_protocol(game, ALL_TIES)
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
