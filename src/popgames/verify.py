"""Exact verification of stable computation on bounded populations.

Fairness is read execution-wise: a fair execution eventually enters one
bottom strongly connected component of the reachable configuration graph and
visits all of it.  A protocol therefore stably computes a predicate on a
given input iff every configuration of every bottom SCC carries the correct
defined output.  Everything here is exhaustive and exact over the checked
population sizes; nothing is claimed beyond them.

The predicate language is quantifier-free linear arithmetic with congruences
over input-symbol counts:

    pred := pred "||" pred | pred "&&" pred | "!" pred | "(" pred ")" | atom
    atom := lin cmp lin | lin "mod" m "=" r        cmp in < <= = >= >
    lin  := signed integer-weighted sum of n_<symbol> terms and constants
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

from .core import (
    Config,
    Protocol,
    ProtocolError,
    config_to_dict,
    input_symbols,
    output_of_config,
    strongly_connected_components,
    successors,
)
from .pavcheck import EXACT, NotPavlovian, check_pavlovian

DEFAULT_BUDGET = 500_000


class BudgetExceeded(Exception):
    """Raised when an exhaustive pass would outgrow its node or candidate budget."""

    def __init__(self, message: str, budget: int):
        super().__init__(message)
        self.budget = budget


# ---------------------------------------------------------------------------
# predicate language


class PredicateError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class LinearForm:
    """constant + sum of coeff * n_symbol, coefficients nonzero, sorted."""

    coeffs: tuple[tuple[str, int], ...]
    constant: int

    def value(self, counts: Mapping[str, int]) -> int:
        return self.constant + sum(c * counts.get(s, 0) for s, c in self.coeffs)

    def symbols(self) -> frozenset[str]:
        return frozenset(s for s, _ in self.coeffs)


@dataclass(frozen=True)
class Comparison:
    """lin <op> 0 after moving everything to the left side."""

    lin: LinearForm
    op: str


@dataclass(frozen=True)
class Congruence:
    """lin = residue (mod modulus), modulus >= 2."""

    lin: LinearForm
    modulus: int
    residue: int


@dataclass(frozen=True)
class Not:
    child: "PredicateExpr"


@dataclass(frozen=True)
class And:
    left: "PredicateExpr"
    right: "PredicateExpr"


@dataclass(frozen=True)
class Or:
    left: "PredicateExpr"
    right: "PredicateExpr"


PredicateExpr = Comparison | Congruence | Not | And | Or

_CMP_TOKENS = ("<=", ">=", "==", "<", ">", "=")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) triples; kinds: num name mod op end."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "mod":
                tokens.append(("mod", word, i))
            elif word.startswith("n_") and len(word) > 2:
                tokens.append(("name", word[2:], i))
            else:
                raise PredicateError(
                    f"unknown word {word!r} (counts are written n_<symbol>)", i
                )
            i = j
            continue
        for two in ("&&", "||"):
            if text.startswith(two, i):
                tokens.append(("op", two, i))
                i += 2
                break
        else:
            for cmp_tok in _CMP_TOKENS:
                if text.startswith(cmp_tok, i):
                    tokens.append(("op", "=" if cmp_tok == "==" else cmp_tok, i))
                    i += len(cmp_tok)
                    break
            else:
                if ch in "+-*!()":
                    tokens.append(("op", ch, i))
                    i += 1
                else:
                    raise PredicateError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, value: str) -> None:
        kind, val, at = self.take()
        if kind != "op" or val != value:
            raise PredicateError(f"expected {value!r}, found {val or 'end'!r}", at)

    def parse(self) -> PredicateExpr:
        expr = self.or_expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise PredicateError(f"trailing input starting with {val!r}", at)
        return expr

    def or_expr(self) -> PredicateExpr:
        left = self.and_expr()
        while self.peek()[:2] == ("op", "||"):
            self.take()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> PredicateExpr:
        left = self.unary()
        while self.peek()[:2] == ("op", "&&"):
            self.take()
            left = And(left, self.unary())
        return left

    def unary(self) -> PredicateExpr:
        kind, val, _ = self.peek()
        if (kind, val) == ("op", "!"):
            self.take()
            return Not(self.unary())
        if (kind, val) == ("op", "("):
            self.take()
            inner = self.or_expr()
            self.expect_op(")")
            return inner
        return self.atom()

    def atom(self) -> PredicateExpr:
        lhs = self.linear()
        kind, val, at = self.take()
        if kind == "mod":
            modulus = self.integer()
            if modulus < 2:
                raise PredicateError(f"modulus must be >= 2, got {modulus}", at)
            self.expect_op("=")
            residue = self.integer()
            return Congruence(lhs, modulus, residue % modulus)
        if kind == "op" and val in ("<", "<=", "=", ">=", ">"):
            rhs = self.linear()
            return Comparison(_lin_sub(lhs, rhs), val)
        raise PredicateError(f"expected a comparison, found {val or 'end'!r}", at)

    def integer(self) -> int:
        sign = 1
        kind, val, at = self.take()
        if kind == "op" and val in ("+", "-"):
            sign = -1 if val == "-" else 1
            kind, val, at = self.take()
        if kind != "num":
            raise PredicateError(f"expected an integer, found {val or 'end'!r}", at)
        return sign * int(val)

    def linear(self) -> LinearForm:
        coeffs: dict[str, int] = {}
        constant = 0
        sign = 1
        first = True
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in ("+", "-"):
                self.take()
                sign = -1 if val == "-" else 1
            elif not first:
                break
            kind, val, at = self.take()
            if kind == "num":
                weight = sign * int(val)
                nk, nv, _ = self.peek()
                if (nk, nv) == ("op", "*"):
                    self.take()
                    nk, nv, nat = self.take()
                    if nk != "name":
                        raise PredicateError(
                            f"expected n_<symbol> after '*', found {nv or 'end'!r}", nat
                        )
                    coeffs[nv] = coeffs.get(nv, 0) + weight
                else:
                    constant += weight
            elif kind == "name":
                coeffs[val] = coeffs.get(val, 0) + sign
            else:
                raise PredicateError(f"expected a term, found {val or 'end'!r}", at)
            sign = 1
            first = False
            kind, val, _ = self.peek()
            if not (kind == "op" and val in ("+", "-")):
                break
        return _linear_form(coeffs, constant)


def _linear_form(coeffs: Mapping[str, int], constant: int) -> LinearForm:
    """The form with `coeffs`' nonzero coefficients, sorted by symbol."""
    return LinearForm(tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)), constant)


def _lin_sub(a: LinearForm, b: LinearForm) -> LinearForm:
    coeffs = dict(a.coeffs)
    for s, c in b.coeffs:
        coeffs[s] = coeffs.get(s, 0) - c
    return _linear_form(coeffs, a.constant - b.constant)


def parse_predicate(text: str) -> PredicateExpr:
    return _Parser(text).parse()


def predicate_symbols(expr: PredicateExpr) -> frozenset[str]:
    if isinstance(expr, (Comparison, Congruence)):
        return expr.lin.symbols()
    if isinstance(expr, Not):
        return predicate_symbols(expr.child)
    return predicate_symbols(expr.left) | predicate_symbols(expr.right)


def eval_predicate(expr: PredicateExpr, counts: Mapping[str, int]) -> int:
    """0/1 value on an input multiset; symbols absent from `counts` count 0."""
    return 1 if _eval(expr, counts) else 0


def _eval(expr: PredicateExpr, counts: Mapping[str, int]) -> bool:
    if isinstance(expr, Comparison):
        v = expr.lin.value(counts)
        return {
            "<": v < 0,
            "<=": v <= 0,
            "=": v == 0,
            ">=": v >= 0,
            ">": v > 0,
        }[expr.op]
    if isinstance(expr, Congruence):
        return expr.lin.value(counts) % expr.modulus == expr.residue
    if isinstance(expr, Not):
        return not _eval(expr.child, counts)
    if isinstance(expr, And):
        return _eval(expr.left, counts) and _eval(expr.right, counts)
    return _eval(expr.left, counts) or _eval(expr.right, counts)


# ---------------------------------------------------------------------------
# reachability and bottom SCCs


@dataclass(frozen=True)
class ConfigGraph:
    """A successor-closed set of configurations numbered 0..n-1, as a
    read-only value.

    `succ[i]` lists the ids of the successors of `configs[i]`, sorted by
    configuration.  A graph explored from one configuration has that root as
    id 0 and its BFS tree in `parent` (-1 at the root); an unrooted graph has
    an empty `parent`.  Fields cannot be reassigned and hold tuples, so one
    graph may be handed to many callers: `reachable` returns the same graph
    again for the same dynamics and start.  The `nodes` view and the bottom
    SCCs are computed once, on first use.
    """

    configs: tuple[Config, ...]
    succ: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]

    @property
    def root(self) -> tuple | None:
        return self.configs[0] if self.parent else None

    @cached_property
    def nodes(self) -> Mapping[tuple, tuple[tuple, ...]]:
        """Read-only view: each configuration and its successor configurations."""
        configs = self.configs
        return MappingProxyType(
            {c: tuple(configs[j] for j in out) for c, out in zip(configs, self.succ)}
        )

    @cached_property
    def _bottom_ids(self) -> tuple[tuple[int, ...], ...]:
        """The ids of each bottom SCC, sorted by configuration, the SCCs in
        the order of their least configurations."""
        succ = self.succ
        components = strongly_connected_components(succ)
        comp_of = [0] * len(succ)
        for ci, comp in enumerate(components):
            for v in comp:
                comp_of[v] = ci
        # components with an arc into another component
        exits = {
            comp_of[v] for v, out in enumerate(succ) for w in out if comp_of[w] != comp_of[v]
        }
        configs = self.configs
        bottoms = [
            tuple(sorted(comp, key=configs.__getitem__))
            for ci, comp in enumerate(components)
            if ci not in exits
        ]
        bottoms.sort(key=lambda ids: configs[ids[0]])
        return tuple(bottoms)

    @cached_property
    def _bottom_sccs(self) -> tuple[frozenset, ...]:
        configs = self.configs
        return tuple(frozenset([configs[v] for v in ids]) for ids in self._bottom_ids)

    def path_to(self, node: tuple) -> tuple[tuple, ...]:
        """The BFS-tree path from the root to `node`."""
        if not self.parent:
            raise ProtocolError(f"graph has no root: no path to {node}")
        try:
            i = self.configs.index(tuple(node))
        except ValueError:
            raise ProtocolError(f"configuration {node} is not in the graph") from None
        return self._path(i)

    def _path(self, i: int) -> tuple[tuple, ...]:
        """The BFS-tree path from the root to configuration id `i`."""
        path = []
        while i >= 0:
            path.append(self.configs[i])
            i = self.parent[i]
        return tuple(reversed(path))


# `reachable` keeps the graphs of the last move table it explored, by start,
# up to this many configurations in all.
EXPLORED_CAP = 1 << 14


class _Explored:
    """Graphs explored under one move table, by start."""

    __slots__ = ("moves", "graphs", "held")

    def __init__(self, moves):
        self.moves = moves
        self.graphs: dict[Config, ConfigGraph] = {}
        self.held = 0  # configurations in `graphs`


_explored = _Explored(None)
_explored_lock = threading.Lock()


def _budget_exceeded(budget: int) -> BudgetExceeded:
    return BudgetExceeded(f"reachable set exceeds {budget} configurations", budget)


def reachable(protocol: Protocol, init: Config, budget: int = DEFAULT_BUDGET) -> ConfigGraph:
    """Breadth-first closure of one initial configuration under single
    interactions; BudgetExceeded when it has more than `budget` configurations.

    The graph depends only on the move table and the start, so the graphs of
    the last move table explored are kept (at most EXPLORED_CAP
    configurations): exploring it again from a start it was explored from
    returns the same graph, whatever input and output maps the protocol has.
    """
    global _explored
    init = tuple(init)
    if sum(init) < 2:
        raise ProtocolError("population must have at least 2 agents")
    moves = protocol.moves
    memo = _explored
    if memo.moves != moves:
        memo = _explored = _Explored(moves)
    graph = memo.graphs.get(init)
    if graph is not None:
        if len(graph.configs) > budget:
            raise _budget_exceeded(budget)
        return graph

    graph = ConfigGraph(*_explore((init,), partial(successors, protocol), budget))
    with _explored_lock:
        if memo.held + len(graph.configs) <= EXPLORED_CAP:
            memo.held += len(graph.configs)
            memo.graphs[init] = graph
    return graph


def _explore(
    roots: Iterable[Config],
    successors_of: Callable[[Config], Iterable[Config]],
    budget: int,
) -> tuple[tuple[Config, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Breadth-first closure of the distinct `roots` under `successors_of`:
    the roots take ids 0.. in order, then each configuration is numbered as
    it is first reached, with each successor list sorted by configuration.
    Returns (configs, succ, BFS parents, -1 at every root); BudgetExceeded as
    soon as there are more than `budget` configurations, the roots included,
    so the roots are listed only that far."""
    configs = []
    ids = {}
    for root in roots:
        if len(configs) >= budget:
            raise _budget_exceeded(budget)
        ids[root] = len(configs)
        configs.append(root)
    parent = [-1] * len(configs)
    succ = []
    for i, node in enumerate(configs):  # visits the configurations appended below
        out = []
        for nxt in sorted(successors_of(node)):
            j = ids.get(nxt)
            if j is None:
                j = len(configs)
                if j >= budget:
                    raise _budget_exceeded(budget)
                ids[nxt] = j
                configs.append(nxt)
                parent.append(i)
            out.append(j)
        succ.append(tuple(out))
    return tuple(configs), tuple(succ), tuple(parent)


def full_multiset_graph(protocol: Protocol, n: int, budget: int = DEFAULT_BUDGET) -> ConfigGraph:
    """One-interaction relation over all count vectors of population n."""
    configs, succ, _ = _explore(
        _compositions(n, protocol.state_count), partial(successors, protocol), budget
    )
    return ConfigGraph(configs, succ, ())


def full_vertex_graph(
    protocol: Protocol, graph, budget: int = DEFAULT_BUDGET
) -> ConfigGraph:
    """One-interaction relation over all per-vertex assignments of a graph."""

    def vertex_successors(assignment):
        succ = set()
        for u, v in graph.edges:
            for x, y in ((u, v), (v, u)):
                for a, b in protocol.rules[(assignment[x], assignment[y])]:
                    nxt = list(assignment)
                    nxt[x] = a
                    nxt[y] = b
                    succ.add(tuple(nxt))
        return succ

    roots = itertools.product(range(protocol.state_count), repeat=graph.vertex_count)
    configs, succ, _ = _explore(roots, vertex_successors, budget)
    return ConfigGraph(configs, succ, ())


def bottom_sccs(graph: ConfigGraph) -> list[frozenset]:
    """SCCs of the condensation with no outgoing arc, in deterministic order;
    a new list on every call."""
    return list(graph._bottom_sccs)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Counterexample:
    """A reachable bottom-SCC member violating the checked property, with a
    root-to-violation interaction path."""

    config: Config
    path: tuple[Config, ...]
    expected: int
    actual: int | None
    property: str

    def as_dict(self, protocol: Protocol) -> dict:
        return {
            "config": config_to_dict(protocol, self.config),
            "path": [config_to_dict(protocol, c) for c in self.path],
            "expected": self.expected,
            "actual": self.actual,
            "property": self.property,
        }


@dataclass(frozen=True)
class InputResult:
    input: tuple[tuple[str, int], ...]
    passed: bool
    counterexample: Counterexample | None

    def input_label(self) -> str:
        return ",".join(f"{s}:{c}" for s, c in self.input if c > 0)

    def as_dict(self, protocol: Protocol) -> dict:
        out = {"input": self.input_label(), "passed": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample.as_dict(protocol)
        return out


@dataclass(frozen=True)
class Verdict:
    """Per-input pass/fail over the verified sizes; holds for those sizes only."""

    passed: bool
    per_input: tuple[InputResult, ...]
    sizes: tuple[int, ...]

    def failures(self) -> tuple[InputResult, ...]:
        return tuple(r for r in self.per_input if not r.passed)

    def as_dict(self, protocol: Protocol) -> dict:
        return {
            "passed": self.passed,
            "sizes": list(self.sizes),
            "note": "exhaustive over the listed population sizes only",
            "inputs": [r.as_dict(protocol) for r in self.per_input],
        }


def _compositions(n: int, k: int):
    """All k-part count vectors summing to n, lexicographic."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in _compositions(n - head, k - 1):
            yield (head, *rest)


def _check_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    sizes = tuple(sizes)
    if not sizes:
        raise ProtocolError("empty size range")
    if min(sizes) < 2:
        raise ProtocolError("population sizes must be >= 2")
    return sizes


def _as_predicate(predicate) -> PredicateExpr:
    return parse_predicate(predicate) if isinstance(predicate, str) else predicate


def _check_bottoms(
    protocol: Protocol,
    cases: Iterable[tuple[tuple[tuple[str, int], ...], Config, int]],
    measure: Callable[[Config], int | None],
    property_name: str,
    sizes: tuple[int, ...],
    budget: int,
) -> Verdict:
    """Explore each (input, initial configuration, expected value) case in
    order; the case fails at the first bottom-SCC configuration, scanning the
    SCCs in `bottom_sccs` order and each one sorted, whose `measure` differs
    from the expected value."""
    results = []
    for label, init, expected in cases:
        graph = reachable(protocol, init, budget)
        configs = graph.configs
        cex = None
        # `_bottom_ids` holds the members of each of `bottom_sccs` by id, in
        # scan order, so a counterexample's path is walked from its id;
        # `bottom_sccs` stays the call that perfbench counts per input
        scan = zip(bottom_sccs(graph), graph._bottom_ids)
        for i in (i for _, ids in scan for i in ids):
            actual = measure(configs[i])
            if actual != expected:
                cex = Counterexample(
                    config=configs[i],
                    path=graph._path(i),
                    expected=expected,
                    actual=actual,
                    property=property_name,
                )
                break
        results.append(
            InputResult(input=label, passed=cex is None, counterexample=cex)
        )
    return Verdict(
        passed=all(r.passed for r in results),
        per_input=tuple(results),
        sizes=sizes,
    )


def stably_computes(
    protocol: Protocol,
    predicate,
    sizes: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Exhaustively check every input multiset of the given sizes: pass iff
    every bottom-SCC configuration has defined output equal to the predicate."""
    expr = _as_predicate(predicate)
    if not protocol.input_alphabet or protocol.input_map is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no input map")
    if protocol.output_map is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no output map")
    unknown = predicate_symbols(expr) - set(protocol.input_alphabet)
    if unknown:
        raise ProtocolError(
            f"predicate symbol(s) not in input alphabet: {sorted(unknown)}"
        )
    sizes = _check_sizes(sizes)
    alphabet = tuple(protocol.input_alphabet)
    for sym in alphabet:
        if sym not in protocol.input_map:
            raise ProtocolError(f"unknown input symbol {sym!r}")
    targets = [protocol.input_map[sym] for sym in alphabet]
    blank = [0] * protocol.state_count

    def start(counts):
        init = blank.copy()
        for q, c in zip(targets, counts):
            init[q] += c
        return tuple(init)

    return _check_bottoms(
        protocol,
        (
            (label, start(counts), expected)
            for label, counts, expected in _input_cases(expr, alphabet, sizes)
        ),
        partial(output_of_config, protocol),
        "output",
        sizes,
        budget,
    )


@lru_cache(maxsize=16)
def _input_cases(
    expr: PredicateExpr, alphabet: tuple[str, ...], sizes: tuple[int, ...]
) -> tuple[tuple[tuple[tuple[str, int], ...], Config, int], ...]:
    """(input label, symbol counts, predicate value) for every input multiset
    of each size, in order.  Cached: a search checks many candidates against
    the same inputs."""
    cases = []
    for n in sizes:
        for counts in _compositions(n, len(alphabet)):
            label = tuple(zip(alphabet, counts))
            cases.append((label, counts, eval_predicate(expr, dict(label))))
    return tuple(cases)


def stable_leader(
    protocol: Protocol,
    leader_states: Iterable[str],
    sizes: Iterable[int],
    initial_states: Iterable[str] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Check that every allowed initial multiset with at least one leader
    drives every bottom-SCC configuration to exactly one leader."""
    leader_idx = {protocol.index(s) for s in leader_states}
    pool = tuple(initial_states) if initial_states is not None else protocol.states
    pool_idx = [protocol.index(s) for s in pool]
    repeated = [s for i, s in enumerate(pool) if s in pool[:i]]
    if repeated:
        raise ProtocolError(f"initial state {repeated[0]!r} is listed twice")
    sizes = _check_sizes(sizes)

    def cases():
        for n in sizes:
            for pool_counts in _compositions(n, len(pool)):
                init = [0] * protocol.state_count
                for i, c in zip(pool_idx, pool_counts):
                    init[i] += c
                if sum(init[i] for i in leader_idx) >= 1:
                    yield tuple(zip(pool, pool_counts)), tuple(init), 1

    return _check_bottoms(
        protocol,
        cases(),
        lambda config: sum(config[i] for i in leader_idx),
        "leader-count",
        sizes,
        budget,
    )


# ---------------------------------------------------------------------------
# exhaustive search for small Pavlovian protocols


def candidate_count(state_count: int, alphabet_size: int) -> int:
    k = state_count
    dynamics = k**k * (k * k) ** (k * (k - 1) // 2)
    return dynamics * k**alphabet_size * 2**k


def iter_search_pavlovian(
    state_count: int,
    predicate,
    sizes: Iterable[int],
    mode: str = EXACT,
    budget: int = DEFAULT_BUDGET,
    alphabet: Sequence[str] | None = None,
):
    """Yield (Protocol, Witness) for every symmetric deterministic protocol on
    `state_count` states that is Pavlovian and stably computes the predicate
    on the given sizes.  Findings are data about the checked sizes, nothing
    more.  The input alphabet defaults to the predicate's symbols.  One
    `budget` bounds both the candidate count and every exploration."""
    expr = _as_predicate(predicate)
    sizes = _check_sizes(sizes)
    if alphabet is None:
        alphabet = sorted(predicate_symbols(expr))
    alphabet = input_symbols(alphabet)
    if not alphabet:
        raise ProtocolError("empty input alphabet")
    k = state_count
    if k < 1:
        raise ProtocolError("state count must be >= 1")
    total = candidate_count(k, len(alphabet))
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate protocols exceed the budget of {budget}", budget
        )

    states = tuple(f"s{i}" for i in range(k))
    off_pairs = [(q, r) for q in range(k) for r in range(q + 1, k)]
    diag_choices = itertools.product(range(k), repeat=k)
    index = 0
    for diag in diag_choices:
        for off in itertools.product(
            itertools.product(range(k), repeat=2), repeat=len(off_pairs)
        ):
            # every ordered pair gets its one successor, so the table is total
            rules = {}
            for q in range(k):
                rules[(q, q)] = frozenset({(diag[q], diag[q])})
            for (q, r), (a, b) in zip(off_pairs, off):
                rules[(q, r)] = frozenset({(a, b)})
                rules[(r, q)] = frozenset({(b, a)})
            for iota in itertools.product(range(k), repeat=len(alphabet)):
                for omega in itertools.product((0, 1), repeat=k):
                    index += 1
                    protocol = Protocol(
                        name=f"search-{k}s-{index}",
                        states=states,
                        rules=dict(rules),
                        input_alphabet=alphabet,
                        input_map=dict(zip(alphabet, iota)),
                        output_map=tuple(omega),
                    )
                    found = check_pavlovian(protocol, mode)
                    if isinstance(found, NotPavlovian):
                        continue
                    verdict = stably_computes(protocol, expr, sizes, budget)
                    if verdict.passed:
                        yield protocol, found
