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

A number is a run of decimal digits and `==` is read as `=`.  The reader cuts
the text into tokens with one regular expression and parses them by
recursive descent; it refuses bad text with a PredicateError that gives the
position of the first token it cannot read.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from types import MappingProxyType

from .core import (
    BudgetExceeded,
    Config,
    Protocol,
    ProtocolError,
    _RuleTable,
    _checked_config,
    _checked_int,
    _output_of_counts,
    config_to_dict,
    input_symbols,
    strongly_connected_components,
    successors,
)
from .pavcheck import EXACT, NotPavlovian, check_pavlovian

DEFAULT_BUDGET = 500_000


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

# A run of decimal digits (what `int` reads), a word, an operator, or any other
# non-space character.  A word may start with a numeric that is not a decimal
# digit, such as '²', which is then refused as an unknown word.
_TOKEN = re.compile(
    r"(?P<num>\d+)|(?P<word>[^\W\d]\w*)|(?P<op>&&|\|\||[<>=]=|[-+*!()<>=])|(?P<bad>\S)"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, position) triples, the last one ("end", "", len(text)).

    An operator is its own kind and value, with "==" read as "="; a count
    n_<symbol> is kind "name" with the symbol as its value; the other kinds
    are "num" and "mod".  Unknown words and characters, and numbers with more
    digits than `int` reads, raise PredicateError.
    """
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, at = match.lastgroup, match.group(), match.start()
        if kind == "op":
            kind = value = "=" if value == "==" else value
        elif kind == "bad":
            raise PredicateError(f"unexpected character {value!r}", at)
        elif kind == "num" and 0 < sys.get_int_max_str_digits() < len(value):
            raise PredicateError(f"number of {len(value)} digits is too long", at)
        elif value == "mod":
            kind = "mod"
        elif kind == "word":
            if not value.startswith("n_") or value == "n_":
                raise PredicateError(
                    f"unknown word {value!r} (counts are written n_<symbol>)", at
                )
            kind, value = "name", value[2:]
        tokens.append((kind, value, at))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one predicate: `||` binds
    loosest, then `&&`, then `!`; an atom compares two linear forms or
    states a congruence."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def accept(self, *kinds: str) -> tuple[str, str, int] | None:
        """Take the next token if it is of one of `kinds`, else None."""
        token = self.tokens[self.pos]
        if token[0] not in kinds:
            return None
        self.pos += 1
        return token

    def expect(self, what: str, *kinds: str) -> tuple[str, str, int]:
        """Take the next token, which must be of one of `kinds`; else
        PredicateError "expected <what>" at the token found."""
        token = self.accept(*kinds)
        if token is None:
            _, value, at = self.tokens[self.pos]
            raise PredicateError(f"expected {what}, found {value or 'end'!r}", at)
        return token

    def parse(self) -> PredicateExpr:
        expr = self.binary("||")
        kind, value, at = self.tokens[self.pos]
        if kind != "end":
            raise PredicateError(f"trailing input starting with {value!r}", at)
        return expr

    def binary(self, op: str) -> PredicateExpr:
        """Operands joined by `op`, grouped to the left: the operands of
        `||` are `&&` chains, and those of `&&` are unary predicates."""
        node, operand = (Or, partial(self.binary, "&&")) if op == "||" else (And, self.unary)
        left = operand()
        while self.accept(op):
            left = node(left, operand())
        return left

    def unary(self) -> PredicateExpr:
        if self.accept("!"):
            return Not(self.unary())
        if self.accept("("):
            inner = self.binary("||")
            self.expect("')'", ")")
            return inner
        lhs = self.linear()
        kind, _, at = self.expect("a comparison", "mod", "<", "<=", "=", ">=", ">")
        if kind != "mod":
            return Comparison(_lin_sub(lhs, self.linear()), kind)
        modulus = self.integer()
        if modulus < 2:
            raise PredicateError(f"modulus must be >= 2, got {modulus}", at)
        self.expect("'='", "=")
        return Congruence(lhs, modulus, self.integer() % modulus)

    def signed(self, what: str, *kinds: str) -> tuple[int, tuple[str, str, int]]:
        """One optional '+' or '-', then a token of one of `kinds`:
        (the sign as 1 or -1, the token)."""
        sign = self.accept("+", "-")
        return (-1 if sign and sign[0] == "-" else 1), self.expect(what, *kinds)

    def integer(self) -> int:
        sign, (_, digits, _) = self.signed("an integer", "num")
        return sign * int(digits)

    def linear(self) -> LinearForm:
        """Signed terms c, n_x and c*n_x, joined by '+' and '-'."""
        coeffs: dict[str, int] = {}
        constant = 0
        while True:
            sign, (kind, value, _) = self.signed("a term", "num", "name")
            if kind == "name":
                coeffs[value] = coeffs.get(value, 0) + sign
            elif self.accept("*"):
                symbol = self.expect("n_<symbol> after '*'", "name")[1]
                coeffs[symbol] = coeffs.get(symbol, 0) + sign * int(value)
            else:
                constant += sign * int(value)
            if self.tokens[self.pos][0] not in ("+", "-"):
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
    """The configurations reachable from one root, numbered 0..n-1 in BFS
    order, as a read-only value.

    The root is id 0.  `succ[i]` lists the ids of the successors of
    `configs[i]`, sorted by configuration, and `parent` holds the BFS tree
    (-1 at the root).  Fields cannot be reassigned and hold tuples, so one
    graph may be handed to many callers: `reachable` returns the same graph
    again for the same dynamics and start.  The `nodes` view and the bottom
    SCCs are computed once, on first use.

    A graph also keeps, per (measure key, expected value), its first bottom
    violation (`_violations`): the read-only Counterexample that
    `_first_violation` gives, or None.  A verdict that meets the graph again
    with the same measure and expected value, as the search's attachments
    with one output map do, reads that answer instead of scanning again.
    """

    configs: tuple[Config, ...]
    succ: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]

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

    @cached_property
    def _violations(self) -> dict:
        """`_first_violation(key, expected)` by (key, expected), as
        `_check_bottoms` fills it.  Two threads that meet an unchecked pair
        at once each scan and store the same answer."""
        return {}

    def _first_violation(self, key: tuple, expected: int) -> Counterexample | None:
        """The Counterexample at the first bottom-SCC configuration, scanning
        the SCCs in `bottom_sccs` order and each one sorted, whose measure
        `key` (see `_measure`) is not `expected`; None if there is none."""
        measure = _measure(key)
        configs = self.configs
        for ids in self._bottom_ids:
            for i in ids:
                actual = measure(configs[i])
                if actual != expected:
                    return Counterexample(configs[i], self._path(i), expected, actual, key[0])
        return None

    def _path(self, i: int) -> tuple[tuple, ...]:
        """The BFS-tree path from the root to configuration id `i`."""
        configs, parent = self.configs, self.parent
        path = []
        while i >= 0:
            path.append(configs[i])
            i = parent[i]
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


def reachable(protocol: Protocol, init: Config, budget: int = DEFAULT_BUDGET) -> ConfigGraph:
    """Breadth-first closure of one initial configuration under single
    interactions, each configuration numbered as it is first reached;
    BudgetExceeded when it has more than `budget` configurations, the root
    included.

    The graph depends only on the move table and the start, so the graphs of
    the last move table explored are kept (at most EXPLORED_CAP
    configurations): exploring it again from a start it was explored from
    returns the same graph, whatever input and output maps the protocol has.
    """
    global _explored
    budget = _checked_int(budget, "budget")
    init = _checked_config(protocol, init)
    moves = protocol.moves
    memo = _explored
    if memo.moves is not moves and memo.moves != moves:
        memo = _explored = _Explored(moves)
    graph = memo.graphs.get(init)
    if graph is None:
        configs, ids, parent, succ = [init], {init: 0}, [-1], []
        for i, node in enumerate(configs):  # visits the configurations appended below
            if len(configs) > budget:  # so each one is counted before the next is explored
                break
            out = []
            for nxt in sorted(successors(protocol, node)):
                j = ids.get(nxt)
                if j is None:
                    j = ids[nxt] = len(configs)
                    configs.append(nxt)
                    parent.append(i)
                out.append(j)
            succ.append(tuple(out))
        else:
            graph = ConfigGraph(tuple(configs), tuple(succ), tuple(parent))
            with _explored_lock:
                if memo.held + len(configs) <= EXPLORED_CAP:
                    memo.held += len(configs)
                    memo.graphs[init] = graph
    if graph is None or len(graph.configs) > budget:
        raise BudgetExceeded(f"reachable set exceeds {budget} configurations", budget)
    return graph


def bottom_sccs(graph: ConfigGraph) -> list[frozenset]:
    """SCCs of the condensation with no outgoing arc, in deterministic order;
    a new list on every call."""
    return list(graph._bottom_sccs)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Verdict:
    """Per-input pass/fail over the verified sizes; holds for those sizes only."""

    passed: bool
    per_input: tuple[InputResult, ...]
    sizes: tuple[int, ...]

    def as_dict(self, protocol: Protocol) -> dict:
        return {
            "passed": self.passed,
            "sizes": list(self.sizes),
            "note": "exhaustive over the listed population sizes only",
            "inputs": [r.as_dict(protocol) for r in self.per_input],
        }


def _starts(names: Sequence[str], targets: Sequence[int], sizes: Iterable[int], state_count: int):
    """(label, initial configuration) for every multiset of `names` of each
    size, counts in lexicographic order; name i's agents start in state
    `targets[i]`, and the label pairs each name with its count."""
    k = len(names)
    for n in sizes:
        # the k - 1 bars among n + k - 1 slots cut n agents into k counts
        for bars in itertools.combinations(range(n + k - 1), k - 1):
            counts = [b - a - 1 for a, b in zip((-1, *bars), (*bars, n + k - 1))]
            init = [0] * state_count
            for q, c in zip(targets, counts):
                init[q] += c
            yield tuple(zip(names, counts)), tuple(init)


def _check_sizes(sizes: Iterable[int]) -> tuple[int, ...]:
    """The population sizes as Python ints (by `operator.index`), at least
    one, none below 2 and none repeated; else ProtocolError."""
    checked: dict[int, None] = {}
    for size in sizes:
        try:
            n = operator.index(size)
        except TypeError:
            raise ProtocolError(f"population size {size!r} is not an integer") from None
        if n in checked:
            raise ProtocolError(f"population size {n} is listed twice")
        checked[n] = None
    if not checked:
        raise ProtocolError("empty size range")
    if min(checked) < 2:
        raise ProtocolError("population sizes must be >= 2")
    return tuple(checked)


def _as_predicate(predicate) -> PredicateExpr:
    return parse_predicate(predicate) if isinstance(predicate, str) else predicate


def _measure(key: tuple) -> Callable[[Config], int | None]:
    """The per-configuration measure that `key` names, and that a verdict's
    counterexample names by `key[0]`: ("output", bits) is a configuration's
    output under the output bits `bits`; ("leader-count", ids) counts its
    agents in the states `ids`."""
    kind, arg = key
    if kind == "output":
        return partial(_output_of_counts, arg)
    return lambda config: sum(config[i] for i in arg)


_UNCHECKED = object()


def _check_bottoms(
    protocol: Protocol,
    cases: Iterable[tuple[tuple[tuple[str, int], ...], Config, int, InputResult]],
    key: tuple,
    sizes: tuple[int, ...],
    budget: int,
) -> Verdict:
    """Explore each (input, initial configuration, expected value, passing
    result) case in order; the case fails with its graph's first violation
    of the measure `key` (`ConfigGraph._first_violation`), and otherwise
    gives its passing result, a read-only value that verdicts may share.

    Each graph keeps its first violation per (key, expected value), so an
    input costs its `reachable` call (the argument checks and, for a graph
    explored before, one memo lookup), one lookup of that answer and, when
    it fails, its InputResult; the bottom-SCC scan and the Counterexample
    with its BFS path are paid once per (graph, key, expected value).  That
    helps when one graph is checked again with the same measure: the
    search's attachments with one output map share their graphs through
    the `reachable` memo.  A graph explored afresh pays one dictionary
    store more.  `bottom_sccs` adds only its call per input: it stays the
    public call that perfbench counts per input.
    """
    results = []
    passed = True
    for label, init, expected, passing in cases:
        graph = reachable(protocol, init, budget)
        bottom_sccs(graph)
        answers = graph._violations
        cex = answers.get((key, expected), _UNCHECKED)
        if cex is _UNCHECKED:
            cex = answers[key, expected] = graph._first_violation(key, expected)
        if cex is None:
            results.append(passing)
        else:
            passed = False
            results.append(InputResult(label, False, cex))
    return Verdict(passed, tuple(results), sizes)


def stably_computes(
    protocol: Protocol,
    predicate,
    sizes: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Exhaustively check every input multiset of the given sizes: pass iff
    every bottom-SCC configuration has defined output equal to the predicate.

    The inputs, their initial configurations, the predicate's values and
    the passing results are built once per input map and kept
    (`_start_cases`), so an input costs what `_check_bottoms` says: its
    exploration lookup, one lookup of its graph's answer for this output
    map and, when it fails, its result.
    """
    expr = _as_predicate(predicate)
    if not protocol.input_alphabet:
        raise ProtocolError(f"protocol {protocol.name!r} has no input map")
    unknown = predicate_symbols(expr) - set(protocol.input_alphabet)
    if unknown:
        raise ProtocolError(
            f"predicate symbol(s) not in input alphabet: {sorted(unknown)}"
        )
    if protocol.output_map is None:
        raise ProtocolError(f"protocol {protocol.name!r} has no output map")
    sizes = _check_sizes(sizes)
    alphabet = tuple(protocol.input_alphabet)
    targets = tuple(protocol.input_map[sym] for sym in alphabet)
    return _check_bottoms(
        protocol,
        _start_cases(expr, alphabet, sizes, targets, protocol.state_count),
        ("output", protocol.output_map),
        sizes,
        budget,
    )


@lru_cache(maxsize=64)
def _start_cases(
    expr: PredicateExpr,
    alphabet: tuple[str, ...],
    sizes: tuple[int, ...],
    targets: tuple[int, ...],
    state_count: int,
) -> tuple[tuple[tuple[tuple[str, int], ...], Config, int, InputResult], ...]:
    """(input label, initial configuration, predicate value, passing result)
    for every input multiset of each size, in order: symbol i's agents start
    in state `targets[i]`, and every verdict on the input shares its passing
    result.  Cached per input map: a search attaches each of its
    k^|alphabet| input maps to every dynamics in turn, 27 for k = 3 states
    over 3 symbols, which 64 entries hold without cycling."""
    return tuple(
        (label, init, eval_predicate(expr, dict(label)), InputResult(label, True, None))
        for label, init in _starts(alphabet, targets, sizes, state_count)
    )


def stable_leader(
    protocol: Protocol,
    leader_states: Iterable[str],
    sizes: Iterable[int],
    initial_states: Iterable[str] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Check that every allowed initial multiset with at least one leader
    drives every bottom-SCC configuration to exactly one leader; with no
    leader among the allowed initial states, ProtocolError."""
    leader_idx = {protocol.index(s) for s in leader_states}
    pool = tuple(initial_states) if initial_states is not None else protocol.states
    pool_idx = [protocol.index(s) for s in pool]
    repeated = [s for i, s in enumerate(pool) if s in pool[:i]]
    if repeated:
        raise ProtocolError(f"initial state {repeated[0]!r} is listed twice")
    if leader_idx.isdisjoint(pool_idx):
        raise ProtocolError(f"no start has a leader: none of {list(pool)} is a leader")
    sizes = _check_sizes(sizes)

    cases = (
        (label, init, 1, InputResult(label, True, None))
        for label, init in _starts(pool, pool_idx, sizes, protocol.state_count)
        if any(init[i] for i in leader_idx)
    )
    return _check_bottoms(
        protocol, cases, ("leader-count", tuple(sorted(leader_idx))), sizes, budget
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
    budget = _checked_int(budget, "budget")
    if alphabet is None:
        alphabet = sorted(predicate_symbols(expr))
    alphabet = input_symbols(alphabet)
    if not alphabet:
        raise ProtocolError("empty input alphabet")
    k = _checked_int(state_count, "state count", 1)
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
            # checked once here, then shared by every attachment
            table = _RuleTable._checked(rules, k)
            for iota in itertools.product(range(k), repeat=len(alphabet)):
                for omega in itertools.product((0, 1), repeat=k):
                    index += 1
                    protocol = Protocol(
                        name=f"search-{k}s-{index}",
                        states=states,
                        rules=table,
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
