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
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .core import (
    Config,
    Protocol,
    ProtocolError,
    complete,
    config_to_dict,
    initial_config,
    output_of_config,
    strongly_connected_components,
    successors,
)
from .pavcheck import EXACT, NotPavlovian, Witness, check_pavlovian

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
        return LinearForm(
            coeffs=tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)),
            constant=constant,
        )


def _lin_sub(a: LinearForm, b: LinearForm) -> LinearForm:
    coeffs = dict(a.coeffs)
    for s, c in b.coeffs:
        coeffs[s] = coeffs.get(s, 0) - c
    return LinearForm(
        coeffs=tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)),
        constant=a.constant - b.constant,
    )


def parse_predicate(text: str) -> PredicateExpr:
    return _Parser(text).parse()


def predicate_symbols(expr: PredicateExpr) -> frozenset[str]:
    if isinstance(expr, (Comparison, Congruence)):
        return expr.lin.symbols()
    if isinstance(expr, Not):
        return predicate_symbols(expr.child)
    return predicate_symbols(expr.left) | predicate_symbols(expr.right)


def eval_predicate(
    expr: PredicateExpr, counts: Mapping[str, int], alphabet: Iterable[str] | None = None
) -> int:
    """0/1 value on an input multiset; symbols absent from `counts` count 0.
    With `alphabet` given, symbols outside it are rejected."""
    if alphabet is not None:
        unknown = predicate_symbols(expr) - set(alphabet)
        if unknown:
            raise ProtocolError(
                f"predicate symbol(s) not in input alphabet: {sorted(unknown)}"
            )
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


@dataclass
class ConfigGraph:
    """Successor-closed node set; `parents` is the BFS tree when rooted."""

    root: tuple | None
    nodes: dict[tuple, tuple[tuple, ...]]
    parents: dict[tuple, tuple | None]

    def path_to(self, node: tuple) -> tuple[tuple, ...]:
        path = [node]
        while self.parents.get(path[-1]) is not None:
            path.append(self.parents[path[-1]])
        return tuple(reversed(path))


def reachable(protocol: Protocol, init: Config, budget: int = DEFAULT_BUDGET) -> ConfigGraph:
    """Breadth-first closure of one initial configuration under single interactions."""
    init = tuple(init)
    if sum(init) < 2:
        raise ProtocolError("population must have at least 2 agents")
    nodes: dict[Config, tuple[Config, ...]] = {}
    parents: dict[Config, Config | None] = {init: None}
    queue = deque([init])
    while queue:
        node = queue.popleft()
        succ = tuple(sorted(successors(protocol, node)))
        nodes[node] = succ
        for nxt in succ:
            if nxt not in parents:
                if len(parents) >= budget:
                    raise BudgetExceeded(
                        f"reachable set exceeds {budget} configurations", budget
                    )
                parents[nxt] = node
                queue.append(nxt)
    return ConfigGraph(root=init, nodes=nodes, parents=parents)


def full_multiset_graph(protocol: Protocol, n: int, budget: int = DEFAULT_BUDGET) -> ConfigGraph:
    """One-interaction relation over all count vectors of population n."""
    configs = list(_compositions(n, protocol.state_count))
    if len(configs) > budget:
        raise BudgetExceeded(f"{len(configs)} configurations exceed {budget}", budget)
    nodes = {c: tuple(sorted(successors(protocol, c))) for c in configs}
    return ConfigGraph(root=None, nodes=nodes, parents={})


def full_vertex_graph(
    protocol: Protocol, graph, budget: int = DEFAULT_BUDGET
) -> ConfigGraph:
    """One-interaction relation over all per-vertex assignments of a graph."""
    k = protocol.state_count
    if k**graph.vertex_count > budget:
        raise BudgetExceeded(
            f"{k}^{graph.vertex_count} assignments exceed {budget}", budget
        )
    nodes: dict[tuple, tuple[tuple, ...]] = {}
    for assignment in itertools.product(range(k), repeat=graph.vertex_count):
        succ = set()
        for u, v in graph.edges:
            for x, y in ((u, v), (v, u)):
                for a, b in protocol.rules[(assignment[x], assignment[y])]:
                    nxt = list(assignment)
                    nxt[x] = a
                    nxt[y] = b
                    succ.add(tuple(nxt))
        nodes[assignment] = tuple(sorted(succ))
    return ConfigGraph(root=None, nodes=nodes, parents={})


def bottom_sccs(graph: ConfigGraph) -> list[frozenset]:
    """SCCs of the condensation with no outgoing arc, in deterministic order."""
    components = strongly_connected_components(graph.nodes)
    comp_of: dict[tuple, int] = {}
    for ci, comp in enumerate(components):
        for node in comp:
            comp_of[node] = ci
    bottoms = []
    for ci, comp in enumerate(components):
        if all(comp_of[w] == ci for v in comp for w in graph.nodes[v]):
            bottoms.append(frozenset(comp))
    bottoms.sort(key=lambda scc: min(scc))
    return bottoms


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
        cex = None
        for config in (c for scc in bottom_sccs(graph) for c in sorted(scc)):
            actual = measure(config)
            if actual != expected:
                cex = Counterexample(
                    config=config,
                    path=graph.path_to(config),
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
    alphabet = protocol.input_alphabet

    def cases():
        for n in sizes:
            for counts in _compositions(n, len(alphabet)):
                multiset = dict(zip(alphabet, counts))
                expected = eval_predicate(expr, multiset)
                init = initial_config(protocol, multiset)
                yield tuple(zip(alphabet, counts)), init, expected

    return _check_bottoms(
        protocol,
        cases(),
        lambda config: output_of_config(protocol, config),
        "output",
        sizes,
        budget,
    )


def leader_count(protocol: Protocol, config: Config, leader_states: Iterable[str]) -> int:
    indices = {protocol.index(s) for s in leader_states}
    return sum(config[i] for i in indices)


def stable_leader(
    protocol: Protocol,
    leader_states: Iterable[str],
    sizes: Iterable[int],
    initial_states: Iterable[str] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Check that every allowed initial multiset with at least one leader
    drives every bottom-SCC configuration to exactly one leader."""
    leader_states = tuple(leader_states)
    leader_idx = {protocol.index(s) for s in leader_states}
    pool = tuple(initial_states) if initial_states is not None else protocol.states
    pool_idx = [protocol.index(s) for s in pool]
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
        lambda config: leader_count(protocol, config, leader_states),
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
    node_budget: int = DEFAULT_BUDGET,
):
    """Yield (Protocol, Witness) for every symmetric deterministic protocol on
    `state_count` states that is Pavlovian and stably computes the predicate
    on the given sizes.  Findings are data about the checked sizes, nothing
    more.  The input alphabet defaults to the predicate's symbols."""
    expr = _as_predicate(predicate)
    sizes = _check_sizes(sizes)
    if alphabet is None:
        alphabet = tuple(sorted(predicate_symbols(expr)))
    else:
        alphabet = tuple(alphabet)
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
                        rules=complete(rules, k),
                        input_alphabet=alphabet,
                        input_map=dict(zip(alphabet, iota)),
                        output_map=tuple(omega),
                    )
                    found = check_pavlovian(protocol, mode)
                    if isinstance(found, NotPavlovian):
                        continue
                    verdict = stably_computes(protocol, expr, sizes, node_budget)
                    if verdict.passed:
                        yield protocol, found


def search_pavlovian(
    state_count: int,
    predicate,
    sizes: Iterable[int],
    mode: str = EXACT,
    budget: int = DEFAULT_BUDGET,
    alphabet: Sequence[str] | None = None,
    node_budget: int = DEFAULT_BUDGET,
) -> list[tuple[Protocol, Witness]]:
    return list(
        iter_search_pavlovian(
            state_count, predicate, sizes, mode, budget, alphabet, node_budget
        )
    )
