"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written from scratch against the
interaction semantics, without importing the package under test: expected
values produced here are compared against the package, never derived from it.
The one name taken from the package is `ProtocolError`, raised (and imported
only then) for a window below 1, as `run` raises it.

Contents:
  * an exact expected-absorption-time solver for the Pavlov prisoner's
    dilemma on a complete graph (Fraction arithmetic, Gaussian elimination);
  * a per-agent (tuple-based) execution semantics: successor sets, reachable
    graphs, and bottom SCCs over agent tuples, on the complete graph or over
    the oriented edges of an interaction graph, for cross-checking the
    package's anonymous count-vector semantics;
  * a plain-integer splitmix64 reference stream, and a per-step simulator
    that draws from it in the documented order, with the window stop rule
    also as a check on a recorded trace;
  * threshold win-stay/lose-shift derivation pair by pair, and the order
    comparisons a symmetric protocol places on a game, as plain variable
    pairs;
  * every symmetric deterministic rule table in the exhaustive search's
    order, and the one-line JSON record of a Pavlovian check's result that
    pinned digests are taken over.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

Pair = tuple[int, int]
RuleTable = dict[Pair, frozenset[Pair]]

MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Exact Markov-chain oracle for the Pavlov prisoner's dilemma.
#
# Rules: CC -> CC, CD -> DD, DC -> DD, DD -> CC.  On a complete graph the
# chain state is the number c of cooperators among n agents.  A step draws an
# ordered pair of distinct agents uniformly (n*(n-1) choices); identity
# interactions count as steps.  All-C is the unique absorbing state.
# ---------------------------------------------------------------------------


def pd_step_distribution(n: int, c: int) -> dict[int, Fraction]:
    """Map next cooperator-count -> probability, from c cooperators."""
    d = n - c
    total = n * (n - 1)
    dist: dict[int, Fraction] = {}

    def add(c_next: int, weight: int) -> None:
        if weight:
            dist[c_next] = dist.get(c_next, Fraction(0)) + Fraction(weight, total)

    add(c, c * (c - 1))  # CC -> CC
    add(c - 1, c * d)  # CD -> DD
    add(c - 1, d * c)  # DC -> DD
    add(c + 2, d * (d - 1))  # DD -> CC
    return dist


def pd_expected_steps(n: int, start_cooperators: int = 0) -> Fraction:
    """Exact expected number of drawn pairs until all-C, starting from the
    given cooperator count.  Solves E[c] = 1 + sum p(c->c') E[c'] exactly."""
    if n < 2:
        raise ValueError("need at least two agents")
    states = list(range(n + 1))
    # Row per transient state: E[c] - sum_{c'} p(c->c') E[c'] = 1, E[n] = 0.
    size = n  # transient states 0..n-1
    matrix = [[Fraction(0)] * size for _ in range(size)]
    rhs = [Fraction(1)] * size
    for c in states[:-1]:
        matrix[c][c] += 1
        for c_next, p in pd_step_distribution(n, c).items():
            if c_next < n:
                matrix[c][c_next] -= p
    solution = solve_linear(matrix, rhs)
    if start_cooperators == n:
        return Fraction(0)
    return solution[start_cooperators]


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over exact rationals."""
    size = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(size):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[r][size] for r in range(size)]


# ---------------------------------------------------------------------------
# Per-agent execution semantics.  Agents are array positions; a step picks an
# ordered pair of distinct positions and applies one successor of the rule
# for that ordered state pair.  This is the identity-respecting semantics the
# package's anonymous multiset semantics must agree with after projection.
# ---------------------------------------------------------------------------


def agent_successors(
    rules: RuleTable, agents: tuple[int, ...], pairs: list[Pair] | None = None
) -> set[tuple[int, ...]]:
    """One interaction over the ordered position pairs `pairs` (the oriented
    edges of an interaction graph), or over every ordered pair of distinct
    positions when `pairs` is None (the complete graph)."""
    if pairs is None:
        n = len(agents)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out: set[tuple[int, ...]] = set()
    for i, j in pairs:
        for a, b in rules[(agents[i], agents[j])]:
            nxt = list(agents)
            nxt[i] = a
            nxt[j] = b
            out.add(tuple(nxt))
    return out


def agent_reachable(
    rules: RuleTable, init: tuple[int, ...], pairs: list[Pair] | None = None
) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """BFS closure of the per-agent graph under `agent_successors` over
    `pairs`; adjacency as a dict of sets."""
    graph: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    frontier = [init]
    graph[init] = set()
    while frontier:
        node = frontier.pop()
        succs = agent_successors(rules, node, pairs)
        graph[node] = succs
        for s in succs:
            if s not in graph:
                graph[s] = set()
                frontier.append(s)
    return graph


def agent_full_graph(
    rules: RuleTable, state_count: int, n: int, pairs: list[Pair] | None = None
) -> dict[tuple[int, ...], set[tuple[int, ...]]]:
    """Every assignment of states to n positions with its successors over
    `pairs`: the union of `agent_reachable` over every start."""
    return {
        agents: agent_successors(rules, agents, pairs)
        for agents in itertools.product(range(state_count), repeat=n)
    }


def complete_edges(n: int) -> tuple[Pair, ...]:
    """The undirected edges (u, v), u < v, of the complete graph on n vertices."""
    return tuple(itertools.combinations(range(n), 2))


def oriented(edges) -> list[Pair]:
    """Both orientations of each undirected edge (u, v)."""
    return [pair for u, v in edges for pair in ((u, v), (v, u))]


def bottom_sccs_of(graph: dict) -> list[frozenset]:
    """Bottom SCCs of an adjacency-dict graph, iterative Tarjan."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    comp_of: dict = {}
    comps: list[list] = []
    counter = 0

    for root in graph:
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            advanced = False
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(graph[nxt]))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp_of[w] = len(comps)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    bottoms = []
    for cid, comp in enumerate(comps):
        if all(comp_of[s] == cid for node in comp for s in graph[node]):
            bottoms.append(frozenset(comp))
    return bottoms


def compositions(n: int, k: int):
    """All k-part count vectors summing to n."""
    if k == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, k - 1):
            yield (head, *rest)


def counts_of(agents: tuple[int, ...], state_count: int) -> tuple[int, ...]:
    counts = [0] * state_count
    for q in agents:
        counts[q] += 1
    return tuple(counts)


def project_bottoms(
    rules: RuleTable, init: tuple[int, ...], state_count: int
) -> set[frozenset[tuple[int, ...]]]:
    """Bottom SCCs of the per-agent graph, projected to count vectors.

    Distinct agent-level bottom SCCs related by permutations project to the
    same multiset-level component, so the result is a set."""
    graph = agent_reachable(rules, init)
    return {
        frozenset(counts_of(node, state_count) for node in comp)
        for comp in bottom_sccs_of(graph)
    }


# ---------------------------------------------------------------------------
# splitmix64 reference stream in plain Python integers.
# ---------------------------------------------------------------------------


def splitmix64_stream(seed: int, count: int) -> list[int]:
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


# ---------------------------------------------------------------------------
# Per-step reference simulator.  Draw order per interaction, each draw being
# the next splitmix64 value of the run's seed reduced modulo a range:
#   complete graph: initiator r % total over the agents listed in state order,
#     then responder r % (total - 1) over the agents that remain;
#   interaction graph: edge r % edges, then orientation r % 2 (the responder
#     is the edge's endpoint at that position, the initiator the other one);
#   then, only when the ordered state pair has more than one successor pair,
#   successor r % choices among the sorted successor pairs.
# Stop rules are checked before every step and before the step budget.
# Vertices start with the count vector spread in state order.
# ---------------------------------------------------------------------------


def config_output(output_map, counts) -> int | None:
    """The output bit shared by every agent present, else None."""
    if output_map is None:
        return None
    bits = {output_map[q] for q, c in enumerate(counts) if c}
    return bits.pop() if len(bits) == 1 else None


def stop_output_window(protocol, trace, window: int) -> bool:
    """The window stop rule read off a recorded trace: True iff the last
    `window` configurations all carry the same defined output."""
    if window < 1:
        from popgames.core import ProtocolError  # the error `run` raises too

        raise ProtocolError("window must be >= 1")
    if len(trace) < window:
        return False
    outputs = {config_output(protocol.output_map, c) for c in trace[-window:]}
    return len(outputs) == 1 and None not in outputs


def reference_run(
    rules: RuleTable,
    output_map,
    counts,
    seed: int,
    max_steps: int,
    stop=None,
    edges=None,
    record_trace: bool = False,
) -> dict:
    """One run with the fields of the package's RunResult.  `stop` is None,
    "silent", ("window", w) or ("target", count vector); `edges` switches
    from the complete graph to that interaction graph."""
    k = len(counts)
    counts = list(counts)
    vertices = [q for q in range(k) for _ in range(counts[q])]
    draws = iter(splitmix64_stream(seed, 3 * max_steps))
    trace = [tuple(counts)]

    def moves(q1, q2):
        return set(rules[(q1, q2)]) != {(q1, q2)}

    def stopped():
        if stop == "silent":
            if edges is not None:
                return not any(
                    moves(vertices[u], vertices[v]) or moves(vertices[v], vertices[u])
                    for u, v in edges
                )
            agents = [q for q in range(k) for _ in range(counts[q])]
            return not any(
                moves(agents[i], agents[j])
                for i in range(len(agents))
                for j in range(len(agents))
                if i != j
            )
        if stop is not None and stop[0] == "window":
            last = [config_output(output_map, c) for c in trace[-stop[1]:]]
            return len(last) == stop[1] and last[0] is not None and len(set(last)) == 1
        if stop is not None and stop[0] == "target":
            return tuple(counts) == tuple(stop[1])
        return False

    steps = 0
    while not stopped() and steps < max_steps:
        if edges is None:
            agents = [q for q in range(k) for _ in range(counts[q])]
            q1 = agents.pop(next(draws) % len(agents))
            q2 = agents[next(draws) % len(agents)]
        else:
            edge = edges[next(draws) % len(edges)]
            responder = next(draws) % 2
            u, v = edge[1 - responder], edge[responder]
            q1, q2 = vertices[u], vertices[v]
        succs = sorted(rules[(q1, q2)])
        a, b = succs[next(draws) % len(succs)] if len(succs) > 1 else succs[0]
        if edges is not None:
            vertices[u], vertices[v] = a, b
        counts[q1] -= 1
        counts[q2] -= 1
        counts[a] += 1
        counts[b] += 1
        steps += 1
        trace.append(tuple(counts))
    return {
        "steps": steps,
        "stabilized": stopped(),
        "final_config": tuple(counts),
        "output": config_output(output_map, counts),
        "final_states": None if edges is None else tuple(vertices),
        "trace": tuple(trace) if record_trace else None,
    }


# ---------------------------------------------------------------------------
# Games, read pair by pair.  payoff[x][y] is the row player's score for x
# against y.  An agent at q1 meeting q2 stays when payoff[q1][q2] reaches the
# threshold, and otherwise moves to the argmax of column q2 over the
# strategies other than q1.  Comparison variables are ("M", i, j) for
# payoff[i][j] and "delta" for the threshold.
# ---------------------------------------------------------------------------


def wsls_choices(payoff, threshold, q1: int, q2: int) -> list[int]:
    """The row agent's successor states on (q1, q2), ascending; empty when it
    loses and has no other strategy to move to."""
    if payoff[q1][q2] >= threshold:
        return [q1]
    others = [x for x in range(len(payoff)) if x != q1]
    if not others:
        return []
    best = max(payoff[x][q2] for x in others)
    return [x for x in others if payoff[x][q2] == best]


def wsls_rules(payoff, threshold, lowest_index: bool) -> RuleTable | None:
    """Every ordered pair's joint successor set, the product of the two
    agents' choices (each cut to its lowest index with `lowest_index`), or
    None when some losing agent has nowhere to go."""
    k = len(payoff)
    choices = {}
    for q1 in range(k):
        for q2 in range(k):
            choice = wsls_choices(payoff, threshold, q1, q2)
            if not choice:
                return None
            choices[(q1, q2)] = choice[:1] if lowest_index else choice
    return {
        (q1, q2): frozenset(
            (a, b) for a in choices[(q1, q2)] for b in choices[(q2, q1)]
        )
        for q1 in range(k)
        for q2 in range(k)
    }


def comparison_system(rules: RuleTable, k: int, exact: bool) -> tuple[set, set]:
    """The (nonstrict, strict) comparisons a symmetric protocol places on a
    k-strategy game, as (u, v) variable pairs for u <= v and u < v.  For each
    ordered pair (q1, q2) with first-agent successor set S:
      - S = {q1}: M[q1][q2] >= delta;
      - q1 in S with other states: M[q1][q2] >= delta and M[q1][q2] < delta;
      - q1 not in S: M[q1][q2] < delta, M[z][q2] <= M[s][q2] for each s in S
        and z not in {q1, s}, and in exact mode M[z][q2] < M[s][q2] for each
        s in S and z outside S and != q1."""
    nonstrict, strict = set(), set()
    for q1 in range(k):
        for q2 in range(k):
            m = ("M", q1, q2)
            firsts = {a for a, _ in rules[(q1, q2)]}
            if q1 in firsts:
                nonstrict.add(("delta", m))
                if len(firsts) > 1:
                    strict.add((m, "delta"))
                continue
            strict.add((m, "delta"))
            for s in firsts:
                for z in range(k):
                    if z not in (q1, s):
                        nonstrict.add((("M", z, q2), ("M", s, q2)))
                    if exact and z != q1 and z not in firsts:
                        strict.add((("M", z, q2), ("M", s, q2)))
    return nonstrict, strict


# ---------------------------------------------------------------------------
# The search's dynamics and the records of their Pavlovian checks.


def symmetric_tables(k: int):
    """Every symmetric deterministic k-state rule table, in the search's
    (diagonal, off-diagonal) enumeration order."""
    off_pairs = [(q, r) for q in range(k) for r in range(q + 1, k)]
    for diag in itertools.product(range(k), repeat=k):
        for off in itertools.product(
            itertools.product(range(k), repeat=2), repeat=len(off_pairs)
        ):
            rules = {(q, q): frozenset({(d, d)}) for q, d in enumerate(diag)}
            for (q, r), (a, b) in zip(off_pairs, off):
                rules[(q, r)] = frozenset({(a, b)})
                rules[(r, q)] = frozenset({(b, a)})
            yield rules


def pavcheck_record(result) -> str:
    """One JSON line for a Pavlovian check's result: the witness's matrix
    and threshold, or the refusal's reason with its certificate's cycle and
    strict steps."""
    if hasattr(result, "matrix"):
        return json.dumps({"matrix": result.matrix, "threshold": result.threshold})
    cert = result.certificate
    return json.dumps({
        "reason": result.reason,
        "cycle": None if cert is None else cert.cycle,
        "strict": None if cert is None else cert.strict_steps,
    })
