"""Line-oriented text formats for protocols, games, and interaction graphs.

Protocol files:

    protocol or
    states 0 1
    inputs 0=0 1=1
    outputs 0=0 1=1
    rule 0 1 -> 1 1
    rule 1 0 -> 1 1

Game files:

    game pd
    strategies C D
    row C: 3 0
    row D: 5 1
    threshold 2

Graph files:

    vertices 4
    edge 0 1
    edge 1 2

Tokens are whitespace-separated; `#` starts a comment.  Repeated rule lines
for one ordered pair accumulate into a successor set.  Payoffs and thresholds
are exact rationals written as integers, decimals, or `p/q`.  Parsing and
printing round-trip: parse(print(x)) == x.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Protocol, ProtocolError, make_protocol
from .games import Game, make_game


class FormatError(ValueError):
    """Parse failure with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _logical_lines(text: str):
    """Yield (line_number, tokens, columns) for non-blank, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens: list[str] = []
        columns: list[int] = []
        col = 0
        for tok in body.split():
            col = body.index(tok, col)
            tokens.append(tok)
            columns.append(col + 1)
            col += len(tok)
        if tokens:
            yield lineno, tokens, columns


def _split_binding(token: str, lineno: int, column: int, what: str) -> tuple[str, str]:
    left, sep, right = token.partition("=")
    if not sep or not left or not right:
        raise FormatError(f"expected {what} as <left>=<right>, got {token!r}", lineno, column)
    return left, right


def parse_rational(token: str, lineno: int = 1, column: int = 1) -> Fraction:
    """Integers, exact decimals, and p/q all go through Fraction unchanged."""
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"not a rational number: {token!r}", lineno, column) from None


# ---------------------------------------------------------------------------
# protocol files


def parse_protocol(text: str) -> Protocol:
    name: str | None = None
    states: tuple[str, ...] | None = None
    # (left, right, (line, column)) per binding, checked once states are known
    input_pairs: list[tuple[str, str, tuple[int, int]]] = []
    output_pairs: list[tuple[str, str, tuple[int, int]]] = []
    rules: list[tuple[str, str, str, str]] = []

    for lineno, tokens, columns in _logical_lines(text):
        keyword = tokens[0]
        if keyword == "protocol":
            if name is not None:
                raise FormatError("duplicate protocol line", lineno, columns[0])
            if len(tokens) != 2:
                raise FormatError("expected: protocol <name>", lineno, columns[0])
            name = tokens[1]
        elif keyword == "states":
            if states is not None:
                raise FormatError("duplicate states line", lineno, columns[0])
            if len(tokens) < 2:
                raise FormatError("expected: states <name>+", lineno, columns[0])
            states = tuple(tokens[1:])
            if len(set(states)) != len(states):
                raise FormatError("duplicate state name", lineno, columns[1])
        elif keyword in ("inputs", "outputs"):
            pairs = input_pairs if keyword == "inputs" else output_pairs
            what = keyword[:-1] + " binding"
            for tok, col in zip(tokens[1:], columns[1:]):
                pairs.append((*_split_binding(tok, lineno, col, what), (lineno, col)))
        elif keyword == "rule":
            if len(tokens) != 6 or tokens[3] != "->":
                raise FormatError(
                    "expected: rule <q1> <q2> -> <q1'> <q2'>", lineno, columns[0]
                )
            if states is None:
                raise FormatError("rule before states line", lineno, columns[0])
            for tok, col in zip(tokens[1:3] + tokens[4:6], columns[1:3] + columns[4:6]):
                if tok not in states:
                    raise FormatError(f"unknown state {tok!r}", lineno, col)
            rules.append((tokens[1], tokens[2], tokens[4], tokens[5]))
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno, columns[0])

    if name is None:
        raise FormatError("missing protocol line", 1)
    if states is None:
        raise FormatError("missing states line", 1)

    outputs: dict[str, int] = {}
    for state, bit, place in output_pairs:
        if state not in states:
            raise FormatError(f"output for unknown state {state!r}", *place)
        if bit not in ("0", "1"):
            raise FormatError(f"output must be 0 or 1, got {bit!r}", *place)
        if state in outputs:
            raise FormatError(f"duplicate output for state {state!r}", *place)
        outputs[state] = int(bit)

    inputs: dict[str, str] = {}
    for symbol, state, place in input_pairs:
        if state not in states:
            raise FormatError(f"input bound to unknown state {state!r}", *place)
        if symbol in inputs:
            raise FormatError(f"duplicate input symbol {symbol!r}", *place)
        inputs[symbol] = state

    try:
        return make_protocol(
            name,
            states,
            rules,
            inputs=inputs or None,
            outputs=outputs or None,
        )
    except ProtocolError as exc:
        raise FormatError(str(exc), 1) from exc


def print_protocol(protocol: Protocol) -> str:
    """Canonical text: identity-only pairs are omitted, everything else is
    written in full (including identity members of mixed successor sets)."""
    lines = [f"protocol {protocol.name}", "states " + " ".join(protocol.states)]
    if protocol.input_alphabet:
        bindings = " ".join(
            f"{sym}={protocol.states[protocol.input_map[sym]]}"
            for sym in protocol.input_alphabet
        )
        lines.append(f"inputs {bindings}")
    if protocol.output_map is not None:
        bindings = " ".join(
            f"{state}={protocol.output_map[i]}"
            for i, state in enumerate(protocol.states)
        )
        lines.append(f"outputs {bindings}")
    names = protocol.states
    for q1 in range(len(names)):
        for q2 in range(len(names)):
            succs = protocol.rules[(q1, q2)]
            if succs == frozenset({(q1, q2)}):
                continue
            for a, b in sorted(succs):
                lines.append(f"rule {names[q1]} {names[q2]} -> {names[a]} {names[b]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# game files


def parse_game(text: str) -> Game:
    name: str | None = None
    strategies: tuple[str, ...] | None = None
    rows: dict[str, tuple[Fraction, ...]] = {}
    threshold: Fraction | None = None

    for lineno, tokens, columns in _logical_lines(text):
        keyword = tokens[0]
        if keyword == "game":
            if name is not None:
                raise FormatError("duplicate game line", lineno, columns[0])
            if len(tokens) != 2:
                raise FormatError("expected: game <name>", lineno, columns[0])
            name = tokens[1]
        elif keyword == "strategies":
            if strategies is not None:
                raise FormatError("duplicate strategies line", lineno, columns[0])
            if len(tokens) < 2:
                raise FormatError("expected: strategies <name>+", lineno, columns[0])
            strategies = tuple(tokens[1:])
            if len(set(strategies)) != len(strategies):
                raise FormatError("duplicate strategy name", lineno, columns[1])
        elif keyword == "row":
            if strategies is None:
                raise FormatError("row before strategies line", lineno, columns[0])
            if len(tokens) < 3 or not tokens[1].endswith(":"):
                raise FormatError(
                    "expected: row <strategy>: <rational>+", lineno, columns[0]
                )
            label = tokens[1][:-1]
            if label not in strategies:
                raise FormatError(f"unknown strategy {label!r}", lineno, columns[1])
            if label in rows:
                raise FormatError(f"duplicate row {label!r}", lineno, columns[1])
            entries = tokens[2:]
            if len(entries) != len(strategies):
                raise FormatError(
                    f"row {label!r} has {len(entries)} entries, expected {len(strategies)}",
                    lineno,
                    columns[0],
                )
            rows[label] = tuple(
                parse_rational(tok, lineno, col)
                for tok, col in zip(entries, columns[2:])
            )
        elif keyword == "threshold":
            if threshold is not None:
                raise FormatError("duplicate threshold line", lineno, columns[0])
            if len(tokens) != 2:
                raise FormatError("expected: threshold <rational>", lineno, columns[0])
            threshold = parse_rational(tokens[1], lineno, columns[1])
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno, columns[0])

    if name is None:
        raise FormatError("missing game line", 1)
    if strategies is None:
        raise FormatError("missing strategies line", 1)
    if threshold is None:
        raise FormatError("missing threshold line", 1)
    missing = [s for s in strategies if s not in rows]
    if missing:
        raise FormatError(f"missing row for strategy {missing[0]!r}", 1)

    return make_game(name, strategies, tuple(rows[s] for s in strategies), threshold)


def print_game(game: Game) -> str:
    lines = [f"game {game.name}", "strategies " + " ".join(game.strategies)]
    for i, strategy in enumerate(game.strategies):
        lines.append(f"row {strategy}: " + " ".join(map(str, game.payoff[i])))
    lines.append(f"threshold {game.threshold}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph files


def parse_graph_file(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Returns (vertex_count, edges); validation is the InteractionGraph's job."""
    vertex_count: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, tokens, columns in _logical_lines(text):
        keyword = tokens[0]
        if keyword == "vertices":
            if vertex_count is not None:
                raise FormatError("duplicate vertices line", lineno, columns[0])
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise FormatError("expected: vertices <count>", lineno, columns[0])
            vertex_count = int(tokens[1])
        elif keyword == "edge":
            if len(tokens) != 3 or not (tokens[1].isdigit() and tokens[2].isdigit()):
                raise FormatError("expected: edge <u> <v>", lineno, columns[0])
            edges.append((int(tokens[1]), int(tokens[2])))
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno, columns[0])
    if vertex_count is None:
        raise FormatError("missing vertices line", 1)
    return vertex_count, edges
