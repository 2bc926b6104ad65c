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

`fractions` and `popgames.games` load only when a rational or a game file is
read, so a program that reads only protocol and graph files loads neither.
"""

from __future__ import annotations

from functools import partial

from .core import Protocol, ProtocolError, attach_io, check_name, make_protocol


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


def _check_token(token: str, what: str, lineno: int, column: int) -> None:
    """`core.check_name` on a name token, refusing it at its place."""
    try:
        check_name(token, what)
    except ProtocolError as exc:
        raise FormatError(str(exc), lineno, column) from None


def parse_rational(token: str, lineno: int = 1, column: int = 1) -> Fraction:
    """Integers, exact decimals, and p/q all go through Fraction unchanged."""
    from fractions import Fraction

    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"not a rational number: {token!r}", lineno, column) from None


def _read_lines(text: str, once: dict, repeated: dict) -> dict:
    """Call the reader of each line's keyword as reader(found, lineno,
    tokens, columns), and return `found`, each `once` keyword's result so
    far.  A keyword of `once` must appear exactly once, a missing one
    reported in the order of `once`; one of `repeated` any number of times,
    its result dropped."""
    found: dict = {}
    for lineno, tokens, columns in _logical_lines(text):
        keyword = tokens[0]
        if keyword in once:
            if keyword in found:
                raise FormatError(f"duplicate {keyword} line", lineno, columns[0])
            found[keyword] = once[keyword](found, lineno, tokens, columns)
        elif keyword in repeated:
            repeated[keyword](found, lineno, tokens, columns)
        else:
            raise FormatError(f"unknown keyword {keyword!r}", lineno, columns[0])
    for keyword in once:
        if keyword not in found:
            raise FormatError(f"missing {keyword} line", 1)
    return found


def _name_line(found, lineno: int, tokens: list[str], columns: list[int]) -> str:
    """`protocol <name>` or `game <name>`: the name."""
    if len(tokens) != 2:
        raise FormatError(f"expected: {tokens[0]} <name>", lineno, columns[0])
    return tokens[1]


def _names_line(
    what: str, found, lineno: int, tokens: list[str], columns: list[int]
) -> tuple[str, ...]:
    """`states <name>+` or `strategies <name>+`: the names, none repeated and
    each a `what` that `core.check_name` accepts."""
    if len(tokens) < 2:
        raise FormatError(f"expected: {tokens[0]} <name>+", lineno, columns[0])
    names = tuple(tokens[1:])
    if len(set(names)) != len(names):
        raise FormatError(f"duplicate {what}", lineno, columns[1])
    for tok, col in zip(tokens[1:], columns[1:]):
        _check_token(tok, what, lineno, col)
    return names


# ---------------------------------------------------------------------------
# protocol files


def parse_protocol(text: str) -> Protocol:
    # (left, right, (line, column)) per binding, checked once states are known
    input_pairs: list[tuple[str, str, tuple[int, int]]] = []
    output_pairs: list[tuple[str, str, tuple[int, int]]] = []
    outputs_at: list[tuple[int, int]] = []  # the place of each outputs line
    rules: list[tuple[str, str, str, str]] = []

    def bindings(pairs, what, found, lineno, tokens, columns):
        for tok, col in zip(tokens[1:], columns[1:]):
            pairs.append((*_split_binding(tok, lineno, col, what), (lineno, col)))

    def outputs_line(found, lineno, tokens, columns):
        outputs_at.append((lineno, columns[0]))
        bindings(output_pairs, "output binding", found, lineno, tokens, columns)

    def rule_line(found, lineno, tokens, columns):
        if len(tokens) != 6 or tokens[3] != "->":
            raise FormatError("expected: rule <q1> <q2> -> <q1'> <q2'>", lineno, columns[0])
        states = found.get("states")
        if states is None:
            raise FormatError("rule before states line", lineno, columns[0])
        for tok, col in zip(tokens[1:3] + tokens[4:6], columns[1:3] + columns[4:6]):
            if tok not in states:
                raise FormatError(f"unknown state {tok!r}", lineno, col)
        rules.append((tokens[1], tokens[2], tokens[4], tokens[5]))

    found = _read_lines(
        text,
        {"protocol": _name_line, "states": partial(_names_line, "state name")},
        {
            "inputs": partial(bindings, input_pairs, "input binding"),
            "outputs": outputs_line,
            "rule": rule_line,
        },
    )
    name, states = found["protocol"], found["states"]

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
        protocol = make_protocol(name, states, rules, inputs=inputs or None)
    except ProtocolError as exc:
        raise FormatError(str(exc), 1) from exc
    if not outputs:
        return protocol
    try:
        return attach_io(protocol, outputs=outputs)
    except ProtocolError as exc:
        raise FormatError(str(exc), *outputs_at[0]) from exc


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
    rows: dict[str, tuple[Fraction, ...]] = {}

    def row_line(found, lineno, tokens, columns):
        strategies = found.get("strategies")
        if strategies is None:
            raise FormatError("row before strategies line", lineno, columns[0])
        if len(tokens) < 3 or not tokens[1].endswith(":"):
            raise FormatError("expected: row <strategy>: <rational>+", lineno, columns[0])
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
            parse_rational(tok, lineno, col) for tok, col in zip(entries, columns[2:])
        )

    def threshold_line(found, lineno, tokens, columns):
        if len(tokens) != 2:
            raise FormatError("expected: threshold <rational>", lineno, columns[0])
        return parse_rational(tokens[1], lineno, columns[1])

    found = _read_lines(
        text,
        {
            "game": _name_line,
            "strategies": partial(_names_line, "strategy name"),
            "threshold": threshold_line,
        },
        {"row": row_line},
    )
    strategies = found["strategies"]
    missing = [s for s in strategies if s not in rows]
    if missing:
        raise FormatError(f"missing row for strategy {missing[0]!r}", 1)

    from .games import make_game

    try:
        return make_game(
            found["game"], strategies, tuple(rows[s] for s in strategies), found["threshold"]
        )
    except ProtocolError as exc:
        raise FormatError(str(exc), 1) from exc


def print_game(game: Game) -> str:
    lines = [f"game {game.name}", "strategies " + " ".join(game.strategies)]
    for i, strategy in enumerate(game.strategies):
        lines.append(f"row {strategy}: " + " ".join(map(str, game.payoff[i])))
    lines.append(f"threshold {game.threshold}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# graph files


def _decimal(token: str, lineno: int, column: int) -> int:
    """A run of decimal digits as an int; FormatError at it when it is longer than `int` reads."""
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"number of {len(token)} digits is too long", lineno, column) from None


def parse_graph_file(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Returns (vertex_count, edges); validation is the InteractionGraph's job."""
    edges: list[tuple[int, int]] = []

    def vertices_line(found, lineno, tokens, columns):
        if len(tokens) != 2 or not tokens[1].isdecimal():
            raise FormatError("expected: vertices <count>", lineno, columns[0])
        return _decimal(tokens[1], lineno, columns[1])

    def edge_line(found, lineno, tokens, columns):
        if len(tokens) != 3 or not (tokens[1].isdecimal() and tokens[2].isdecimal()):
            raise FormatError("expected: edge <u> <v>", lineno, columns[0])
        u, v = (_decimal(t, lineno, c) for t, c in zip(tokens[1:], columns[1:]))
        edges.append((u, v))

    found = _read_lines(text, {"vertices": vertices_line}, {"edge": edge_line})
    return found["vertices"], edges
