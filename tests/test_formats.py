from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgames import (
    FormatError,
    ProtocolError,
    builtin,
    builtin_keys,
    derive_protocol,
    make_game,
    make_protocol,
    parse_game,
    parse_protocol,
    print_game,
    print_protocol,
    symmetrize,
)
from popgames.formats import format_rational, parse_graph_file, parse_rational

OR_TEXT = """\
# boolean disjunction
protocol or
states 0 1
inputs 0=0 1=1
outputs 0=0 1=1

rule 0 1 -> 1 1
rule 1 0 -> 1 1
"""


def test_parse_or_file():
    p = parse_protocol(OR_TEXT)
    assert p == builtin("or")


def test_round_trip_every_builtin():
    for key in builtin_keys():
        artifact = builtin(key)
        if hasattr(artifact, "payoff"):
            assert parse_game(print_game(artifact)) == artifact, key
        else:
            assert parse_protocol(print_protocol(artifact)) == artifact, key


def test_round_trip_symmetrized_and_derived():
    sym = symmetrize(builtin("or"))
    assert parse_protocol(print_protocol(sym)) == sym
    bare = derive_protocol(builtin("pd"))
    assert parse_protocol(print_protocol(bare)) == bare


def test_print_omits_identity_rules():
    text = print_protocol(builtin("or"))
    assert "rule 0 0" not in text
    assert "rule 1 1" not in text
    assert "rule 0 1 -> 1 1" in text


def test_repeated_rule_lines_accumulate():
    text = (
        "protocol nd\nstates a b\n"
        "rule a b -> a a\nrule a b -> b b\n"
    )
    p = parse_protocol(text)
    assert p.rules[(0, 1)] == frozenset({(0, 0), (1, 1)})


def test_comments_and_blank_lines_ignored():
    text = "protocol p # trailing\n\n  # whole-line comment\nstates a b\n"
    p = parse_protocol(text)
    assert p.name == "p"
    assert p.states == ("a", "b")


def test_protocol_without_io_sections():
    p = parse_protocol("protocol bare\nstates x y\nrule x y -> y y\nrule y x -> y y\n")
    assert p.input_map is None
    assert p.output_map is None


def test_parse_protocol_errors_carry_position():
    cases = [
        ("states a b\n", 1, None),  # missing protocol line
        ("protocol p\n", 1, None),  # missing states line
        ("protocol p\nprotocol q\nstates a\n", 2, 1),
        ("protocol p\nstates a a\n", 2, 8),
        ("protocol p\nstates a b\nrule a b => b b\n", 3, 1),
        ("protocol p\nrule a b -> b b\nstates a b\n", 2, 1),
        ("protocol p\nstates a b\nrule a z -> b b\n", 3, 8),
        ("protocol p\nstates a b\nwat a\n", 3, 1),
        ("protocol p\nstates a b\ninputs 0\n", 3, 8),
    ]
    for text, line, column in cases:
        with pytest.raises(FormatError) as err:
            parse_protocol(text)
        assert err.value.line == line, text
        if column is not None:
            assert err.value.column == column, text


def test_parse_protocol_binding_errors():
    base = "protocol p\nstates a b\n"
    with pytest.raises(FormatError):
        parse_protocol(base + "outputs a=2 b=0\n")
    with pytest.raises(FormatError):
        parse_protocol(base + "outputs a=1\n")  # partial output map
    with pytest.raises(FormatError):
        parse_protocol(base + "outputs a=1 b=0 z=1\n")
    with pytest.raises(FormatError):
        parse_protocol(base + "inputs 0=z\n")
    with pytest.raises(FormatError):
        parse_protocol(base + "inputs 0=a 0=b\n")


def test_binding_errors_carry_the_binding_position():
    head = "protocol p\nstates a b\n# the maps\n\n"
    cases = [
        (head + "outputs a=0 c=1\n", "unknown state 'c'", 5, 13),
        (head + "outputs  a=2 b=0\n", "0 or 1", 5, 10),
        (head + "inputs 0=a 1=z\n", "unknown state 'z'", 5, 12),
        (head + "inputs 0=a\ninputs 1=b 0=b\n", "duplicate input symbol", 6, 12),
        (head + "outputs a=0 a=1 b=0\n", "duplicate output for state 'a'", 5, 13),
    ]
    for text, message, line, column in cases:
        with pytest.raises(FormatError) as err:
            parse_protocol(text)
        assert message in str(err.value), text
        assert (err.value.line, err.value.column) == (line, column), text


GAME_TEXT = """\
game pd
strategies C D
row C: 3 0
row D: 5 1
threshold 2
"""


def test_parse_game_file():
    g = parse_game(GAME_TEXT)
    assert g.strategies == ("C", "D")
    assert g.payoff[1][0] == Fraction(5)
    assert g.threshold == Fraction(2)


def test_parse_game_rational_entries():
    text = (
        "game g\nstrategies a b\n"
        "row a: 1/3 0.5\nrow b: -2 7\nthreshold 1/4\n"
    )
    g = parse_game(text)
    assert g.payoff[0][0] == Fraction(1, 3)
    assert g.payoff[0][1] == Fraction(1, 2)
    assert g.payoff[1][0] == Fraction(-2)
    assert g.threshold == Fraction(1, 4)


def test_parse_game_errors():
    cases = [
        "strategies C D\nrow C: 1 2\nrow D: 3 4\nthreshold 1\n",
        "game g\nrow C: 1 2\n",
        "game g\nstrategies C D\nrow C: 1\nrow D: 3 4\nthreshold 1\n",
        "game g\nstrategies C D\nrow C: 1 2\nrow D: 3 4\n",
        "game g\nstrategies C D\nrow Z: 1 2\nrow D: 3 4\nthreshold 1\n",
        "game g\nstrategies C D\nrow C: 1 2\nthreshold 1\n",
        "game g\nstrategies C D\nrow C: 1 2\nrow C: 1 2\nthreshold 1\n",
        "game g\nstrategies C D\nrow C: 1 x\nrow D: 3 4\nthreshold 1\n",
        "game g\nstrategies C D\nrow C: 1 2\nrow D: 3 4\nthreshold 1\nthreshold 2\n",
    ]
    for text in cases:
        with pytest.raises(FormatError):
            parse_game(text)


def test_parse_game_error_position():
    with pytest.raises(FormatError) as err:
        parse_game("game g\nstrategies C D\nrow C: 1 oops\nrow D: 3 4\nthreshold 1\n")
    assert err.value.line == 3
    assert err.value.column == 10


def test_parse_rational():
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("0.125") == Fraction(1, 8)
    with pytest.raises(FormatError):
        parse_rational("seven")
    with pytest.raises(FormatError):
        parse_rational("1/0")


def test_format_rational_round_trip():
    for value in (Fraction(3), Fraction(-1, 3), Fraction(7, 2), Fraction(0)):
        assert parse_rational(format_rational(value)) == value


def test_parse_graph_file():
    n, edges = parse_graph_file("# a path\nvertices 3\nedge 0 1\nedge 1 2\n")
    assert n == 3
    assert edges == [(0, 1), (1, 2)]


def test_parse_graph_file_errors():
    with pytest.raises(FormatError):
        parse_graph_file("edge 0 1\n")
    with pytest.raises(FormatError):
        parse_graph_file("vertices 3\nedge 0\n")
    with pytest.raises(FormatError):
        parse_graph_file("vertices x\n")
    with pytest.raises(FormatError):
        parse_graph_file("vertices 3\nloop 0 1\n")


def test_states_with_odd_tokens_round_trip():
    p = make_protocol(
        "odd", ["+", "-", "q'"],
        [("+", "-", "q'", "q'"), ("-", "+", "q'", "q'")],
        inputs={"in": "+"},
        outputs={"+": 1, "-": 0, "q'": 1},
    )
    assert parse_protocol(print_protocol(p)) == p


# ---------------------------------------------------------------------------
# round trips over drawn protocols and games


def tokens(forbidden):
    """Non-empty strings without whitespace or `#`, and without the
    characters in `forbidden`: what one token of a file can hold.  Printable
    ASCII is drawn about as often as the rest of Unicode."""
    bad = "#" + forbidden
    chars = st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=bad)
    chars |= st.characters(exclude_categories=("Cs",), exclude_characters=bad)
    return st.text(chars, min_size=1, max_size=4).filter(lambda t: t.split() == [t])


@st.composite
def protocols(draw):
    """Protocols of 1 to 4 states with drawn names, rules that may be
    nondeterministic, and input and output maps that may be absent.  State
    names hold no `=`, which ends the state of an output binding; input
    symbols hold none either (see `core.input_symbols`)."""
    states = draw(st.lists(tokens("="), min_size=1, max_size=4, unique=True))
    state = st.sampled_from(states)
    rules = draw(st.lists(st.tuples(state, state, state, state), max_size=12))
    inputs = draw(st.none() | st.dictionaries(tokens("="), state, min_size=1, max_size=3))
    bits = st.fixed_dictionaries({s: st.sampled_from((0, 1)) for s in states})
    outputs = draw(st.none() | bits)
    return make_protocol(draw(tokens("")), states, rules, inputs=inputs, outputs=outputs)


@settings(max_examples=200, deadline=None)
@given(protocols())
def test_protocol_text_round_trips(protocol):
    text = print_protocol(protocol)
    assert parse_protocol(text) == protocol
    assert print_protocol(parse_protocol(text)) == text


def test_input_symbols_take_every_printable_character_but_two():
    for code in range(33, 127):
        char = chr(code)
        inputs = {char: "a", f"x{char}y": "b"}
        if char in "=#":
            with pytest.raises(ProtocolError, match="input symbol"):
                make_protocol("p", ["a", "b"], [], inputs=inputs)
        else:
            p = make_protocol("p", ["a", "b"], [], inputs=inputs)
            assert parse_protocol(print_protocol(p)) == p, char


@st.composite
def games(draw):
    strategies = draw(st.lists(tokens(""), min_size=1, max_size=4, unique=True))
    k = len(strategies)
    # st.fractions draws are about ten times slower than these
    entry = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12))
    payoff = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    return make_game(draw(tokens("")), strategies, payoff, draw(entry))


@settings(max_examples=200, deadline=None)
@given(games())
def test_game_text_round_trips(game):
    text = print_game(game)
    assert parse_game(text) == game
    assert print_game(parse_game(text)) == text
