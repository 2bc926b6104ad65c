"""Symmetric two-player games and the win-stay/lose-shift protocol derivation.

A game is a square payoff matrix over named strategies plus a threshold.
All payoffs are exact rationals: threshold comparisons and argmax sets must
be exact, never floating point.  An interaction rule set falls out of the
threshold reading of win-stay/lose-shift: an agent scoring at least the
threshold keeps its strategy, one scoring below it switches to a best
response among its other strategies.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import Pair, Protocol, ProtocolError, check_name

ALL_TIES = "all-ties"
LOWEST_INDEX = "lowest-index"

Rational = Fraction | int | str


@dataclass(frozen=True)
class Game:
    """Symmetric game: payoff[x][y] is the row player's score for x against y."""

    name: str
    strategies: tuple[str, ...]
    payoff: tuple[tuple[Fraction, ...], ...]
    threshold: Fraction

    @property
    def size(self) -> int:
        return len(self.strategies)


def make_game(
    name: str,
    strategies: Iterable[str],
    payoff: Iterable[Iterable[Rational]],
    threshold: Rational,
) -> Game:
    """A game whose payoffs and threshold are converted to Fractions.  The
    name and the strategy names must pass `core.check_name`, so that
    `print_game` writes text that parses back."""
    strats = tuple(strategies)
    if len(set(strats)) != len(strats) or not strats:
        raise ProtocolError(f"strategy names must be non-empty and unique: {strats}")
    check_name(name, "game name", bindable=False)
    for strategy in strats:
        check_name(strategy, "strategy name")
    rows = tuple(tuple(Fraction(x) for x in row) for row in payoff)
    if len(rows) != len(strats) or any(len(r) != len(strats) for r in rows):
        raise ProtocolError(
            f"payoff matrix must be {len(strats)}x{len(strats)} for {name!r}"
        )
    return Game(name=name, strategies=strats, payoff=rows, threshold=Fraction(threshold))


def _agent_moves(game: Game, mode: str) -> dict[Pair, list[int]]:
    """Per-agent successor choices for the row agent of each ordered pair.

    Each column's values are compared once for its top set (the argmax), and
    once more for its runner-up set (the argmax of the rest) when the top
    set's only member loses.  A losing row moves into the top set without
    itself, or into the runner-up set when it is the top set.
    """
    k = game.size
    # Times their common denominator, the payoffs and the threshold are
    # integers in the same order, which compare far faster than Fractions.
    threshold, payoff = game.threshold, game.payoff
    scale = lcm(threshold.denominator, *(v.denominator for row in payoff for v in row))
    cut = threshold.numerator * (scale // threshold.denominator)
    moves: dict[Pair, list[int]] = {}
    for q2 in range(k):
        column = [row[q2].numerator * (scale // row[q2].denominator) for row in payoff]
        best = max(column)
        top = [x for x in range(k) if column[x] == best]
        for q1 in range(k):
            if column[q1] >= cut:
                choice = [q1]
            elif top != [q1]:
                choice = [x for x in top if x != q1]
            elif k == 1:
                raise ProtocolError(
                    f"no strategy left to shift to in {game.name!r}: "
                    f"cannot exclude {game.strategies[q1]!r} from a 1-strategy game"
                )
            else:
                second = max(column[x] for x in range(k) if x != q1)
                choice = [x for x in range(k) if x != q1 and column[x] == second]
            moves[(q1, q2)] = choice[:1] if mode == LOWEST_INDEX else choice
    return moves


def derive_protocol(game: Game, mode: str = ALL_TIES) -> Protocol:
    """Protocol induced by threshold win-stay/lose-shift play of the game.

    Each agent independently stays on a payoff at or above the threshold and
    otherwise moves into its best-response set excluding its current strategy;
    the joint successor set is the cross product of the two per-agent sets.
    Mode `lowest-index` collapses every per-agent set to its lowest-index
    member, which makes the result deterministic.  The derived protocol is
    bare dynamics: no input or output attachment.
    """
    if mode not in (ALL_TIES, LOWEST_INDEX):
        raise ProtocolError(f"unknown tie mode {mode!r}")
    moves = _agent_moves(game, mode)
    # each frozenset is filled in the order of the set of its pairs, as
    # `complete` fills it, so a derived successor set iterates the same way
    # as one completed from those pairs
    rules = {
        (q1, q2): frozenset(
            list({(a, b) for a in moves[(q1, q2)] for b in moves[(q2, q1)]})
        )
        for q1 in range(game.size)
        for q2 in range(game.size)
    }
    return Protocol(name=f"{game.name}-protocol", states=game.strategies, rules=rules)


def prisoners_dilemma(
    T: Rational = 5,
    R: Rational = 3,
    P: Rational = 1,
    S: Rational = 0,
    threshold: Rational | None = None,
) -> Game:
    """The symmetric game with matrix [[R, S], [T, P]] over strategies C, D,
    from payoffs temptation T > reward R > punishment P > sucker S with
    2R > T + S.

    The default threshold is the midpoint of P and R: any threshold in
    (P, R] makes mutual cooperation a win and mutual defection a loss,
    which is the win-stay/lose-shift reading of the payoffs.
    """
    t, r, p, s = (Fraction(x) for x in (T, R, P, S))
    got = f"got T={t}, R={r}, P={p}, S={s}"
    if not (t > r > p > s):
        raise ProtocolError(f"need T > R > P > S, {got}")
    if not (2 * r > t + s):
        raise ProtocolError(f"need 2R > T + S, {got}")
    if threshold is None:
        threshold = (p + r) / 2
    return make_game("prisoners-dilemma", ("C", "D"), ((r, s), (t, p)), threshold)
