"""Byte-for-byte answers of the exact path, pinned as sha256 digests.

The digests in `golden_exact.json` were recorded before configurations and
comparison variables were numbered by integer ids, and the answers must not
move with any later change to the exploration or SCC engine: the `search`
JSON, the `verify` JSON with its counterexample paths, and every witness and
certificate `check_pavlovian` gives on 3-state dynamics.  The records of
all 19,683 3-state dynamics and the subset-mode records of tie-keeping
derivations were pinned before `build_constraints` emitted numbered
comparison pairs column by column.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

import oracles
from popgames import (
    ALL_TIES,
    Protocol,
    builtin,
    check_pavlovian,
    cli,
    derive_protocol,
    make_game,
    print_protocol,
)
from popgames.pavcheck import EXACT

GOLDEN = json.loads(Path(__file__).with_name("golden_exact.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_stdout(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def pavlovian_records(k: int, stride: int) -> str:
    """The exact-mode record of every `stride`-th k-state dynamics."""
    states = tuple(f"s{i}" for i in range(k))
    return "\n".join(
        oracles.pavcheck_record(check_pavlovian(Protocol(f"dyn-{i}", states, rules), EXACT))
        for i, rules in enumerate(oracles.symmetric_tables(k))
        if i % stride == 0
    )


def tie_games():
    """Every 2-state game with entries and threshold in {0, 1, 2}, in
    row-major then threshold order, then 500 3-state games with entries
    and threshold drawn from {0, 1, 2} by `random.Random(2009)`."""
    for *entries, threshold in itertools.product(range(3), repeat=5):
        yield make_game("g2", "ab", [entries[:2], entries[2:]], threshold)
    rng = random.Random(2009)
    for _ in range(500):
        entries = [rng.randrange(3) for _ in range(10)]
        yield make_game("g3", "abc", [entries[0:3], entries[3:6], entries[6:9]], entries[9])


def tie_records() -> str:
    """The default-mode record of each tie game's `ALL_TIES` derivation:
    subset mode wherever a tie leaves a nondeterministic rule."""
    return "\n".join(
        oracles.pavcheck_record(check_pavlovian(derive_protocol(g, ALL_TIES)))
        for g in tie_games()
    )


def test_search_two_states_json(capsys):
    code, out = cli_stdout(
        capsys, "search", "--states", "2", "--predicate", "n_1 >= 1",
        "--alphabet", "0,1,2", "--sizes", "2..5", "--json")
    assert code == 0
    assert sha256(out) == GOLDEN["search --states 2 n_1>=1 0,1,2 2..5"]


@pytest.mark.parametrize("predicate", ["n_0 >= n_1", "n_0 > n_1"])
def test_verify_majority_json(tmp_path, capsys, predicate):
    path = tmp_path / "majority.txt"
    path.write_text(print_protocol(builtin("majority")))
    code, out = cli_stdout(
        capsys, "verify", str(path), "--predicate", predicate, "--sizes", "2..6")
    assert code == (0 if predicate == "n_0 >= n_1" else 1)
    assert sha256(out) == GOLDEN[f"verify majority {predicate} 2..6"]


def test_check_pavlovian_every_7th_three_state_dynamics():
    assert sha256(pavlovian_records(3, 7)) == GOLDEN["check_pavlovian 3 states every 7th"]


def test_check_pavlovian_every_three_state_dynamics():
    assert sha256(pavlovian_records(3, 1)) == GOLDEN["check_pavlovian 3 states all"]


def test_check_pavlovian_tie_keeping_derivations():
    assert sha256(tie_records()) == GOLDEN["check_pavlovian default mode ALL_TIES games"]
