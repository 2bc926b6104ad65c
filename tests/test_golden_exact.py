"""Byte-for-byte answers of the exact path, pinned as sha256 digests.

The digests in `golden_exact.json` were recorded before configurations and
comparison variables were numbered by integer ids, and the answers must not
move with any later change to the exploration or SCC engine: the `search`
JSON, the `verify` JSON with its counterexample paths, and every witness and
certificate `check_pavlovian` gives on a sample of 3-state dynamics.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from popgames import Protocol, builtin, check_pavlovian, cli, print_protocol
from popgames.pavcheck import EXACT

GOLDEN = json.loads(Path(__file__).with_name("golden_exact.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_stdout(capsys, *argv) -> tuple[int, str]:
    capsys.readouterr()
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def symmetric_dynamics(k: int):
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


def pavlovian_records(k: int, stride: int) -> str:
    """One JSON line per `stride`-th dynamics: the witness, or the refusal
    with its certificate cycle and strict steps."""
    states = tuple(f"s{i}" for i in range(k))
    lines = []
    for i, rules in enumerate(symmetric_dynamics(k)):
        if i % stride:
            continue
        result = check_pavlovian(Protocol(f"dyn-{i}", states, rules), EXACT)
        if hasattr(result, "matrix"):
            record = {"matrix": result.matrix, "threshold": result.threshold}
        else:
            cert = result.certificate
            record = {
                "reason": result.reason,
                "cycle": None if cert is None else cert.cycle,
                "strict": None if cert is None else cert.strict_steps,
            }
        lines.append(json.dumps(record))
    return "\n".join(lines)


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
