"""Time the exact-verification, Pavlovian-check and search layers in-process.

    python3 benchmarks/bench_verify.py [--repeats 3]

Five workloads, each timed `--repeats` times after its inputs are built.
Each reports its rate at the best repeat and at the median, with the rates
at the quartiles of the repeats' times: on a shared host single repeats
swing widely, and the quartiles show how far a change has to move the
median to be seen.

  verify    stably_computes(symmetrize(majority), "n_0 >= n_1", sizes 2..10),
            in configurations explored per second (21,489 configurations)
  failing   the same with "n_0 > n_1", which fails on the five inputs with
            n_0 = n_1 and so builds their counterexample paths, in
            configurations per second
  pavcheck  check_pavlovian (exact mode) on every symmetric deterministic
            3-state dynamics (19,683), in protocols per second
  search    popgames search --states 3 --predicate "n_1 >= 1" --sizes 2..4
            --json, in candidates per second (472,392 candidates; about 20 s
            per repeat)
  search-01 the same search with --alphabet 0,1 --budget 2000000, in
            candidates per second (1,417,176 candidates, 2,682 findings;
            about 30 s per repeat)

`reachable` keeps the graphs of the last move table it explored, so before
each timed verify or failing repeat the benchmark explores another protocol
(or, from one start), which empties that memo: every repeat explores all
21,489 configurations again.  Each answer is checked before its time
counts: the verify verdict must pass, and the failing verdict's JSON (as
`popgames verify` prints it), the pavcheck records and each search's JSON
must have the sha256 digests below.  The pavcheck records are one JSON line per
dynamics, the witness or the refusal with its certificate, written as
`tests/oracles.py` writes them, over that file's dynamics in search order;
the digest is `tests/golden_exact.json`'s "check_pavlovian 3 states all".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import time
from pathlib import Path

from bench_sim import summary
from popgames import (
    Protocol,
    builtin,
    candidate_count,
    check_pavlovian,
    initial_config,
    reachable,
    stably_computes,
    symmetrize,
)
from popgames.cli import main as popgames_main
from popgames.pavcheck import EXACT

VERIFY_SIZES = range(2, 11)
PREDICATE = "n_0 >= n_1"
FAILING_PREDICATE = "n_0 > n_1"
FAILING_VERDICT_SHA256 = "18c70b08645b57290a48bff2d9dbeef8437f57f7500415ef7431e8a3516fdc51"
PAVCHECK_3STATE_SHA256 = "0522e907e878c580df27cd46ecbe9d5332e6bd6ca4a8d0589aa7aa2be52ad8c3"
SEARCH_3STATE = ["search", "--states", "3", "--predicate", "n_1 >= 1",
                 "--sizes", "2..4", "--json"]
SEARCH_3STATE_SHA256 = "7b9fda9015b7e49fa8799737d60279b136a8becca6455c1c7c2092967eed81eb"
SEARCH_ALPHABET_01 = ["search", "--states", "3", "--predicate", "n_1 >= 1", "--sizes", "2..4",
                      "--alphabet", "0,1", "--budget", "2000000", "--json"]
SEARCH_ALPHABET_01_SHA256 = "590eef8d9ca81a393af7079d4f40ee01e543f8fb6efac58943b0a1317cd79f8c"


def timed(repeats: int, work, before=None) -> tuple[list[float], object]:
    """The seconds of each of `repeats` calls of `work`, each after an
    untimed `before()` when one is given, and the last call's result."""
    times, result = [], None
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        result = work()
        times.append(time.perf_counter() - t0)
    return times, result


def time_verdict(predicate: str, repeats: int):
    """Configurations explored by stably_computes(symmetrize(majority),
    `predicate`, sizes 2..10), the repeats' times, the protocol and the
    verdict."""
    protocol = symmetrize(builtin("majority"))
    alphabet = protocol.input_alphabet
    configurations = 0
    for n in VERIFY_SIZES:
        for counts in itertools.product(range(n + 1), repeat=len(alphabet)):
            if sum(counts) == n:
                start = initial_config(protocol, dict(zip(alphabet, counts)))
                configurations += len(reachable(protocol, start).configs)
    other = builtin("or")
    times, verdict = timed(
        repeats,
        lambda: stably_computes(protocol, predicate, VERIFY_SIZES),
        before=lambda: reachable(other, (1, 1)),
    )
    return configurations, times, protocol, verdict


def verify_workload(repeats: int) -> tuple[int, list[float]]:
    configurations, times, _, verdict = time_verdict(PREDICATE, repeats)
    if not verdict.passed:
        raise RuntimeError("symmetrized majority failed its predicate")
    return configurations, times


def failing_workload(repeats: int) -> tuple[int, list[float]]:
    configurations, times, protocol, verdict = time_verdict(FAILING_PREDICATE, repeats)
    text = json.dumps(verdict.as_dict(protocol), indent=2)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != FAILING_VERDICT_SHA256:
        raise RuntimeError(
            f"failing verdict has sha256 {digest}, expected {FAILING_VERDICT_SHA256}")
    return configurations, times


def load_oracles():
    """`tests/oracles.py`, loaded by path: the benchmarks are not a package."""
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pavcheck_workload(repeats: int) -> tuple[int, list[float]]:
    oracles = load_oracles()
    states = ("s0", "s1", "s2")
    protocols = [
        Protocol(f"dyn-{i}", states, rules)
        for i, rules in enumerate(oracles.symmetric_tables(3))
    ]
    times, results = timed(
        repeats, lambda: [check_pavlovian(p, EXACT) for p in protocols])
    records = "\n".join(oracles.pavcheck_record(r) for r in results)
    digest = hashlib.sha256(records.encode("utf-8")).hexdigest()
    if digest != PAVCHECK_3STATE_SHA256:
        raise RuntimeError(
            f"pavcheck records have sha256 {digest}, expected {PAVCHECK_3STATE_SHA256}")
    return len(protocols), times


def time_search(argv: list[str], expected_sha256: str, alphabet_size: int, repeats: int):
    """The candidates of the 3-state search `popgames argv`, over an alphabet
    of `alphabet_size` symbols, and the repeats' times."""
    def search() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            popgames_main(argv)
        return out.getvalue()

    times, output = timed(repeats, search)
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    if digest != expected_sha256:
        raise RuntimeError(f"search JSON has sha256 {digest}, expected {expected_sha256}")
    return candidate_count(3, alphabet_size), times


def search_workload(repeats: int) -> tuple[int, list[float]]:
    return time_search(SEARCH_3STATE, SEARCH_3STATE_SHA256, 1, repeats)


def search_alphabet_01_workload(repeats: int) -> tuple[int, list[float]]:
    return time_search(SEARCH_ALPHABET_01, SEARCH_ALPHABET_01_SHA256, 2, repeats)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"{args.repeats} repeats: work per second at the best repeat, the median,"
          " and the quartiles")
    print(f"{'workload':<10} {'work':>8} {'best s':>8} {'best':>10} {'median':>10}"
          f" {'quartiles':>21}")
    for name, unit, workload in (
        ("verify", "configurations", verify_workload),
        ("failing", "configurations", failing_workload),
        ("pavcheck", "protocols", pavcheck_workload),
        ("search", "candidates", search_workload),
        ("search-01", "candidates", search_alphabet_01_workload),
    ):
        work, times = workload(args.repeats)
        stats = summary(times)
        best, median, q1, q3 = (work / stats[key] for key in ("best", "median", "q3", "q1"))
        print(f"{name:<10} {work:>8} {stats['best']:>8.3f} {best:>10,.0f} {median:>10,.0f}"
              f" {q1:>10,.0f}-{q3:<10,.0f} {unit}/s")


if __name__ == "__main__":
    main()
