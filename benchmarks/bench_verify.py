"""Time the exact-verification, Pavlovian-check and search layers in-process.

    python3 benchmarks/bench_verify.py [--repeats 3]

Four workloads, each timed best of `--repeats` after its inputs are built:

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

`reachable` keeps the graphs of the last move table it explored, so before
each timed verify or failing repeat the benchmark explores another protocol
(or, from one start), which empties that memo: every repeat explores all
21,489 configurations again.  Each answer is checked before its time
counts: the verify verdict must pass, and the failing verdict's JSON (as
`popgames verify` prints it), the pavcheck records and the search JSON must
have the sha256 digests below.  The pavcheck records are one JSON line per
dynamics, the witness or the refusal with its certificate, written as
`tests/test_golden_exact.py` writes them; the digest is that file's
"check_pavlovian 3 states all".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import time

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


def best_of(repeats: int, work, before=None) -> tuple[float, object]:
    """Best time of `repeats` calls of `work`, each after an untimed
    `before()` when one is given, and the last call's result."""
    best, result = None, None
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        result = work()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def time_verdict(predicate: str, repeats: int):
    """Configurations explored by stably_computes(symmetrize(majority),
    `predicate`, sizes 2..10), the best time, the protocol and the verdict."""
    protocol = symmetrize(builtin("majority"))
    alphabet = protocol.input_alphabet
    configurations = 0
    for n in VERIFY_SIZES:
        for counts in itertools.product(range(n + 1), repeat=len(alphabet)):
            if sum(counts) == n:
                start = initial_config(protocol, dict(zip(alphabet, counts)))
                configurations += len(reachable(protocol, start).configs)
    other = builtin("or")
    seconds, verdict = best_of(
        repeats,
        lambda: stably_computes(protocol, predicate, VERIFY_SIZES),
        before=lambda: reachable(other, (1, 1)),
    )
    return configurations, seconds, protocol, verdict


def verify_workload(repeats: int) -> tuple[int, float]:
    configurations, seconds, _, verdict = time_verdict(PREDICATE, repeats)
    if not verdict.passed:
        raise RuntimeError("symmetrized majority failed its predicate")
    return configurations, seconds


def failing_workload(repeats: int) -> tuple[int, float]:
    configurations, seconds, protocol, verdict = time_verdict(FAILING_PREDICATE, repeats)
    text = json.dumps(verdict.as_dict(protocol), indent=2)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != FAILING_VERDICT_SHA256:
        raise RuntimeError(
            f"failing verdict has sha256 {digest}, expected {FAILING_VERDICT_SHA256}")
    return configurations, seconds


def three_state_dynamics() -> list[Protocol]:
    k = 3
    states = tuple(f"s{i}" for i in range(k))
    off_pairs = [(q, r) for q in range(k) for r in range(q + 1, k)]
    protocols = []
    for diag in itertools.product(range(k), repeat=k):
        for off in itertools.product(
            itertools.product(range(k), repeat=2), repeat=len(off_pairs)
        ):
            rules = {(q, q): frozenset({(d, d)}) for q, d in enumerate(diag)}
            for (q, r), (a, b) in zip(off_pairs, off):
                rules[(q, r)] = frozenset({(a, b)})
                rules[(r, q)] = frozenset({(b, a)})
            protocols.append(Protocol(f"dyn-{len(protocols)}", states, rules))
    return protocols


def pavcheck_record(result) -> str:
    if hasattr(result, "matrix"):
        return json.dumps({"matrix": result.matrix, "threshold": result.threshold})
    cert = result.certificate
    return json.dumps({
        "reason": result.reason,
        "cycle": None if cert is None else cert.cycle,
        "strict": None if cert is None else cert.strict_steps,
    })


def pavcheck_workload(repeats: int) -> tuple[int, float]:
    protocols = three_state_dynamics()
    seconds, results = best_of(
        repeats, lambda: [check_pavlovian(p, EXACT) for p in protocols])
    records = "\n".join(pavcheck_record(r) for r in results)
    digest = hashlib.sha256(records.encode("utf-8")).hexdigest()
    if digest != PAVCHECK_3STATE_SHA256:
        raise RuntimeError(
            f"pavcheck records have sha256 {digest}, expected {PAVCHECK_3STATE_SHA256}")
    return len(protocols), seconds


def search_workload(repeats: int) -> tuple[int, float]:
    def search() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            popgames_main(SEARCH_3STATE)
        return out.getvalue()

    seconds, output = best_of(repeats, search)
    digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
    if digest != SEARCH_3STATE_SHA256:
        raise RuntimeError(f"search JSON has sha256 {digest}, expected {SEARCH_3STATE_SHA256}")
    return candidate_count(3, 1), seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    print(f"{'workload':<10} {'work':>8} {'best s':>8} {'per second':>12}")
    for name, unit, workload in (
        ("verify", "configurations", verify_workload),
        ("failing", "configurations", failing_workload),
        ("pavcheck", "protocols", pavcheck_workload),
        ("search", "candidates", search_workload),
    ):
        work, seconds = workload(args.repeats)
        print(f"{name:<10} {work:>8} {seconds:>8.3f} {work / seconds:>12,.0f}  {unit}/s")


if __name__ == "__main__":
    main()
