"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every criterion carries an explicit runtime budget; a criterion
fails when its property breaks or its budget is exceeded.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from popgames import (
    ALL_TIES,
    LOWEST_INDEX,
    NotPavlovian,
    SUBSET,
    Witness,
    bottom_sccs,
    builtin,
    check_pavlovian,
    config_of,
    derive_protocol,
    initial_config,
    is_symmetric,
    make_game,
    make_protocol,
    monte_carlo,
    reachable,
    stable_leader,
    stably_computes,
    successors,
    symmetrize,
)
from popgames.cli import main as cli_main
from popgames.pavcheck import EXACT, build_constraints
from popgames.sim import InteractionGraph

import oracles


def run_criterion(num, limit, label, body):
    t0 = time.perf_counter()
    details = []
    try:
        body(details)
    except Exception as exc:
        details.append(f"exception: {exc!r}")
    elapsed = time.perf_counter() - t0
    ok = not details and elapsed < limit
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} in {elapsed:.2f}s (limit {limit:g}s)  {label}")
    assert not details, details
    assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds the {limit:g}s budget"


def two_state_protocols():
    """All 16 symmetric deterministic two-state protocols."""
    out = []
    for d0, d1, (a, b) in itertools.product(
        range(2), range(2), itertools.product(range(2), repeat=2)
    ):
        names = ("q0", "q1")
        rules = [
            ("q0", "q0", names[d0], names[d0]),
            ("q1", "q1", names[d1], names[d1]),
            ("q0", "q1", names[a], names[b]),
            ("q1", "q0", names[b], names[a]),
        ]
        out.append(make_protocol(f"two-{d0}{d1}{a}{b}", names, rules))
    return out


def test_criterion_01_every_two_state_protocol_has_a_witness():
    def body(details):
        protocols = two_state_protocols()
        if len(protocols) != 16:
            details.append(f"expected 16 protocols, built {len(protocols)}")
        for protocol in protocols:
            result = check_pavlovian(protocol, EXACT)
            if not isinstance(result, Witness):
                details.append(f"{protocol.name}: no witness ({result.reason})")
                continue
            rederived = derive_protocol(result.to_game(), LOWEST_INDEX)
            if rederived.rules != protocol.rules:
                details.append(f"{protocol.name}: rederivation differs")

    run_criterion(
        1, 1.0,
        "all 16 two-state symmetric deterministic protocols have integer "
        "witnesses that rederive them exactly",
        body)


def test_criterion_02_three_state_cycle_is_refused():
    def body(details):
        protocol = make_protocol(
            "cycle3",
            ["q0", "q1", "q2"],
            [
                ("q0", "q0", "q1", "q1"),
                ("q1", "q0", "q2", "q0"),
                ("q0", "q1", "q0", "q2"),
                ("q2", "q0", "q0", "q0"),
                ("q0", "q2", "q0", "q0"),
            ],
        )
        result = check_pavlovian(protocol, EXACT)
        if not isinstance(result, NotPavlovian):
            details.append("expected a refusal, got a witness")
            return
        cert = result.certificate
        if cert is None:
            details.append(f"no certificate ({result.reason})")
            return
        q0 = protocol.index("q0")
        columns = {var[2] for var in cert.cycle}
        if columns != {q0}:
            details.append(f"cycle not confined to column q0: {cert.cycle}")
        if {var[1] for var in cert.cycle} != {0, 1, 2}:
            details.append(f"cycle misses a row: {cert.cycle}")
        if not any(cert.strict_steps):
            details.append("certificate has no strict step")
        if not cert.check_against(build_constraints(protocol, EXACT)):
            details.append("certificate does not check against the system")

    run_criterion(
        2, 1.0,
        "the three-state chase protocol is refused with a strict cycle "
        "confined to the q0 payoff column",
        body)


def test_criterion_03_builtin_matrices_rederive_their_protocols():
    def body(details):
        cases = [
            ("leader-game", "leader-pavlovian", 4, 9),
            ("majority-game", "majority", 2, 16),
            ("pd", "pavlov-pd", 2, 4),
        ]
        for game_key, protocol_key, threshold, pair_count in cases:
            game = builtin(game_key)
            if game.threshold != threshold:
                details.append(f"{game_key}: threshold {game.threshold}")
            derived = derive_protocol(game, ALL_TIES)
            expected = builtin(protocol_key)
            if derived.rules != expected.rules:
                details.append(f"{game_key}: rule table differs")
            if len(derived.rules) != pair_count:
                details.append(f"{game_key}: {len(derived.rules)} pairs")

    run_criterion(
        3, 1.0,
        "the leader, majority, and prisoner's-dilemma matrices derive "
        "exactly their builtin rule tables",
        body)


def test_criterion_04_stable_computation_to_n8():
    def body(details):
        sizes = range(2, 9)
        cases = [
            ("or", "n_1 >= 1"),
            ("and", "n_0 = 0"),
            ("majority", "n_0 >= n_1"),
        ]
        for key, predicate in cases:
            verdict = stably_computes(builtin(key), predicate, sizes)
            if not verdict.passed:
                labels = [r.input_label() for r in verdict.per_input if not r.passed]
                details.append(f"{key} vs {predicate}: fails on {labels}")

    run_criterion(
        4, 10.0,
        "OR, AND, and majority stably compute their predicates on every "
        "input with 2 <= n <= 8",
        body)


def test_criterion_05_weak_xor_residue():
    def body(details):
        protocol = builtin("weak-xor")
        verdict = stably_computes(protocol, "n_1 mod 2 = 1", range(2, 9))
        if verdict.passed:
            details.append("weak-xor unexpectedly passed")
        for result in verdict.per_input:
            ones = dict(result.input)["1"]
            if result.passed != (ones % 2 == 0):
                details.append(f"{result.input_label()}: wrong side")
            if not result.passed and result.counterexample.actual is not None:
                details.append(f"{result.input_label()}: output not mixed")
        for n in range(2, 9):
            for ones in range(n + 1):
                init = initial_config(protocol, {"0": n - ones, "1": ones})
                bottoms = bottom_sccs(reachable(protocol, init))
                want = (n, 0) if ones % 2 == 0 else (n - 1, 1)
                if bottoms != [frozenset({want})]:
                    details.append(f"n={n} ones={ones}: bottoms {bottoms}")
                    continue
                if successors(protocol, want) != {want}:
                    details.append(f"n={n} ones={ones}: {want} not silent")

    run_criterion(
        5, 10.0,
        "weak-xor fails every odd-ones input with a mixed output while all "
        "bottom SCCs are single silent configurations with <= 1 one",
        body)


def test_criterion_06_leader_election_to_n7():
    def body(details):
        protocol = builtin("leader-pavlovian")
        verdict = stable_leader(protocol, ("L1", "L2"), range(3, 8))
        if not verdict.passed:
            labels = [r.input_label() for r in verdict.per_input if not r.passed]
            details.append(f"election fails on {labels}")
        pair = bottom_sccs(reachable(protocol, config_of(protocol, {"L1": 2})))
        if pair != [frozenset({(2, 0, 0), (0, 2, 0)})]:
            details.append(f"two-agent bottom SCC is {pair}")

    run_criterion(
        6, 30.0,
        "pavlovian leader election holds for every >=1-leader input with "
        "3 <= n <= 7, and two lone leaders swap forever",
        body)


def test_criterion_07_symmetrization():
    def body(details):
        doubled_leader = symmetrize(builtin("leader-classic"))
        if not is_symmetric(doubled_leader):
            details.append("doubled leader protocol is not symmetric")
        verdict = stable_leader(doubled_leader, ("L", "L'"), range(3, 7))
        if not verdict.passed:
            details.append("doubled leader election fails")
        doubled_or = symmetrize(builtin("or"))
        if not is_symmetric(doubled_or):
            details.append("doubled OR is not symmetric")
        if not stably_computes(doubled_or, "n_1 >= 1", range(3, 7)).passed:
            details.append("doubled OR no longer computes its predicate")

    run_criterion(
        7, 60.0,
        "state doubling keeps classic leader election and OR working on "
        "3 <= n <= 6",
        body)


def test_criterion_08_pavlov_pd_self_stabilizes(kernels_warm):
    def body(details):
        pd = builtin("pavlov-pd")
        all_c = pd.index("C")
        for n in range(2, 9):
            # the bottom SCCs reached from every start of n agents
            bottoms = {
                scc
                for start in oracles.compositions(n, 2)
                for scc in bottom_sccs(reachable(pd, start))
            }
            want = tuple(n if i == all_c else 0 for i in range(2))
            if bottoms != {frozenset({want})}:
                details.append(f"complete n={n}: bottoms {bottoms}")
            ring = oracles.oriented(InteractionGraph.ring(n).edges)
            vertex_bottoms = oracles.bottom_sccs_of(
                oracles.agent_full_graph(pd.rules, 2, n, ring)
            )
            if vertex_bottoms != [frozenset({(all_c,) * n})]:
                details.append(f"ring n={n}: bottoms {vertex_bottoms}")
        exact = oracles.pd_expected_steps(3)
        if exact != Fraction(21, 2):
            details.append(f"oracle drifted: {exact}")
        report = monte_carlo(pd, {"D": 3}, trials=10_000, seed=2026, stop="silent")
        if report.successes != report.trials:
            details.append(f"only {report.successes} trials stabilized")
        target = float(exact)
        if abs(report.mean_steps - target) > 0.05 * target:
            details.append(f"mean {report.mean_steps:.3f} vs exact {target}")

    run_criterion(
        8, 60.0,
        "mutual cooperation is the unique bottom SCC on rings and complete "
        "graphs up to n=8; mean hitting time at n=3 is within 5% of 10.5",
        body)


def test_criterion_09_random_game_round_trips():
    def body(details):
        rng = random.Random(20260815)
        for i in range(200):
            k = rng.randint(2, 4)
            names = tuple(f"s{j}" for j in range(k))
            payoff = tuple(
                tuple(rng.randint(0, 9) for _ in range(k)) for _ in range(k)
            )
            game = make_game(f"g{i}", names, payoff, rng.randint(0, 10))
            protocol = derive_protocol(game, ALL_TIES)
            result = check_pavlovian(protocol, SUBSET)
            if not isinstance(result, Witness):
                details.append(
                    f"game {i} (threshold {game.threshold}) not recognized")

    run_criterion(
        9, 10.0,
        "200 random integer games round trip through derive and the subset "
        "check",
        body)


def test_criterion_10_csv_reproducibility(tmp_path, kernels_warm, capsys):
    def body(details):
        maj = tmp_path / "majority.txt"
        cli_main(["builtin", "majority"])
        maj.write_text(capsys.readouterr().out, encoding="utf-8")
        pd = tmp_path / "pd.txt"
        cli_main(["builtin", "pavlov-pd"])
        pd.write_text(capsys.readouterr().out, encoding="utf-8")
        invocations = [
            ["simulate", str(maj), "--input", "0:3,1:2", "--trials", "25",
             "--seed", "5", "--stop", "window:12"],
            ["simulate", str(pd), "--init-states", "all-D", "--size", "6",
             "--trials", "25", "--seed", "5", "--graph", "ring"],
        ]
        for idx, argv in enumerate(invocations):
            blobs = []
            for attempt in range(2):
                out = tmp_path / f"run{idx}-{attempt}.csv"
                code = cli_main(argv + ["--csv", str(out)])
                capsys.readouterr()
                if code != 0:
                    details.append(f"invocation {idx} exited {code}")
                blobs.append(out.read_bytes())
            if blobs[0] != blobs[1]:
                details.append(f"invocation {idx} CSV differs between runs")
            if not blobs[0].startswith(b"trial,steps,stabilized,final_output"):
                details.append(f"invocation {idx} missing CSV header")

    run_criterion(
        10, 60.0,
        "equal seeds give byte-identical CSV from the simulate command",
        body)
