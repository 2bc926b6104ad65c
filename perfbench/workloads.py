"""The three workloads: their inputs, the command each runs, and the checks.

Every expected answer here comes from outside the code under test: the exact
Pavlov prisoner's-dilemma chain and the per-agent semantics in
``tests/oracles.py``, the benchmark's own evaluation of a predicate or parse
of a protocol file, or a count pinned below.  Digests pin the byte outputs at
DEFAULT_SEED; at any other seed the repeats of one run must agree with each
other instead.

Each workload names its unit of work.  `work` in a check result is that
count for one command, and throughput is work over (wall time - set-up time).
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import itertools
import json
import os
from fractions import Fraction

DEFAULT_SEED = 1


class CheckFailed(Exception):
    """The command ran but its answer, or the work the trace saw, is wrong."""


@dataclasses.dataclass
class Outcome:
    work: float  # units of work done by one command
    digest: str  # of the deterministic output, for agreement across repeats
    facts: dict  # what the trace check compares against


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def without_stats(value):
    """Drop timing fields kept under a top-level `stats` key, if any."""
    if isinstance(value, dict):
        return {k: v for k, v in value.items() if k != "stats"}
    return value


def canonical_json(value) -> str:
    return json.dumps(without_stats(value), sort_keys=True, separators=(",", ":"))


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_counts(trace: dict, wanted: dict) -> None:
    """Each traced count must equal the work the command is known to do."""
    for key, value in wanted.items():
        seen = trace.get(key, 0)
        expect(seen == value, f"trace: {key} = {seen:g}, expected {value:g}")


# ---------------------------------------------------------------------------
# protocols built from the library


def write_protocol(workdir: str, filename: str, protocol) -> str:
    from popgames import print_protocol

    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(print_protocol(protocol))
    return path


def dynamics(state_count: int, stride: int = 1) -> list:
    """Every `stride`-th symmetric deterministic dynamics on `state_count`
    states, in the search's enumeration order, with one fixed input/output
    attachment."""
    from popgames.core import Protocol

    k = state_count
    states = tuple(f"s{i}" for i in range(k))
    off_pairs = [(q, r) for q in range(k) for r in range(q + 1, k)]
    out = []
    choices = itertools.product(
        itertools.product(range(k), repeat=k),
        itertools.product(itertools.product(range(k), repeat=2), repeat=len(off_pairs)),
    )
    for index, (diag, off) in enumerate(choices):
        if index % stride:
            continue
        rules = {(q, q): frozenset({(diag[q], diag[q])}) for q in range(k)}
        for (q, r), (a, b) in zip(off_pairs, off):
            rules[(q, r)] = frozenset({(a, b)})
            rules[(r, q)] = frozenset({(b, a)})
        out.append(
            Protocol(
                name=f"dyn-{index}",
                states=states,
                rules=rules,
                input_alphabet=("0", "1"),
                input_map={"0": 0, "1": k - 1},
                output_map=tuple(q % 2 for q in range(k)),
            )
        )
    return out


def pavcheck_record(result) -> dict:
    """JSON form of a check_pavlovian result: a witness or a certificate."""
    if hasattr(result, "matrix"):
        return {"matrix": [list(r) for r in result.matrix], "threshold": result.threshold}
    cert = result.certificate
    return {
        "reason": result.reason,
        "cycle": None if cert is None else [list(v) if isinstance(v, tuple) else v for v in cert.cycle],
        "strict": None if cert is None else list(cert.strict_steps),
    }


# ---------------------------------------------------------------------------
# simulate output


def split_simulate(output: str) -> tuple[str, dict, list[tuple[int, bool, str]]]:
    """CSV text, JSON summary and (steps, stabilized, final_output) rows."""
    cut = output.find("\n{")
    expect(cut >= 0, "simulate printed no JSON summary")
    csv_text, summary = output[: cut + 1], json.loads(output[cut + 1 :])
    lines = csv_text.splitlines()
    expect(lines[0] == "trial,steps,stabilized,final_output", "bad CSV header")
    rows = []
    for i, line in enumerate(lines[1:]):
        trial, steps, stabilized, final = line.split(",")
        expect(int(trial) == i, f"CSV row {i} numbered {trial}")
        rows.append((int(steps), stabilized == "true", final))
    return csv_text, summary, rows


class McPavlov:
    """``popgames simulate`` of the Pavlov prisoner's dilemma.  The CSV bytes
    are pinned at DEFAULT_SEED; `work` counts trials."""

    name = "mc-pavlov"
    unit = "trials"
    why = "2,500 short Pavlov PD runs of 3 agents: per-run cost of sim.run (tables, seeding, results, CSV) next to the kernel"
    deep_check = None

    def __init__(self, tiny: bool = False):
        self.trials = 40 if tiny else 2_500
        self.pinned = None if tiny else (
            "eb15bb45752cb7f632dc9396751cde877520845612509d1e1467c1f3598cea30"
        )

    def prepare(self, workdir: str, seed: int) -> list[str]:
        from popgames import builtin

        # C=1, D=0: a trial's final output is 1 exactly when it ends all-C
        protocol = dataclasses.replace(builtin("pavlov-pd"), output_map=(1, 0))
        path = write_protocol(workdir, "pavlov-pd.txt", protocol)
        return ["cli", "simulate", path, "--init-states", "all-D", "--size", "3",
                "--trials", str(self.trials), "--seed", str(seed)]

    def check(self, output: str, seed: int, oracles) -> Outcome:
        csv_text, summary, rows = split_simulate(output)
        expect(len(rows) == self.trials, f"{len(rows)} trials, expected {self.trials}")
        expect(all(s and f == "1" for _, s, f in rows), "a trial did not end all-C")
        steps = sum(n for n, _, _ in rows)
        mean, variance = pd_absorption(oracles, 3)
        observed = Fraction(steps, len(rows))
        se = (variance / len(rows)) ** 0.5
        expect(abs(float(observed - mean)) <= 5 * se,
               f"mean steps {float(observed):.4f} is over 5 SE from {mean}")
        if seed == DEFAULT_SEED and self.pinned is not None:
            expect(sha256(csv_text) == self.pinned, "CSV bytes differ from the pinned digest")
        return Outcome(
            work=self.trials,
            digest=sha256(csv_text + canonical_json(summary)),
            facts={"trials": self.trials, "steps": steps},
        )

    def trace_counts(self, facts: dict) -> dict:
        return {
            "cli.main.calls": 1,
            "formats.parse_protocol.calls": 1,
            "sim.monte_carlo.calls": 1,
            "sim.run.calls": self.trials,
            "kernels.run_multiset.calls": self.trials,
            "kernels.run_multiset.steps": facts["steps"],
        }


def pd_absorption(oracles, n: int) -> tuple[Fraction, Fraction]:
    """Exact mean and variance of the Pavlov PD absorption time from all-D.

    T_c = 1 + T_c' gives E[T_c^2] = sum_c' p(c, c') (1 + 2 E[T_c'] + E[T_c'^2]),
    one more linear system over the oracle's transition probabilities."""
    mean = {c: oracles.pd_expected_steps(n, c) for c in range(n + 1)}
    matrix = [[Fraction(0)] * n for _ in range(n)]
    rhs = [Fraction(0)] * n
    for c in range(n):
        matrix[c][c] += 1
        for c_next, p in oracles.pd_step_distribution(n, c).items():
            rhs[c] += p * (1 + 2 * mean[c_next])
            if c_next < n:
                matrix[c][c_next] -= p
    second = oracles.solve_linear(matrix, rhs)
    return mean[0], second[0] - mean[0] ** 2


# ---------------------------------------------------------------------------
# search


def parse_protocol_text(text: str):
    """Own reading of the protocol format: states, input and output maps,
    and the full rule table (unlisted pairs are the identity)."""
    states, inputs, outputs, listed = [], {}, {}, {}
    for line in text.splitlines():
        words = line.split()
        if not words or words[0] == "protocol":
            continue
        if words[0] == "states":
            states = words[1:]
        elif words[0] in ("inputs", "outputs"):
            target = inputs if words[0] == "inputs" else outputs
            for binding in words[1:]:
                key, value = binding.split("=")
                target[key] = value
        elif words[0] == "rule" and words[3] == "->":
            index = {s: i for i, s in enumerate(states)}
            pair = (index[words[1]], index[words[2]])
            listed.setdefault(pair, set()).add((index[words[4]], index[words[5]]))
        else:
            raise CheckFailed(f"unreadable protocol line {line!r}")
    k = len(states)
    rules = {(a, b): frozenset(listed.get((a, b), {(a, b)})) for a in range(k) for b in range(k)}
    input_map = {sym: states.index(q) for sym, q in inputs.items()}
    output_map = tuple(int(outputs[q]) for q in states)
    return k, rules, input_map, output_map


def canonical_form(k: int, rules: dict, input_map: dict, output_map: tuple) -> tuple:
    """The least relabelling of the states: equal for isomorphic protocols."""
    forms = []
    for perm in itertools.permutations(range(k)):
        inv = {perm[q]: q for q in range(k)}
        table = tuple(
            tuple(sorted((perm[a], perm[b]) for a, b in rules[(inv[x], inv[y])]))
            for x in range(k) for y in range(k)
        )
        iota = tuple(perm[input_map[s]] for s in sorted(input_map))
        omega = tuple(output_map[inv[x]] for x in range(k))
        forms.append((table, iota, omega))
    return min(forms)


# n_1 >= 1 over alphabet 0,1,2: the two findings are one class.  State 0
# outputs 1 and takes input 1, state 1 outputs 0 and takes inputs 0 and 2,
# and a meeting of the two turns both into state 0.
SEARCH_CLASSES = {
    (
        (((0, 0),), ((0, 0),), ((0, 0),), ((1, 1),)),
        (1, 0, 1),
        (1, 0),
    ),
}


class Search2State:
    name = "search-2state"
    unit = "candidates"
    why = "512 two-state candidates, all Pavlovian, each verified over 52 tiny graphs: per-exploration fixed cost"

    candidates = 2**2 * 4 * 2**3 * 2**2  # k^k (k^2)^(k(k-1)/2) k^|alphabet| 2^k, k = 2

    def __init__(self, tiny: bool = False):
        self.sizes = range(2, 4 if tiny else 6)

    @property
    def inputs(self) -> int:
        return sum((n + 1) * (n + 2) // 2 for n in self.sizes)  # 3 input symbols

    def prepare(self, workdir: str, seed: int) -> list[str]:
        return ["cli", "search", "--states", "2", "--predicate", "n_1 >= 1",
                "--alphabet", "0,1,2", "--sizes", f"{self.sizes[0]}..{self.sizes[-1]}", "--json"]

    def check(self, output: str, seed: int, oracles) -> Outcome:
        findings = json.loads(output)
        parsed = [parse_protocol_text(f["protocol"]) for f in findings]
        classes = {canonical_form(*p) for p in parsed}
        expect(classes == SEARCH_CLASSES, f"findings fall in classes {sorted(classes)}")
        return Outcome(
            work=self.candidates,
            digest=sha256(canonical_json(findings)),
            facts={"found": len(findings), "parsed": parsed},
        )

    def deep_check(self, outcome: Outcome, oracles) -> None:
        """Each finding stably computes n_1 >= 1 under the per-agent semantics."""
        for k, rules, input_map, output_map in outcome.facts["parsed"]:
            for n in self.sizes:
                for counts in oracles.compositions(n, 3):
                    expected = 1 if counts[1] >= 1 else 0
                    init = tuple(sorted(
                        input_map[sym] for sym, c in zip("012", counts) for _ in range(c)))
                    graph = oracles.agent_reachable(rules, init)
                    for scc in oracles.bottom_sccs_of(graph):
                        for agents in scc:
                            expect(all(output_map[q] == expected for q in agents),
                                   f"finding fails on input {counts}")

    def trace_counts(self, facts: dict) -> dict:
        pavlovian = self.candidates  # every two-state dynamics is Pavlovian
        return {
            "cli.main.calls": 1,
            "verify.iter_search_pavlovian.calls": 1,
            "search.candidates": self.candidates,
            "pavcheck.check_pavlovian.calls": self.candidates,
            "search.pavlovian": pavlovian,
            "verify.stably_computes.calls": pavlovian,
            "verify.stably_computes.inputs": pavlovian * self.inputs,
            "verify.reachable.calls": pavlovian * self.inputs,
            "verify.bottom_sccs.calls": pavlovian * self.inputs,
            "search.found": facts["found"],
        }


# ---------------------------------------------------------------------------
# pavcheck


class Pavcheck3State:
    name = "pavcheck-3state"
    unit = "protocols"
    why = "exact Pavlovian check of every 4th symmetric deterministic 3-state dynamics (4,921): the 3-state search's main stage"

    # (witnesses, refusals) per (state count, stride); all 19,683 3-state
    # dynamics give 4,096 witnesses and 15,587 refusals
    EXPECTED = {(2, 1): (16, 0), (3, 4): (1048, 3873)}

    def __init__(self, tiny: bool = False):
        self.states, self.stride = (2, 1) if tiny else (3, 4)

    def prepare(self, workdir: str, seed: int) -> list[str]:
        return ["pavcheck", str(self.states), str(self.stride)]

    def check(self, output: str, seed: int, oracles) -> Outcome:
        records = [json.loads(line) for line in output.splitlines()]
        witnesses = sum("matrix" in r for r in records)
        expected = self.EXPECTED[(self.states, self.stride)]
        expect((witnesses, len(records) - witnesses) == expected,
               f"{witnesses} witnesses and {len(records) - witnesses} refusals, expected {expected}")
        return Outcome(
            work=len(records),
            digest=sha256(output),
            facts={"witnesses": witnesses, "records": records},
        )

    def deep_check(self, outcome: Outcome, oracles) -> None:
        """Every refusal carries a certificate that checks against the constraints."""
        from popgames.pavcheck import EXACT, UnsatCertificate, build_constraints

        for protocol, record in zip(dynamics(self.states, self.stride), outcome.facts["records"]):
            if "matrix" in record:
                continue
            expect(record["cycle"] is not None, f"{protocol.name}: refusal without a certificate")
            cert = UnsatCertificate(
                cycle=tuple(tuple(v) if isinstance(v, list) else v for v in record["cycle"]),
                strict_steps=tuple(record["strict"]),
            )
            expect(cert.check_against(build_constraints(protocol, EXACT)),
                   f"{protocol.name}: certificate does not check")

    def trace_counts(self, facts: dict) -> dict:
        total = sum(self.EXPECTED[(self.states, self.stride)])
        witnesses = facts["witnesses"]
        return {
            "pavcheck.check_pavlovian.calls": total,
            "pavcheck.check_pavlovian.witnesses": witnesses,
            "pavcheck.check_pavlovian.refusals": total - witnesses,
            "pavcheck.build_constraints.calls": total,
            "pavcheck.solve_order_constraints.calls": total,
            "pavcheck.witness_reproduces.calls": witnesses,
            "games.derive_protocol.calls": witnesses,
        }


def build(tiny: bool = False) -> dict:
    return {w.name: w for w in (cls(tiny) for cls in
                                (McPavlov, Search2State, Pavcheck3State))}
