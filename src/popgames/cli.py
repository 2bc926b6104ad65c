"""Command-line surface: file I/O, reports, and the exit-code contract.

Exit codes: 0 success / property holds, 1 property fails, 2 usage or parse
error, 3 resource budget exceeded.  `verify` and `search` take one budget:
--budget, else POPGAMES_BUDGET, else verify.DEFAULT_BUDGET; in `search` that
one value gates the candidate count and every exploration.  Verification
reports always state the population sizes they covered; nothing is claimed
beyond them.  `simulate` checks the stop rule before the step budget (so
--max-steps 0 reports a silent start as stabilized) and rejects a negative
--max-steps and a disconnected --graph file.

A command loads only the modules it calls.  `core` and `formats` load with
this module.  Before a command runs, `main` binds here as globals the public
names (`popgames._EXPORTS`) of the other modules its command lists; from
outside, the first access to a public name (``cli.monte_carlo``) binds its
module's names.  A name bound earlier is kept, so a caller may wrap a
command's entry point before calling `main`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import import_module

from . import _EXPORTS, core
from .core import (
    BudgetExceeded,
    Protocol,
    ProtocolError,
    config_of,
    initial_config,
    is_deterministic,
    is_symmetric,
)
from .formats import (
    FormatError,
    parse_game,
    parse_graph_file,
    parse_protocol,
    parse_rational,
    print_game,
    print_protocol,
)


def _load(*modules: str) -> None:
    """Import `modules` and bind their public names here, keeping any name
    already bound."""
    for module in modules:
        source = import_module("." + module, __package__)
        for name in _EXPORTS[module].split():
            globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    from . import _MODULE_OF

    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


def resolve_budget(args) -> int:
    """--budget, else POPGAMES_BUDGET, else DEFAULT_BUDGET."""
    if args.budget is not None:
        if args.budget < 0:
            raise ProtocolError(f"--budget must be >= 0, got {args.budget}")
        return args.budget
    raw = os.environ.get("POPGAMES_BUDGET", "")
    if not raw:
        return DEFAULT_BUDGET
    if not raw.isdecimal():
        raise ProtocolError(
            f"POPGAMES_BUDGET must be a non-negative integer, got {raw!r}"
        )
    return _int(raw, "POPGAMES_BUDGET")


# ---------------------------------------------------------------------------
# small argument parsers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _int(text: str, what: str) -> int:
    """Decimal digits, checked by the caller, with an optional "-": an int, or
    a ProtocolError naming `what` when `int` refuses that many digits."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.removeprefix("-"))
        raise ProtocolError(f"{what}: number of {digits} digits is too long") from None


def _parse_sizes(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise ProtocolError(f"sizes must look like 2..8, got {spec!r}")
    return range(_int(lo, "--sizes"), _int(hi, "--sizes") + 1)


def _parse_counts(spec: str, what: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in spec.split(","):
        key, sep, value = part.partition(":")
        if not sep or not key or not value.removeprefix("-").isdecimal():
            raise ProtocolError(f"{what} must look like a:2,b:1, got {spec!r}")
        counts[key] = counts.get(key, 0) + _int(value, what)
    return counts


def _parse_stop(spec: str):
    if spec == "silent":
        return "silent"
    if spec == "none":
        return None
    kind, sep, arg = spec.partition(":")
    if kind == "window" and sep and arg.isdecimal():
        return ("window", _int(arg, "--stop window:<w>"))
    raise ProtocolError(f"stop rule must be silent, none, or window:<w>, got {spec!r}")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# check


def _witness_json(witness: Witness) -> dict:
    return {"matrix": [list(row) for row in witness.matrix], "threshold": witness.threshold}


def _witness_game(protocol: Protocol, witness: Witness) -> str:
    return print_game(witness.to_game(protocol.name + "-witness"))


def cmd_check(args) -> int:
    if args.mode is not None and not args.pavlovian:
        raise ProtocolError("--mode applies only with --pavlovian")
    protocol = parse_protocol(_read(args.file))
    deterministic = is_deterministic(protocol)
    symmetric = is_symmetric(protocol)
    payload = {
        "name": protocol.name,
        "states": list(protocol.states),
        "deterministic": deterministic,
        "symmetric": symmetric,
    }
    lines = [
        f"protocol {protocol.name}: {protocol.state_count} states, "
        f"{'deterministic' if deterministic else 'nondeterministic'}, "
        f"{'symmetric' if symmetric else 'not symmetric'}"
    ]
    if not args.pavlovian:
        _emit(args, payload, lines)
        return 0

    mode = args.mode or default_mode(protocol)
    payload["mode"] = mode
    result = check_pavlovian(protocol, mode)
    if isinstance(result, Witness):
        payload["pavlovian"] = True
        payload["witness"] = _witness_json(result)
        lines.append(f"pavlovian: yes (mode {mode})")
        lines.extend(_witness_game(protocol, result).splitlines())
        _emit(args, payload, lines)
        return 0

    payload["pavlovian"] = False
    payload["reason"] = result.reason
    lines.append(f"pavlovian: no (mode {mode})")
    lines.append(f"reason: {result.reason}")
    if result.violating_tuple is not None:
        names = protocol.states
        q1, q2, a, b = result.violating_tuple
        detail = f"{names[q1]} {names[q2]} -> {names[a]} {names[b]}"
        payload["violating_rule"] = detail
        lines.append(f"violating rule: {detail}")
    if result.certificate is not None:
        rendered = format_certificate(result.certificate, protocol.states)
        payload["certificate"] = [
            format_var(v, protocol.states) for v in result.certificate.cycle
        ]
        lines.append(f"certificate: {rendered}")
    _emit(args, payload, lines)
    return 1


# ---------------------------------------------------------------------------
# derive


def attach_io(protocol: Protocol, inputs: str | None, outputs: str | None) -> Protocol:
    """Attach the maps of `--inputs 0=C,1=D` and `--outputs C=1,D=0`, split
    into (key, value) pairs in their order; `core.attach_io` checks them."""

    def pairs(spec: str) -> list[tuple[str, str]]:
        return [part.partition("=")[::2] for part in spec.split(",")]

    bit = {"0": 0, "1": 1}
    return core.attach_io(
        protocol,
        pairs(inputs) if inputs else None,
        [(state, bit.get(b, b)) for state, b in pairs(outputs)] if outputs else None,
    )


def cmd_derive(args) -> int:
    game = parse_game(_read(args.file))
    mode = ALL_TIES if args.tie_break == "all" else LOWEST_INDEX
    protocol = attach_io(derive_protocol(game, mode), args.inputs, args.outputs)
    sys.stdout.write(print_protocol(protocol))
    return 0


# ---------------------------------------------------------------------------
# simulate


def _resolve_init(args, protocol: Protocol) -> tuple:
    given = [spec for spec in (args.input, args.init_states) if spec]
    if len(given) != 1:
        raise ProtocolError("exactly one of --input / --init-states is required")
    all_of = (args.init_states or "").startswith("all-")
    if all_of != (args.size is not None):
        raise ProtocolError("--size applies only to --init-states all-<state>, which needs it")
    if args.input:
        counts = _parse_counts(args.input, "--input")
        return initial_config(protocol, counts)
    spec = args.init_states
    if all_of:
        return config_of(protocol, {spec[4:]: args.size})
    return config_of(protocol, _parse_counts(spec, "--init-states"))


def _resolve_graph(args, population: int) -> InteractionGraph | None:
    spec = args.graph
    if spec == "complete":
        return None
    if spec == "ring":
        return InteractionGraph.ring(population)
    kind, sep, path = spec.partition(":")
    if kind == "file" and sep:
        vertex_count, edges = parse_graph_file(_read(path))
        return InteractionGraph(vertex_count, tuple(edges))
    raise ProtocolError(f"graph must be complete, ring, or file:<path>, got {spec!r}")


def _csv_rows(report: StatsReport) -> str:
    lines = ["trial,steps,stabilized,final_output"]
    for i, run_ in enumerate(report.runs):
        output = "undefined" if run_.output is None else str(run_.output)
        lines.append(
            f"{i},{run_.steps},{'true' if run_.stabilized else 'false'},{output}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    protocol = parse_protocol(_read(args.file))
    init = _resolve_init(args, protocol)
    population = int(sum(init))
    graph = _resolve_graph(args, population)
    stop = _parse_stop(args.stop)
    max_steps = DEFAULT_MAX_STEPS if args.max_steps is None else args.max_steps
    report = monte_carlo(
        protocol,
        init,
        graph=graph,
        trials=args.trials,
        seed=args.seed,
        max_steps=max_steps,
        stop=stop,
    )
    csv_text = _csv_rows(report)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    summary = {
        "protocol": protocol.name,
        "population": population,
        "graph": args.graph,
        "trials": report.trials,
        "successes": report.successes,
        "mean_steps": report.mean_steps,
        "median_steps": report.median_steps,
        "p95_steps": report.p95_steps,
        "seed": report.seed,
        "max_steps": max_steps,
        "stop": args.stop,
        "backend": backend(),
        "note": "identity interactions count as steps",
    }
    print(json.dumps(summary, indent=2))
    return 0


# ---------------------------------------------------------------------------
# verify


def _print_verdict(args, protocol: Protocol, verdict: Verdict) -> int:
    print(json.dumps(verdict.as_dict(protocol), indent=2))
    return 0 if verdict.passed else 1


def cmd_verify(args) -> int:
    protocol = parse_protocol(_read(args.file))
    sizes = _parse_sizes(args.sizes)
    budget = resolve_budget(args)
    given = [spec for spec in (args.predicate, args.leaders) if spec]
    if len(given) != 1:
        raise ProtocolError("exactly one of --predicate / --leaders is required")
    if args.initial_states is not None and not args.leaders:
        raise ProtocolError("--initial-states applies only with --leaders")
    if args.predicate:
        verdict = stably_computes(protocol, args.predicate, sizes, budget)
    else:
        leaders = tuple(args.leaders.split(","))
        pool = tuple(args.initial_states.split(",")) if args.initial_states else None
        verdict = stable_leader(protocol, leaders, sizes, pool, budget)
    return _print_verdict(args, protocol, verdict)


# ---------------------------------------------------------------------------
# symmetrize


def cmd_symmetrize(args) -> int:
    protocol = parse_protocol(_read(args.file))
    sys.stdout.write(print_protocol(symmetrize(protocol)))
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args) -> int:
    budget = resolve_budget(args)
    sizes = _parse_sizes(args.sizes)
    alphabet = tuple(args.alphabet.split(",")) if args.alphabet else None
    findings = []
    for protocol, witness in iter_search_pavlovian(
        args.states,
        args.predicate,
        sizes,
        mode=args.mode,
        budget=budget,
        alphabet=alphabet,
    ):
        entry = {
            "name": protocol.name,
            "protocol": print_protocol(protocol),
            "witness": _witness_json(witness),
        }
        findings.append(entry)
        if not args.json:
            print(f"# finding {len(findings)}")
            sys.stdout.write(entry["protocol"])
            sys.stdout.write(_witness_game(protocol, witness))
            print()
    if args.json:
        print(json.dumps(findings, indent=2))
    else:
        print(f"# {len(findings)} finding(s) over sizes {args.sizes}")
    return 0


# ---------------------------------------------------------------------------
# builtin export


def cmd_builtin(args) -> int:
    if args.key is None:
        for key in builtin_keys():
            print(key)
        return 0
    settings = {}
    for setting in args.set or []:
        name, sep, value = setting.partition("=")
        if not sep:
            raise ProtocolError(f"expected NAME=VALUE, got {setting!r}")
        try:
            settings[name] = parse_rational(value)
        except FormatError:
            raise ProtocolError(f"--set {name}: not a rational number: {value!r}") from None
    try:
        value = builtin(args.key, **settings)
    except TypeError as exc:
        raise ProtocolError(f"bad --set for {args.key!r}: {exc}") from exc
    if isinstance(value, Game):
        sys.stdout.write(print_game(value))
    else:
        sys.stdout.write(print_protocol(value))
        if args.key in LEADERS:
            print(f"# leader states: {','.join(LEADERS[args.key])}")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgames",
        description="Population protocols from threshold games: derive, "
        "check, simulate, verify, symmetrize, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="structural checks and Pavlovian witness")
    p.add_argument("file")
    p.add_argument("--pavlovian", action="store_true")
    p.add_argument("--mode", choices=("exact", "subset"), default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check, loads=("pavcheck",))

    p = sub.add_parser("derive", help="derive the protocol of a game file")
    p.add_argument("file")
    p.add_argument("--tie-break", choices=("all", "lowest"), default="all")
    p.add_argument("--inputs", help="attach inputs, e.g. 0=C,1=D")
    p.add_argument("--outputs", help="attach outputs, e.g. C=1,D=0")
    p.set_defaults(func=cmd_derive, loads=("games",))

    p = sub.add_parser("simulate", help="Monte Carlo runs; CSV + JSON summary")
    p.add_argument("file")
    p.add_argument("--input", help="input multiset, e.g. 0:3,1:2")
    p.add_argument("--init-states", help="state counts C:2,D:1 or all-<state>")
    p.add_argument("--size", type=int, help="population for all-<state>")
    p.add_argument("--graph", default="complete", help="complete, ring, or file:<path>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--stop", default="silent", help="silent, none, or window:<w>")
    p.add_argument("--csv", help="write per-trial rows to this path")
    p.set_defaults(func=cmd_simulate, loads=("sim", "_kernels"))

    p = sub.add_parser("verify", help="exact bounded verification; JSON verdict")
    p.add_argument("file")
    p.add_argument("--predicate", help='e.g. "n_1 >= 1"')
    p.add_argument("--leaders", help="leader states, e.g. L1,L2")
    p.add_argument("--initial-states", help="allowed initial states for --leaders")
    p.add_argument("--sizes", default="2..8")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_verify, loads=("verify",))

    p = sub.add_parser("symmetrize", help="state-doubling symmetric construction")
    p.add_argument("file")
    p.set_defaults(func=cmd_symmetrize, loads=("library",))

    p = sub.add_parser("search", help="enumerate small Pavlovian protocols")
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--predicate", required=True)
    p.add_argument("--sizes", default="2..6")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--alphabet", help="input symbols, default: predicate symbols")
    p.add_argument("--mode", choices=("exact", "subset"), default="exact")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search, loads=("verify",))

    p = sub.add_parser("builtin", help="export a builtin protocol or game")
    p.add_argument("key", nargs="?", default=None)
    p.add_argument("--set", action="append", help="pd parameters, e.g. --set T=5")
    p.set_defaults(func=cmd_builtin, loads=("library", "games"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _load(*args.loads)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    # FormatError, PredicateError and ProtocolError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
