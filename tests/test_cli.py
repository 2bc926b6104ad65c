"""Command-line interface: subcommands, exit codes, and report formats."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from popgames import builtin, make_game, parse_protocol, print_game, print_protocol
from popgames.core import attach_io
from popgames.cli import main
from popgames.games import ALL_TIES, derive_protocol

from conftest import cycle3_protocol


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def protocol_file(tmp_path, protocol, name="protocol.txt"):
    path = tmp_path / name
    path.write_text(print_protocol(protocol), encoding="utf-8")
    return str(path)


def game_file(tmp_path, game, name="game.txt"):
    path = tmp_path / name
    path.write_text(print_game(game), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_structural(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, out, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert "2 states, deterministic, symmetric" in out


def test_check_witness(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("majority"))
    code, out, _ = run_cli(capsys, "check", "--pavlovian", path)
    assert code == 0
    assert "pavlovian: yes (mode exact)" in out
    assert "threshold" in out

    code, out, _ = run_cli(capsys, "check", "--pavlovian", "--json", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["pavlovian"] is True
    assert payload["mode"] == "exact"
    assert len(payload["witness"]["matrix"]) == 4
    assert isinstance(payload["witness"]["threshold"], int)


def test_check_certificate(tmp_path, capsys):
    path = protocol_file(tmp_path, cycle3_protocol())
    code, out, _ = run_cli(capsys, "check", "--pavlovian", path)
    assert code == 1
    assert "pavlovian: no" in out
    assert "certificate:" in out and "<" in out

    code, out, _ = run_cli(capsys, "check", "--pavlovian", "--json", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["pavlovian"] is False
    assert payload["certificate"]


def test_check_defaults_to_subset_for_nondeterministic(tmp_path, capsys):
    flat = make_game("flat", ("a", "b", "c"), ((0,) * 3,) * 3, 1)
    path = protocol_file(tmp_path, derive_protocol(flat, ALL_TIES))
    code, out, _ = run_cli(capsys, "check", "--pavlovian", "--json", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "subset"
    assert payload["pavlovian"] is True


def test_check_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("protocol broken\nrule a b -> c d\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.txt"))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# derive


def test_derive_pd(tmp_path, capsys):
    path = game_file(tmp_path, builtin("pd"))
    code, out, _ = run_cli(
        capsys, "derive", "--tie-break", "lowest", path,
        "--inputs", "0=C,1=D", "--outputs", "C=1,D=0")
    assert code == 0
    derived = parse_protocol(out)
    assert derived.rules == builtin("pavlov-pd").rules
    assert derived.input_map == {"0": 0, "1": 1}
    assert derived.output_map == (1, 0)


def test_derive_partial_outputs_rejected(tmp_path, capsys):
    path = game_file(tmp_path, builtin("pd"))
    code, _, err = run_cli(capsys, "derive", path, "--outputs", "C=1")
    assert code == 2
    assert "misses state" in err


def test_derive_output_parses_back_equal(tmp_path, capsys):
    path = game_file(tmp_path, builtin("pd"))
    code, out, _ = run_cli(
        capsys, "derive", path, "--inputs", "0=C,1=D,x=C", "--outputs", "C=1,D=0")
    assert code == 0
    assert print_protocol(parse_protocol(out)) == out
    assert parse_protocol(out) == attach_io(
        derive_protocol(builtin("pd"), ALL_TIES),
        {"0": "C", "1": "D", "x": "C"},
        {"C": 1, "D": 0},
    )


def test_derive_refuses_repeated_keys_and_unwritable_symbols(tmp_path, capsys):
    path = game_file(tmp_path, builtin("pd"))
    cases = [
        (("--inputs", "0=C,0=D"), "duplicate input symbol '0'"),
        (("--outputs", "C=1,D=0,C=0"), "duplicate output for state 'C'"),
        (("--inputs", "0=C,a b=D"), "input symbol 'a b'"),
        (("--inputs", "0=C,=D"), "input symbol ''"),
        (("--inputs", "0=C,#=D"), "input symbol '#'"),
        (("--inputs", "0=C,1=Z"), "unknown state 'Z'"),
        (("--outputs", "C=1,D=2"), "output bit for 'D' must be 0 or 1"),
    ]
    for flags, message in cases:
        code, out, err = run_cli(capsys, "derive", path, *flags)
        assert (code, out) == (2, ""), flags
        assert message in err, flags


def test_derive_tie_break_modes(tmp_path, capsys):
    flat = make_game("flat", ("a", "b", "c"), ((0,) * 3,) * 3, 1)
    path = game_file(tmp_path, flat)
    code, out, _ = run_cli(capsys, "derive", path)
    assert code == 0
    assert len(parse_protocol(out).rules[(0, 0)]) > 1
    code, out, _ = run_cli(capsys, "derive", "--tie-break", "lowest", path)
    assert code == 0
    all_rules = parse_protocol(out).rules
    assert all(len(succ) == 1 for succ in all_rules.values())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_csv_identical_for_equal_seeds(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("pavlov-pd"))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out_path in (out1, out2):
        code, stdout, _ = run_cli(
            capsys, "simulate", path, "--init-states", "all-D", "--size", "6",
            "--trials", "20", "--seed", "7", "--csv", str(out_path))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["successes"] == 20
        assert summary["backend"] in ("numba", "numpy")
        assert summary["note"] == "identity interactions count as steps"
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text(encoding="utf-8").splitlines()[0]
    assert header == "trial,steps,stabilized,final_output"


def test_simulate_csv_differs_across_seeds(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("pavlov-pd"))
    rows = []
    for seed in ("7", "8"):
        out_path = tmp_path / f"s{seed}.csv"
        code, _, _ = run_cli(
            capsys, "simulate", path, "--init-states", "all-D", "--size", "6",
            "--trials", "20", "--seed", seed, "--csv", str(out_path))
        assert code == 0
        rows.append(out_path.read_bytes())
    assert rows[0] != rows[1]


def test_simulate_stdout_mixes_csv_and_summary(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, out, _ = run_cli(
        capsys, "simulate", path, "--input", "0:2,1:1", "--trials", "2")
    assert code == 0
    csv_part, brace, json_part = out.partition("{")
    lines = csv_part.strip().splitlines()
    assert lines[0] == "trial,steps,stabilized,final_output"
    assert len(lines) == 3
    summary = json.loads(brace + json_part)
    assert summary["population"] == 3
    assert summary["trials"] == 2


def test_simulate_on_graphs(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("pavlov-pd"))
    code, _, _ = run_cli(
        capsys, "simulate", path, "--init-states", "all-D", "--size", "5",
        "--graph", "ring")
    assert code == 0

    graph_path = tmp_path / "path.graph"
    graph_path.write_text(
        "vertices 4\nedge 0 1\nedge 1 2\nedge 2 3\n", encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "simulate", path, "--init-states", "all-D", "--size", "4",
        "--graph", f"file:{graph_path}")
    assert code == 0

    code, _, err = run_cli(
        capsys, "simulate", path, "--init-states", "all-D", "--size", "4",
        "--graph", "torus")
    assert code == 2
    assert "graph must be" in err


def test_simulate_rejects_negative_max_steps_and_cut_off_graphs(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("pavlov-pd"))
    code, _, err = run_cli(
        capsys, "simulate", path, "--init-states", "all-D", "--size", "3",
        "--max-steps", "-1")
    assert code == 2
    assert "max_steps" in err
    graph_path = tmp_path / "cut.graph"
    graph_path.write_text("vertices 4\nedge 0 1\nedge 1 2\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "simulate", path, "--init-states", "all-D", "--size", "4",
        "--graph", f"file:{graph_path}")
    assert code == 2
    assert "vertex 3 cannot be reached" in err


def test_simulate_init_validation(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(capsys, "simulate", path)
    assert code == 2
    assert "exactly one of" in err
    code, _, err = run_cli(
        capsys, "simulate", path, "--input", "0:3", "--init-states", "all-0",
        "--size", "3")
    assert code == 2


def test_options_the_chosen_path_never_reads_are_refused(tmp_path, capsys):
    pd = protocol_file(tmp_path, builtin("pavlov-pd"), "pd.txt")
    or_path = protocol_file(tmp_path, builtin("or"), "or.txt")
    cases = [
        (("simulate", pd, "--init-states", "C:2,D:1", "--size", "50"), "--size"),
        (("simulate", or_path, "--input", "0:3", "--size", "50"), "--size"),
        (("verify", or_path, "--predicate", "n_1 >= 1", "--initial-states", "0"),
         "--initial-states"),
        (("check", or_path, "--mode", "subset"), "--mode"),
    ]
    for argv, option in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"{option} applies only" in err, argv


def test_simulate_stop_rules(tmp_path, capsys):
    maj = protocol_file(tmp_path, builtin("majority"), "maj.txt")
    code, out, _ = run_cli(
        capsys, "simulate", maj, "--input", "0:2,1:1", "--stop", "window:8")
    assert code == 0
    assert '"1"' in out.splitlines()[1] or ",1" in out.splitlines()[1]

    code, out, _ = run_cli(
        capsys, "simulate", maj, "--input", "0:2,1:1", "--stop", "none",
        "--max-steps", "9")
    assert code == 0
    assert out.splitlines()[1].startswith("0,9,false")

    code, _, err = run_cli(
        capsys, "simulate", maj, "--input", "0:2,1:1", "--stop", "quiet")
    assert code == 2
    assert "stop rule" in err


def test_number_options_refuse_non_decimal_digits(tmp_path, capsys, monkeypatch):
    # `²` is a digit to `str.isdigit` but not to `int`; each refusal names
    # the option or variable that held it
    path = protocol_file(tmp_path, builtin("or"))
    verify = ("verify", path, "--predicate", "n_1 >= 1")
    cases = [
        ((*verify, "--sizes", "2..²"), "sizes must look like 2..8, got '2..²'"),
        (("simulate", path, "--input", "0:²"), "--input must look like a:2,b:1, got '0:²'"),
        (("simulate", path, "--input", "0:--3"), "--input must look like a:2,b:1, got '0:--3'"),
        (("simulate", path, "--init-states", "0:3,1:-1"), "negative count for state '1'"),
        (("simulate", path, "--input", "0:3", "--stop", "window:²"),
         "stop rule must be silent, none, or window:<w>, got 'window:²'"),
    ]
    for argv, message in cases:
        assert run_cli(capsys, *argv)[::2] == (2, f"error: {message}\n")
    monkeypatch.setenv("POPGAMES_BUDGET", "²")
    assert run_cli(capsys, *verify, "--sizes", "2..3")[::2] == (
        2, "error: POPGAMES_BUDGET must be a non-negative integer, got '²'\n")


HUGE = "9" * 5000  # more digits than `int` reads from a string


@pytest.mark.parametrize(
    "argv, budget, what",
    [
        (("verify", "{path}", "--predicate", "n_1 >= 1", "--sizes", f"2..{HUGE}"), None,
         "--sizes"),
        (("simulate", "{path}", "--input", f"0:{HUGE}"), None, "--input"),
        (("simulate", "{path}", "--init-states", f"0:-{HUGE}"), None, "--init-states"),
        (("simulate", "{path}", "--input", "0:3", "--stop", f"window:{HUGE}"), None,
         "--stop window:<w>"),
        (("verify", "{path}", "--predicate", "n_1 >= 1", "--sizes", "2..3"), HUGE,
         "POPGAMES_BUDGET"),
    ],
    ids=["sizes", "counts", "negative-counts", "stop-window", "budget"],
)
def test_a_number_too_long_for_int_names_its_option(
    tmp_path, capsys, monkeypatch, argv, budget, what
):
    path = protocol_file(tmp_path, builtin("or"))
    if budget is not None:
        monkeypatch.setenv("POPGAMES_BUDGET", budget)
    argv = [arg.replace("{path}", path) for arg in argv]
    assert run_cli(capsys, *argv)[::2] == (
        2, f"error: {what}: number of 5000 digits is too long\n")


def test_simulate_rejects_zero_trials(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(
        capsys, "simulate", path, "--input", "0:3", "--trials", "0")
    assert code == 2
    assert "trials" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_or_passes(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, out, _ = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--sizes", "2..4")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["passed"] is True
    assert verdict["sizes"] == [2, 3, 4]
    assert verdict["note"] == "exhaustive over the listed population sizes only"


def test_verify_weak_xor_fails(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("weak-xor"))
    code, out, _ = run_cli(
        capsys, "verify", path, "--predicate", "n_1 mod 2 = 1",
        "--sizes", "2..4")
    assert code == 1
    verdict = json.loads(out)
    assert verdict["passed"] is False
    failing = [r for r in verdict["inputs"] if not r["passed"]]
    assert failing
    assert all("counterexample" in r for r in failing)
    assert all(r["counterexample"]["path"] for r in failing)


def test_verify_leader_election(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("leader-pavlovian"))
    code, out, _ = run_cli(
        capsys, "verify", path, "--leaders", "L1,L2", "--sizes", "3..4")
    assert code == 0
    assert json.loads(out)["passed"] is True

    code, out, _ = run_cli(
        capsys, "verify", path, "--leaders", "L1,L2", "--sizes", "2..2")
    assert code == 1

    code, out, _ = run_cli(
        capsys, "verify", path, "--leaders", "L1,L2", "--sizes", "3..3",
        "--initial-states", "L1,N")
    assert code == 0

    code, out, err = run_cli(
        capsys, "verify", path, "--leaders", "L1,L2", "--sizes", "3..3",
        "--initial-states", "L1,L1")
    assert (code, out) == (2, "")
    assert "initial state 'L1' is listed twice" in err

    classic = protocol_file(tmp_path, builtin("leader-classic"), "lc.txt")
    code, out, err = run_cli(
        capsys, "verify", classic, "--leaders", "L", "--initial-states", "N",
        "--sizes", "2..4")
    assert (code, out) == (2, "")
    assert "no start has a leader" in err


def test_verify_property_flags(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(capsys, "verify", path)
    assert code == 2
    assert "exactly one of" in err
    code, _, _ = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1",
        "--leaders", "0,1")
    assert code == 2


def test_verify_bad_sizes_and_predicate(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--sizes", "8")
    assert code == 2
    assert "sizes" in err
    code, _, err = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >", "--sizes", "2..3")
    assert code == 2
    assert "position" in err


def test_verify_budget_flag(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--sizes", "3..3",
        "--budget", "2")
    assert code == 3
    assert "error:" in err


def test_verify_budget_env(tmp_path, capsys, monkeypatch):
    path = protocol_file(tmp_path, builtin("or"))
    monkeypatch.setenv("POPGAMES_BUDGET", "2")
    code, _, _ = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--sizes", "3..3")
    assert code == 3
    monkeypatch.setenv("POPGAMES_BUDGET", "not-a-number")
    code, _, err = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--sizes", "3..3")
    assert code == 2
    assert "POPGAMES_BUDGET" in err and "not-a-number" in err


def test_budget_flag_wins_over_env(tmp_path, capsys, monkeypatch):
    path = protocol_file(tmp_path, builtin("or"))
    search = ("search", "--states", "2", "--predicate", "n_1 >= 1",
              "--sizes", "2..3", "--budget", "100000")
    verify = ("verify", path, "--predicate", "n_1 >= 1", "--sizes", "3..3",
              "--budget", "100")
    for env in ("3", "abc"):
        monkeypatch.setenv("POPGAMES_BUDGET", env)
        assert run_cli(capsys, *search)[0] == 0, env
        assert run_cli(capsys, *verify)[0] == 0, env


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, _, err = run_cli(
        capsys, "verify", path, "--predicate", "n_1 >= 1", "--budget", "-1")
    assert code == 2
    assert "--budget" in err
    code, _, err = run_cli(
        capsys, "search", "--states", "2", "--predicate", "n_1 >= 1",
        "--budget", "-1")
    assert code == 2
    assert "--budget" in err


# ---------------------------------------------------------------------------
# symmetrize and search


def test_symmetrize_pipes_into_verify(tmp_path, capsys):
    path = protocol_file(tmp_path, builtin("or"))
    code, out, _ = run_cli(capsys, "symmetrize", path)
    assert code == 0
    from popgames import symmetrize

    assert parse_protocol(out) == symmetrize(builtin("or"))
    doubled_path = tmp_path / "doubled.txt"
    doubled_path.write_text(out, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "verify", str(doubled_path), "--predicate", "n_1 >= 1",
        "--sizes", "3..4")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_search_finds_or(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "search", "--states", "2", "--predicate", "n_1 >= 1",
        "--sizes", "2..3", "--alphabet", "0,1", "--json")
    assert code == 0
    findings = json.loads(out)
    assert findings
    parsed = [parse_protocol(entry["protocol"]) for entry in findings]
    assert any(
        p.rules == builtin("or").rules
        and p.input_map == {"0": 0, "1": 1}
        and p.output_map == (0, 1)
        for p in parsed
    )
    for entry in findings:
        assert len(entry["witness"]["matrix"]) == 2

    code, out, _ = run_cli(
        capsys, "search", "--states", "2", "--predicate", "n_1 >= 1",
        "--sizes", "2..3", "--alphabet", "0,1")
    assert code == 0
    assert "# finding 1" in out
    assert "finding(s) over sizes 2..3" in out


def test_search_refuses_a_bad_alphabet(capsys):
    cases = [
        ("0,1,1", "duplicate input symbol '1'"),
        ("0,,1", "input symbol ''"),
        ("0,a b", "input symbol 'a b'"),
        ("0,a=b", "input symbol 'a=b'"),
        ("0,#1", "input symbol '#1'"),
    ]
    for alphabet, message in cases:
        code, out, err = run_cli(
            capsys, "search", "--states", "2", "--predicate", "n_1 >= 1",
            "--sizes", "2..3", "--alphabet", alphabet, "--json")
        assert (code, out) == (2, ""), alphabet
        assert message in err, alphabet


def test_search_budget(capsys):
    code, _, err = run_cli(
        capsys, "search", "--states", "3", "--predicate", "n_1 >= 1",
        "--sizes", "2..2", "--budget", "100")
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# builtin export


def test_builtin_listing(capsys):
    code, out, _ = run_cli(capsys, "builtin")
    assert code == 0
    keys = out.split()
    assert "or" in keys and "pd" in keys and len(keys) == 10


def test_builtin_protocol_export(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "builtin", "or")
    assert code == 0
    assert parse_protocol(out) == builtin("or")

    code, out, _ = run_cli(capsys, "builtin", "leader-pavlovian")
    assert code == 0
    assert "# leader states: L1,L2" in out


def test_builtin_game_export(capsys):
    code, out, _ = run_cli(capsys, "builtin", "pd")
    assert code == 0
    assert "threshold 2" in out

    code, out, _ = run_cli(
        capsys, "builtin", "pd", "--set", "R=4", "--set", "threshold=3")
    assert code == 0
    assert "threshold 3" in out and "4" in out


def test_builtin_bad_requests(capsys):
    code, _, err = run_cli(capsys, "builtin", "xor")
    assert code == 2
    assert "unknown builtin" in err
    code, _, err = run_cli(capsys, "builtin", "pd", "--set", "X=1")
    assert (code, err) == (
        2, "error: bad --set for 'pd': no setting 'X'; pd takes T, R, P, S, threshold\n")
    code, _, err = run_cli(capsys, "builtin", "pd", "--set", "T")
    assert code == 2
    # a bad value names the option and the setting, not a file position
    code, _, err = run_cli(capsys, "builtin", "pd", "--set", "T=abc")
    assert (code, err) == (2, "error: --set T: not a rational number: 'abc'\n")
    code, _, err = run_cli(capsys, "builtin", "or", "--set", "T=3")
    assert (code, err) == (2, "error: builtin 'or' takes no settings\n")


# ---------------------------------------------------------------------------
# wiring


@pytest.mark.parametrize("argv, message", [
    (("search", "--states", "2", "--predicate", "n_1 >= 1", "--sizes", "2..3",
      "--alphabet", ""), "input symbol ''"),
    (("verify", "or.txt", "--predicate", "n_1 >= 1", "--leaders", ""),
     "exactly one of --predicate / --leaders is required"),
    (("verify", "lp.txt", "--leaders", "L1", "--initial-states", ""), "unknown state ''"),
    (("simulate", "or.txt", "--input", "0:2,1:1", "--csv", ""), "such file or directory: ''"),
    (("simulate", "or.txt", "--input", ""), "--input must look like a:2,b:1, got ''"),
    (("simulate", "or.txt", "--init-states", ""),
     "--init-states must look like a:2,b:1, got ''"),
    (("derive", "pd.txt", "--inputs", ""), "input symbol ''"),
    (("derive", "pd.txt", "--outputs", ""), "output for unknown state ''"),
])
def test_an_empty_option_is_refused_not_read_as_absent(tmp_path, capsys, argv, message):
    protocol_file(tmp_path, builtin("or"), "or.txt")
    protocol_file(tmp_path, builtin("leader-pavlovian"), "lp.txt")
    game_file(tmp_path, builtin("pd"), "pd.txt")
    argv = [str(tmp_path / arg) if arg.endswith(".txt") else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, ""), argv
    assert message in err, argv


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["simulate"]) == 2
    assert main(["check", "--mode", "both", "x"]) == 2
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "popgames.cli", "builtin"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "majority" in proc.stdout


def readme_commands():
    """The `popgames` lines of README's "Command line" block, with `\\`
    continuations joined, as shell words."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    return [words for words in lines if words]


def test_readme_command_line_block_runs_top_to_bottom(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 12
    for words in commands:
        assert words[0] == "popgames", words
        argv, target = words[1:], None
        if ">" in argv:
            at = argv.index(">")
            argv, target = argv[:at], argv[at + 1]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, words
        if target is not None:
            (tmp_path / target).write_text(out, encoding="utf-8")


# main() with argv from the command line, then a check that nothing it ran
# imported numpy
NUMPY_FREE = """
import sys
from popgames import cli
code = cli.main(sys.argv[1:])
assert "numpy" not in sys.modules, "numpy was imported"
sys.exit(code)
"""


def test_commands_run_without_numpy(tmp_path):
    pd = protocol_file(tmp_path, builtin("pavlov-pd"), "pd.txt")
    majority = protocol_file(tmp_path, builtin("majority"), "majority.txt")
    env = dict(os.environ, POPGAMES_NO_NUMBA="1")
    commands = [
        ["simulate", pd, "--init-states", "all-D", "--size", "3", "--trials", "5"],
        ["search", "--states", "2", "--predicate", "n_1 >= 1", "--sizes", "2..3", "--json"],
        ["check", "--pavlovian", majority],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE, *argv],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)


# main() with argv from the command line, then the popgames modules it loaded,
# as the last line of stderr
MODULES_LOADED = """
import sys
from popgames import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("popgames."))
print(" ".join(m.removeprefix("popgames.") for m in loaded), file=sys.stderr)
sys.exit(code)
"""

# beyond cli, core and formats, which every command loads
COMMAND_MODULES = [
    (["simulate", "pd.txt", "--init-states", "all-D", "--size", "3", "--trials", "2"], 0,
     {"sim", "_kernels"}),
    (["search", "--states", "2", "--predicate", "n_1 >= 1", "--sizes", "2..3", "--json"], 0,
     {"verify", "pavcheck", "games"}),
    (["search", "--states", "3", "--predicate", "n_1 >= 1", "--budget", "10"], 3,
     {"verify", "pavcheck", "games"}),
    (["verify", "majority.txt", "--predicate", "n_1 >= n_0", "--sizes", "2..3"], 1,
     {"verify", "pavcheck", "games"}),
    (["verify", "majority.txt", "--predicate", "n_1 >= n_0", "--budget", "2"], 3,
     {"verify", "pavcheck", "games"}),
    (["check", "--pavlovian", "majority.txt"], 0, {"pavcheck", "games"}),
    (["derive", "pd-game.txt"], 0, {"games"}),
    (["symmetrize", "majority.txt"], 0, {"library", "games"}),
    (["builtin", "pd", "--set", "T=5"], 0, {"library", "games"}),
    (["--help"], 0, set()),
]


@pytest.mark.parametrize("argv, exit_code, modules", COMMAND_MODULES,
                         ids=[" ".join(case[0][:1] + case[0][-1:]) for case in COMMAND_MODULES])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, exit_code, modules):
    files = {
        "pd.txt": protocol_file(tmp_path, builtin("pavlov-pd"), "pd.txt"),
        "majority.txt": protocol_file(tmp_path, builtin("majority"), "majority.txt"),
        "pd-game.txt": game_file(tmp_path, builtin("pd"), "pd-game.txt"),
    }
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_LOADED, *(files.get(word, word) for word in argv)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == exit_code, proc.stderr
    loaded = set(proc.stderr.splitlines()[-1].split())
    assert loaded == {"cli", "core", "formats"} | modules


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, popgames; print([m for m in sys.modules if m.startswith('popgames.')])"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
