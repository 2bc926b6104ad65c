"""Time how long each `popgames` command takes to launch.

One sample is one fresh interpreter that runs ``popgames ARGS`` through
`cli.main`, from the moment this script starts it to the moment the command
enters its compute function (the `cli` binding it hands its parsed inputs
to), or to the end of `--help`.  The child exits there, so a sample covers
the launch alone: interpreter start-up, imports, argument parsing and input
reading.  The `bare` row is an interpreter that imports nothing of popgames.

Two settings are measured:

  env     the caller's environment as it is (where it would write bytecode
          next to the sources, the writes go to a temporary directory);
  cached  with a bytecode cache: only the child's environment changes, by
          dropping PYTHONDONTWRITEBYTECODE and pointing PYTHONPYCACHEPREFIX
          at a temporary directory, which one untimed launch per command
          fills first.

Samples alternate over commands, settings and source trees (`--src`, which
may be given more than once; default: this checkout's src), with the order
of the trees reversed every other round, so a shared host's load falls on
all of them alike.  The table gives each row's median and quartiles in ms.  Inputs
and the cache live in a temporary directory; nothing else is written and no
machine setting changes.

    python3 benchmarks/bench_launch.py --repeats 15
    python3 benchmarks/bench_launch.py --src /path/to/old/src --src src
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# command name -> (argv, the cli binding its compute starts at; None: run to the end)
COMMANDS = {
    "bare": (None, None),
    "help": (["--help"], None),
    "builtin": (["builtin", "pd"], "builtin"),
    "derive": (["derive", "{pd-game}"], "derive_protocol"),
    "symmetrize": (["symmetrize", "{majority}"], "symmetrize"),
    "check": (["check", "--pavlovian", "{majority}"], "check_pavlovian"),
    "verify": (["verify", "{majority}", "--predicate", "n_1 >= n_0", "--sizes", "2..5"],
               "stably_computes"),
    "search": (["search", "--states", "2", "--predicate", "n_1 >= 1", "--alphabet", "0,1,2",
                "--sizes", "2..5", "--json"], "iter_search_pavlovian"),
    "simulate": (["simulate", "{pavlov-pd}", "--init-states", "all-D", "--size", "3",
                  "--trials", "2500", "--seed", "1"], "monte_carlo"),
}

# argv: SRC ENTRY ARGS...; prints the monotonic clock at the entry (or at the
# end) as the last line of stderr, then exits
CHILD = """
import os, sys, time
src, entry, *argv = sys.argv[1:]

def mark():
    sys.stderr.write(repr(time.clock_gettime(time.CLOCK_MONOTONIC)) + "\\n")
    sys.stderr.flush()
    os._exit(0)

if entry == "bare":
    mark()
sys.path.insert(0, src)
from popgames import cli
if entry != "-":
    setattr(cli, entry, lambda *args, **kwargs: mark())
cli.main(argv)
sys.stdout.flush()
mark()
"""


def write_inputs(src: str, workdir: str) -> dict[str, str]:
    """The protocol and game files the commands read, from `src`'s library."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    from popgames import builtin, print_game, print_protocol

    texts = {
        "pavlov-pd": print_protocol(builtin("pavlov-pd")),
        "majority": print_protocol(builtin("majority")),
        "pd-game": print_game(builtin("pd")),
    }
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(workdir, name + ".txt")
        with open(paths[name], "w", encoding="utf-8") as handle:
            handle.write(text)
    return paths


def child_envs(workdir: str) -> dict[str, dict[str, str]]:
    """The two settings' environments.  Where the caller's environment would
    write bytecode next to the sources, its writes go to the temporary
    directory instead, so no setting writes into a source tree."""
    env = dict(os.environ)
    if not env.get("PYTHONDONTWRITEBYTECODE") and not env.get("PYTHONPYCACHEPREFIX"):
        env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "env-pycache")
    cached = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cached["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
    return {"env": env, "cached": cached}


def launch(src: str, command: str, inputs: dict[str, str], env: dict, workdir: str) -> float:
    """Seconds from starting the child to its mark."""
    argv, entry = COMMANDS[command]
    words = [word.format(**inputs) for word in argv or []]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, "bare" if argv is None else entry or "-", *words],
        env=env, cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{command} failed under {src}:\n{proc.stderr}")
    return float(proc.stderr.splitlines()[-1]) - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", help="package source tree (repeatable)")
    parser.add_argument("--repeats", type=int, default=11)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    srcs = [os.path.abspath(src) for src in args.src or [os.path.join(ROOT, "src")]]

    with tempfile.TemporaryDirectory(prefix="bench-launch-") as workdir:
        inputs = write_inputs(srcs[0], workdir)
        envs = child_envs(workdir)
        for command in COMMANDS:  # fill the cache; warm the file cache for both settings
            for env in envs.values():
                for src in srcs:
                    launch(src, command, inputs, env, workdir)
        samples: dict[tuple[str, str, str], list[float]] = {}
        for round_ in range(args.repeats):
            order = srcs if round_ % 2 == 0 else srcs[::-1]
            for command in COMMANDS:
                for setting, env in envs.items():
                    for src in order:
                        seconds = launch(src, command, inputs, env, workdir)
                        samples.setdefault((command, setting, src), []).append(seconds)

    label = {src: f"[{i}]" for i, src in enumerate(srcs)}
    for src in srcs:
        print(f"{label[src]} {src}")
    print(f"python {sys.version.split()[0]}, {args.repeats} launches per row")
    print(f"{'command':<11} {'setting':<7} {'src':<4} {'median':>8} {'q1':>8} {'q3':>8}  (ms)")
    for (command, setting, src), times in samples.items():
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        print(f"{command:<11} {setting:<7} {label[src]:<4} "
              f"{1e3 * median:8.1f} {1e3 * q1:8.1f} {1e3 * q3:8.1f}")


if __name__ == "__main__":
    main()
