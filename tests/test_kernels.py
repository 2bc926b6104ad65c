import json
import os
import subprocess
import sys

import numpy as np

import oracles
from popgames import NUMBA_ENABLED, backend
import popgames._kernels as kernels

BATTERY = r"""
import json
from popgames import builtin, run
from popgames.sim import InteractionGraph

def snap(result):
    return {
        "steps": result.steps,
        "stabilized": result.stabilized,
        "final_config": list(result.final_config),
        "output": result.output,
        "final_states": None if result.final_states is None
                        else list(result.final_states),
        "trace": None if result.trace is None
                 else [list(c) for c in result.trace],
    }

pd = builtin("pavlov-pd")
maj = builtin("majority")
lead = builtin("leader-pavlovian")
out = []
for seed in range(5):
    out.append(snap(run(pd, {"D": 5}, seed=seed, max_steps=3000)))
    out.append(snap(run(pd, {"D": 6}, seed=seed, max_steps=3000,
                        graph=InteractionGraph.ring(6))))
    out.append(snap(run(maj, {"0": 3, "1": 2}, seed=seed, max_steps=3000)))
    out.append(snap(run(maj, {"0": 3, "1": 1}, seed=seed, max_steps=400,
                        stop=("window", 8))))
    out.append(snap(run(lead, {"L1": 2, "N": 2}, seed=seed, max_steps=300,
                        stop=None)))
    out.append(snap(run(maj, {"0": 2, "1": 2}, seed=seed, max_steps=60,
                        stop=None, record_trace=True)))
    out.append(snap(run(pd, {"D": 4}, seed=seed, max_steps=2000,
                        stop=("target", {"C": 4}))))
print(json.dumps(out))
"""


def run_battery(no_numba: bool) -> str:
    env = dict(os.environ)
    env.pop("POPGAMES_NO_NUMBA", None)
    if no_numba:
        env["POPGAMES_NO_NUMBA"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", BATTERY],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout


def test_backends_produce_identical_traces():
    with_numba = run_battery(no_numba=False)
    without = run_battery(no_numba=True)
    assert with_numba == without
    assert json.loads(with_numba)  # well-formed and non-empty


def test_fallback_flag_selects_numpy_backend():
    env = dict(os.environ, POPGAMES_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, "-c",
         "from popgames import backend, NUMBA_ENABLED;"
         "print(backend(), NUMBA_ENABLED)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.split() == ["numpy", "False"]


def test_backend_reports_current_mode():
    expected = "numba" if NUMBA_ENABLED else "numpy"
    assert backend() == expected


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**63, 2**64 - 1):
        state = kernels.seed_state(seed)
        with kernels.overflow_ok():
            got = [int(kernels.next_u64(state)) for _ in range(50)]
        assert got == oracles.splitmix64_stream(seed, 50), seed


def test_seed_state_shape_and_determinism():
    a = kernels.seed_state(7)
    b = kernels.seed_state(7)
    assert a.dtype == np.uint64 and a.shape == (1,)
    with kernels.overflow_ok():
        assert int(kernels.next_u64(a)) == int(kernels.next_u64(b))


def test_rand_below_range_and_determinism():
    state = kernels.seed_state(123)
    state2 = kernels.seed_state(123)
    with kernels.overflow_ok():
        draws = [int(kernels.rand_below(state, 7)) for _ in range(200)]
        again = [int(kernels.rand_below(state2, 7)) for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7
    assert draws == again


def test_rand_below_matches_reference_modulus():
    ref = [value % 9 for value in oracles.splitmix64_stream(5, 100)]
    state = kernels.seed_state(5)
    with kernels.overflow_ok():
        got = [int(kernels.rand_below(state, 9)) for _ in range(100)]
    assert got == ref
