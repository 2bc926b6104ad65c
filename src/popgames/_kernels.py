"""Hot stepping kernels shared by both simulator backends.

The same functions run either compiled by numba or as plain Python over numpy
scalars; setting POPGAMES_NO_NUMBA=1 (or lacking numba) selects the plain
path.  All randomness comes from a splitmix64 generator carried in a
one-element uint64 array, so traces are bit-identical across backends.
uint64 wraparound is intentional; callers silence numpy's scalar overflow
warning via `overflow_ok`.

Drawing a value below m uses a plain modulo, whose bias is negligible for the
population sizes involved (m far below 2^64).

Stop modes: 0 none, 1 silent, 2 output window, 3 target counts.  Kernels are
resumable: they accept and return the window bookkeeping (run_len, prev_out)
so a driver may step in chunks, recording traces or applying custom stop
rules, without perturbing the random stream.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_ENABLED = os.environ.get("POPGAMES_NO_NUMBA", "") != "1"
if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # numba is the optional `fast` extra
        NUMBA_ENABLED = False

if not NUMBA_ENABLED:

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def backend() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def overflow_ok():
    """Context manager silencing uint64 wraparound warnings on the plain path."""
    return np.errstate(over="ignore")


STOP_NONE = 0
STOP_SILENT = 1
STOP_WINDOW = 2
STOP_TARGET = 3

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def seed_state(seed: int) -> np.ndarray:
    return np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)


@njit(cache=True)
def next_u64(state):
    state[0] = state[0] + _GAMMA
    z = state[0]
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


@njit(cache=True)
def rand_below(state, m):
    return np.int64(next_u64(state) % np.uint64(m))


@njit(cache=True)
def _pick_agent(counts, r):
    """State index of the r-th agent in count-vector order."""
    acc = np.int64(0)
    for q in range(counts.shape[0]):
        acc += counts[q]
        if r < acc:
            return q
    return counts.shape[0] - 1


@njit(cache=True)
def _config_output(counts, out_bits):
    """0/1 when all present states share one output bit, else -1."""
    seen = np.int64(-1)
    for q in range(counts.shape[0]):
        if counts[q] == 0:
            continue
        bit = out_bits[q]
        if bit < 0:
            return np.int64(-1)
        if seen < 0:
            seen = np.int64(bit)
        elif seen != bit:
            return np.int64(-1)
    return seen


@njit(cache=True)
def _multiset_silent(counts, identity_only):
    n = counts.shape[0]
    for q1 in range(n):
        if counts[q1] == 0:
            continue
        for q2 in range(n):
            if counts[q2] == 0 or (q1 == q2 and counts[q1] < 2):
                continue
            if identity_only[q1 * n + q2] == 0:
                return False
    return True


@njit(cache=True)
def _graph_silent(states, edges, identity_only, n):
    for e in range(edges.shape[0]):
        qu = states[edges[e, 0]]
        qv = states[edges[e, 1]]
        if identity_only[qu * n + qv] == 0 or identity_only[qv * n + qu] == 0:
            return False
    return True


@njit(cache=True)
def _counts_match(counts, target):
    for q in range(counts.shape[0]):
        if counts[q] != target[q]:
            return False
    return True


@njit(cache=True)
def _update_window(counts, out_bits, run_len, prev_out):
    out = _config_output(counts, out_bits)
    if out >= 0 and out == prev_out:
        run_len += 1
    elif out >= 0:
        run_len = np.int64(1)
    else:
        run_len = np.int64(0)
    return run_len, out


@njit(cache=True)
def _apply_successor(counts, succ_off, succ_a, succ_b, q1, q2, n, rng):
    p = q1 * n + q2
    lo = succ_off[p]
    k = succ_off[p + 1] - lo
    idx = lo if k == 1 else lo + rand_below(rng, k)
    return succ_a[idx], succ_b[idx]


@njit(cache=True)
def run_multiset(
    counts,
    succ_off,
    succ_a,
    succ_b,
    identity_only,
    out_bits,
    stop_mode,
    window,
    target,
    max_steps,
    rng,
    run_len,
    prev_out,
):
    """Advance up to max_steps interactions; returns (steps, stabilized, run_len, prev_out)."""
    n = counts.shape[0]
    total = np.int64(0)
    for q in range(n):
        total += counts[q]
    steps = np.int64(0)
    while True:
        if stop_mode == STOP_SILENT and _multiset_silent(counts, identity_only):
            return steps, True, run_len, prev_out
        if stop_mode == STOP_WINDOW and run_len >= window:
            return steps, True, run_len, prev_out
        if stop_mode == STOP_TARGET and _counts_match(counts, target):
            return steps, True, run_len, prev_out
        if steps >= max_steps:
            return steps, False, run_len, prev_out
        r1 = rand_below(rng, total)
        q1 = _pick_agent(counts, r1)
        counts[q1] -= 1
        r2 = rand_below(rng, total - 1)
        q2 = _pick_agent(counts, r2)
        counts[q1] += 1
        a, b = _apply_successor(counts, succ_off, succ_a, succ_b, q1, q2, n, rng)
        counts[q1] -= 1
        counts[q2] -= 1
        counts[a] += 1
        counts[b] += 1
        steps += 1
        if stop_mode == STOP_WINDOW:
            run_len, prev_out = _update_window(counts, out_bits, run_len, prev_out)


@njit(cache=True)
def run_graph(
    states,
    counts,
    edges,
    succ_off,
    succ_a,
    succ_b,
    identity_only,
    out_bits,
    stop_mode,
    window,
    target,
    max_steps,
    rng,
    run_len,
    prev_out,
):
    """Per-vertex twin of run_multiset: uniform edge, then uniform orientation."""
    n = counts.shape[0]
    m = edges.shape[0]
    steps = np.int64(0)
    while True:
        if stop_mode == STOP_SILENT and _graph_silent(states, edges, identity_only, n):
            return steps, True, run_len, prev_out
        if stop_mode == STOP_WINDOW and run_len >= window:
            return steps, True, run_len, prev_out
        if stop_mode == STOP_TARGET and _counts_match(counts, target):
            return steps, True, run_len, prev_out
        if steps >= max_steps:
            return steps, False, run_len, prev_out
        e = rand_below(rng, m)
        flip = rand_below(rng, 2)
        u = edges[e, 1 - flip]
        v = edges[e, flip]
        q1 = states[u]
        q2 = states[v]
        a, b = _apply_successor(counts, succ_off, succ_a, succ_b, q1, q2, n, rng)
        states[u] = a
        states[v] = b
        counts[q1] -= 1
        counts[q2] -= 1
        counts[a] += 1
        counts[b] += 1
        steps += 1
        if stop_mode == STOP_WINDOW:
            run_len, prev_out = _update_window(counts, out_bits, run_len, prev_out)
