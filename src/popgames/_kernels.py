"""Hot stepping kernels shared by both simulator backends.

One source serves both backends.  With numba (the optional `fast` extra) the
kernels are compiled over int64 arrays; without it, or with
POPGAMES_NO_NUMBA=1, the very same functions run as plain Python over lists
of ints.  `kernel_input` gives each input the form its backend steps over, so
the kernel code sticks to operations both forms share: `len`, integer
literals, and indexing one level at a time.  `_tables` turns a
protocol's rules and outputs into the tables the kernels read;
`Protocol._kernel_tables` builds them once per protocol object, so a Monte
Carlo trial pays only for its steps.

Only the splitmix64 generator has a definition per backend, with one body in
each: under numba `next_u64` holds the uint64 arithmetic and `rand_below`
reduces its output; without numba `rand_below` holds the masked Python-int
arithmetic and `next_u64(state)` is `rand_below(state, 2**64)`, exact since
every output is below 2^64.  `seed_state` gives the state in the backend's
form, a one-element uint64 array under numba and a one-element list holding
`seed & (2**64 - 1)` without it.  Both produce the same stream, so traces are
bit-identical across backends.

The stepping loops are written out in full on purpose.  On the plain path a
Python call costs about as much as a few lines of stepping, so each kernel
inlines its silent test, its pick of an interacting pair (two agents from
the count vector, or an edge and an orientation) and its successor choice;
a silent or unstopped run calls only `rand_below` per step.  The helpers
left are those both kernels share: `_counts_match` for a target rule, and
`_update_window` with `_config_output` for a window rule.

numpy is imported only beside numba: the plain path, and with it every
`popgames` command run without numba, uses the standard library alone.
Only simulation loads this module: `sim` imports it, `popgames` and
`popgames.cli` on first use of a name from it (`backend`), and `core` when it
first builds a protocol's tables (`Protocol._kernel_tables`).  With numba
installed, `simulate` is therefore the one command that imports numba and
numpy.

Drawing a value below m uses a plain modulo, whose bias is negligible for the
population sizes involved (m far below 2^64).

Stop modes: 0 none, 1 silent, 2 output window, 3 target counts.  Kernels are
resumable: they accept and return the window bookkeeping (run_len, prev_out)
so a driver may step in chunks, recording traces or applying custom stop
rules, without perturbing the random stream.
"""

from __future__ import annotations

import os

NUMBA_ENABLED = os.environ.get("POPGAMES_NO_NUMBA", "") != "1"
if NUMBA_ENABLED:
    try:
        from numba import njit
        import numpy as np
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


def kernel_input(values):
    """Kernel form of a sequence of ints or of int pairs: an int64 array for
    numba, a fresh list for the plain path."""
    if NUMBA_ENABLED:
        return np.array(values, dtype=np.int64)
    return list(values)


def _tables(protocol):
    """A protocol's rules and outputs in kernel form: successor offsets per
    ordered state pair p = q1 * n + q2 (its successors are entries
    offsets[p] to offsets[p + 1] - 1), the first and second states of every
    successor pair in sorted order, identity-only flags per pair, and output
    bits (-1 for none)."""
    n = protocol.state_count
    offsets = [0]
    firsts = []
    seconds = []
    identity_only = [0] * (n * n)
    for q1 in range(n):
        for q2 in range(n):
            succs = sorted(protocol.rules[(q1, q2)])
            if succs == [(q1, q2)]:
                identity_only[q1 * n + q2] = 1
            for a, b in succs:
                firsts.append(a)
                seconds.append(b)
            offsets.append(len(firsts))
    out_bits = [-1] * n if protocol.output_map is None else protocol.output_map
    return tuple(map(kernel_input, (offsets, firsts, seconds, identity_only, out_bits)))


STOP_NONE = 0
STOP_SILENT = 1
STOP_WINDOW = 2
STOP_TARGET = 3

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def seed_state(seed: int):
    """Generator state for `seed` taken mod 2^64: a one-element uint64 array
    for numba, a one-element list of one int for the plain path."""
    if NUMBA_ENABLED:
        return np.array([seed & _MASK64], dtype=np.uint64)
    return [seed & _MASK64]


if NUMBA_ENABLED:
    _U_GAMMA = np.uint64(_GAMMA)
    _U_MIX1 = np.uint64(_MIX1)
    _U_MIX2 = np.uint64(_MIX2)

    @njit(cache=True)
    def next_u64(state):
        state[0] = state[0] + _U_GAMMA
        z = state[0]
        z = (z ^ (z >> np.uint64(30))) * _U_MIX1
        z = (z ^ (z >> np.uint64(27))) * _U_MIX2
        return z ^ (z >> np.uint64(31))

    @njit(cache=True)
    def rand_below(state, m):
        return np.int64(next_u64(state) % np.uint64(m))

else:

    def rand_below(state, m):
        z = (state[0] + _GAMMA) & _MASK64
        state[0] = z
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return (z ^ (z >> 31)) % m

    def next_u64(state):
        return rand_below(state, 1 << 64)


@njit(cache=True)
def _config_output(counts, out_bits):
    """0/1 when all present states share one output bit, else -1.  Each bit
    is 0 or 1: only a window rule calls it, which `sim` takes only with outputs."""
    seen = -1
    for q in range(len(counts)):
        if counts[q] == 0:
            continue
        bit = out_bits[q]
        if seen < 0:
            seen = bit
        elif seen != bit:
            return -1
    return seen


@njit(cache=True)
def _counts_match(counts, target):
    for q in range(len(counts)):
        if counts[q] != target[q]:
            return False
    return True


@njit(cache=True)
def _update_window(counts, out_bits, run_len, prev_out):
    out = _config_output(counts, out_bits)
    if out >= 0 and out == prev_out:
        run_len += 1
    elif out >= 0:
        run_len = 1
    else:
        run_len = 0
    return run_len, out


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
    n = len(counts)
    total = 0
    for q in range(n):
        total += counts[q]
    steps = 0
    while True:
        if stop_mode == STOP_SILENT:
            # silent: no present ordered pair of agents has a moving rule
            silent = True
            q1 = 0
            while silent and q1 < n:
                if counts[q1] > 0:
                    for q2 in range(n):
                        if identity_only[q1 * n + q2] == 0 and counts[q2] > (1 if q1 == q2 else 0):
                            silent = False
                            break
                q1 += 1
            if silent:
                return steps, True, run_len, prev_out
        if stop_mode == STOP_WINDOW and run_len >= window:
            return steps, True, run_len, prev_out
        if stop_mode == STOP_TARGET and _counts_match(counts, target):
            return steps, True, run_len, prev_out
        if steps >= max_steps:
            return steps, False, run_len, prev_out
        # initiator: the r-th agent in state order; responder: the r-th of
        # the agents left once the initiator is taken out
        r = rand_below(rng, total)
        q1 = 0
        while r >= counts[q1]:
            r -= counts[q1]
            q1 += 1
        counts[q1] -= 1
        r = rand_below(rng, total - 1)
        q2 = 0
        while r >= counts[q2]:
            r -= counts[q2]
            q2 += 1
        counts[q2] -= 1
        p = q1 * n + q2
        i = succ_off[p]
        choices = succ_off[p + 1] - i
        if choices > 1:
            i += rand_below(rng, choices)
        counts[succ_a[i]] += 1
        counts[succ_b[i]] += 1
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
    n = len(counts)
    m = len(edges)
    steps = 0
    while True:
        if stop_mode == STOP_SILENT:
            # silent: no edge has a moving rule in either orientation
            silent = True
            for e in range(m):
                edge = edges[e]
                qu = states[edge[0]]
                qv = states[edge[1]]
                if identity_only[qu * n + qv] == 0 or identity_only[qv * n + qu] == 0:
                    silent = False
                    break
            if silent:
                return steps, True, run_len, prev_out
        if stop_mode == STOP_WINDOW and run_len >= window:
            return steps, True, run_len, prev_out
        if stop_mode == STOP_TARGET and _counts_match(counts, target):
            return steps, True, run_len, prev_out
        if steps >= max_steps:
            return steps, False, run_len, prev_out
        e = rand_below(rng, m)
        flip = rand_below(rng, 2)
        edge = edges[e]
        u = edge[1 - flip]
        v = edge[flip]
        q1 = states[u]
        q2 = states[v]
        p = q1 * n + q2
        i = succ_off[p]
        choices = succ_off[p + 1] - i
        if choices > 1:
            i += rand_below(rng, choices)
        a = succ_a[i]
        b = succ_b[i]
        states[u] = a
        states[v] = b
        counts[q1] -= 1
        counts[q2] -= 1
        counts[a] += 1
        counts[b] += 1
        steps += 1
        if stop_mode == STOP_WINDOW:
            run_len, prev_out = _update_window(counts, out_bits, run_len, prev_out)
