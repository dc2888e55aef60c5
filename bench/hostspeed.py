"""Host speed: a fixed reference kernel timed next to every op.

The benchmark's host is a share of a larger machine whose speed for this
single-threaded process swings by up to 2x in phases of 5 to 60 seconds
(the same presets op took 1.0 s and 2.0 s a minute apart; its CPU time
follows the wall time, so the process runs slower rather than waits).  A
median over a 30-second run cannot average such phases out.  The reference
kernel below slows with them, because it runs the same mix of work as the
program: small numpy calls driven by the interpreter, and passes over
an array of 2 MB.  Timing it right before and right after an op gives the
host's speed during that op, and every end-to-end time is rescaled to the
speed at which the kernel takes ``REFERENCE_S``.

The kernel uses numpy only, never lmlreg, so no change to the program can
move it.
"""

import math
import time

import numpy as np

# Seconds the kernel takes when the host runs at full speed (its fast phase
# on a 2-vCPU Xeon guest); rescaled times read as on such a host.
REFERENCE_S = 0.015

_SMALL = np.random.default_rng(12345).standard_normal((24, 24))
_LARGE = np.random.default_rng(54321).standard_normal((64, 4096))


def kernel() -> float:
    """The fixed reference work; returns a checksum so none of it is skipped."""
    s = 0.0
    a = _SMALL
    for i in range(120):
        b = a @ a.T + np.eye(24)
        w, v = np.linalg.eigh(b)
        s += float(w[-1]) + float(np.abs(v[:, 0]).sum())
        d = {j: (j * i) % 7 for j in range(40)}
        s += sum(d.values()) * 1e-9
    x = _LARGE
    for _ in range(6):
        h = x.shape[1] // 2
        y = np.concatenate([x[:, :h] + x[:, h:], x[:, :h] - x[:, h:]], axis=1)
        s += float(np.einsum("ij,ij->", y, x)) * 1e-12
        x = y * 0.5
    return s


def sample(budget: float = 0.0) -> float:
    """Seconds one run of the kernel takes now: the mean over as many runs as
    fit in ``budget`` seconds (one at least), after an untimed run that
    refills the caches the op before it has evicted."""
    kernel()
    runs = 0
    t = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - t
        if elapsed >= budget:
            return elapsed / runs


def scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two kernel samples."""
    return REFERENCE_S / math.sqrt(before * after)
