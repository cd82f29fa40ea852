"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was tuned on is a shared virtual machine whose
speed changes by up to a factor of 1.8 in phases of seconds to minutes, as
neighbours load its caches and memory.  Such a phase slows hololab and this
kernel alike, so the benchmark samples the kernel's time every few tenths
of a second while the workload runs (``worker.py``) and reports the
workload's time scaled by ``REF_S`` over the kernel's time: the time the
work would take on a host where the kernel takes ``REF_S`` seconds.  On
that host this cut the quartile spread of ten runs' ``wall_s``, as a share
of their median, from 0.15-0.45 unscaled to 0.02-0.08.

The kernel does not import hololab, so a change to the program cannot
change it.  Its mix follows hololab's profile: elementwise numpy over point
batches (expression evaluation), batched inverses and contractions over a
few megabytes (Christoffel assembly) and small-matrix steps driven from
Python (RK4 transport).  A pure-Python part was tried and left out: it
tracked the host's phases worst of all parts.
"""

import time

import numpy as np

# About the kernel's time between samples in the quiet phases of the host
# it was tuned on (Intel Xeon at 2.1 GHz, 2 vCPUs), so that scaled times
# read close to that host's quiet-phase seconds.  It only sets the scale:
# keep it fixed, or scaled times of two commits no longer compare.
REF_S = 0.012

_X = np.linspace(-0.9, 0.9, 2001)
_Y = np.linspace(-0.9, 0.9, 4001)
_A = np.array([[0.0, 0.01, -0.02], [0.015, 0.0, 0.01], [-0.01, 0.02, 0.0]])


def _kernel():
    acc = 0.0
    x = _X
    for i in range(10):
        a = np.sin(x * (1 + i % 3)) + 2.0
        b = np.exp(x * a / 2)
        acc += float((a * b + 0.3 * np.cos(b + i)).sum())
    y = _Y
    g = np.tile(np.eye(3), (y.size, 1, 1))
    g[:, 0, 0] += y * y
    g[:, 0, 1] = g[:, 1, 0] = 0.1 * y
    for _ in range(2):
        inv = np.linalg.inv(g)
        dg = g[:, :, :, None] * np.stack([y, y, y], axis=1)[:, None, None, :]
        acc += float(np.einsum("nil,nljk->nijk", inv, dg)[::97].sum())
    P = np.eye(3)
    for _ in range(600):
        k1 = _A @ P
        k2 = _A @ (P + 0.5 * k1)
        P = P + (k1 + 2.0 * k2) / 3.0
    return acc + float(P.trace())


def reference_s():
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
