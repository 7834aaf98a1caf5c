"""Calibration kernel: the speed of the machine at the moment it runs.

On a shared host the same spinqrc cell can take 0.46 s or 0.86 s depending on
what the neighbours do, in phases that last from a few seconds to half a
minute, so raw medians of whole runs differ by 20-35% between runs of the same
code. The benchmark therefore runs this fixed kernel next to every work item
and divides the item's time by the kernel's time at that moment. The kernel
does what a spinqrc step does most of — small dense linear algebra on 16x16
complex matrices and interpreter work — but no operation large enough for
BLAS to start threads, so a program that changes its BLAS threads does not
change the kernel. Multiplied by ``REFERENCE_S``, the ratio reads as seconds
on a machine where the kernel takes ``REFERENCE_S``: "normalised seconds".

For sweeps and validate the kernel runs inside the program's process, so it
shares the machine with that process's BLAS threads, which keep spinning
for a while after each call. A change that stops those threads may speed up
the kernel as well as the program and then shows more in the times as
measured, which the benchmark prints beside the normalised ones.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on 2 vCPUs of an Intel Xeon host (Python 3.11,
# numpy 2.4, OpenBLAS 0.3.31). A fixed constant: it only sets the scale of
# the normalised seconds, so it must not change between the commits compared.
REFERENCE_S = 0.025

_rng = np.random.default_rng(20251104)
_A = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _A + _A.conj().T
_RHO = _A @ _A.conj().T
_RHO /= np.trace(_RHO).real
_K = _rng.standard_normal((4, 4))


def kernel(repeats: int = 250) -> float:
    """Seconds taken by a fixed amount of small-matrix and interpreter work."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(repeats):
        acc += float(np.abs(np.linalg.eigvalsh(_H)).sum())
        pt = (_RHO @ _H).reshape(2, 8, 2, 8).transpose(2, 1, 0, 3).reshape(16, 16)
        acc += float(np.trace(pt).real) + float(np.kron(_K, _K).trace())
        acc += sum(j * 0.5 for j in range(i % 7, 40))
    if acc != acc:
        raise ArithmeticError("calibration kernel produced nan")
    return time.perf_counter() - start
