"""Yardsticks for how fast the host runs at a given moment.

On a shared host the same work can take a third longer for a minute or
more at a time.  The benchmark times a fixed yardstick after each set-up
and at the end of each pass, and reports the run's times at the
reference speed: the time they would take when the yardstick takes its
REF_S, with the run's host speed taken as the median of its yardstick times.
A slow phase slows interpreter-bound code more than vectorised numpy code,
so each workload uses the yardstick of the kind of code it spends its time
in.  No yardstick touches the program, so a change to the program does not
move it.
"""

from __future__ import annotations

import statistics
import time

# The reference speed: about each yardstick's time on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REF_S = {"interpreter": 0.125, "vector": 0.11}

_DP_SCORES = list(range(1, 601))


def _interpreter() -> None:
    x = 0
    for i in range(1_500_000):
        x += i * i


def _vector() -> None:
    """Two runs of a sign-flip style shift-and-add DP over 600 scores."""
    import numpy as np  # here, so that importing this module leaves thread settings to the caller

    for _ in range(2):
        pmf = np.zeros(sum(_DP_SCORES) + 1)
        pmf[0] = 1.0
        top = 0
        for q in _DP_SCORES:
            shifted = pmf[: top + 1] * 0.5
            pmf[: top + 1] *= 0.5
            pmf[q : top + q + 1] += shifted
            top += q


_KERNELS = {"interpreter": _interpreter, "vector": _vector}


def yardstick_s(kind: str) -> float:
    """Wall time of one yardstick of `kind`."""
    t = time.perf_counter()
    _KERNELS[kind]()
    return time.perf_counter() - t


def at_reference(seconds: float, yardsticks: list[float], kind: str) -> float:
    """`seconds`, measured while yardsticks of `kind` took `yardsticks`, scaled to the reference speed."""
    return seconds * REF_S[kind] / statistics.median(yardsticks)
