"""Exact null-distribution kernel: the numpy sign-flip DP.

`BACKEND` names the implementation and is recorded in run provenance.
"""

import numpy as np

BACKEND = "python"


def signflip_pmf(scores, p_plus, lo=0, hi=None):
    """PMF of T = sum(eps_i * q_i), eps_i iid Bernoulli(p_plus), q_i >= 0 ints.

    Returns P(T = t) for t = lo..min(hi, sum(q)), hi defaulting to sum(q);
    empty when no t is left.  Entries that cannot reach the window are never
    built, and those kept take the same float operations as in the whole pmf.
    """
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must lie in [0, 1]")
    q = np.ascontiguousarray(scores, dtype=np.int64)
    if q.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if np.any(q < 0):
        raise ValueError("scores must be nonnegative integers")
    if lo < 0:
        raise ValueError("lo must be nonnegative")
    remaining = int(q.sum())
    cap = remaining if hi is None else min(hi, remaining)
    if cap < lo:
        return np.zeros(0)
    pmf = np.zeros(cap + 1, dtype=np.float64)
    pmf[0] = 1.0
    # One scratch buffer for every step's shifted term, instead of a fresh array per score.
    shifted = np.empty(cap + 1, dtype=np.float64)
    top = 0
    for qi in q[q > 0].tolist():
        # new[t] = old[t] * (1 - p) + old[t - qi] * p, for the t that can still reach lo
        live = max(lo - remaining, 0)
        remaining -= qi
        old_top, top = top, min(top + qi, cap)
        src = pmf[live : max(top - qi + 1, 0)]
        np.multiply(src, p_plus, out=shifted[: src.size])
        pmf[max(lo - remaining, 0) : old_top + 1] *= 1.0 - p_plus
        pmf[live + qi : top + 1] += shifted[: src.size]
    return pmf[lo:]
