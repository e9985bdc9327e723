"""Exact null-distribution kernel: the numpy sign-flip DP.

`BACKEND` names the implementation and is recorded in run provenance.
"""

import numpy as np

BACKEND = "python"


def signflip_pmf(scores, p_plus):
    """PMF of T = sum(eps_i * q_i), eps_i iid Bernoulli(p_plus), q_i >= 0 ints.

    Returns an array of length sum(q) + 1; entry t is P(T = t).
    """
    if not 0.0 <= p_plus <= 1.0:
        raise ValueError("p_plus must lie in [0, 1]")
    q = np.ascontiguousarray(scores, dtype=np.int64)
    if q.ndim != 1:
        raise ValueError("scores must be one-dimensional")
    if np.any(q < 0):
        raise ValueError("scores must be nonnegative integers")
    total = int(q.sum())
    pmf = np.zeros(total + 1, dtype=np.float64)
    pmf[0] = 1.0
    one_minus = 1.0 - p_plus
    top = 0
    for qi in q:
        qi = int(qi)
        if qi == 0:
            continue
        # new[t] = old[t] * (1 - p) + old[t - qi] * p
        shifted = pmf[: top + 1] * p_plus
        pmf[: top + 1] *= one_minus
        pmf[qi : top + qi + 1] += shifted
        top += qi
    return pmf
