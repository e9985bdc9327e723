"""Exact null-distribution kernel: the numpy sign-flip DP.

`BACKEND` names the implementation and is recorded in run provenance.
"""

from ._signflip_py import signflip_pmf

BACKEND = "python"

__all__ = ["signflip_pmf", "BACKEND"]
