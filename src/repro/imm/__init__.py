"""The IMM algorithm (Tang et al. 2015) and its optimized serial variant.

This is the paper's core: Algorithm 1 (the three-phase skeleton),
Algorithm 2 (``EstimateTheta``, the martingale-based estimation of the
required sample count θ), and Algorithm 4 (greedy seed selection over
the RRR collection).  Two serial configurations correspond to the two
rows of Table 2:

* :func:`imm` with ``layout="sorted"`` — IMM\\ :sup:`OPT`, the paper's
  optimized implementation (one-directional sorted RRR storage);
* :func:`imm` with ``layout="hypergraph"`` — the reference IMM layout
  (bidirectional hypergraph storage).

Both produce a ``(1 - 1/e - ε)``-approximate seed set with probability
at least ``1 - 1/n^l``.  The parallel variants live in
:mod:`repro.parallel` (multithreaded) and :mod:`repro.mpi` (distributed)
and reuse the kernels defined here.
"""

from .imm import imm
from .result import DegradedResult, IMMResult
from .select import SelectionResult, select_seeds
from .sweep import imm_sweep
from .theta import (
    EPS_UPPER_BOUND,
    ThetaEstimate,
    estimate_theta,
    lambda_prime,
    lambda_star,
    logcnk,
    validate_eps,
)

__all__ = [
    "imm",
    "imm_sweep",
    "IMMResult",
    "DegradedResult",
    "estimate_theta",
    "ThetaEstimate",
    "EPS_UPPER_BOUND",
    "validate_eps",
    "logcnk",
    "lambda_prime",
    "lambda_star",
    "select_seeds",
    "SelectionResult",
]
