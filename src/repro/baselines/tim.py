"""TIM+'s KPT estimation (Tang, Xiao & Shi, SIGMOD 2014).

TIM+ sits between RIS and IMM: it replaces Borgs et al.'s edge budget
with a sample count ``theta = lambda / KPT``, where ``KPT`` estimates
the expected spread of a random size-``k`` seed set from the width
statistic of sampled RRR sets.  IMM (SIGMOD 2015) superseded it with
the martingale estimator implemented in :mod:`repro.imm.theta`; this
module exists for the estimator-tightness ablation
(``benchmarks/bench_ablations.py``).

KPT estimation (TIM+'s Algorithm 2): for ``i = 1 .. log2(n) - 1``,
draw ``c_i = (6 l log n + 6 log log2 n) * 2^i`` samples; if the average
of ``kappa(R) = 1 - (1 - w(R)/m)^k`` exceeds ``1/2^i`` then return
``KPT = n * avg / 2``, where ``w(R)`` is the number of edges incident
*into* the RRR set (its width).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..imm.theta import logcnk
from ..rng import sample_stream
from ..sampling import RRRSampler

__all__ = ["kpt_estimate", "tim_plus_theta", "tim_plus", "KPTResult", "TIMResult"]


@dataclass
class KPTResult:
    """KPT estimate with its sampling cost."""

    kpt: float
    samples_used: int
    rounds: int


def kpt_estimate(
    graph: CSRGraph,
    k: int,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    max_samples: int = 200_000,
) -> KPTResult:
    """Estimate KPT ≈ E[spread of a random size-k seed set].

    Follows TIM+'s doubling procedure.  ``max_samples`` bounds the
    total sampling for benchmark hygiene; hitting the bound returns the
    final round's estimate (a conservative lower value).
    """
    model = DiffusionModel.parse(model)
    n, m = graph.n, graph.m
    if n < 2 or m == 0:
        raise ValueError("KPT estimation needs a non-trivial graph")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    sampler = RRRSampler(graph, model)
    in_deg = np.diff(graph.in_indptr).astype(np.int64)
    used = 0
    rounds = 0
    kpt = 1.0
    max_i = max(1, int(math.log2(n)) - 1)
    for i in range(1, max_i + 1):
        rounds += 1
        c_i = int((6 * l * math.log(n) + 6 * math.log(max(math.log2(n), 2.0))) * (2**i))
        c_i = min(c_i, max(1, max_samples - used))
        total_kappa = 0.0
        for _ in range(c_i):
            stream = sample_stream(seed, used)
            root = stream.randint(0, n)
            verts, _ = sampler.generate(root, stream)
            used += 1
            width = int(in_deg[verts].sum())
            total_kappa += 1.0 - (1.0 - width / m) ** k
        avg = total_kappa / c_i
        if avg > 1.0 / (2.0**i):
            kpt = n * avg / 2.0
            return KPTResult(kpt=kpt, samples_used=used, rounds=rounds)
        if used >= max_samples:
            break
    return KPTResult(kpt=max(n * 1.0 / (2.0**max_i), 1.0), samples_used=used, rounds=rounds)


def tim_plus(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    theta_cap: int | None = None,
):
    """The complete TIM+ pipeline: KPT-based θ, sampling, greedy cover.

    Reuses the same sampling and selection kernels as IMM, so a
    comparison against :func:`repro.imm.imm` isolates exactly the
    estimator difference (θ size); both deliver the
    ``(1 - 1/e - ε)`` guarantee.

    Returns an object with ``seeds``, ``theta``, ``num_samples`` and
    ``coverage`` attributes (a :class:`TIMResult`).
    """
    from ..imm.select import select_seeds
    from ..sampling import SortedRRRCollection
    from ..sampling.sampler import sample_batch

    model = DiffusionModel.parse(model)
    theta = tim_plus_theta(graph, k, eps, model, seed, l)
    if theta_cap is not None:
        theta = min(theta, theta_cap)
    collection = SortedRRRCollection(graph.n)
    sample_batch(graph, model, collection, theta, seed)
    sel = select_seeds(collection, graph.n, k)
    return TIMResult(
        seeds=sel.seeds,
        theta=theta,
        num_samples=len(collection),
        coverage=sel.coverage_fraction(len(collection)),
    )


@dataclass
class TIMResult:
    """Output of :func:`tim_plus`."""

    seeds: "np.ndarray"
    theta: int
    num_samples: int
    coverage: float


def tim_plus_theta(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
) -> int:
    """TIM+'s sample count: ``theta = lambda / KPT`` with
    ``lambda = (8 + 2 eps) n (l log n + log C(n,k) + log 2) / eps^2``.

    Compared against IMM's θ in the estimator ablation: TIM+'s KPT is a
    looser lower bound on OPT than IMM's martingale LB, so its θ is
    systematically larger.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    n = graph.n
    kpt = kpt_estimate(graph, k, model, seed, l).kpt
    lam = (8 + 2 * eps) * n * (l * math.log(n) + logcnk(n, k) + math.log(2)) / eps**2
    return int(math.ceil(lam / kpt))
