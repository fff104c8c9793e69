"""``EstimateTheta`` (Algorithm 2): how many RRR sets are enough.

The paper's Algorithm 2 defers the formulas ``f`` and ``f'`` to Tang et
al. (SIGMOD 2015); we implement those exactly.  The estimation is a
martingale-style doubling search: for ``x = 1, 2, ...`` it hypothesizes
that the unknown optimum ``OPT >= n / 2^x``, draws just enough samples
to test the hypothesis (``θ_x = λ' / (n / 2^x)``), runs the greedy
selector, and accepts when the observed coverage certifies a lower bound
``LB`` on ``OPT``.  The final sample count is ``θ = λ* / LB``.

Formulas (Tang et al. 2015, Lemmas 6–7; ``ℓ`` inflated by
``1 + ln 2 / ln n`` so the union bound over all rounds still yields
``1 - 1/n^ℓ`` overall):

    ε' = √2 · ε
    λ' = (2 + ⅔ ε') · (ln C(n,k) + ℓ ln n + ln log₂ n) · n / ε'²
    α  = √(ℓ ln n + ln 2)
    β  = √((1 − 1/e) · (ln C(n,k) + ℓ ln n + ln 2))
    λ* = 2n · ((1 − 1/e)·α + β)² / ε²

All sampling done during estimation is *kept*: Algorithm 1's subsequent
``Sample`` call only tops the collection up to θ.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..perf.counters import WorkCounters
from ..sampling import (
    BatchedRRRSampler,
    ParallelSamplingEngine,
    RRRCollection,
    SortedRRRCollection,
    sample_batch,
)
from .select import drive, select_seeds

__all__ = [
    "EPS_UPPER_BOUND",
    "validate_eps",
    "logcnk",
    "lambda_prime",
    "lambda_star",
    "shrink_epsilon",
    "check_instance",
    "check_theta_cap",
    "max_rounds",
    "doubling_search",
    "estimate_theta",
    "ThetaEstimate",
]

#: Largest admissible ``eps``: the algorithm promises a
#: ``(1 - 1/e - eps)``-approximation, which is vacuous (a non-positive
#: factor) once ``eps`` reaches ``1 - 1/e``.
EPS_UPPER_BOUND = 1.0 - 1.0 / math.e


def validate_eps(eps: float) -> None:
    """Reject ``eps`` outside ``(0, 1 - 1/e)``."""
    if not 0.0 < eps < EPS_UPPER_BOUND:
        raise ValueError(
            f"eps must lie in (0, 1 - 1/e) = (0, {EPS_UPPER_BOUND:.4f}) for the "
            f"(1 - 1/e - eps) guarantee to be meaningful, got {eps}"
        )


def logcnk(n: int, k: int) -> float:
    """``ln C(n, k)`` via log-gamma (exact enough for all n, overflow-free)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _inflated_l(n: int, l: float) -> float:
    """Tang et al. set ℓ ← ℓ·(1 + ln 2 / ln n) so the failure probability
    of all estimation rounds together stays below ``1/n^ℓ``."""
    return l * (1.0 + math.log(2) / math.log(n))


def lambda_prime(n: int, k: int, eps: float, l: float) -> float:
    """The per-round sample-budget constant λ' of the doubling search."""
    eps_p = math.sqrt(2.0) * eps
    log_terms = logcnk(n, k) + l * math.log(n) + math.log(max(math.log2(n), 1.0))
    return (2.0 + 2.0 / 3.0 * eps_p) * log_terms * n / (eps_p * eps_p)


def lambda_star(n: int, k: int, eps: float, l: float) -> float:
    """The final sample-budget constant λ* (θ = λ* / LB)."""
    one_minus_inv_e = 1.0 - 1.0 / math.e
    alpha = math.sqrt(l * math.log(n) + math.log(2))
    beta = math.sqrt(one_minus_inv_e * (logcnk(n, k) + l * math.log(n) + math.log(2)))
    return 2.0 * n * (one_minus_inv_e * alpha + beta) ** 2 / (eps * eps)


def shrink_epsilon(n: int, k: int, l: float, theta_effective: int, lb: float) -> float:
    """The ε certified by a ``theta_effective · lb`` sample budget.

    λ*(n, k, ε, l) scales as 1/ε² at fixed ``(n, k, l)``, so the ε a
    surviving budget still certifies inverts in closed form.  Used
    wherever a run answers from fewer samples than θ: the supervised
    deadline path, the MPI shrink policy and the serving layer's
    degraded answers.
    """
    return math.sqrt(
        lambda_star(n, k, 1.0, _inflated_l(n, l)) / max(theta_effective * lb, 1.0)
    )


def check_instance(n: int, k: int, eps: float) -> None:
    """Reject degenerate instances (``n < 2``, ``k`` outside ``[1, n]``)
    and ``eps`` outside ``(0, 1 - 1/e)``."""
    if n < 2:
        raise ValueError(f"IMM needs at least 2 vertices, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    validate_eps(eps)


def check_theta_cap(theta_cap: int | None) -> None:
    """Reject a θ cap below one sample, which would select over nothing."""
    if theta_cap is not None and theta_cap < 1:
        raise ValueError(f"theta_cap must be at least 1, got {theta_cap}")


def max_rounds(n: int) -> int:
    """The doubling search's last round: ``x`` runs over ``1 .. ⌈log₂ n⌉ − 1``."""
    return max(1, int(math.ceil(math.log2(n))) - 1)


def doubling_search(
    n: int, k: int, eps: float, l: float, *, theta_cap: int | None = None
) -> Generator[int, float, tuple[int, float, list[tuple[int, float]]]]:
    """Algorithm 2's doubling search, as a step generator.

    Each round yields ``theta_x`` and takes back the fraction of the first
    ``theta_x`` samples that ``k`` greedy seeds cover: sampled by
    :func:`estimate_theta`, cut from a frozen index by the serving engine,
    All-Reduced by an ``imm_dist`` rank (or replayed from a checkpoint).
    Returns ``(theta, lb, coverage_history)``.
    """
    l_eff = _inflated_l(n, l)
    eps_p = math.sqrt(2.0) * eps
    lam_p = lambda_prime(n, k, eps, l_eff)
    lam_s = lambda_star(n, k, eps, l_eff)

    lb = 1.0
    history: list[tuple[int, float]] = []
    for x in range(1, max_rounds(n) + 1):
        y = n / (2.0**x)
        theta_x = int(math.ceil(lam_p / y))
        if theta_cap is not None:
            theta_x = min(theta_x, theta_cap)
        frac = yield theta_x
        history.append((theta_x, frac))
        if n * frac >= (1.0 + eps_p) * y:
            lb = n * frac / (1.0 + eps_p)
            break
        if theta_cap is not None and theta_x >= theta_cap:
            break

    theta = int(math.ceil(lam_s / lb))
    if theta_cap is not None:
        theta = min(theta, theta_cap)
    return theta, lb, history


@dataclass
class ThetaEstimate:
    """Output of :func:`estimate_theta`.

    Attributes
    ----------
    theta:
        The required number of RRR sets.
    lb:
        Certified lower bound on ``OPT`` (1.0 when no round accepted).
    collection:
        The samples drawn during estimation (reused by Algorithm 1).
    rounds:
        Number of doubling-search rounds executed.
    coverage_history:
        ``(theta_x, fraction_covered)`` per round, for diagnostics and
        the Figure 2 sweeps.
    """

    theta: int
    lb: float
    collection: RRRCollection
    rounds: int
    coverage_history: list[tuple[int, float]] = field(default_factory=list)


def estimate_theta(
    graph: CSRGraph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    collection: RRRCollection | None = None,
    sampler: BatchedRRRSampler | ParallelSamplingEngine | None = None,
    counters: WorkCounters | None = None,
    theta_cap: int | None = None,
    trace: list | None = None,
    num_ranks: int = 1,
) -> ThetaEstimate:
    """Estimate θ and return it with the samples drawn along the way.

    Parameters
    ----------
    graph, k, eps, model, seed:
        The influence-maximization instance.  ``eps`` controls the
        approximation factor ``1 - 1/e - eps`` (smaller ⇒ more samples,
        Figure 2); must lie in ``(0, 1 - 1/e)`` to keep the guarantee
        meaningful.
    l:
        Confidence exponent: the guarantee holds with probability
        ``1 - 1/n^l`` (the paper and Tang et al. use ``l = 1``).
    collection:
        Destination collection (defaults to a fresh
        :class:`SortedRRRCollection`); the parallel drivers pass their
        own so estimation samples are stored in the partitioned layout.
    sampler:
        Optional shared sampler handed to
        :func:`~repro.sampling.sampler.sample_batch` (a
        :class:`~repro.sampling.batched.BatchedRRRSampler` or a
        :class:`~repro.sampling.parallel_engine.ParallelSamplingEngine`).
        Defaults to a fresh batched sampler — both produce bit-identical
        collections.  A supervised engine whose deadline expires raises
        :class:`~repro.sampling.supervisor.DeadlineExceededError` with
        the landed prefix intact in ``collection``.
    counters:
        Optional work ledger to update.
    theta_cap:
        Optional hard ceiling on θ (used by benchmarks to bound runtime;
        a capped run loses the approximation guarantee and says so in
        the result).
    trace:
        Optional list receiving ``("sample", SampleBatch)`` and
        ``("select", SelectionResult)`` events in execution order.  The
        simulated-parallel drivers replay these meters through the
        machine cost models to charge the EstimateTheta phase.
    num_ranks:
        Vertex-interval rank count forwarded to the selection kernel so
        the per-rank work meters in the trace reflect the intended
        parallel decomposition.  Does not affect the selected seeds.

    Raises
    ------
    ValueError
        If the instance is degenerate (``n < 2``, ``k < 1``, ``k > n``),
        ``eps`` is out of range or ``theta_cap`` is below 1.
    """
    n = graph.n
    check_instance(n, k, eps)
    check_theta_cap(theta_cap)
    model = DiffusionModel.parse(model)
    if collection is None:
        collection = SortedRRRCollection(n)
    if sampler is None:
        sampler = BatchedRRRSampler(graph, model)

    def cover(theta_x: int) -> float:
        batch = sample_batch(graph, model, collection, theta_x, seed, sampler=sampler)
        if counters is not None:
            counters.edges_examined += batch.edges_examined
            counters.samples_generated += batch.count
        if trace is not None:
            trace.append(("sample", batch))
        sel = select_seeds(collection, n, k, num_ranks=num_ranks)
        if counters is not None:
            counters.entries_scanned += sel.entries_scanned
            counters.counter_updates += sel.counter_updates
        if trace is not None:
            trace.append(("select", sel))
        return sel.covered_samples / max(len(collection), 1)

    theta, lb, history = drive(
        doubling_search(n, k, eps, l, theta_cap=theta_cap), cover
    )
    return ThetaEstimate(
        theta=theta,
        lb=lb,
        collection=collection,
        rounds=len(history),
        coverage_history=history,
    )
