"""Synthetic graph generators used as stand-ins for the SNAP datasets.

The paper evaluates on eight SNAP graphs (Table 2).  Without network
access, :mod:`repro.datasets` builds scaled-down stand-ins from these
generators, chosen to match each original's qualitative character:

* citation / social graphs with heavy-tailed degrees → preferential
  attachment (:func:`barabasi_albert`) or :func:`rmat`;
* co-purchase / collaboration graphs with flatter degrees and strong
  locality → :func:`watts_strogatz`;
* modular community structure (bio case study) →
  :func:`stochastic_block_model`.

All generators are deterministic in their ``seed`` argument and return a
:class:`~repro.graph.CSRGraph`; edge probabilities default to the value
conventions of :func:`repro.graph.build.from_edges` and are normally
overwritten by a scheme from :mod:`repro.graph.weights`.
"""

from __future__ import annotations

import numpy as np

from ..rng import SplitMix64
from .build import from_edges
from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "watts_strogatz",
    "stochastic_block_model",
    "complete_graph",
    "path_graph",
    "star_graph",
]


def _rng(seed: int, salt: int) -> np.random.Generator:
    """A numpy Generator derived deterministically from ``(seed, salt)``.

    Generators use numpy's PCG64 for speed; determinism is anchored by
    SplitMix64 so all randomness in the library flows from one seeding
    discipline.
    """
    return np.random.default_rng(SplitMix64(seed).split(salt).next_u64())


def erdos_renyi(n: int, p: float, seed: int = 0, *, directed: bool = True) -> CSRGraph:
    """G(n, p) random digraph.

    Sampled by drawing ``Binomial(n*(n-1), p)`` edge slots without
    replacement, which is O(m) rather than O(n^2) and exact.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = _rng(seed, 0xE1)
    total = n * (n - 1)
    if total == 0 or p == 0.0:
        return from_edges(n, np.empty(0, np.int64), np.empty(0, np.int64))
    m = rng.binomial(total, p)
    slots = rng.choice(total, size=m, replace=False)
    src = slots // (n - 1)
    rem = slots % (n - 1)
    dst = np.where(rem >= src, rem + 1, rem)  # skip the diagonal
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return from_edges(n, src, dst)


def barabasi_albert(
    n: int, m_attach: int, seed: int = 0, *, directed: bool = True
) -> CSRGraph:
    """Preferential-attachment graph (heavy-tailed degree distribution).

    Each new vertex attaches ``m_attach`` edges to existing vertices
    chosen proportionally to degree (implemented with the standard
    repeated-endpoints urn, vectorized per arriving vertex).  With
    ``directed=True`` each undirected attachment contributes both
    directions, mimicking the mutual-link structure of the SNAP social
    networks after their standard symmetrization.
    """
    if m_attach < 1:
        raise ValueError("m_attach must be >= 1")
    if n <= m_attach:
        raise ValueError(f"need n > m_attach, got n={n}, m_attach={m_attach}")
    rng = _rng(seed, 0xBA)
    # Urn of endpoints, filled in place (each arrival adds at most
    # 2·m_attach); seed it with a star over the first m_attach+1 vertices.
    urn = np.empty(m_attach + 1 + 2 * m_attach * (n - m_attach), dtype=np.int64)
    urn[: m_attach + 1] = np.arange(m_attach + 1)
    urn[m_attach + 1 : 2 * m_attach + 1] = m_attach
    urn[2 * m_attach + 1 : 3 * m_attach + 1] = np.arange(m_attach)
    fill = 3 * m_attach + 1
    src_parts: list[np.ndarray] = [np.full(m_attach, m_attach, dtype=np.int64)]
    dst_parts: list[np.ndarray] = [np.arange(m_attach, dtype=np.int64)]
    for v in range(m_attach + 1, n):
        targets = np.unique(rng.choice(urn[:fill], size=m_attach))
        t = len(targets)
        src_parts.append(np.full(t, v, dtype=np.int64))
        dst_parts.append(targets)
        urn[fill : fill + t] = targets
        urn[fill + t : fill + 2 * t] = v
        fill += 2 * t
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    if directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return from_edges(n, src, dst)


def rmat(
    scale: int,
    edge_factor: int,
    seed: int = 0,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> CSRGraph:
    """R-MAT / Kronecker power-law digraph (Graph500-style parameters).

    Generates ``edge_factor * 2**scale`` directed edges over ``2**scale``
    vertices by recursive quadrant selection; duplicates and self-loops
    are dropped by the builder, so the realized edge count is slightly
    lower — the same convention as the Graph500 reference generator.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("R-MAT probabilities must be non-negative and sum <= 1")
    rng = _rng(seed, 0x44)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # Quadrant thresholds: [a, a+b, a+b+c, 1]
        right = (r >= a) & (r < a + b)  # top-right: dst bit set
        bottom = (r >= a + b) & (r < a + b + c)  # bottom-left: src bit set
        both = r >= a + b + c  # bottom-right: both set
        src |= ((bottom | both).astype(np.int64)) << bit
        dst |= ((right | both).astype(np.int64)) << bit
    return from_edges(n, src, dst)


def watts_strogatz(n: int, k_ring: int, beta: float, seed: int = 0) -> CSRGraph:
    """Small-world digraph: ring lattice with rewiring probability ``beta``.

    Each vertex links to its ``k_ring`` clockwise neighbors (both
    directions are added, as in the undirected original); each lattice
    edge's endpoint is rewired to a uniform random vertex with
    probability ``beta``.
    """
    if k_ring < 1 or k_ring >= n:
        raise ValueError(f"need 1 <= k_ring < n, got k_ring={k_ring}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    rng = _rng(seed, 0x55)
    base = np.arange(n, dtype=np.int64)
    src = np.repeat(base, k_ring)
    offsets = np.tile(np.arange(1, k_ring + 1, dtype=np.int64), n)
    dst = (src + offsets) % n
    rewire = rng.random(len(dst)) < beta
    dst = dst.copy()
    dst[rewire] = rng.integers(0, n, size=int(rewire.sum()))
    both_src = np.concatenate([src, dst])
    both_dst = np.concatenate([dst, src])
    return from_edges(n, both_src, both_dst)


def stochastic_block_model(
    sizes: list[int],
    p_in: float,
    p_out: float,
    seed: int = 0,
) -> CSRGraph:
    """Directed SBM: dense blocks with sparse inter-block edges.

    The bio case-study stand-ins use this to mimic the modular structure
    of inferred co-expression networks (pathways ≈ blocks).
    """
    if not sizes:
        raise ValueError("need at least one block")
    for pname, p in (("p_in", p_in), ("p_out", p_out)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{pname} must be in [0, 1], got {p}")
    rng = _rng(seed, 0x5B)
    n = int(sum(sizes))
    starts = np.cumsum([0] + list(sizes))
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    for i, si in enumerate(sizes):
        for j, sj in enumerate(sizes):
            p = p_in if i == j else p_out
            if p == 0.0:
                continue
            total = si * sj
            mcnt = rng.binomial(total, p)
            if mcnt == 0:
                continue
            slots = rng.choice(total, size=mcnt, replace=False)
            src_parts.append(starts[i] + slots // sj)
            dst_parts.append(starts[j] + slots % sj)
    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    return from_edges(n, src, dst)


def complete_graph(n: int) -> CSRGraph:
    """All directed edges between distinct vertices (test fixture)."""
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    keep = src != dst
    return from_edges(n, src[keep], dst[keep])


def path_graph(n: int) -> CSRGraph:
    """Directed path 0 -> 1 -> ... -> n-1 (test fixture)."""
    src = np.arange(n - 1, dtype=np.int64)
    return from_edges(n, src, src + 1)


def star_graph(n: int) -> CSRGraph:
    """Directed star: hub 0 points at every other vertex (test fixture)."""
    if n < 1:
        raise ValueError("star graph needs at least one vertex")
    dst = np.arange(1, n, dtype=np.int64)
    src = np.zeros(n - 1, dtype=np.int64)
    return from_edges(n, src, dst)
