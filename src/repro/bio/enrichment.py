"""Pathway enrichment: Fisher's exact test + Benjamini–Hochberg.

The paper's Section 5 protocol: take the top-200 features of each
ranking, test every pathway for over-representation with Fisher's exact
test, adjust p-values, and count pathways enriched at adjusted
``p < 0.05``.  The one-sided (greater) Fisher p-value equals the
hypergeometric survival probability, computed here with
``scipy.stats.hypergeom`` (exact, no 2x2 table assembly needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pathways import PathwayDB

__all__ = ["fisher_exact_greater", "benjamini_hochberg", "enrich", "EnrichmentResult"]


def fisher_exact_greater(
    overlap: int, selected: int, pathway: int, universe: int
) -> float:
    """One-sided Fisher exact p-value for over-representation.

    ``P[X >= overlap]`` with ``X ~ Hypergeom(universe, pathway,
    selected)`` — the probability of seeing at least the observed
    overlap if the selected set were uniform random.
    """
    if min(overlap, selected, pathway) < 0 or universe <= 0:
        raise ValueError("counts must be non-negative and universe positive")
    if overlap > min(selected, pathway):
        raise ValueError("overlap cannot exceed either set size")
    # Imported here: scipy.stats is the heaviest import in the package
    # and only the case study needs it.
    from scipy import stats

    return float(stats.hypergeom.sf(overlap - 1, universe, pathway, selected))


def benjamini_hochberg(pvalues: np.ndarray) -> np.ndarray:
    """BH-adjusted p-values (monotone step-up, clipped at 1)."""
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("pvalues must be 1-D")
    m = len(p)
    if m == 0:
        return p.copy()
    order = np.argsort(p)
    ranked = p[order] * m / np.arange(1, m + 1)
    # enforce monotonicity from the largest rank downward
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m, dtype=np.float64)
    out[order] = np.minimum(adjusted, 1.0)
    return out


@dataclass
class EnrichmentResult:
    """Enrichment of one selected feature set against a pathway DB.

    ``table`` rows are ``(pathway, label, overlap, pvalue, adjusted)``,
    sorted by adjusted p-value ascending.
    """

    table: list[tuple[str, str, int, float, float]]
    alpha: float

    @property
    def significant(self) -> list[tuple[str, str, int, float, float]]:
        """Rows with adjusted p below ``alpha``."""
        return [row for row in self.table if row[4] < self.alpha]

    @property
    def num_enriched(self) -> int:
        """The paper's headline count (pathways with adjusted p < alpha)."""
        return len(self.significant)

    def top_labels(self, top: int = 10) -> list[str]:
        """Ground-truth labels of the ``top`` most-enriched pathways —
        the specificity measure of the case study."""
        return [row[1] for row in self.table[:top]]


def enrich(
    selected: np.ndarray,
    db: PathwayDB,
    alpha: float = 0.05,
) -> EnrichmentResult:
    """Test every pathway for over-representation in ``selected``.

    Parameters
    ----------
    selected:
        Feature ids of the ranking's top-k set.
    db:
        The pathway database (defines the universe).
    alpha:
        Adjusted-significance threshold (paper: 0.05).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    selected = np.unique(np.asarray(selected, dtype=np.int64))
    if len(selected) and (selected.min() < 0 or selected.max() >= db.universe_size):
        raise ValueError("selected feature id outside the universe")
    sel_set = set(selected.tolist())
    names = db.names()
    pvals = np.empty(len(names), dtype=np.float64)
    overlaps = np.empty(len(names), dtype=np.int64)
    for i, name in enumerate(names):
        members = db.members(name)
        overlap = sum(1 for f in members.tolist() if f in sel_set)
        overlaps[i] = overlap
        pvals[i] = fisher_exact_greater(
            overlap, len(selected), len(members), db.universe_size
        )
    adjusted = benjamini_hochberg(pvals)
    rows = [
        (names[i], db.labels[names[i]], int(overlaps[i]), float(pvals[i]), float(adjusted[i]))
        for i in range(len(names))
    ]
    rows.sort(key=lambda r: (r[4], r[3], r[0]))
    return EnrichmentResult(table=rows, alpha=alpha)
