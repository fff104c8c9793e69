"""Reference answers for served reads, computed straight from index arrays.

These re-derive ``what_if`` and ``marginal_gain`` over a stated sample
prefix with plain eager greedy max-cover (smallest vertex id wins ties),
independently of the query engine's lazy CELF, so the benchmark can check
every served read against the prefix it reports.
"""

from __future__ import annotations

import numpy as np


class PrefixReference:
    """Greedy and marginal-gain answers over prefixes of one frozen index."""

    def __init__(self, flat: np.ndarray, indptr: np.ndarray, sample_of: np.ndarray, n: int):
        self.flat = np.asarray(flat, dtype=np.int64)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.sample_of = np.asarray(sample_of, dtype=np.int64)
        self.n = n
        self.order = np.argsort(self.flat, kind="stable")
        self.vptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.flat, minlength=n), out=self.vptr[1:])

    def _hits(self, v: int, entries: int) -> np.ndarray:
        pos = self.order[self.vptr[v] : self.vptr[v + 1]]
        return self.sample_of[pos[: int(np.searchsorted(pos, entries))]]

    def _cover(self, v: int, entries: int, alive: np.ndarray) -> np.ndarray:
        hits = self._hits(v, entries)
        killed = hits[alive[hits]]
        alive[killed] = False
        return killed

    def what_if(self, m: int, k: int, forced=(), excluded=()) -> tuple[list[int], int]:
        """(seeds, covered samples) of greedy over the first ``m`` samples."""
        entries = int(self.indptr[m])
        alive = np.ones(m, dtype=bool)
        taken = np.zeros(self.n, dtype=bool)
        seeds: list[int] = []
        covered = 0
        for v in forced:
            if not taken[v]:
                taken[v] = True
                seeds.append(int(v))
                covered += len(self._cover(v, entries, alive))
        taken[list(excluded)] = True
        gains = np.bincount(
            self.flat[:entries][alive[self.sample_of[:entries]]], minlength=self.n
        ).astype(np.int64)
        gains[taken] = -1
        while len(seeds) < k:
            v = int(np.argmax(gains))
            killed = self._cover(v, entries, alive)
            covered += len(killed)
            seeds.append(v)
            if len(killed):
                starts = self.indptr[killed]
                lens = self.indptr[killed + 1] - starts
                ends = np.cumsum(lens)
                idx = np.repeat(starts - (ends - lens), lens) + np.arange(int(ends[-1]))
                gains -= np.bincount(self.flat[idx], minlength=self.n)
            gains[v] = -1
            gains[taken] = -1
            taken[v] = True
        return seeds, covered

    def marginal_gain(self, m: int, seed_set) -> tuple[float, int, np.ndarray]:
        """(spread, covered samples, per-vertex gains) over the first ``m``."""
        entries = int(self.indptr[m])
        alive = np.ones(m, dtype=bool)
        covered = 0
        for v in seed_set:
            covered += len(self._cover(v, entries, alive))
        counts = np.bincount(
            self.flat[:entries][alive[self.sample_of[:entries]]], minlength=self.n
        )
        scale = self.n / m
        gains = counts.astype(np.float64) * scale
        gains[list(seed_set)] = 0.0
        return covered * scale, covered, gains
