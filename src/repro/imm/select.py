"""Greedy seed selection over an RRR collection (Algorithm 4).

The selection is the classic greedy max-cover: ``k`` iterations, each
picking the vertex contained in the most *alive* samples, then killing
(covering) every sample that contains it and decrementing the membership
counters of all their vertices.  Ties break toward the smallest vertex
id, so every layout and every parallel variant produces identical seed
sets (a cross-checked invariant).

The loop is written once, in :func:`greedy_cover`, over a *view* of one
storage layout.  A view supplies the initial per-vertex counts
(``counts()``), the ids of the samples that hold a vertex (``hits(v)``)
and the per-vertex counts over a set of killed samples
(``tally(samples)``):

* :class:`FlatView` — the sorted one-directional layout (IMM\\ :sup:`OPT`)
  or a sample prefix of it.  Hits come from a sample-keyed hit index
  (:func:`vertex_index`); the frozen serving index cuts its prefixes
  from one cached hit index instead of re-sorting per query.
* :class:`HypergraphView` — the bidirectional reference layout, using
  the vertex→samples inverted index the way Tang et al.'s code does.

:func:`select_seeds` runs the kernel (a step generator, see
:func:`drive`) on a collection's view and meters the work for the cost
models.  ``num_ranks`` reproduces Algorithm 4's
synchronization-free partitioning (thread ``t`` owns the vertex interval
``[n·t/p, n·(t+1)/p)``): the per-rank meters say how many counter
updates each rank performed, and how many binary searches it used to
locate its interval inside each sorted sample.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from ..sampling.collection import (
    HypergraphRRRCollection,
    RRRCollection,
    SortedRRRCollection,
)

__all__ = ["SelectionResult", "select_seeds"]


@dataclass
class SelectionResult:
    """Seed set plus the work metering the parallel cost models consume.

    Attributes
    ----------
    seeds:
        The ``k`` selected vertex ids, in selection order.
    covered_samples:
        Number of RRR sets covered by the seed set; divided by the
        collection size this is the coverage fraction ``F_R(S)`` used by
        the θ estimator.
    entries_scanned, counter_updates:
        Total work (all ranks together).
    per_rank_entries:
        Counter updates charged to each vertex-interval rank (length
        ``num_ranks``); the makespan of the selection phase is the max.
    per_rank_searches:
        Binary-search operations per rank (each rank locates its interval
        in every visited sample with two ``log(size)`` searches).
    argmax_scans:
        Elements scanned by the per-iteration parallel max reduction
        (``k`` iterations × ``n`` counters).
    """

    seeds: np.ndarray
    covered_samples: int
    entries_scanned: int = 0
    counter_updates: int = 0
    per_rank_entries: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    per_rank_searches: np.ndarray = field(
        default_factory=lambda: np.zeros(1, dtype=np.int64)
    )
    argmax_scans: int = 0

    @property
    def num_ranks(self) -> int:
        return len(self.per_rank_entries)

    def coverage_fraction(self, num_samples: int) -> float:
        """``F_R(S)``: fraction of the collection covered by the seeds."""
        return self.covered_samples / num_samples if num_samples else 0.0


def vertex_index(ids: np.ndarray, indptr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sample-keyed hit index: the ids of the samples holding each
    of the ``n`` vertices, plus the per-vertex group offsets.

    ``ids[indptr[j]:indptr[j + 1]]`` are sample ``j``'s entries.  One
    unstable sort of the keys ``id·m + sample`` (``m`` samples; unique,
    since a sample holds an id at most once) groups the entries by id
    with ascending sample ids inside each group, so a sample prefix is
    cut from a group with one ``searchsorted``.  The keys are ``int32``
    while ``n·m`` fits, ``int64`` beyond; the group offsets come from
    searching the sorted keys for ``id·m``, and only ``key % m`` is kept
    — ``int32`` sample ids, 4 bytes per incidence at either key width.
    """
    m = len(indptr) - 1
    width = np.int32 if n * m < 2**31 else np.int64
    keys = ids.astype(width)
    keys *= width(m)
    keys += np.repeat(np.arange(m, dtype=width), np.diff(indptr))
    keys.sort()
    base = np.arange(n + 1, dtype=width) * width(m)
    vptr = np.searchsorted(keys, base)
    keys -= np.repeat(base[:-1], np.diff(vptr))  # key % m, without a division
    return keys.astype(np.int32 if m < 2**31 else np.int64, copy=False), vptr


#: Entries the kill pass gathers and counts at a time (at least ``n``,
#: plus at most one sample): one seed can kill most entries, and
#: whole-kill temporaries would then be the peak of a solve.
_TALLY_CHUNK = 1 << 16


class FlatView:
    """The sorted flat layout, or its first ``num_samples`` samples.

    ``by_vertex`` may be a cached :func:`vertex_index` over a longer
    flat array (the frozen index's, shared by every query); each
    vertex's hits are cut to the prefix.  ``num_samples`` is clamped to
    the mapped rows, because a concurrent extension commits the manifest
    count before the remap lands.
    """

    def __init__(
        self,
        n: int,
        flat: np.ndarray,
        indptr: np.ndarray,
        *,
        num_samples: int | None = None,
        by_vertex: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        m = len(indptr) - 1
        if num_samples is not None:
            m = min(int(num_samples), m)
        self._indptr = indptr[: m + 1]
        self.n = n
        self.num_samples = m
        self.entries = int(indptr[m])
        # Plain-ndarray view: indexing a memmap subclass is slower.
        self._flat = np.asarray(flat)[: self.entries]
        if by_vertex is None:
            by_vertex = vertex_index(self._flat, self._indptr, n)
        self._hits, self._vptr = by_vertex
        # Gather scratch, grown to the largest run seen so far instead
        # of re-allocating the index temporaries on every kill.
        self._scratch = np.empty(0, dtype=np.intp)

    def counts(self) -> np.ndarray:
        if len(self._hits) == self.entries:
            # The hit index covers exactly these rows: its group sizes
            # are the counts.
            return np.diff(self._vptr)
        return np.bincount(self._flat, minlength=self.n)

    def hits(self, v: int) -> np.ndarray:
        # An intp copy: the cover step indexes with it three times, and
        # NumPy would convert an int32 index array each time.
        ids = self._hits[self._vptr[v] : self._vptr[v + 1]]
        return ids[: int(np.searchsorted(ids, self.num_samples))].astype(np.intp)

    def tally(self, samples: np.ndarray) -> np.ndarray:
        """Per-vertex counts over the entries of ``samples`` (all
        non-empty), gathered and counted a run of samples at a time,
        each run about :data:`_TALLY_CHUNK` entries (a sample holds at
        most ``n``, so no run is empty)."""
        starts = self._indptr[samples]
        stops = self._indptr[samples + 1]
        ends = np.cumsum(stops - starts)
        chunk = max(_TALLY_CHUNK, self.n)
        cuts = np.searchsorted(ends, np.arange(chunk, int(ends[-1]), chunk), side="right")
        bounds = [0, *cuts.tolist(), len(samples)]
        counts = None
        for lo, hi in zip(bounds, bounds[1:]):
            idx = self._positions(starts[lo:hi], stops[lo:hi])
            run = np.bincount(self._flat[idx], minlength=self.n)
            if counts is None:
                counts = run
            else:
                counts += run
        return counts

    def _positions(self, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
        """Entry positions of the ranges ``[starts[i], stops[i])`` (all
        non-empty), concatenated."""
        ends = np.cumsum(stops - starts)
        total = int(ends[-1])
        if len(self._scratch) < total:
            self._scratch = np.empty(max(total, 2 * len(self._scratch)), dtype=np.intp)
        # Concatenated ranges built in place: ones, with each range's
        # first slot holding the jump from the previous range's last
        # value, then one cumulative sum — repeat(starts) plus an
        # intra-range iota without allocating either temporary.
        idx = self._scratch[:total]
        idx.fill(1)
        idx[0] = starts[0]
        idx[ends[:-1]] = starts[1:] - stops[:-1] + 1
        np.cumsum(idx, out=idx)
        return idx

    def sizes(self) -> np.ndarray:
        return np.diff(self._indptr)


class HypergraphView:
    """The bidirectional layout: hits come from the stored inverted index
    (no scan, no binary search), at the doubled storage accounted in
    :meth:`~repro.sampling.collection.HypergraphRRRCollection.nbytes_model`."""

    def __init__(self, collection: HypergraphRRRCollection, n: int) -> None:
        self.n = n
        self.num_samples = len(collection)
        self._collection = collection

    def counts(self) -> np.ndarray:
        return self._collection.counters()

    def hits(self, v: int) -> np.ndarray:
        return np.asarray(self._collection.samples_containing(v), dtype=np.int64)

    def tally(self, samples: np.ndarray) -> np.ndarray:
        entries = np.concatenate([self._collection[s] for s in samples])
        return np.bincount(entries, minlength=self.n)

    def sizes(self) -> np.ndarray:
        return np.fromiter(
            (len(s) for s in self._collection), dtype=np.int64, count=self.num_samples
        )


class CoverState:
    """Alive mask and covered count of one greedy max-cover over a view."""

    def __init__(self, view) -> None:
        self.view = view
        self.alive = np.ones(view.num_samples, dtype=bool)
        self.covered = 0

    def cover(self, v: int) -> np.ndarray:
        """Kill the alive samples that hold ``v``; return their ids."""
        hits = self.view.hits(v)
        killed = hits[self.alive[hits]]
        self.alive[killed] = False
        self.covered += len(killed)
        return killed


def greedy_cover(view, k: int, *, forced=(), excluded=()) -> Generator:
    """Greedy max-cover of ``k`` seeds over ``view``, as a step generator.

    It yields the per-vertex counts, then each seat's decrement (``None``
    if nothing was killed), and goes on with the vector sent back: the
    same one from :func:`drive`, the All-Reduced sum on an ``imm_dist``
    rank.  ``forced`` vertices are seated first, in the given order (a
    repeated id counts once); ``excluded`` vertices are never picked.
    Every other pick is the vertex in the most alive samples, ties to the
    smallest id.  Returns the seeds and the final :class:`CoverState`.
    """
    n = view.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    forced = list(dict.fromkeys(forced))
    if len(forced) > k:
        raise ValueError(f"{len(forced)} forced vertices exceed k={k}")
    excluded = list(dict.fromkeys(excluded))
    for v in excluded:
        if v in forced:
            raise ValueError(f"vertex {v} is both forced and excluded")
    state = CoverState(view)
    counters = (yield view.counts()).astype(np.int64)
    counters[excluded] = -1
    seeds: list[int] = []
    while len(seeds) < k:
        if len(seeds) < len(forced):
            v = forced[len(seeds)]
        else:
            v = int(np.argmax(counters))
            if counters[v] < 0:
                raise ValueError(f"cannot seat {k} seeds: only {len(seeds)} candidates")
        seeds.append(v)
        killed = state.cover(v)
        decrement = yield (view.tally(killed) if len(killed) else None)
        if decrement is not None:
            counters -= decrement
        counters[v] = -1  # never re-pick a seated vertex
    return np.asarray(seeds, dtype=np.int64), state


def drive(steps: Generator, step: Callable = lambda value: value):
    """Run a step generator in one process, answering each yielded value
    with ``step(value)`` (by default the value itself); return its result."""
    try:
        value = next(steps)
        while True:
            value = steps.send(step(value))
    except StopIteration as done:
        return done.value


def _interval_bounds(n: int, num_ranks: int) -> np.ndarray:
    """The paper's block partition: rank ``t`` owns ``[n·t/p, n·(t+1)/p)``."""
    t = np.arange(num_ranks + 1, dtype=np.int64)
    return (n * t) // num_ranks


def _metered(view, seeds: np.ndarray, state: CoverState, num_ranks: int) -> SelectionResult:
    """Charge Algorithm 4's work in one pass over the final alive mask.

    Exact because each sample is killed at most once: the kill passes
    touched precisely the entries of the samples now dead.  The counting
    pass reads every entry; each kill then updates one counter per entry
    of the killed sample, and every rank pays two binary searches per
    visited sample.
    """
    n = view.n
    dead = ~state.alive
    sizes = view.sizes()
    updates = int(sizes.sum()) + int(sizes[dead].sum())
    if isinstance(view, HypergraphView):
        # Each lookup reads the vertex's whole posting list; the inverted
        # index needs no binary search and is not rank-partitioned.
        lookups = sum(len(view.hits(v)) for v in seeds)
        return SelectionResult(
            seeds=seeds,
            covered_samples=state.covered,
            entries_scanned=updates + lookups,
            counter_updates=updates,
            per_rank_entries=np.asarray([updates], dtype=np.int64),
            per_rank_searches=np.zeros(1, dtype=np.int64),
            argmax_scans=len(seeds) * n,
        )
    searches = np.ceil(np.log2(np.maximum(sizes, 2))).astype(np.int64)
    per_rank_searches = np.full(
        num_ranks, int(searches.sum()) + int(searches[dead].sum()), dtype=np.int64
    )
    if num_ranks > 1 and len(sizes):
        # Each update belongs to the rank owning its vertex: every entry
        # once for the counting pass, again if its sample died.
        visits = np.concatenate([np.arange(len(sizes)), np.flatnonzero(dead)])
        load = view.tally(visits)
        cum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(load, out=cum[1:])
        bounds = _interval_bounds(n, num_ranks)
        per_rank_entries = cum[bounds[1:]] - cum[bounds[:-1]]
    else:
        per_rank_entries = np.zeros(num_ranks, dtype=np.int64)
        per_rank_entries[0] = updates
    return SelectionResult(
        seeds=seeds,
        covered_samples=state.covered,
        entries_scanned=updates,
        counter_updates=updates,
        per_rank_entries=per_rank_entries,
        per_rank_searches=per_rank_searches,
        argmax_scans=len(seeds) * n,
    )


def select_seeds(
    collection: RRRCollection,
    n: int,
    k: int,
    num_ranks: int = 1,
) -> SelectionResult:
    """Greedy selection of ``k`` seeds over any collection layout.

    Every layout runs the same kernel (including tie breaking), so the
    chosen seeds depend only on the collection contents — a property the
    test suite asserts.  ``num_ranks`` applies to the sorted layout: the
    hypergraph layout's inverted index is charged to a single rank.
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")
    if isinstance(collection, SortedRRRCollection):
        view = FlatView(n, *collection.flattened())
    elif isinstance(collection, HypergraphRRRCollection):
        view = HypergraphView(collection, n)
    else:
        raise TypeError(f"unsupported collection type {type(collection).__name__}")
    seeds, state = drive(greedy_cover(view, k))
    return _metered(view, seeds, state, num_ranks)
