"""RRR-set storage layouts: the heart of the IMM vs IMM\\ :sup:`OPT` gap.

Section 3.1 of the paper: previous implementations (Tang et al.) store
the sampled hypergraph *in two directions* — each RRR set as a hyperedge
(its vertex list) **and**, per vertex, the list of samples it appears in.
Every incidence is therefore stored twice.  The paper's optimized layout
stores only the forward direction, with each vertex list **sorted by
id**, which

1. halves the incidence storage (Table 2 reports 18–58 % total savings
   once per-container overhead is included),
2. lets a thread that owns the vertex interval ``[vl, vh)`` find its
   slice of every sample with two binary searches instead of a full
   scan, and
3. keeps the counting loop of Algorithm 4 cache-ordered.

Both layouts are implemented here behind a small common interface so the
seed-selection routines and the Table 2 benchmark can compare them like
for like.  Byte accounting mimics the C++ containers of the original
implementations (a ``std::vector`` header of 24 bytes plus 4-byte vertex
ids / 8-byte sample ids), since Python object overhead would say nothing
about the layouts themselves; see :mod:`repro.perf.memory`.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["RRRCollection", "SortedRRRCollection", "HypergraphRRRCollection"]

#: Modeled per-container overhead (a C++ ``std::vector`` header: pointer,
#: size, capacity).
VECTOR_HEADER_BYTES = 24
#: Modeled bytes per stored vertex id (``int32``).
VERTEX_ID_BYTES = 4
#: Modeled bytes per stored sample id in the inverted index (``int64``,
#: since theta routinely exceeds 2**31 on the paper's largest runs).
SAMPLE_ID_BYTES = 8
#: Largest vertex count ``int32`` vertex ids (and ranks) can address.
MAX_VERTICES = 2**31 - 1


def check_vertex_count(n: int) -> None:
    """Reject a vertex count the ``int32`` layouts cannot address."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(
            f"{n} vertices exceed the int32 vertex ids of this layout "
            f"(at most {MAX_VERTICES})"
        )


class RRRCollection:
    """Interface shared by the two storage layouts.

    A collection is append-only during sampling; seed selection consumes
    it read-only (logical deletion of covered samples happens in the
    selection routines via masks, matching the paper's "purge" being a
    bookkeeping operation rather than physical compaction).
    """

    def append(self, vertices: np.ndarray) -> None:
        """Add one RRR set (a sorted ``int32`` vertex array)."""
        raise NotImplementedError

    def extend(self, sets: Sequence[np.ndarray]) -> None:
        """Add many RRR sets."""
        for verts in sets:
            self.append(verts)

    def append_batch(
        self, flat: np.ndarray, sizes: np.ndarray, *, total: int | None = None
    ) -> None:
        """Add many RRR sets given as concatenated vertices + lengths.

        ``flat`` holds the samples back to back; sample ``i`` occupies
        the next ``sizes[i]`` entries.  ``total`` (when given) is the
        caller-asserted incidence count — landing paths that already
        carry it in a block descriptor pass it so contiguous layouts can
        skip the ``sizes.sum()`` reduction; it is still cross-checked
        against ``len(flat)``.  The generic implementation splits and
        appends one by one; layouts with contiguous storage override it
        with a bulk copy (the cohort sampler's fast path).
        """
        start = 0
        for size in np.asarray(sizes, dtype=np.int64):
            size = int(size)
            self.append(flat[start : start + size])
            start += size

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    @property
    def total_entries(self) -> int:
        """Total number of (sample, vertex) incidences stored."""
        raise NotImplementedError

    def nbytes_model(self) -> int:
        """Modeled resident bytes of this layout (see module docstring)."""
        raise NotImplementedError


class SortedRRRCollection(RRRCollection):
    """One-directional layout: each sample once, vertices sorted by id.

    Storage is two growable flat buffers (amortized doubling, the HBMax
    reorganization applied to our NumPy substrate) — no per-sample Python
    objects at all:

    ``flat``
        All vertex ids as ``int32``, samples concatenated in insertion
        order: the 4 bytes per incidence :meth:`nbytes_model` charges.
    ``indptr``
        Sample boundaries (``int64``): sample ``i`` is
        ``flat[indptr[i]:indptr[i+1]]``.

    No per-entry owner array is kept: selection finds the samples that
    hold a vertex through a sample-keyed hit index built per read phase
    (:func:`repro.imm.select.vertex_index`).  :meth:`flattened` returns
    zero-copy views of the live buffers, so no cache invalidation exists
    to get wrong: alternating sampling and selection phases (as
    ``EstimateTheta`` does) never re-concatenates anything, and
    :meth:`append_batch` lands a whole sampler cohort with a handful of
    bulk copies.
    """

    _INITIAL_ENTRIES = 1024
    _INITIAL_SAMPLES = 64

    def __init__(self, n: int) -> None:
        check_vertex_count(n)
        self.n = n
        self._flat = np.empty(self._INITIAL_ENTRIES, dtype=np.int32)
        self._indptr = np.empty(self._INITIAL_SAMPLES + 1, dtype=np.int64)
        self._indptr[0] = 0
        self._num = 0
        self._entries = 0

    # -- growable buffers ---------------------------------------------------

    def _reserve(self, extra_entries: int, extra_samples: int) -> None:
        """Grow the flat buffers to fit ``extra_*`` more (doubling)."""
        need = self._entries + extra_entries
        if need > len(self._flat):
            grown = np.empty(max(need, 2 * len(self._flat)), dtype=np.int32)
            grown[: self._entries] = self._flat[: self._entries]
            self._flat = grown
        need = self._num + extra_samples + 1
        if need > len(self._indptr):
            cap = max(need, 2 * len(self._indptr))
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._num + 1] = self._indptr[: self._num + 1]
            self._indptr = grown

    # -- appends ------------------------------------------------------------

    def append(self, vertices: np.ndarray) -> None:
        vertices = np.asarray(vertices)
        if len(vertices) == 0:
            raise ValueError("an RRR set always contains at least its root")
        if len(vertices) > 1 and np.any(np.diff(vertices) <= 0):
            raise ValueError("RRR vertex lists must be sorted and duplicate-free")
        if vertices[0] < 0 or int(vertices[-1]) >= self.n:
            raise ValueError("RRR vertex id out of range")
        size = len(vertices)
        self._reserve(size, 1)
        e = self._entries
        self._flat[e : e + size] = vertices
        self._indptr[self._num + 1] = e + size
        self._num += 1
        self._entries += size

    def append_batch(
        self, flat: np.ndarray, sizes: np.ndarray, *, total: int | None = None
    ) -> None:
        """Bulk append: one cohort of samples in a few array copies.

        ``flat``/``sizes`` may be zero-copy views over a shared-memory
        arena extent — the copy below is the only one the landing path
        performs.  A caller-supplied ``total`` (from a block descriptor)
        is cross-checked against the sizes reduction, so a descriptor
        that disagrees with its own payload is rejected at landing time
        instead of corrupting the buffers.
        """
        flat = np.asarray(flat)
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(sizes) == 0:
            return
        if np.any(sizes <= 0):
            raise ValueError("an RRR set always contains at least its root")
        actual = int(sizes.sum())
        if total is not None and total != actual:
            raise ValueError("declared total disagrees with the sizes payload")
        total = actual
        if len(flat) != total:
            raise ValueError("flat length must equal the sum of sizes")
        if int(flat.min()) < 0 or int(flat.max()) >= self.n:
            raise ValueError("RRR vertex id out of range")
        if total > len(sizes):  # any sample longer than 1 => check sortedness
            # A pair with diff <= 0 is non-*increasing* (a within-sample
            # duplicate or inversion); pairs straddling a sample boundary
            # are exempt, so a vertex may legitimately repeat across
            # consecutive samples.
            nonincreasing = np.diff(flat) <= 0
            boundary = np.zeros(total - 1, dtype=bool)
            boundary[np.cumsum(sizes[:-1]) - 1] = True
            if np.any(nonincreasing & ~boundary):
                raise ValueError("RRR vertex lists must be sorted and duplicate-free")
        count = len(sizes)
        self._reserve(total, count)
        e, s = self._entries, self._num
        self._flat[e : e + total] = flat
        np.cumsum(sizes, out=self._indptr[s + 1 : s + 1 + count])
        self._indptr[s + 1 : s + 1 + count] += e
        self._num += count
        self._entries += total

    # -- reads --------------------------------------------------------------

    def __len__(self) -> int:
        return self._num

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self._num):
            yield self._flat[self._indptr[i] : self._indptr[i + 1]]

    def __getitem__(self, i: int) -> np.ndarray:
        if not -self._num <= i < self._num:
            raise IndexError(f"sample index {i} out of range")
        i %= self._num
        return self._flat[self._indptr[i] : self._indptr[i + 1]]

    @property
    def total_entries(self) -> int:
        return self._entries

    def flattened(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(flat, indptr)`` as zero-copy views.

        The views snapshot the current contents: appends past this call
        either write beyond the views' ends or into fresh buffers after
        a growth reallocation — in both cases the returned arrays stay
        valid and unchanged.
        """
        return self._flat[: self._entries], self._indptr[: self._num + 1]

    def counters(self) -> np.ndarray:
        """Per-vertex sample membership counts (the first counting step of
        Algorithm 4), as an ``int64`` array of length ``n``."""
        flat, _ = self.flattened()
        return np.bincount(flat, minlength=self.n)

    def nbytes_model(self) -> int:
        """One vector header per sample + 4 bytes per incidence + the
        outer vector-of-vectors header (modeling the C++ equivalent)."""
        return (
            VECTOR_HEADER_BYTES
            + self._num * VECTOR_HEADER_BYTES
            + self._entries * VERTEX_ID_BYTES
        )


class HypergraphRRRCollection(RRRCollection):
    """Two-directional hypergraph layout of the reference implementation.

    In addition to the sample -> vertex lists, an inverted index
    ``vertex -> samples containing it`` is maintained incrementally at
    append time, exactly like the reference code updates its hypergraph
    while sampling.  Seed selection via the inverted index avoids scans
    but the incidence data is held twice (the memory cost the paper's
    layout eliminates).
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self._sets: list[np.ndarray] = []
        self._entries = 0
        self._inverted: list[list[int]] = [[] for _ in range(n)]

    def append(self, vertices: np.ndarray) -> None:
        vertices = np.asarray(vertices, dtype=np.int32)
        if len(vertices) == 0:
            raise ValueError("an RRR set always contains at least its root")
        if vertices.min() < 0 or int(vertices.max()) >= self.n:
            raise ValueError("RRR vertex id out of range")
        sample_id = len(self._sets)
        self._sets.append(vertices)
        self._entries += len(vertices)
        inv = self._inverted
        for v in vertices.tolist():
            inv[v].append(sample_id)

    def append_batch(
        self, flat: np.ndarray, sizes: np.ndarray, *, total: int | None = None
    ) -> None:
        """Vectorized cohort landing: one grouped inverted-index build.

        The per-set :meth:`append` grows the inverted index with a
        Python loop over every single incidence — the dominant cost when
        the cohort sampler lands thousands of sets at once.  Here the
        whole batch is grouped by vertex with one stable argsort (stable
        keeps sample ids ascending within a vertex, matching the append
        order exactly), the sample-id column is converted with a single
        bulk ``tolist``, and each vertex's inverted list is extended
        once from a list slice.  When ``n`` fits 16 bits the sort keys
        are cast to ``uint16`` so NumPy's radix argsort kicks in (int32
        falls back to timsort; the cast cuts the sort from ~25 ms to
        ~8 ms on a 660k-incidence cohort).  Same observable state as
        repeated :meth:`append`.

        Microbenchmark (com-Orkut IC, 4096-sample cohort, 660k
        incidences, best of 5): per-set loop ~50 ms, grouped build
        ~47 ms.  The modest end-to-end delta is honest: both paths
        bottom out on materializing 660k Python ints into the
        ``list[list[int]]`` index (~18 ms of bulk ``tolist`` plus list
        growth), which the representation — poked directly by tests and
        mutation hooks — pins in place.  The grouped build's win is
        that it stays all-C until that floor and no longer executes one
        interpreter iteration per incidence, so it cannot degrade when
        cohorts grow.
        """
        flat = np.asarray(flat, dtype=np.int32)
        sizes = np.asarray(sizes, dtype=np.int64)
        if len(sizes) == 0:
            return
        if sizes.min() < 1:
            raise ValueError("an RRR set always contains at least its root")
        actual = int(sizes.sum())
        if total is not None and total != actual:
            raise ValueError("declared total disagrees with the sizes payload")
        if actual != len(flat):
            raise ValueError("flat/sizes length mismatch")
        if len(flat) and (flat.min() < 0 or int(flat.max()) >= self.n):
            raise ValueError("RRR vertex id out of range")
        first_id = len(self._sets)
        bounds = np.empty(len(sizes) + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(sizes, out=bounds[1:])
        for i in range(len(sizes)):
            self._sets.append(flat[bounds[i] : bounds[i + 1]])
        self._entries += len(flat)
        # Group the (vertex, sample) incidences by vertex: a stable
        # argsort brings each vertex's incidences together with sample
        # ids still in insertion order.
        sample_of = np.repeat(
            np.arange(first_id, first_id + len(sizes), dtype=np.int64), sizes
        )
        keys = flat.astype(np.uint16) if self.n <= (1 << 16) else flat
        order = np.argsort(keys, kind="stable")
        grouped_v = flat[order]
        grouped_s = sample_of[order].tolist()
        starts = np.flatnonzero(np.diff(grouped_v, prepend=-1))
        stops = np.append(starts[1:], len(grouped_v))
        inv = self._inverted
        verts_at = grouped_v[starts].tolist()
        for v, lo, hi in zip(verts_at, starts.tolist(), stops.tolist()):
            inv[v].extend(grouped_s[lo:hi])

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self._sets)

    def __getitem__(self, i: int) -> np.ndarray:
        return self._sets[i]

    @property
    def total_entries(self) -> int:
        return self._entries

    def samples_containing(self, v: int) -> list[int]:
        """The inverted-index lookup: ids of samples containing ``v``."""
        return self._inverted[v]

    def counters(self) -> np.ndarray:
        """Per-vertex membership counts read off the inverted index."""
        return np.fromiter(
            (len(lst) for lst in self._inverted), dtype=np.int64, count=self.n
        )

    def nbytes_model(self) -> int:
        """Both directions: forward lists (4 B ids) + inverted lists
        (8 B sample ids) + a vector header per sample *and* per vertex."""
        return (
            2 * VECTOR_HEADER_BYTES
            + len(self._sets) * VECTOR_HEADER_BYTES
            + self._entries * VERTEX_ID_BYTES
            + self.n * VECTOR_HEADER_BYTES
            + self._entries * SAMPLE_ID_BYTES
        )
