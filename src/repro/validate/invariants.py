"""Structural invariants of the RRR collection layouts.

These are the storage-level contracts everything above the collections
assumes (binary-searched interval scans, ``bincount`` counting passes,
zero-copy ``flattened()`` views) but that only construction-time
validation used to enforce.  The checkers re-derive each property from
the raw buffers, so they catch corruption introduced *after* append
validation — the class of fault the mutation tests inject deliberately.

Checked for :class:`~repro.sampling.collection.SortedRRRCollection`:

* ``indptr`` starts at 0, is strictly increasing (every sample holds at
  least its root) and ends at ``total_entries``;
* every sample's vertex list is strictly increasing (sorted,
  duplicate-free) and within ``[0, n)``;
* the selection kernel's sample-keyed hit index
  (:func:`~repro.imm.select.vertex_index`) is *exactly* the transpose of
  ``flat``/``indptr`` — per vertex, the ids of the samples holding it,
  ascending — and a sample prefix cut from it is the prefix's transpose;
* ``counters()`` equals an independent bincount of the flat buffer;
* ``nbytes_model()`` equals the documented closed form (byte-model
  conservation — Table 2 comparisons silently lie if this drifts).

Checked for :class:`~repro.sampling.collection.HypergraphRRRCollection`:

* the inverted index is *exactly* the transpose of the forward lists
  (same incidences, each stored once per direction, sample ids in
  insertion order);
* ``total_entries`` equals the summed forward-list lengths;
* ``nbytes_model()`` equals its closed form.
"""

from __future__ import annotations

import numpy as np

from ..imm import select
from ..sampling.collection import (
    SAMPLE_ID_BYTES,
    VECTOR_HEADER_BYTES,
    VERTEX_ID_BYTES,
    HypergraphRRRCollection,
    RRRCollection,
    SortedRRRCollection,
)
from .report import ValidationReport

__all__ = [
    "check_collection",
    "check_sorted_collection",
    "check_hypergraph_collection",
]


def check_sorted_collection(
    coll: SortedRRRCollection, subject: str = "SortedRRRCollection"
) -> ValidationReport:
    """Verify the flat-buffer invariants of the sorted layout."""
    rep = ValidationReport()
    flat, indptr = coll.flattened()
    num, entries = len(coll), coll.total_entries

    rep.check(
        len(indptr) == num + 1 and (num == 0 or int(indptr[0]) == 0),
        "collection.indptr",
        subject,
        f"indptr must have {num + 1} entries starting at 0, "
        f"got len={len(indptr)} first={indptr[0] if len(indptr) else '∅'}",
    )
    rep.check(
        len(flat) == entries,
        "collection.flat-length",
        subject,
        f"flat length {len(flat)} != total_entries {entries}",
    )
    if num:
        sizes = np.diff(indptr)
        monotone_ok = rep.check(
            bool((sizes > 0).all()) and int(indptr[-1]) == entries,
            "collection.indptr-monotone",
            subject,
            f"indptr must be strictly increasing and end at {entries}; "
            f"min sample size {int(sizes.min()) if len(sizes) else '∅'}, "
            f"last {int(indptr[-1])}",
        )
        # The remaining checks index through indptr, so they are only
        # well-defined once the partition itself is sound.
        if monotone_ok and entries > 1:
            # Per-sample sortedness: within a sample every consecutive
            # pair must strictly increase; pairs straddling a boundary
            # are exempt (a vertex may repeat across samples).
            nonincreasing = np.diff(flat) <= 0
            boundary = np.zeros(entries - 1, dtype=bool)
            boundary[indptr[1:-1] - 1] = True
            bad = np.flatnonzero(nonincreasing & ~boundary)
            rep.check(
                len(bad) == 0,
                "collection.sortedness",
                subject,
                f"{len(bad)} within-sample pair(s) not strictly increasing "
                f"(first at flat[{bad[0] if len(bad) else -1}])",
            )
        in_range = rep.check(
            entries == 0 or (int(flat.min()) >= 0 and int(flat.max()) < coll.n),
            "collection.vertex-range",
            subject,
            f"vertex ids must lie in [0, {coll.n})",
        )
        if monotone_ok and in_range:
            wrong = _hit_index_mismatch(flat, indptr, coll.n)
            rep.check(
                wrong is None,
                "collection.hit-index",
                subject,
                f"hit index is not the transpose of flat/indptr: {wrong}",
            )
        if in_range:
            rep.check(
                bool(
                    np.array_equal(
                        coll.counters(), np.bincount(flat, minlength=coll.n)
                    )
                ),
                "collection.counters",
                subject,
                "counters() != independent bincount of the flat buffer",
            )
    expected_bytes = (
        VECTOR_HEADER_BYTES + num * VECTOR_HEADER_BYTES + entries * VERTEX_ID_BYTES
    )
    rep.check(
        coll.nbytes_model() == expected_bytes,
        "collection.byte-model",
        subject,
        f"nbytes_model()={coll.nbytes_model()} != closed form {expected_bytes} "
        f"(header + {num}·header + {entries}·{VERTEX_ID_BYTES})",
    )
    return rep


def _hit_index_mismatch(flat: np.ndarray, indptr: np.ndarray, n: int) -> str | None:
    """Where the kernel's hit index departs from the transpose of the
    rows (``None`` if nowhere), over all samples and over a prefix cut
    from the full index the way the serving engine cuts it."""
    num = len(indptr) - 1
    owner = np.repeat(np.arange(num, dtype=np.int64), np.diff(indptr))
    want = owner[np.argsort(flat.astype(np.int64), kind="stable")]
    want_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=n), out=want_ptr[1:])
    index = select.vertex_index(flat, indptr, n)
    hits, vptr = index
    if not np.array_equal(vptr, want_ptr):
        bad = int(np.flatnonzero(vptr != want_ptr)[0])
        return f"group offset {bad} is {int(vptr[bad])}, want {int(want_ptr[bad])}"
    if not np.array_equal(hits, want):
        bad = int(np.flatnonzero(hits != want)[0])
        return f"hit {bad} names sample {int(hits[bad])}, want {int(want[bad])}"
    cut = num // 2
    view = select.FlatView(n, flat, indptr, num_samples=cut, by_vertex=index)
    got = [view.hits(v) for v in range(n)]
    lengths = np.fromiter(map(len, got), dtype=np.int64, count=n)
    want_lengths = np.bincount(flat[: int(indptr[cut])], minlength=n)
    if not np.array_equal(lengths, want_lengths):
        bad = int(np.flatnonzero(lengths != want_lengths)[0])
        return (
            f"vertex {bad} has {int(lengths[bad])} hits in the first {cut} "
            f"samples, want {int(want_lengths[bad])}"
        )
    if n and not np.array_equal(np.concatenate(got), want[want < cut]):
        return f"hits cut to the first {cut} samples name other samples"
    return None


def check_hypergraph_collection(
    coll: HypergraphRRRCollection, subject: str = "HypergraphRRRCollection"
) -> ValidationReport:
    """Verify both directions of the bidirectional layout agree."""
    rep = ValidationReport()
    entries = sum(len(s) for s in coll)
    rep.check(
        entries == coll.total_entries,
        "collection.flat-length",
        subject,
        f"total_entries {coll.total_entries} != summed list lengths {entries}",
    )
    # Rebuild the inverted index from the forward lists and compare.
    rebuilt: list[list[int]] = [[] for _ in range(coll.n)]
    sorted_ok = True
    range_ok = True
    for sid, verts in enumerate(coll):
        v = np.asarray(verts)
        if len(v) == 0 or (len(v) > 1 and bool((np.diff(v) <= 0).any())):
            sorted_ok = False
        if len(v) and (int(v.min()) < 0 or int(v.max()) >= coll.n):
            range_ok = False
            continue
        for vertex in v.tolist():
            rebuilt[vertex].append(sid)
    rep.check(
        sorted_ok,
        "collection.sortedness",
        subject,
        "a forward vertex list is empty or not strictly increasing",
    )
    rep.check(range_ok, "collection.vertex-range", subject, f"ids outside [0, {coll.n})")
    mismatched = [
        v for v in range(coll.n) if coll.samples_containing(v) != rebuilt[v]
    ]
    rep.check(
        not mismatched,
        "collection.inverted-index",
        subject,
        f"inverted index disagrees with forward lists at "
        f"{len(mismatched)} vertex(es), first v={mismatched[0] if mismatched else -1}",
    )
    expected_bytes = (
        2 * VECTOR_HEADER_BYTES
        + len(coll) * VECTOR_HEADER_BYTES
        + coll.total_entries * VERTEX_ID_BYTES
        + coll.n * VECTOR_HEADER_BYTES
        + coll.total_entries * SAMPLE_ID_BYTES
    )
    rep.check(
        coll.nbytes_model() == expected_bytes,
        "collection.byte-model",
        subject,
        f"nbytes_model()={coll.nbytes_model()} != closed form {expected_bytes}",
    )
    return rep


def check_collection(coll: RRRCollection, subject: str | None = None) -> ValidationReport:
    """Dispatch to the layout-appropriate invariant checker."""
    if isinstance(coll, SortedRRRCollection):
        return check_sorted_collection(coll, subject or "SortedRRRCollection")
    if isinstance(coll, HypergraphRRRCollection):
        return check_hypergraph_collection(coll, subject or "HypergraphRRRCollection")
    raise TypeError(f"unsupported collection type {type(coll).__name__}")
