"""Compressed RRR storage: frequency-ranked delta+varint coding (HBMax).

The third collection layout, after the paper's sorted flat buffers and
the reference hypergraph.  HBMax (arXiv 2208.00613, the same PNNL
lineage as the source paper) observes that RRR incidence data is highly
skewed — a few hub vertices appear in most samples — and that IMM is
memory-bound at scale, so it pays to *store* the samples compressed and
to *operate on the compressed form* during seed selection.  This module
applies that idea to our NumPy substrate:

1. **Frequency rank remap.**  Vertex ids are remapped by global
   RRR-frequency rank: the vertex appearing in the most samples becomes
   rank 0, ties break toward the smaller original id.  Skew means the
   hot vertices that dominate the incidence volume get the smallest
   codes.  The permutation is refined *streamingly*: appends encode
   under the permutation current at landing time, and
   :meth:`CompressedRRRCollection._ensure_ranked` re-ranks + re-encodes
   lazily before the next read phase (the "final remap").  A frozen
   index pins the permutation instead (:meth:`freeze_permutation`), so
   serving-time extension re-encodes only the appended samples.

2. **Delta + varint coding.**  Each sample's ranks are sorted
   ascending and gap-encoded — first rank, then strictly positive
   deltas — as LEB128 varints (7 value bits per byte, high bit set on
   every byte except the last) into one growable byte buffer with a
   per-sample byte-offset index.  Small ranks and small gaps are the
   common case, so most incidences cost 1–2 bytes instead of the flat
   layout's modeled 4.

3. **Count on the coded stream.**  The counting pass of Algorithm 4 and
   the kill-pass coverage marking decode varints straight off the coded
   bytes (:meth:`parse_stream` / :meth:`decode_samples`) without ever
   materializing the flat int32 incidence array; selection counters are
   kept in *original* vertex-id space, which is what makes the greedy
   tie-break — and therefore seeds, coverage history, and θ —
   bit-identical to the other layouts (the oracle's layout axis).

Malformed coded bytes raise typed errors (:class:`CodedStreamError`
subtypes) instead of returning garbage — a truncated stream (final byte
still has its continuation bit set) is distinguished from a corrupt one
(ranks out of range, zero deltas, offsets disagreeing with the bytes).

Both codec directions are vectorized, so encode/decode run at NumPy
speed over whole cohorts: the encoder loops over byte positions (at
most :data:`MAX_VARINT_BYTES` iterations), and the decoder gathers the
terminal bytes at once, then folds the few continuation bytes into
their values with one segmented reduction.  The whole-stream parse
keeps ranks in ``int32``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .collection import (
    SAMPLE_ID_BYTES,
    VECTOR_HEADER_BYTES,
    VERTEX_ID_BYTES,
    RRRCollection,
    check_vertex_count,
)

__all__ = [
    "CompressedRRRCollection",
    "CodedStreamError",
    "TruncatedCodedStreamError",
    "CorruptCodedStreamError",
    "encode_varints",
    "decode_varints",
    "MAX_VARINT_BYTES",
]

#: Longest admissible varint: 9 bytes carry 63 value bits, the most a
#: non-negative int64 can need.  A run of 10+ continuation-flagged bytes
#: cannot come from our encoder and is rejected as corrupt.
MAX_VARINT_BYTES = 9


class CodedStreamError(ValueError):
    """Base for malformed coded-stream conditions (a ``ValueError`` so
    callers treating decode failures as data validation keep working)."""


class TruncatedCodedStreamError(CodedStreamError):
    """The stream ends mid-varint: the final byte still has its
    continuation bit set, so at least one trailing byte is missing."""


class CorruptCodedStreamError(CodedStreamError):
    """The bytes parse but cannot have been produced by the encoder:
    over-long varints, zero deltas, ranks outside ``[0, n)``, or a
    per-sample offset index disagreeing with the byte stream."""


# -- vectorized LEB128 varint codec ----------------------------------------


def _varint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (1 + one per extra 7-bit limb)."""
    lengths = np.ones(len(values), dtype=np.int64)
    rest = values >> 7
    while rest.any():
        lengths += rest > 0
        rest = rest >> 7
    return lengths


def _encode_with_lengths(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode non-negative int64 values; return ``(bytes, per-value lengths)``.

    Vectorized over byte positions: iteration ``j`` writes limb ``j`` of
    every value long enough to have one — at most :data:`MAX_VARINT_BYTES`
    iterations total, each a masked gather/scatter.
    """
    lengths = _varint_lengths(values)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty(int(ends[-1]) if len(ends) else 0, dtype=np.uint8)
    for j in range(int(lengths.max()) if len(lengths) else 0):
        m = lengths > j
        limb = ((values[m] >> (7 * j)) & 0x7F).astype(np.uint8)
        cont = (lengths[m] - 1 > j).astype(np.uint8) << 7
        out[starts[m] + j] = limb | cont
    return out, lengths


def encode_varints(values: np.ndarray) -> np.ndarray:
    """LEB128-encode a batch of non-negative integers to a byte array."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if int(values.min()) < 0:
        raise ValueError("varint values must be non-negative")
    out, _ = _encode_with_lengths(values)
    return out


def _values_from_terminals(
    buf: np.ndarray, terminal: np.ndarray, cont: np.ndarray, dtype=np.int64
) -> np.ndarray:
    """Decode values given the per-byte terminal mask and the positions
    of the continuation bytes (``flatnonzero(~terminal)``), as ``dtype``.

    Almost every coded value is one byte, so the values start as one
    masked gather of the terminal bytes (whose high bit is clear, so
    each already is its top limb).  The continuation bytes (few)
    are then folded into the values they open: the ``i``-th of them, at
    byte ``p``, belongs to value ``p - i`` (the terminal bytes before
    it), and its limb index is its place in its value's run.  A value
    ``dtype`` cannot hold is corrupt.
    """
    values = buf[terminal].astype(dtype)
    if len(cont):
        owner = cont - np.arange(len(cont))
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        runs = np.diff(first, append=len(cont))  # continuation bytes per value
        if int(runs.max()) >= MAX_VARINT_BYTES:
            raise CorruptCodedStreamError(
                f"varint of {int(runs.max()) + 1} bytes exceeds the "
                f"{MAX_VARINT_BYTES}-byte bound — the stream was not "
                "produced by this encoder"
            )
        limb = np.arange(len(cont)) - np.repeat(first, runs)
        low = np.bitwise_or.reduceat(
            (buf[cont] & 0x7F).astype(np.int64) << (7 * limb), first
        )
        multi = owner[first]
        wide = (values[multi].astype(np.int64) << (7 * runs)) | low
        if int(wide.max()) > np.iinfo(dtype).max:
            raise CorruptCodedStreamError(
                f"varint value {int(wide.max())} overflows {np.dtype(dtype).name}"
            )
        values[multi] = wide
    return values


def decode_varints(buf: np.ndarray) -> np.ndarray:
    """Decode a LEB128 byte array back to int64 values.

    Raises :class:`TruncatedCodedStreamError` when the buffer ends
    mid-varint and :class:`CorruptCodedStreamError` on over-long varints.
    """
    buf = np.ascontiguousarray(buf, dtype=np.uint8)
    if buf.size == 0:
        return np.empty(0, dtype=np.int64)
    terminal = (buf & 0x80) == 0
    if not terminal[-1]:
        raise TruncatedCodedStreamError(
            "coded stream ends inside a varint (continuation bit set on "
            "the final byte)"
        )
    return _values_from_terminals(buf, terminal, np.flatnonzero(~terminal))


def _concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``[start_j, stop_j)`` index ranges, built in place
    with the ones-then-cumsum trick (no repeat/arange temporaries)."""
    counts = stops - starts
    ends = np.cumsum(counts)
    total = int(ends[-1])
    idx = np.empty(total, dtype=np.int64)
    idx.fill(1)
    idx[0] = starts[0]
    idx[ends[:-1]] = starts[1:] - stops[:-1] + 1
    np.cumsum(idx, out=idx)
    return idx


def _parse_samples(
    buf: np.ndarray, terminal: np.ndarray, span_ends: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``int32`` ranks and per-sample entry counts of whole gap-coded
    samples laid back to back in ``buf``, sample ``j`` ending at byte
    ``span_ends[j]`` (every span ends on a terminal byte, so it holds at
    least one value).

    Gap coding is undone in place with one running sum: each sample's
    first delta gives back the previous sample's total, so the sum
    restarts at every sample.  Sums wrap like the encoder's integers
    would, so any rank that is really in ``[0, n)`` comes out exact, and
    the range check sees every other one.
    """
    cont = np.flatnonzero(~terminal)
    deltas = _values_from_terminals(buf, terminal, cont, np.int32)
    counts = np.diff(span_ends, prepend=0) - np.diff(
        np.searchsorted(cont, span_ends), prepend=0
    )
    first = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=first[1:])
    totals = np.add.reduceat(deltas, first, dtype=np.int32)
    deltas[first[1:]] -= totals[:-1]
    ranks = np.cumsum(deltas, dtype=np.int32, out=deltas)
    # One pass for both bounds: a negative rank reads as a huge unsigned.
    if int(ranks.view(np.uint32).max()) >= n:
        raise CorruptCodedStreamError(
            f"decoded rank outside [0, {n}) — corrupt deltas"
        )
    return ranks, counts


class CompressedRRRCollection(RRRCollection):
    """Frequency-ranked delta+varint layout (see the module docstring).

    State:

    ``_buf`` / ``_bytes``
        The growable coded byte stream and its used length.
    ``_ends``
        Per-sample end offsets into ``_buf`` (sample ``i`` occupies
        ``[_ends[i-1], _ends[i])``, with an implicit leading 0).
    ``_freq``
        Append-time per-vertex membership histogram (original id
        space) — the ground truth the rank permutation derives from,
        maintained independently of the decode path.
    ``_rank_of`` / ``_vertex_of``
        The current permutation and its inverse.  All landed bytes are
        always encoded under the *current* permutation: re-ranking
        decodes with the old one and re-encodes with the new.
    """

    _INITIAL_BYTES = 1024
    _INITIAL_SAMPLES = 64

    def __init__(self, n: int) -> None:
        check_vertex_count(n)
        self.n = n
        self._buf = np.empty(self._INITIAL_BYTES, dtype=np.uint8)
        self._ends = np.empty(self._INITIAL_SAMPLES, dtype=np.int64)
        self._num = 0
        self._bytes = 0
        self._entries = 0
        self._freq = np.zeros(n, dtype=np.int64)
        self._rank_of = np.arange(n, dtype=np.int64)
        self._vertex_of = np.arange(n, dtype=np.int64)
        self._perm_dirty = False
        self._perm_frozen = False
        # Mutation hooks (see repro.validate.mutation): skip the rank
        # permutation inversion on decode / treat continuation bytes as
        # value terminals in the bulk counting parse.
        self._mutate_identity_decode = False
        self._mutate_skip_continuation = False

    # -- growable buffers ---------------------------------------------------

    def _reserve(self, extra_bytes: int, extra_samples: int) -> None:
        need = self._bytes + extra_bytes
        if need > len(self._buf):
            grown = np.empty(max(need, 2 * len(self._buf)), dtype=np.uint8)
            grown[: self._bytes] = self._buf[: self._bytes]
            self._buf = grown
        need = self._num + extra_samples
        if need > len(self._ends):
            grown = np.empty(max(need, 2 * len(self._ends)), dtype=np.int64)
            grown[: self._num] = self._ends[: self._num]
            self._ends = grown

    # -- appends ------------------------------------------------------------

    def append(self, vertices: np.ndarray) -> None:
        vertices = np.asarray(vertices)
        if len(vertices) == 0:
            raise ValueError("an RRR set always contains at least its root")
        if len(vertices) > 1 and np.any(np.diff(vertices) <= 0):
            raise ValueError("RRR vertex lists must be sorted and duplicate-free")
        if vertices[0] < 0 or int(vertices[-1]) >= self.n:
            raise ValueError("RRR vertex id out of range")
        vertices = vertices.astype(np.int64, copy=False)
        self._freq[vertices] += 1
        self._encode_append(
            vertices, np.asarray([len(vertices)], dtype=np.int64)
        )
        self._perm_dirty = True

    def append_batch(
        self, flat: np.ndarray, sizes: np.ndarray, *, total: int | None = None
    ) -> None:
        """Bulk landing: validate exactly like the sorted layout, then
        encode the whole cohort under the current permutation.

        This is the landing interface the parallel engine and the
        supervisor call block by block — a worker block is encoded
        in-extent here (one varint pass over the block), never staged as
        int32 rows in this collection.
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
        if total > len(sizes):
            nonincreasing = np.diff(flat) <= 0
            boundary = np.zeros(total - 1, dtype=bool)
            boundary[np.cumsum(sizes[:-1]) - 1] = True
            if np.any(nonincreasing & ~boundary):
                raise ValueError("RRR vertex lists must be sorted and duplicate-free")
        flat = flat.astype(np.int64, copy=False)
        self._freq += np.bincount(flat, minlength=self.n)
        self._encode_append(flat, sizes)
        self._perm_dirty = True

    def _encode_append(self, flat: np.ndarray, sizes: np.ndarray) -> None:
        """Encode already-validated samples under the current permutation.

        ``flat`` may hold each sample's vertices in any order — ranks
        are sorted within samples here (one fused key sort), which is
        also what lets :meth:`_ensure_ranked` re-encode decoded ranks
        without materializing an id-sorted intermediate.
        """
        ranks = self._rank_of[flat]
        count = len(sizes)
        if count > 1 or len(ranks) > 1:
            # Sort ranks within samples in one pass: key = sample*n + rank.
            local = np.repeat(np.arange(count, dtype=np.int64), sizes)
            keys = local * max(self.n, 1) + ranks
            keys.sort()
            ranks = keys % max(self.n, 1)
        starts = np.zeros(count, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        deltas = np.empty(len(ranks), dtype=np.int64)
        deltas[0] = ranks[0]
        np.subtract(ranks[1:], ranks[:-1], out=deltas[1:])
        deltas[starts] = ranks[starts]
        payload, lengths = _encode_with_lengths(deltas)
        sample_bytes = np.add.reduceat(lengths, starts)
        self._reserve(len(payload), count)
        self._buf[self._bytes : self._bytes + len(payload)] = payload
        ends = self._ends[self._num : self._num + count]
        np.cumsum(sample_bytes, out=ends)
        ends += self._bytes
        self._bytes += len(payload)
        self._num += count
        self._entries += len(ranks)

    # -- rank refinement ----------------------------------------------------

    def _ensure_ranked(self) -> None:
        """Re-rank by the current frequency histogram and re-encode.

        No-op when the permutation is frozen (serving mode) or already
        matches the histogram.  Runs lazily before read phases, so the
        per-θ-round cost is one decode + one encode of the landed bytes
        — O(total coded bytes), amortized across the doubling rounds.
        """
        if self._perm_frozen or not self._perm_dirty:
            return
        # Stable sort of -freq: ties break toward the smaller vertex id.
        order = np.argsort(-self._freq, kind="stable")
        new_rank = np.empty(self.n, dtype=np.int64)
        new_rank[order] = np.arange(self.n, dtype=np.int64)
        if np.array_equal(new_rank, self._rank_of):
            self._perm_dirty = False
            return
        if self._num:
            ranks, counts = self.parse_stream()
            vertices = self._vertex_of[ranks]
            self._rank_of, self._vertex_of = new_rank, order
            self._num = 0
            self._bytes = 0
            self._entries = 0
            self._encode_append(vertices, counts)
        else:
            self._rank_of, self._vertex_of = new_rank, order
        self._perm_dirty = False

    def freeze_permutation(self) -> None:
        """Pin the permutation after a final re-rank: later appends keep
        encoding under it (no re-encode of the sealed bytes), which is
        the serving layer's extension contract."""
        self._ensure_ranked()
        self._perm_frozen = True

    def adopt_permutation(self, vertex_of: np.ndarray) -> None:
        """Install a pinned external permutation (an opened frozen
        index's).  Only valid while empty — landed bytes are not
        re-encoded."""
        if self._num:
            raise ValueError("cannot adopt a permutation over landed samples")
        vertex_of = np.ascontiguousarray(vertex_of, dtype=np.int64)
        if len(vertex_of) != self.n or not np.array_equal(
            np.sort(vertex_of), np.arange(self.n, dtype=np.int64)
        ):
            raise ValueError(f"permutation must be a bijection on [0, {self.n})")
        self._vertex_of = vertex_of
        self._rank_of = np.empty(self.n, dtype=np.int64)
        self._rank_of[vertex_of] = np.arange(self.n, dtype=np.int64)
        self._perm_frozen = True
        self._perm_dirty = False

    @classmethod
    def from_stream(
        cls,
        n: int,
        coded: np.ndarray,
        ends: np.ndarray,
        vertex_of: np.ndarray,
        *,
        entries: int,
    ) -> "CompressedRRRCollection":
        """Wrap an existing coded section (e.g. a frozen index's mapped
        bytes) under its pinned permutation.  Read paths only — the
        buffers may be read-only memmaps."""
        coll = cls(n)
        coll.adopt_permutation(vertex_of)
        coll._buf = np.ascontiguousarray(coded, dtype=np.uint8)
        coll._ends = np.ascontiguousarray(ends, dtype=np.int64)
        coll._num = len(coll._ends)
        coll._bytes = int(coll._ends[-1]) if coll._num else 0
        coll._entries = int(entries)
        return coll

    # -- coded-stream reads --------------------------------------------------

    def _stream_terminals(self, buf: np.ndarray) -> np.ndarray:
        """Per-byte value-terminal mask of the bulk counting parse (a
        byte terminates a varint iff its continuation bit is clear)."""
        if self._mutate_skip_continuation:
            return np.ones(len(buf), dtype=bool)
        return (buf & 0x80) == 0

    def _invert(self, ranks: np.ndarray) -> np.ndarray:
        """Rank → original vertex id (the decode-side inversion of the
        frequency permutation)."""
        if self._mutate_identity_decode:
            return ranks
        return self._vertex_of[ranks]

    def parse_stream(self) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized varint pass over the whole coded stream.

        Returns ``(ranks, counts)``: every entry's rank in stream order
        (``int32``, ascending within each sample) and the per-sample
        entry counts.  This is the counting kernel's substrate — no flat
        int32 rows.
        """
        if self._num == 0:
            return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64)
        buf = self._buf[: self._bytes]
        terminal = self._stream_terminals(buf)
        if not terminal[-1]:
            raise TruncatedCodedStreamError(
                "coded stream ends inside a varint (continuation bit set "
                "on the final byte)"
            )
        ends = self._ends[: self._num]
        if (
            int(ends[-1]) != self._bytes
            or (self._num > 1 and np.any(np.diff(ends) <= 0))
            or not terminal[ends - 1].all()
        ):
            raise CorruptCodedStreamError(
                "per-sample offset index disagrees with the coded bytes"
            )
        return _parse_samples(buf, terminal, ends, self.n)

    def decode_samples(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decode the given sample ids off the coded stream.

        Returns ``(vertices, counts)``: the samples' original vertex
        ids, concatenated in the requested sample order (rank-ascending
        within each sample), plus per-sample entry counts.  This is the
        kill pass's decode-on-the-fly primitive — only the covered
        samples' byte ranges are touched.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        byte_stops = self._ends[ids]
        byte_starts = np.where(ids > 0, self._ends[ids - 1], 0)
        span = self._buf[_concat_ranges(byte_starts, byte_stops)]
        terminal = (span & 0x80) == 0
        if not terminal[-1]:
            raise TruncatedCodedStreamError(
                "coded sample span ends inside a varint"
            )
        span_ends = np.cumsum(byte_stops - byte_starts)
        if not terminal[span_ends - 1].all():
            raise CorruptCodedStreamError(
                "a sample's coded bytes end inside a varint"
            )
        ranks, counts = _parse_samples(span, terminal, span_ends, self.n)
        return self._invert(ranks), counts

    # -- collection interface -----------------------------------------------

    def __len__(self) -> int:
        return self._num

    def __getitem__(self, i: int) -> np.ndarray:
        if not -self._num <= i < self._num:
            raise IndexError(f"sample index {i} out of range")
        i %= self._num
        start = int(self._ends[i - 1]) if i else 0
        deltas = decode_varints(self._buf[start : int(self._ends[i])])
        if len(deltas) > 1 and int(deltas[1:].min()) < 1:
            raise CorruptCodedStreamError(
                "zero delta inside a sample — duplicate or unsorted ranks"
            )
        ranks = np.cumsum(deltas)
        if int(ranks[-1]) >= self.n or int(ranks[0]) < 0:
            raise CorruptCodedStreamError(
                f"decoded rank outside [0, {self.n}) — corrupt deltas"
            )
        return np.sort(self._invert(ranks))

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self._num):
            yield self[i]

    @property
    def total_entries(self) -> int:
        return self._entries

    @property
    def coded_bytes(self) -> int:
        """Used length of the coded byte stream."""
        return self._bytes

    def stream(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(coded bytes, per-sample end offsets, vertex_of)`` as
        zero-copy views of the live buffers — the frozen-index writer's
        input."""
        return (
            self._buf[: self._bytes],
            self._ends[: self._num],
            self._vertex_of,
        )

    def counters(self) -> np.ndarray:
        """Per-vertex membership counts, computed off the coded stream
        (parse → segmented ranks → permutation inversion → bincount)."""
        if self._num == 0:
            return np.zeros(self.n, dtype=np.int64)
        ranks, _ = self.parse_stream()
        return np.bincount(self._invert(ranks), minlength=self.n)

    def nbytes_model(self) -> int:
        """Honest resident bytes: the coded stream + its container
        header, the per-sample offset index, the permutation and its
        inverse (modeled as int32, ids fit), and the int64 frequency
        histogram the streaming refinement keeps."""
        return (
            2 * VECTOR_HEADER_BYTES
            + self._bytes
            + self._num * SAMPLE_ID_BYTES
            + self.n * (2 * VERTEX_ID_BYTES + SAMPLE_ID_BYTES)
        )
