"""Frozen RRR index: the durable RRR store as a memory-mapped serving
artifact.

A frozen index is :mod:`repro.sampling.store` with ``INDEX.json`` as
its certificate.  Besides the store's count, entries and seal, that
manifest records what a query engine needs to serve without
resampling: the format version, the sampling identity ``(n, model,
seed)``, the algorithm facts ``(k, eps, l, theta, lb, theta_cap,
coverage_history)`` of the freezing run, the storage layout, and the
fingerprint of the graph the samples were drawn against, so a stale
index cannot silently serve a mutated graph.  A manifest naming a
layout other than ``"flat"`` — a newer section, or the coded section
earlier versions wrote — raises :class:`UnknownLayoutError`.

:meth:`FrozenRRRIndex.open` maps the data zero-copy via ``np.memmap``
and verifies the seal; only the per-sample ``indptr`` is materialized.
Because sample ``j`` is a pure function of ``(graph, model, seed, j)``,
an index can be *extended* in place when a tighter ``eps`` or a larger
``k`` demands more samples: the sealed prefix stays valid byte for byte.
:meth:`~FrozenRRRIndex.freeze`, :meth:`~FrozenRRRIndex.extend` and
:meth:`~FrozenRRRIndex.amend` all run the store's one append path, each
committed by one manifest rename.  ``open`` never truncates — a reader
would cut bytes a concurrent writer has appended but not yet sealed.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np

from ..sampling.checkpoint import BlockCheckpointSink, _run_identity
from ..sampling.collection import SortedRRRCollection
from ..sampling.store import RRRStore, _fact, _read_manifest

__all__ = [
    "FrozenRRRIndex",
    "FrozenIndexError",
    "StaleIndexError",
    "UnknownLayoutError",
    "FrozenCollectionView",
    "graph_fingerprint",
    "INDEX_FORMAT_VERSION",
]

INDEX_FORMAT_VERSION = 1
_LAYOUT = "flat"
_MANIFEST = "INDEX.json"
#: Times :meth:`FrozenRRRIndex.open` re-reads a manifest that moved
#: while it mapped the files the previous one named.
_OPEN_ATTEMPTS = 8


class FrozenIndexError(RuntimeError):
    """An index directory is malformed, torn, or fails its integrity seal."""


class StaleIndexError(FrozenIndexError):
    """The graph being served does not match the graph the index was
    frozen against — answering from it would be silently wrong."""


class UnknownLayoutError(FrozenIndexError):
    """The index declares a storage layout other than ``"flat"`` —
    reading it as flat would produce garbage, so the reader fails loud.
    Distinct from :class:`StaleIndexError`: the index may be perfectly
    healthy, just written by other code; re-freezing it writes the flat
    layout."""


def graph_fingerprint(graph) -> str:
    """Content fingerprint of a CSR graph (structure + probabilities).

    Any change to the vertex/edge sets or to an activation probability
    changes the fingerprint, which is what binds a frozen index to the
    exact influence instance its samples were drawn from.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray([graph.n, graph.m], dtype=np.int64).tobytes())
    for arr in (
        graph.out_indptr, graph.out_indices, graph.out_probs,
        graph.in_indptr, graph.in_indices, graph.in_probs,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class FrozenCollectionView(SortedRRRCollection):
    """Read-only :class:`SortedRRRCollection` facade over mapped buffers.

    The selection kernels dispatch on the collection type and consume
    only ``flattened()`` / ``len`` / ``total_entries``, all of which are
    served from the views handed in here — ``flat`` stays the ``int32``
    memmap.  Appends are refused: a frozen index only grows through
    :meth:`FrozenRRRIndex.extend`, which re-seals the manifest.
    """

    def __init__(self, n: int, flat: np.ndarray, indptr: np.ndarray) -> None:
        self.n = int(n)
        self._flat = flat
        self._indptr = indptr
        self._num = len(indptr) - 1
        self._entries = len(flat)

    def append(self, vertices: np.ndarray) -> None:
        raise FrozenIndexError("frozen collection views are read-only")

    def append_batch(self, flat, sizes, *, total=None) -> None:
        raise FrozenIndexError("frozen collection views are read-only")


class FrozenRRRIndex(RRRStore):
    """One frozen, memory-mapped RRR collection plus its manifest.

    Construct through :meth:`freeze` (from an in-memory collection or by
    promoting a checkpoint run directory) or :meth:`open` (zero-copy
    load of an existing index).
    """

    CERT = _MANIFEST
    COUNT = "num_samples"
    error = FrozenIndexError

    def __init__(self, path: Path, manifest: dict) -> None:
        super().__init__(path, manifest)
        # ``(flat, indptr)`` as ONE attribute, assigned last by _map():
        # reads on other threads see the rows of one mapping, never a
        # remapped flat with the previous indptr.
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self._edges: np.ndarray | None = None

    # -- identity / facts --------------------------------------------------

    @property
    def manifest(self) -> dict:
        """The sealed ``INDEX.json`` this handle serves."""
        return self.cert

    n = _fact("n")
    model = _fact("model", str)
    seed = _fact("seed")
    num_samples = _fact("num_samples")

    # -- freezing ----------------------------------------------------------

    @classmethod
    def freeze(
        cls,
        source: SortedRRRCollection | str | Path,
        out_dir: str | Path,
        *,
        graph=None,
        model: str,
        seed: int,
        k: int,
        eps: float,
        l: float = 1.0,
        theta: int | None = None,
        lb: float | None = None,
        theta_cap: int | None = None,
        coverage_history: list | None = None,
        estimation_rounds: int | None = None,
        edges: np.ndarray | None = None,
    ) -> "FrozenRRRIndex":
        """Write a frozen index from a collection or a checkpoint run dir.

        ``source`` is either a sampled :class:`SortedRRRCollection`
        (``edges`` must then carry the per-sample examined-edge meters)
        or a :class:`~repro.sampling.checkpoint.BlockCheckpointSink` run
        directory, opened read-only through the store (its manifest gives
        ``n``; a missing or unreadable one raises ``CheckpointError``),
        whose *certified* prefix is promoted.  Over an existing index
        this writes a new generation of data files, committed by one
        manifest rename under the directory's writer lock.

        The algorithm facts (``k``, ``eps``, ``theta``…) describe the run
        that produced the samples; the query engine replays the
        estimation control flow from them, so they must be the values the
        freezing run actually used.
        """
        if isinstance(source, (str, Path)):
            ident = _run_identity(Path(source))
            with BlockCheckpointSink(
                source, n=ident["n"], model=model, seed=seed, readonly=True
            ) as sink:
                n = sink.n
                flat32, sizes, per_edges = sink.load_range(0, sink.landed)
        else:
            n = source.n
            flat, indptr = source.flattened()
            sizes = np.diff(indptr).astype(np.int64)
            flat32 = np.ascontiguousarray(flat, dtype=np.int32)
            if edges is None:
                raise ValueError(
                    "freezing from a collection needs the per-sample "
                    "examined-edge meters (edges=)"
                )
            per_edges = np.ascontiguousarray(edges, dtype=np.int64)
        num_samples = len(sizes)
        if len(per_edges) != num_samples:
            raise ValueError(
                f"edge meters cover {len(per_edges)} samples, "
                f"collection holds {num_samples}"
            )
        if graph is not None and int(graph.n) != int(n):
            raise ValueError(
                f"graph has {graph.n} vertices, collection was sampled on {n}"
            )

        manifest = {
            "format": "repro-frozen-rrr-index", "version": INDEX_FORMAT_VERSION,
            "n": int(n), "model": str(model), "seed": int(seed),
            "k": int(k), "eps": float(eps), "l": float(l),
            "theta": num_samples if theta is None else int(theta),
            "lb": None if lb is None else float(lb),
            "theta_cap": None if theta_cap is None else int(theta_cap),
            "estimation_rounds": estimation_rounds,
            "coverage_history": [[int(tx), float(fr)] for tx, fr in coverage_history or []],
            # The count, entries and seal the store's commit fills in.
            "num_samples": 0, "entries": 0, "layout": _LAYOUT, "stream_fold": 0,
            "graph_fingerprint": None if graph is None else graph_fingerprint(graph),
            "created_unix": time.time(),
        }
        index = cls(Path(out_dir), manifest)
        index.path.mkdir(parents=True, exist_ok=True)
        index._commit((flat32, sizes, per_edges), fresh=True)
        return index

    # -- opening -----------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, graph=None) -> "FrozenRRRIndex":
        """Zero-copy load: memory-map the buffers and verify the seal.

        A manifest that moves while its files are mapped (a re-freeze
        unlinked them) is re-read and the open retried, so the maps are
        always the files one manifest names.  ``graph`` (when given) is
        checked against the frozen ``graph_fingerprint`` — a mismatch
        raises :class:`StaleIndexError` rather than serving answers for
        a graph the samples were never drawn from.
        """
        path = Path(path)
        mpath = path / _MANIFEST
        for _ in range(_OPEN_ATTEMPTS):
            manifest = _read_manifest(mpath, FrozenIndexError)
            if manifest.get("format") != "repro-frozen-rrr-index":
                raise FrozenIndexError(f"{mpath} is not a frozen RRR index")
            if manifest.get("version") != INDEX_FORMAT_VERSION:
                raise FrozenIndexError(
                    f"index format v{manifest.get('version')} != "
                    f"supported v{INDEX_FORMAT_VERSION}"
                )
            layout = manifest.get("layout", _LAYOUT)
            if layout != _LAYOUT:
                raise UnknownLayoutError(
                    f"index {path} uses layout {layout!r}; this reader serves "
                    f"only the {_LAYOUT!r} layout — re-freeze the index to "
                    "serve it"
                )
            index = cls(path, manifest)
            try:
                index._verify()
                index._map()
                break
            except (OSError, ValueError, FrozenIndexError):
                if _read_manifest(mpath, FrozenIndexError) == manifest:
                    raise
        else:
            raise FrozenIndexError(f"{mpath} kept moving while it was opened")
        if graph is not None:
            index.verify_graph(graph)
        return index

    def verify_graph(self, graph) -> None:
        """Raise :class:`StaleIndexError` unless ``graph`` matches the
        fingerprint the index was frozen against."""
        frozen_fp = self.cert.get("graph_fingerprint")
        if frozen_fp is None:
            return  # frozen without a graph: nothing to bind to
        live_fp = graph_fingerprint(graph)
        if live_fp != frozen_fp:
            raise StaleIndexError(
                f"index {self.path} was frozen against graph "
                f"{frozen_fp[:12]}…, the live graph is {live_fp[:12]}… — "
                "refusing to serve a stale index after a graph change"
            )

    def _map(self) -> None:
        flat, sizes, self._edges = self._mapped()
        indptr = np.zeros(self.num_samples + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        if int(indptr[-1]) != self.entries:
            raise FrozenIndexError(
                f"sizes sum to {int(indptr[-1])} entries, manifest "
                f"certifies {self.entries}"
            )
        self._rows = (flat, indptr)

    # -- reads -------------------------------------------------------------

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat, indptr)``: the raw int32 memmap of the incidence
        file and the derived per-sample offsets, from one mapping."""
        rows = self._rows
        if rows is None:
            raise FrozenIndexError("index is closed")
        return rows

    def mapped_samples(self) -> int:
        """Samples the published rows hold: ``num_samples``, or fewer
        while an extension's remap has not landed yet."""
        rows = self._rows
        if rows is None:
            raise FrozenIndexError("index is closed")
        return len(rows[1]) - 1

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(flat, indptr, sample_of)``: :meth:`rows` plus each entry's
        owning sample, built on every call and never kept (the query
        engine reads :meth:`rows`)."""
        flat, indptr = self.rows()
        owners = np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))
        return flat, indptr, owners

    def per_sample_edges(self) -> np.ndarray:
        if self._edges is None:
            raise FrozenIndexError("index is closed")
        return self._edges

    def collection_view(self, num_samples: int | None = None) -> FrozenCollectionView:
        """A read-only collection over the first ``num_samples`` samples
        (default: all).  Prefix views are zero-copy slices, which is what
        lets the query engine replay the θ-estimation rounds exactly."""
        flat, indptr = self.rows()
        if num_samples is None or num_samples >= self.num_samples:
            return FrozenCollectionView(self.n, flat, indptr)
        m = int(num_samples)
        return FrozenCollectionView(self.n, flat[: int(indptr[m])], indptr[: m + 1])

    # -- extension ---------------------------------------------------------

    def extend(
        self,
        flat: np.ndarray,
        sizes: np.ndarray,
        edges: np.ndarray,
        *,
        start: int,
    ) -> None:
        """Append samples ``[start, start + len(sizes))`` in place.

        ``start`` must equal the current sample count — extension only
        ever appends past the sealed prefix (the deterministic streams
        keep the old samples valid for any tighter ``eps``).  It runs the
        store's append path, so a failure at any step leaves this object
        and the directory at the old sealed state, and a handle whose
        manifest is older than the one on disk — extended, or re-frozen
        even to the same sizes under another seed — refuses; of two
        racing writers the second waits for the lock, then refuses.  One
        writer per index remains the caller's rule.
        """
        if self._rows is None:
            raise FrozenIndexError("index is closed")
        if int(start) != self.num_samples:
            raise FrozenIndexError(
                f"extension must start at the sealed sample count "
                f"{self.num_samples}, got {start}"
            )
        if len(sizes) == 0:
            return
        self._commit((
            np.ascontiguousarray(flat, dtype=np.int32),
            np.ascontiguousarray(sizes, dtype=np.int64),
            np.ascontiguousarray(edges, dtype=np.int64),
        ))

    def amend(self, **facts) -> None:
        """Atomically update algorithm facts (``eps``, ``theta``, ``lb``,
        ``k``, ``coverage_history``…) after a tighten re-derivation,
        through the same path (a stale handle refuses).  The in-memory
        manifest changes only once the new one is durable."""
        unknown = set(facts) - {
            "k", "eps", "l", "theta", "lb", "theta_cap",
            "coverage_history", "estimation_rounds",
        }
        if unknown:
            raise ValueError(f"not amendable manifest facts: {sorted(unknown)}")
        if "coverage_history" in facts:
            facts["coverage_history"] = [
                [int(tx), float(fr)] for tx, fr in facts["coverage_history"]
            ]
        self._commit(facts=facts)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop the memmaps (idempotent); the on-disk index survives."""
        self._rows = self._edges = None

    def __enter__(self) -> "FrozenRRRIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
