"""Frozen RRR index: the write-ahead checkpoint spill, promoted to a
versioned, memory-mappable serving artifact.

The checkpoint sink (:mod:`repro.sampling.checkpoint`) already spills a
collection as three append-only raw buffers plus an atomic cursor; a
*frozen index* is the same binary layout with the cursor replaced by an
immutable manifest that additionally records the algorithm facts a query
engine needs to serve without resampling:

``index_dir/``
    ``INDEX.json``
        Format version; the sampling identity ``(n, model, seed)``; the
        algorithm facts ``(k, eps, l, theta, lb, theta_cap,
        coverage_history)`` of the run that froze it; the XOR-folded
        per-sample stream fingerprint of ``[0, num_samples)`` (the same
        incremental fold the checkpoint cursor and the worker handshake
        use) as the integrity seal; and the fingerprint of the graph the
        samples were drawn against, so a stale index cannot silently
        serve a mutated graph.
    ``flat.i32.bin`` / ``sizes.i64.bin`` / ``edges.i64.bin``
        Identical to the checkpoint spill: concatenated sorted vertex
        lists, per-sample lengths, per-sample examined-edge meters.

This is the one storage layout; the manifest names it (``"layout":
"flat"``), and a manifest naming any other — a newer section, or the
frequency-ranked coded section earlier versions could write — fails
loud with :class:`UnknownLayoutError` instead of being misread.

:meth:`FrozenRRRIndex.open` maps the buffers zero-copy via
``np.memmap`` — no read-then-copy — and verifies the seal: the fold of
``stream_seeds_array(seed, [0, num_samples))`` must equal the manifest's,
each data file must hold at least the bytes the manifest certifies,
and the derived ``indptr`` must land on ``entries``.  Only the derived
per-sample ``indptr`` is materialized; the incidence data itself — the
array that grows with θ — stays on disk until the page cache faults it
in, and no per-entry owner array is built (the query engine's hit index
carries the sample ids it needs).

Because sample ``j`` is a pure function of ``(graph, model, seed, j)``,
a frozen index can be *extended* in place when a tighter ``eps`` (or a
larger ``k``) demands more samples: θ grows monotonically and the frozen
prefix stays valid byte for byte.  :meth:`FrozenRRRIndex.extend` appends
to the data files and re-seals the manifest atomically.

Torn tails follow :class:`~repro.sampling.checkpoint.BlockCheckpointSink`'s
rule: only the manifest certifies bytes.  A crash (or a failed manifest
write) after an extension's appends leaves data files longer than the
manifest says; :meth:`FrozenRRRIndex.open` maps just the certified bytes
and the next :meth:`~FrozenRRRIndex.extend` truncates the tail before it
appends.  ``open`` never truncates — a reader would cut bytes a
concurrent writer has appended but not yet sealed.  A file shorter than
its certified size is torn below the seal and refuses to open.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..rng.streams import stream_seeds_array
from ..sampling.checkpoint import BlockCheckpointSink, _fsync_dir
from ..sampling.collection import SortedRRRCollection

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
_FLAT = "flat.i32.bin"
_SIZES = "sizes.i64.bin"
_EDGES = "edges.i64.bin"


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


def _fold_range(seed: int, num_samples: int) -> int:
    seeds = stream_seeds_array(seed, np.arange(num_samples, dtype=np.int64))
    return int(np.bitwise_xor.reduce(seeds)) if num_samples else 0


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


class FrozenRRRIndex:
    """One frozen, memory-mapped RRR collection plus its manifest.

    Construct through :meth:`freeze` (from an in-memory collection or by
    promoting a checkpoint run directory) or :meth:`open` (zero-copy
    load of an existing index).
    """

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = Path(path)
        self.manifest = manifest
        # ``(flat, indptr)`` as ONE attribute, assigned last by _map():
        # reads on other threads see the rows of one mapping, never a
        # remapped flat with the previous indptr.
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None
        self._edges: np.ndarray | None = None

    # -- identity / facts --------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.manifest["n"])

    @property
    def model(self) -> str:
        return str(self.manifest["model"])

    @property
    def seed(self) -> int:
        return int(self.manifest["seed"])

    @property
    def num_samples(self) -> int:
        return int(self.manifest["num_samples"])

    @property
    def entries(self) -> int:
        return int(self.manifest["entries"])

    # -- freezing ----------------------------------------------------------

    @classmethod
    def freeze(
        cls,
        source: SortedRRRCollection | str | Path,
        out_dir: str | Path,
        *,
        graph=None,
        n: int | None = None,
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
        or a path to a :class:`~repro.sampling.checkpoint
        .BlockCheckpointSink` run directory, whose *certified* prefix is
        promoted — torn tail bytes beyond the cursor are ignored, and the
        reload goes through ``load_range``'s exact-length validation.

        The data writes and renames and the manifest install hold the
        directory's writer lock, so over an existing index an extension
        through an older handle waits for the new manifest and then
        refuses instead of appending to half-replaced files.

        The algorithm facts (``k``, ``eps``, ``theta``…) describe the run
        that produced the samples; the query engine replays the
        estimation control flow from them, so they must be the values the
        freezing run actually used.
        """
        out_dir = Path(out_dir)
        if isinstance(source, (str, Path)):
            if n is None:
                # Identity comes from the checkpoint's own manifest.
                ck_manifest = json.loads(
                    (Path(source) / "MANIFEST.json").read_text()
                )
                n = int(ck_manifest["n"])
            sink = BlockCheckpointSink(
                source, n=n, model=model, seed=seed, readonly=True
            )
            try:
                flat32, sizes, per_edges = sink.load_range(0, sink.landed)
                n = sink.n
            finally:
                sink.close()
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
            "format": "repro-frozen-rrr-index",
            "version": INDEX_FORMAT_VERSION,
            "n": int(n),
            "model": str(model),
            "seed": int(seed),
            "k": int(k),
            "eps": float(eps),
            "l": float(l),
            "theta": int(theta) if theta is not None else num_samples,
            "lb": float(lb) if lb is not None else None,
            "theta_cap": int(theta_cap) if theta_cap is not None else None,
            "estimation_rounds": estimation_rounds,
            "coverage_history": [
                [int(tx), float(fr)] for tx, fr in (coverage_history or [])
            ],
            "num_samples": int(num_samples),
            "entries": int(len(flat32)),
            "layout": _LAYOUT,
            "stream_fold": _fold_range(seed, num_samples),
            "graph_fingerprint": (
                graph_fingerprint(graph) if graph is not None else None
            ),
            "created_unix": time.time(),
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        with _writer_lock(out_dir):
            for name, arr in ((_FLAT, flat32), (_SIZES, sizes), (_EDGES, per_edges)):
                tmp = out_dir / (name + ".tmp")
                with open(tmp, "wb") as fh:
                    fh.write(np.ascontiguousarray(arr).tobytes())
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, out_dir / name)
            _write_manifest(out_dir, manifest)
        index = cls(out_dir, manifest)
        index._map()
        return index

    # -- opening -----------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, graph=None) -> "FrozenRRRIndex":
        """Zero-copy load: memory-map the buffers and verify the seal.

        ``graph`` (when given) is checked against the frozen
        ``graph_fingerprint`` — a mismatch raises :class:`StaleIndexError`
        rather than serving answers for a graph the samples were never
        drawn from.
        """
        path = Path(path)
        mpath = path / _MANIFEST
        manifest = _read_manifest(path)
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
        index._verify_seal()
        index._map()
        if graph is not None:
            index.verify_graph(graph)
        return index

    def verify_graph(self, graph) -> None:
        """Raise :class:`StaleIndexError` unless ``graph`` matches the
        fingerprint the index was frozen against."""
        frozen_fp = self.manifest.get("graph_fingerprint")
        if frozen_fp is None:
            return  # frozen without a graph: nothing to bind to
        live_fp = graph_fingerprint(graph)
        if live_fp != frozen_fp:
            raise StaleIndexError(
                f"index {self.path} was frozen against graph "
                f"{frozen_fp[:12]}…, the live graph is {live_fp[:12]}… — "
                "refusing to serve a stale index after a graph change"
            )

    def _verify_seal(self) -> None:
        # A longer file is a torn tail past the seal (see the module
        # docstring); only a shorter one lost certified bytes.
        for name, want in _certified_bytes(self.manifest).items():
            p = self.path / name
            have = p.stat().st_size if p.exists() else -1
            if have < want:
                raise FrozenIndexError(
                    f"{name} holds {have} bytes, manifest certifies {want} — "
                    "index is torn or was edited behind its manifest"
                )
        expected = _fold_range(self.seed, self.num_samples)
        if int(self.manifest["stream_fold"]) != expected:
            raise FrozenIndexError(
                "stream fingerprint disagrees with the manifest's sample "
                "range — the index was frozen with a different seed or count"
            )

    def _map(self) -> None:
        num, entries = self.num_samples, self.entries
        if entries:
            flat = np.memmap(
                self.path / _FLAT, dtype=np.int32, mode="r", shape=(entries,)
            )
        else:
            flat = np.empty(0, dtype=np.int32)
        if num:
            self._sizes = np.memmap(
                self.path / _SIZES, dtype=np.int64, mode="r", shape=(num,)
            )
            self._edges = np.memmap(
                self.path / _EDGES, dtype=np.int64, mode="r", shape=(num,)
            )
        else:
            self._sizes = np.empty(0, dtype=np.int64)
            self._edges = np.empty(0, dtype=np.int64)
        indptr = np.zeros(num + 1, dtype=np.int64)
        np.cumsum(self._sizes, out=indptr[1:])
        if int(indptr[-1]) != entries:
            raise FrozenIndexError(
                f"sizes sum to {int(indptr[-1])} entries, manifest "
                f"certifies {entries}"
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
        ever appends past the sealed prefix, never rewrites it (the
        deterministic streams guarantee the old samples stay valid for
        any tighter ``eps``).  Data lands and is fsync'd before the
        manifest moves, write-ahead style.  Each data file is first
        truncated to its certified size, dropping the torn tail a
        crashed or failed extension left; the next manifest is built as
        a copy and installed only once it is durable, so a failure at
        any step leaves this object and the directory at the old sealed
        state.  A handle whose manifest is older than the one on disk —
        extended, or re-frozen (even to the same byte sizes under another
        seed) — refuses to extend instead of truncating sealed samples or
        mixing two seeds' streams; the check and the writes hold the
        directory's writer lock, so of two racing writers the second
        waits and then refuses.  One writer per index remains the
        caller's rule.
        """
        if self._rows is None:
            raise FrozenIndexError("index is closed")
        if int(start) != self.num_samples:
            raise FrozenIndexError(
                f"extension must start at the sealed sample count "
                f"{self.num_samples}, got {start}"
            )
        sizes = np.ascontiguousarray(sizes, dtype=np.int64)
        if len(sizes) == 0:
            return
        flat32 = np.ascontiguousarray(flat, dtype=np.int32)
        edges64 = np.ascontiguousarray(edges, dtype=np.int64)
        if int(sizes.sum()) != len(flat32) or len(edges64) != len(sizes):
            raise FrozenIndexError(
                "extension payload is inconsistent (sizes vs flat/edges)"
            )
        files = ((_FLAT, flat32), (_SIZES, sizes), (_EDGES, edges64))
        certified = _certified_bytes(self.manifest)
        num = self.num_samples + len(sizes)
        manifest = dict(self.manifest)
        manifest["num_samples"] = num
        manifest["entries"] = self.entries + len(flat32)
        manifest["stream_fold"] = _fold_range(self.seed, num)
        with _writer_lock(self.path):
            on_disk = _read_manifest(self.path)
            if (
                _certified_bytes(on_disk) != certified
                or on_disk.get("stream_fold") != self.manifest["stream_fold"]
            ):
                # Truncating through a stale handle would cut samples
                # another writer sealed (and pages its handle has mapped:
                # reading them would raise SIGBUS); appending this
                # handle's seed to a re-freeze under another seed would
                # seal a mix of two seeds' samples.
                raise FrozenIndexError(
                    f"index {self.path} was extended or re-frozen behind "
                    "this handle — reopen it before extending"
                )
            for name, arr in files:
                with open(self.path / name, "r+b") as fh:
                    fh.truncate(certified[name])
                    fh.seek(certified[name])
                    fh.write(arr.tobytes())
                    fh.flush()
                    os.fsync(fh.fileno())
            _write_manifest(self.path, manifest)
        self.manifest = manifest
        self._map()

    def amend(self, **facts) -> None:
        """Atomically update algorithm facts (``eps``, ``theta``, ``lb``,
        ``k``, ``coverage_history``…) after a tighten re-derivation.
        The in-memory manifest changes only once the new one is durable."""
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
        manifest = {**self.manifest, **facts}
        with _writer_lock(self.path):
            _write_manifest(self.path, manifest)
        self.manifest = manifest

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop the memmaps (idempotent); the on-disk index survives."""
        self._rows = self._sizes = self._edges = None

    def __enter__(self) -> "FrozenRRRIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _certified_bytes(manifest: dict) -> dict[str, int]:
    """Byte size of each data file ``manifest`` certifies."""
    num = int(manifest["num_samples"])
    return {_FLAT: int(manifest["entries"]) * 4, _SIZES: num * 8, _EDGES: num * 8}


def _read_manifest(path: Path) -> dict:
    mpath = path / _MANIFEST
    try:
        return json.loads(mpath.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise FrozenIndexError(f"unreadable index manifest {mpath}: {exc}") from exc


@contextmanager
def _writer_lock(path: Path):
    """Hold an exclusive ``flock`` on the index directory.

    Every manifest write runs under it: a freeze from its first data
    rename through its manifest install, an extension from its
    stale-handle check through its appends to the new manifest, and an
    amend.  A second writer waits, then finds the manifest moved and
    refuses, instead of truncating bytes the first writer has sealed
    and mapped.  Never nest it: ``flock`` on a second descriptor blocks
    even in the process that holds the first.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def _write_manifest(path: Path, manifest: dict) -> None:
    tmp = path / (_MANIFEST + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(json.dumps(manifest, indent=2))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path / _MANIFEST)
    _fsync_dir(path)
