"""Disk-backed block checkpointing for the supervised sampling engine.

Sample ``j`` is a pure function of ``(graph, model, seed, j)``, but
re-deriving a million landed samples after a process kill still costs
the full sampling time.  This sink spills the landed prefix itself, so
a restarted run reloads bytes instead of re-traversing the graph.  It
is the durable RRR store (:mod:`repro.sampling.store`) with the
landed-block cursor, ``cursor.json``, as its certificate, plus a
``MANIFEST.json`` holding the format version and the run identity
``(n, model, seed)``: a checkpoint is only valid against the job that
wrote it.  The manifest is installed last when a run directory is
initialized, so a directory without one holds no checkpoint and
initializes afresh.  Every block goes through the store's one append
path, which is what makes ``resume_from=`` safe: the reloaded prefix is
exactly the samples the cursor certifies, bit-identical to what a
fault-free run would have produced for the same indices.
"""

from __future__ import annotations

import time
from contextlib import suppress
from pathlib import Path

import numpy as np

from .store import FILES, RRRStore, _fact, _fsync_dir, _read_manifest, _write_manifest

__all__ = ["BlockCheckpointSink", "CheckpointError", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MANIFEST = "MANIFEST.json"
_FLAT, _SIZES, _EDGES = FILES


class CheckpointError(RuntimeError):
    """A checkpoint directory is unreadable, torn beyond repair, or
    belongs to a different job."""


def _run_identity(run_dir: Path) -> dict:
    """The checkpoint manifest under ``run_dir``; :class:`CheckpointError`
    if it is missing, unreadable or not a checkpoint this code reads."""
    manifest = _read_manifest(run_dir / _MANIFEST, CheckpointError)
    if manifest.get("format") != "repro-block-checkpoint":
        raise CheckpointError(f"{run_dir / _MANIFEST} is not a block checkpoint")
    if manifest.get("version") != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{manifest.get('version')} != "
            f"supported v{FORMAT_VERSION}"
        )
    return manifest


class BlockCheckpointSink(RRRStore):
    """Append-only spill of landed sample blocks under one run directory.

    Opening a directory that already holds a valid manifest *continues*
    it (the resume path); an empty or missing directory is initialized
    fresh.  The identity triple ``(n, model, seed)`` must match on
    continuation — everything the spilled bytes mean depends on it.
    """

    CERT = "cursor.json"
    COUNT = "landed"
    error = CheckpointError

    def __init__(
        self,
        run_dir: str | Path,
        *,
        n: int,
        model: str,
        seed: int,
        readonly: bool = False,
    ) -> None:
        super().__init__(run_dir, {"landed": 0, "entries": 0, "stream_fold": 0})
        self.n, self.model, self.seed = int(n), str(model), int(seed)
        self.readonly, self._closed = readonly, False
        #: wall seconds spent inside durable writes (fsync included).
        self.write_seconds = 0.0
        self.bytes_written = 0

        if (self.path / _MANIFEST).exists():
            manifest = _run_identity(self.path)
            job = {"n": self.n, "model": self.model, "seed": self.seed}
            mismatched = {k: (manifest.get(k), v) for k, v in job.items() if manifest.get(k) != v}
            if mismatched:
                detail = ", ".join(
                    f"{k}: checkpoint={a!r} vs job={b!r}" for k, (a, b) in sorted(mismatched.items())
                )
                raise CheckpointError(f"checkpoint belongs to a different job ({detail})")
            self.cert = _read_manifest(self.path / self.CERT, CheckpointError)
            self._verify()
        elif readonly:
            raise CheckpointError(f"no checkpoint manifest under {self.path}")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
            # A cursor without a manifest is an init that never committed.
            (self.path / self.CERT).unlink(missing_ok=True)
            empty = (np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0, np.int64))
            self._commit(empty, fresh=True)
            _write_manifest(self.path, _MANIFEST, {
                "format": "repro-block-checkpoint", "version": FORMAT_VERSION,
                "n": self.n, "model": self.model, "seed": self.seed,
                "created_unix": time.time(),
            })

    landed = _fact("landed")

    # -- durable writes ----------------------------------------------------

    def append_block(
        self,
        indices: np.ndarray,
        flat: np.ndarray,
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """Durably spill one landed block and advance the cursor.

        ``indices`` are the global sample indices the block covers; they
        must extend the landed prefix contiguously (the supervisor lands
        blocks in index order, so this is the natural call pattern).
        """
        if self.readonly or self._closed:
            raise CheckpointError("sink is closed or read-only")
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return
        start = self.landed
        if int(indices[0]) != start or int(indices[-1]) != start + len(indices) - 1:
            raise CheckpointError(
                f"non-contiguous spill: block covers [{int(indices[0])}, "
                f"{int(indices[-1])}], cursor is at {start}"
            )
        t0 = time.perf_counter()
        arrays = (
            np.ascontiguousarray(flat, dtype=np.int32),
            np.ascontiguousarray(sizes, dtype=np.int64),
            np.ascontiguousarray(edges, dtype=np.int64),
        )
        self._commit(arrays)
        self.bytes_written += sum(arr.nbytes for arr in arrays)
        self.write_seconds += time.perf_counter() - t0

    # -- resume reads ------------------------------------------------------

    def load_range(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reload the spilled samples with global indices ``[lo, hi)``.

        Returns ``(flat, sizes, edges)`` exactly as the workers produced
        them; ``hi`` must not exceed the certified cursor.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.landed:
            raise CheckpointError(
                f"requested [{lo}, {hi}) outside the certified prefix "
                f"[0, {self.landed})"
            )
        sizes = self._read(_SIZES, np.int64, 0, self.landed)
        offsets = np.zeros(self.landed + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        flat = self._read(_FLAT, np.int32, int(offsets[lo]), int(offsets[hi] - offsets[lo]))
        return flat, sizes[lo:hi].copy(), self._read(_EDGES, np.int64, lo, hi - lo)

    def _read(self, name: str, dtype, start: int, count: int) -> np.ndarray:
        """Items ``[start, start + count)`` of a data file.  A bare
        ``fh.read(n)`` may legally return fewer than ``n`` bytes, and
        ``np.frombuffer`` would then hand back a truncated array that
        corrupts the resumed prefix; ``np.fromfile`` with ``count=`` plus
        an explicit length check turns that into a hard error."""
        with open(self.path / name, "rb") as fh:
            fh.seek(start * np.dtype(dtype).itemsize)
            out = np.fromfile(fh, dtype=dtype, count=count)
        if len(out) != count:
            raise CheckpointError(
                f"{name} short read: got {len(out)} of {count} items from item "
                f"{start} — the spill is torn below its own cursor"
            )
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Refuse further appends (idempotent).  Every append is durable
        when it returns; the run directory survives as the resume
        vehicle, less the temporaries a killed install left."""
        if self._closed:
            return
        self._closed = True
        stale = [p for p in (self.path / f"{n}.tmp" for n in (_MANIFEST, self.CERT)) if p.exists()]
        for tmp in stale:
            tmp.unlink()
        if stale:
            # The unlink is a directory mutation: without a directory
            # fsync a crash right after close() can resurrect the .tmp.
            with suppress(OSError):  # best-effort teardown
                _fsync_dir(self.path)

    def __enter__(self) -> "BlockCheckpointSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
