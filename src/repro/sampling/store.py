"""The durable RRR store: one on-disk collection, one append path, one seal.

IMM\\ :sup:`OPT` keeps each RRR set once, as a sorted vertex list.  This
module keeps that layout on disk for the checkpoint spill
(:class:`~repro.sampling.checkpoint.BlockCheckpointSink`) and the frozen
index (:class:`~repro.serving.frozen.FrozenRRRIndex`) alike:

``flat.i32.bin`` / ``sizes.i64.bin`` / ``edges.i64.bin``
    Append-only raw buffers: the concatenated sorted vertex lists, the
    per-sample list lengths and the per-sample examined-edge meters.
a JSON certificate (``cursor.json`` or ``INDEX.json``)
    How many samples (``landed`` / ``num_samples``) and flat entries are
    durable, and the seal ``stream_fold``: the plain XOR of the stream
    seeds of samples ``[0, count)`` (:func:`_fold_range`).

Only the certificate certifies bytes.  A longer data file carries the
torn tail of an append that never committed, and readers use only the
certified prefix; a shorter one lost sealed bytes and refuses to open.

**One append path** (:meth:`RRRStore._commit`).  Under an exclusive
``flock`` on the directory: check that the on-disk certificate still
seals what the handle's does, truncate each data file to its certified
size, append the arrays straight from their buffers, fsync, then rename
the new certificate in.  That rename is the only commit point, and the
handle adopts the new certificate only once it is installed.

**Generations.**  A collection written over an existing index (a
re-freeze) goes to new data files, ``flat.<g>.i32.bin`` and so on,
which the new certificate names under ``"files"``; a certificate that
names no files reads today's names.  After the commit, under the lock,
every other generation's files are unlinked.  A reader that loses a race
to that unlink re-reads the certificate and retries, so it never maps
the files of two generations.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..rng.streams import stream_seeds_array

__all__ = ["RRRStore", "FILES"]

#: Generation-0 data file names, in (flat, sizes, edges) order.
FILES = ("flat.i32.bin", "sizes.i64.bin", "edges.i64.bin")
_DTYPES = (np.int32, np.int64, np.int64)
#: A data file of any generation: ``<stem>[.<g>].<ext>.bin``.
_DATA_FILE = re.compile(r"^(flat|sizes|edges)(?:\.(\d+))?\.i(32|64)\.bin$")


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fold_range(seed: int, start: int, stop: int) -> int:
    """The seal of samples ``[start, stop)``: an XOR of their stream
    seeds, so an append folds only its own block into the seal."""
    seeds = stream_seeds_array(seed, np.arange(start, stop, dtype=np.int64))
    return int(np.bitwise_xor.reduce(seeds)) if stop > start else 0


def _read_manifest(file: Path, error: type[Exception]) -> dict:
    """A JSON certificate or manifest; ``error`` if missing or unreadable."""
    try:
        doc = json.loads(file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise error(f"unreadable {file.name} under {file.parent}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{file} holds no JSON object")
    return doc


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _write_manifest(path: Path, name: str, doc: dict) -> None:
    """Install ``doc`` as ``path/name`` atomically: write a temporary,
    fsync it, rename it over the old file, fsync the directory."""
    tmp = path / (name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        _write_all(fd, json.dumps(doc, indent=2).encode())
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path / name)
    _fsync_dir(path)


@contextmanager
def _writer_lock(path: Path):
    """Hold an exclusive ``flock`` on the store's directory.  Never nest
    it: ``flock`` on a second descriptor blocks even in the process that
    holds the first."""
    fd = os.open(path, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the lock


def _names(gen: int) -> tuple[str, str, str]:
    return FILES if gen == 0 else tuple(f.replace(".", f".{gen}.", 1) for f in FILES)


def _generation(cert: dict, error: type[Exception]) -> int:
    """The generation of the data files ``cert`` names (0 if none)."""
    files = cert.get("files")
    if files is None:
        return 0
    match = _DATA_FILE.match(str(files[0])) if isinstance(files, list) and files else None
    gen = int(match.group(2) or 0) if match else 0
    if gen == 0 or files != list(_names(gen)):
        raise error(f"certificate names unknown data files: {files!r}")
    return gen


def _fact(key: str, cast=int):
    """A read-only property for one fact of the handle's certificate."""
    return property(lambda self: cast(self.cert[key]), doc=f"The certificate's ``{key}``.")


class RRRStore:
    """An RRR collection on disk: three data files sealed by one certificate.

    A subclass names its certificate file (``CERT``), the certificate's
    sample-count key (``COUNT``) and its error type, and provides
    ``seed``.  ``cert`` is the certificate this handle last read or
    installed; the directory's may have moved on since.
    """

    CERT = ""
    COUNT = ""
    error: type[Exception] = RuntimeError

    def __init__(self, path: str | Path, cert: dict) -> None:
        self.path = Path(path)
        self.cert = cert

    entries = _fact("entries")

    def _files(self, cert: dict) -> tuple[str, str, str]:
        return _names(_generation(cert, self.error))

    def _certified(self, cert: dict) -> tuple[int, int, int]:
        """Bytes of each data file ``cert`` certifies."""
        num = int(cert[self.COUNT])
        return int(cert["entries"]) * 4, num * 8, num * 8

    def _verify(self) -> None:
        """Refuse a store torn below its certificate (a longer file is a
        torn tail past the seal) or sealed for another seed or count."""
        for name, want in zip(self._files(self.cert), self._certified(self.cert)):
            have = (self.path / name).stat().st_size if (self.path / name).exists() else -1
            if have < want:
                raise self.error(
                    f"{name} holds {have} bytes, {self.CERT} certifies {want} — "
                    "the store is torn or was edited behind its certificate"
                )
        if int(self.cert["stream_fold"]) != _fold_range(self.seed, 0, int(self.cert[self.COUNT])):
            raise self.error(
                f"{self.CERT} stream fingerprint disagrees with its sample range — "
                "the store was written with a different seed or count"
            )

    def _mapped(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only maps of the certified ``(flat, sizes, edges)``, in
        that order."""
        num = int(self.cert[self.COUNT])
        return tuple(
            np.memmap(self.path / name, dtype=dtype, mode="r", shape=(length,))
            if length else np.empty(0, dtype=dtype)
            for name, dtype, length in zip(self._files(self.cert), _DTYPES, (self.entries, num, num))
        )

    def _map(self) -> None:
        """Re-derive the handle's view of its data after a commit that
        wrote some, under the writer lock (a mapped store overrides it)."""

    def _commit(self, arrays=None, facts: dict | None = None, *, fresh: bool = False) -> None:
        """The one write path: append ``arrays`` (``(flat, sizes,
        edges)``) and/or update ``facts``, committed by one certificate
        rename.

        The on-disk certificate must seal what ``self.cert`` does, or
        another writer moved it and this handle refuses.  ``fresh``
        writes ``arrays`` as a whole new collection instead: generation 0
        without a certificate on disk, else the generation after the
        on-disk one, whose predecessors are unlinked after the commit.
        """
        if arrays is not None:
            flat, sizes, edges = arrays
            if int(sizes.sum()) != len(flat) or len(edges) != len(sizes):
                raise self.error("payload is inconsistent (sizes vs flat/edges)")
        with _writer_lock(self.path):
            cert_path, replaced = self.path / self.CERT, None
            if not fresh:
                on_disk = _read_manifest(cert_path, self.error)
                if any(on_disk.get(key) != self.cert.get(key)
                       for key in (self.COUNT, "entries", "stream_fold", "files")):
                    # Truncating through a stale handle would cut samples
                    # another writer sealed (and pages its handle has
                    # mapped: reading them raises SIGBUS); appending this
                    # handle's seed to a store re-frozen under another
                    # seed would seal a mix of two seeds' samples.
                    raise self.error(
                        f"{self.path} was extended or re-frozen behind this "
                        "handle — reopen it before writing to it"
                    )
                base = self.cert
            else:
                base = {**self.cert, self.COUNT: 0, "entries": 0, "stream_fold": 0}
                base.pop("files", None)
                if cert_path.exists():
                    replaced = _read_manifest(cert_path, self.error)
                    base["files"] = list(_names(_generation(replaced, self.error) + 1))
            cert = {**base, **(facts or {})}
            if arrays is not None:
                for name, keep, arr in zip(self._files(base), self._certified(base), arrays):
                    fd = os.open(self.path / name, os.O_WRONLY | os.O_CREAT, 0o644)
                    try:
                        os.ftruncate(fd, keep)
                        os.lseek(fd, keep, os.SEEK_SET)
                        _write_all(fd, arr)
                        os.fsync(fd)
                    finally:
                        os.close(fd)
                count = int(base[self.COUNT])
                cert[self.COUNT] = count + len(sizes)
                cert["entries"] = int(base["entries"]) + len(flat)
                cert["stream_fold"] = int(base["stream_fold"]) ^ _fold_range(
                    self.seed, count, count + len(sizes)
                )
            _write_manifest(self.path, self.CERT, cert)
            self.cert = cert
            if replaced is not None:
                keep = set(self._files(cert))
                for entry in os.scandir(self.path):
                    if _DATA_FILE.match(entry.name) and entry.name not in keep:
                        os.unlink(entry.path)
            if arrays is not None:
                self._map()
