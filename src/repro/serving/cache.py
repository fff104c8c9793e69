"""LRU of open frozen indices, keyed by each index's full identity.

A serving process answers queries for many instances; each open index
costs mapped address space plus the derived per-sample ``indptr`` and
the engine's hit index (``int32`` sample ids, 4 bytes per incidence,
with per-vertex offsets).  The cache bounds that footprint: at most
``capacity`` indices stay open, evicting the least recently used (its
memmaps are closed; the on-disk index is untouched and reopens on the
next request).

Keys are the *identity* of the frozen instance — the graph fingerprint
(falling back to the resolved path for indices frozen without a graph),
the diffusion model, the sample-stream ``seed``, and the manifest ``k``,
``eps``, ``l`` and ``theta_cap``, every fact a served answer depends on —
checked against the manifest on every request, so a ``tighten`` that
amends the manifest re-keys the entry instead of leaving a stale alias,
and a republish under another seed retires the old engine (and the
greedy answers it remembers).

**The manifest's stat signature stands for its bytes.**  Every manifest
write is a new file renamed into place, so ``(st_dev, st_ino, st_size,
st_mtime_ns, st_ctime_ns)`` changes with the manifest, and a path whose
manifest still has the signature it had when it was read keeps its
resolved directory and identity key: one ``os.stat`` replaces a path
resolve, an open, a read and a JSON parse.  A rewrite onto a reused
inode within one timestamp tick could repeat a signature, so, as git
treats a racily clean index entry, a signature is remembered only once
its newer timestamp is :data:`_SETTLED_NS` old, and never when a stamp
is a whole second (see :func:`_settled`); any other manifest is read
every time.  The signature names the manifest the path reaches now, so a
re-pointed symlink is followed.  The memo assumes a local file system:
an NFS client may answer ``os.stat`` from its attribute cache for
seconds, where opening the manifest would revalidate it.

**Concurrency contract** (what the async front end leans on):

* Every structural mutation — lookup, LRU reorder, eviction, re-key —
  happens under one internal lock, so concurrent requests cannot corrupt
  the table.
* :meth:`lease` hands out *refcounted* engines: an entry pinned by a
  live lease is never closed by eviction, invalidation, or re-keying —
  its close is deferred until the last lease releases, so a query can
  never have its memmaps unmapped mid-selection.
* A ``tighten`` through the cached engine re-keys the entry **in place**
  (the open memmaps already serve the amended manifest); only a manifest
  that changed *behind* the open engine — an out-of-process republish —
  retires it and reopens from disk.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path

from .frozen import _MANIFEST, FrozenIndexError, FrozenRRRIndex
from .query import InfluenceQueryEngine

__all__ = ["IndexCache"]

#: Age (newer of mtime and ctime) from which a finely stamped manifest's
#: stat signature is trusted to name its bytes: ten ticks of a 100 Hz
#: kernel clock (Linux's coarsest), which sub-second stamps come from.
_SETTLED_NS = 100_000_000

#: Paths whose settled manifest signature each cache remembers.
_SIGNATURES = 64


def _signature(st: os.stat_result) -> tuple:
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _settled(st: os.stat_result, now_ns: int) -> bool:
    """Whether ``st``'s signature, read after ``now_ns``, may stand for
    the manifest's bytes from now on: both stamps finer than a second and
    the newer :data:`_SETTLED_NS` old.  A file system that stamps whole
    seconds (ext3, ext4 with 128-byte inodes, HFS+) or two (FAT) leaves
    a zero sub-second part, and its manifests are never trusted."""
    stamps = (st.st_mtime_ns, st.st_ctime_ns)
    return all(ns % 1_000_000_000 for ns in stamps) and (
        now_ns - max(stamps) >= _SETTLED_NS
    )


class _Entry:
    """One open engine plus the bookkeeping eviction needs."""

    __slots__ = ("engine", "path", "key", "refs", "retired")

    def __init__(self, engine: InfluenceQueryEngine, path: Path, key: tuple):
        self.engine = engine
        self.path = path
        self.key = key
        self.refs = 0
        self.retired = False


class IndexCache:
    """Bounded pool of :class:`InfluenceQueryEngine` instances."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("cache needs capacity >= 1")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._key_of_path: dict[Path, tuple] = {}
        # Entries displaced while pinned by a lease; closed on release.
        self._retired: set[_Entry] = set()
        # Path as given -> (settled manifest signature, resolved path, key).
        self._signed: dict[str, tuple[tuple, Path, tuple]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _lookup(self, path: str | Path) -> tuple[Path, tuple]:
        """(resolved path, identity key) of the index ``path`` names now:
        one ``os.stat`` while its settled manifest is unchanged, else a
        resolve and a manifest read."""
        given = os.fspath(path)
        signed = self._still_signed(given)
        if signed is not None:
            return signed[1], signed[2]
        resolved = Path(given).resolve()
        now_ns = time.time_ns()
        try:
            # Signature and bytes from one open file: a rename between a
            # stat and a read would pair one manifest's signature with
            # another's identity.
            with open(resolved / _MANIFEST, "rb") as fh:
                st = os.fstat(fh.fileno())
                manifest = json.loads(fh.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise FrozenIndexError(
                f"unreadable index manifest under {resolved}: {exc}"
            ) from exc
        key = self._manifest_key(manifest, resolved)
        if _settled(st, now_ns):
            with self._lock:
                if len(self._signed) >= _SIGNATURES:
                    self._signed.pop(next(iter(self._signed)))
                self._signed[given] = (_signature(st), resolved, key)
        return resolved, key

    def _still_signed(self, given: str) -> tuple[tuple, Path, tuple] | None:
        """The remembered entry for ``given`` if the manifest it reaches
        still carries the remembered signature."""
        signed = self._signed.get(given)
        if signed is None:
            return None
        try:
            st = os.stat(os.path.join(given, _MANIFEST))
        except OSError:
            return None
        return signed if _signature(st) == signed[0] else None

    @staticmethod
    def _manifest_key(manifest: dict, path: Path) -> tuple:
        # Every fact a served answer depends on: the seed picks the
        # sample streams, and k, eps, l and the (replay-sticky) theta_cap
        # pick the default query and its replay, so two indices that
        # differ in any of them must never alias one cache entry.
        identity = manifest.get("graph_fingerprint") or str(path)
        return (
            identity,
            manifest.get("model"),
            manifest.get("seed"),
            manifest.get("k"),
            manifest.get("eps"),
            manifest.get("l"),
            manifest.get("theta_cap"),
        )

    def engine(self, path: str | Path, *, graph=None) -> InfluenceQueryEngine:
        """Return the (cached) engine for the index at ``path``.

        ``graph`` is forwarded on open (fingerprint-verified, enables
        extension) and attached to a cached engine that was opened
        without one.  The returned engine is *not* pinned — it may be
        evicted by a later request; concurrent callers should use
        :meth:`lease` instead.
        """
        with self._lock:
            return self._get(path, graph).engine

    @contextmanager
    def lease(self, path: str | Path, *, graph=None):
        """Context-managed engine access, pinned against eviction.

        While the lease is held the entry's memmaps cannot be closed —
        eviction, :meth:`invalidate`, and republish-driven retirement all
        defer the close until the last lease releases.
        """
        with self._lock:
            entry = self._get(path, graph)
            entry.refs += 1
        try:
            yield entry.engine
        finally:
            with self._lock:
                entry.refs -= 1
                if entry.retired and entry.refs == 0:
                    entry.engine.index.close()
                    self._retired.discard(entry)

    def identity(self, path: str | Path) -> tuple:
        """The identity key the cache would use for ``path`` right now.

        Checked against the manifest on disk (one ``os.stat`` while it is
        settled and unchanged) — no entry is created or touched.  The
        front end folds this into its coalescing key so identical queries
        only share an execution when they target the same on-disk index
        identity, not merely the same path; the router picks replicas
        by it.
        """
        return self._lookup(path)[1]

    def resolve(self, path: str | Path) -> Path:
        """``path`` resolved, as ``Path.resolve`` would: one ``os.stat``
        while the settled manifest it reaches is unchanged."""
        signed = self._still_signed(os.fspath(path))
        return signed[1] if signed is not None else Path(path).resolve()

    def pin(self, engine: InfluenceQueryEngine):
        """Refcount-pin the entry owning ``engine``; returns a release
        callable (a no-op when the engine is not cached).

        Unlike :meth:`lease` this resolves by engine identity, not path,
        so it pins the exact entry even after a republish re-pointed the
        path elsewhere.  The front end uses it to keep an index mapped
        while a leaked extension thread finishes after its caller's
        lease has already been released.
        """
        with self._lock:
            for entry in (*self._entries.values(), *self._retired):
                if entry.engine is engine:
                    entry.refs += 1
                    break
            else:
                return lambda: None

        def release() -> None:
            with self._lock:
                entry.refs -= 1
                if entry.retired and entry.refs == 0:
                    entry.engine.index.close()
                    self._retired.discard(entry)

        return release

    def invalidate(self, path: str | Path) -> None:
        """Drop the entry for ``path`` (hot re-open: the next request
        reopens from disk).  Pinned entries are retired, not closed."""
        path = self.resolve(path)
        with self._lock:
            key = self._key_of_path.pop(path, None)
            if key is None:
                return
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._retire(entry)

    # -- internals (caller holds the lock) ---------------------------------

    def _get(self, path: str | Path, graph) -> _Entry:
        path, key = self._lookup(path)
        stale = self._key_of_path.get(path)
        if stale is not None and stale != key:
            # The manifest changed since this path was cached.  If it
            # changed through the cached engine (tighten amends the
            # manifest it holds), the open memmaps are current: re-key
            # atomically.  If it changed behind the engine (republish),
            # the maps are stale: retire and reopen.
            entry = self._entries.pop(stale, None)
            del self._key_of_path[path]
            if entry is not None:
                mem_key = self._manifest_key(entry.engine.index.manifest, path)
                if mem_key == key and not entry.retired:
                    entry.key = key
                    self._entries[key] = entry
                    self._key_of_path[path] = key
                else:
                    self._retire(entry)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            if graph is not None and entry.engine.graph is None:
                entry.engine.index.verify_graph(graph)
                entry.engine.graph = graph
            return entry
        self.misses += 1
        index = FrozenRRRIndex.open(path, graph=graph)
        engine = InfluenceQueryEngine(index, graph=graph, verify=False)
        entry = _Entry(engine, path, key)
        self._entries[key] = entry
        self._key_of_path[path] = key
        self._evict_over_capacity(keep=entry)
        return entry

    def _evict_over_capacity(self, keep: _Entry | None = None) -> None:
        # Evict LRU-first among unpinned entries; pinned entries and the
        # entry being handed out (``keep``) are skipped (the cache may
        # transiently exceed capacity while every entry is leased —
        # bounded by the front end's admission limit).
        while len(self._entries) > self.capacity:
            victim_key = next(
                (
                    k for k, e in self._entries.items()
                    if e.refs == 0 and e is not keep
                ),
                None,
            )
            if victim_key is None:
                break
            victim = self._entries.pop(victim_key)
            self.evictions += 1
            self._retire(victim)
            self._key_of_path = {
                p: k for p, k in self._key_of_path.items() if k in self._entries
            }

    def _retire(self, entry: _Entry) -> None:
        if entry.refs == 0:
            entry.engine.index.close()
        else:
            entry.retired = True
            self._retired.add(entry)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def close(self) -> None:
        """Close every open index (idempotent).  Force-closes pinned
        entries too — quiesce the front end before calling this."""
        with self._lock:
            for entry in self._entries.values():
                entry.engine.index.close()
            for entry in self._retired:
                entry.engine.index.close()
            self._entries.clear()
            self._retired.clear()
            self._key_of_path.clear()
            self._signed.clear()
