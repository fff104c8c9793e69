"""Crash-point sweep: every durable write of the RRR store, interrupted.

The store (:mod:`repro.sampling.store`) promises that a certificate
rename is its only commit point.  This sweep makes the ``i``-th
``os.write``, ``os.ftruncate``, ``os.fsync`` or ``os.replace`` of the
store raise, for every ``i`` an operation reaches: checkpoint init and
``append_block``; ``freeze`` into an empty directory and over an index
(a re-freeze under the next seed); ``extend``; ``amend``.  After each:

* **durability.reopen** — a reopen holds the old or the new sealed
  state byte for byte; an index's ``top_k`` there equals a fresh
  ``imm()``, and a checkpoint resumes to the whole reference collection.
* **durability.live-handle** — a handle opened before the operation
  holds the old state (the writer's own: the new one once it completed),
  or raises the store's typed error.

Raised exceptions only: a killed process, which runs no ``finally``, is
modeled only by the torn tails other checks write.
"""

from __future__ import annotations

import functools
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from ..imm import imm
from ..sampling import BatchedRRRSampler, BlockCheckpointSink, SortedRRRCollection, store
from ..serving import FrozenIndexError, FrozenRRRIndex, InfluenceQueryEngine, freeze_index
from .report import ValidationReport

__all__ = ["check_crash_points"]

_FACTS = ("k", "eps", "l", "theta", "lb", "theta_cap", "coverage_history", "estimation_rounds")


class _FailingOS:
    """``os`` as the store sees it, its ``fail_at``-th durable call raising."""

    def __init__(self, fail_at: int) -> None:
        self.fail_at, self.calls = fail_at, 0

    def __getattr__(self, name: str):
        real = getattr(os, name)
        if name not in ("write", "ftruncate", "fsync", "replace"):
            return real

        def call(*args):
            self.calls += 1
            if self.calls == self.fail_at:
                raise OSError(f"injected failure of os.{name} (durable call {self.calls})")
            return real(*args)

        return call


def _sweep(setup, op):
    """Yield ``(label, error, state)`` per run of ``op(state := setup())``
    with its ``i``-th durable store call raising, for ``i`` = 1, 2, …
    until a run completes."""
    i = 1
    while True:
        state, failing = setup(), _FailingOS(i)
        store.os = failing
        try:
            op(state)
            error = None
        except Exception as exc:  # the injected failure, or what it caused
            error = exc
        finally:
            store.os = os
        done = failing.calls < i
        yield ("done" if done else f"fail@{i}"), error, state
        if done:
            return
        i += 1


def _arrays(index) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    flat, indptr = index.rows()
    return np.array(flat), np.diff(indptr), np.array(index.per_sample_edges())


def _same(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))


def check_crash_points(graph, model: str, cfg, subject: str) -> ValidationReport:
    """Sweep every durable write of the checkpoint and the index on one
    graph × model (``cfg``'s ``k``, ``eps``, ``seed``, ``theta_cap``)."""
    rep = ValidationReport()
    k, eps, seed, cap = cfg.k, cfg.eps, cfg.seed, cfg.theta_cap

    @functools.cache
    def fresh(s: int, e: float):
        return imm(graph, k, e, model, seed=s, layout="sorted", theta_cap=cap)

    with tempfile.TemporaryDirectory(prefix="repro-oracle-crash-") as td:
        td, work = Path(td), Path(td) / "work"
        # The sealed states, (seed, num_samples, eps) -> (flat, sizes,
        # edges): both seeds' indices as imm() left them, seed's grown by
        # a 20-sample tail, and seed's amended to a looser eps.
        sources, states = {}, {}
        for s in (seed, seed + 1):
            sources[s], _ = freeze_index(graph, k, eps, model, s, theta_cap=cap, out_dir=td / f"s{s}")
            states[s, sources[s].num_samples, eps] = _arrays(sources[s])
        theta0 = sources[seed].num_samples
        old, grown, amended = (seed, theta0, eps), (seed, theta0 + 20, eps), (seed, theta0, eps * 1.25)
        refrozen = (seed + 1, sources[seed + 1].num_samples, eps)
        coll = SortedRRRCollection(graph.n)
        tail_edges = BatchedRRRSampler(graph, model).sample_into(
            coll, np.arange(theta0, theta0 + 20, dtype=np.int64), seed
        )
        tail_flat, tail_indptr = coll.flattened()
        tail = (tail_flat, np.diff(tail_indptr), tail_edges)
        states[grown] = tuple(np.concatenate(pair) for pair in zip(states[old], tail))
        states[amended] = states[old]
        flat0, sizes0, edges0 = states[old]
        offsets0 = np.concatenate([[0], np.cumsum(sizes0)])
        ident = dict(n=graph.n, model=model, seed=seed)

        def freeze(s: int):
            index = sources[s]
            FrozenRRRIndex.freeze(
                index.collection_view(), work, graph=graph, model=model, seed=s,
                edges=index.per_sample_edges(), **{f: index.manifest[f] for f in _FACTS},
            ).close()

        def spill(sink, lo: int, hi: int):
            sink.append_block(
                np.arange(lo, hi, dtype=np.int64),
                flat0[offsets0[lo]:offsets0[hi]], sizes0[lo:hi], edges0[lo:hi],
            )

        def spilled(sink, hi: int) -> bool:
            return _same(sink.load_range(0, hi), (flat0[: offsets0[hi]], sizes0[:hi], edges0[:hi]))

        def blank():
            shutil.rmtree(work, ignore_errors=True)

        def copy_of_old():
            blank()
            shutil.copytree(td / f"s{seed}", work)
            return FrozenRRRIndex.open(work)

        def first_block():
            blank()
            sink = BlockCheckpointSink(work, **ident)
            spill(sink, 0, theta0 // 2)
            return sink

        def state(index):
            """The sealed state an index handle holds, or what instead."""
            key = (index.seed, index.num_samples, index.manifest["eps"])
            return key if key in states and _same(_arrays(index), states[key]) else f"{key}, torn"

        def reopen_index():
            try:
                back = FrozenRRRIndex.open(work)
            except FrozenIndexError:
                return None  # no sealed index is there
            with back:
                key, res = state(back), InfluenceQueryEngine(back).top_k()
                if key in states:
                    ref = fresh(key[0], key[2])
                    if not _same((res.seeds, res.theta), (ref.seeds, ref.theta)):
                        return f"{key}, answering otherwise than a fresh imm()"
                return key

        def restart_sink():
            # A restart continues the directory: it must hold a sealed
            # prefix and resume from it to the whole reference.
            try:
                with BlockCheckpointSink(work, **ident) as back:
                    landed, ok = back.landed, spilled(back, back.landed)
                    spill(back, landed, theta0)
                    return landed if ok and spilled(back, theta0) else f"{landed}, torn"
            except Exception as exc:
                return exc

        def held(handle):
            if isinstance(handle, BlockCheckpointSink):
                return handle.landed
            try:
                return state(handle)
            except FrozenIndexError:  # a typed refusal is an honest answer
                return "raised"

        half = theta0 // 2
        scenarios = (  # name, setup, op, reopen, its sealed states, the handle's
            ("freeze", blank, lambda _: freeze(seed), reopen_index, {None, old}, None),
            ("refreeze", copy_of_old, lambda _: freeze(seed + 1), reopen_index,
             {old, refrozen}, (old, old)),
            ("extend", copy_of_old, lambda h: h.extend(*tail, start=theta0), reopen_index,
             {old, grown}, (old, grown)),
            ("amend", copy_of_old, lambda h: h.amend(eps=amended[2]), reopen_index,
             {old, amended}, (old, amended)),
            ("sink-init", blank, lambda _: BlockCheckpointSink(work, **ident).close(),
             restart_sink, {0}, None),
            ("sink-append", first_block, lambda sink: spill(sink, half, theta0), restart_sink,
             {half, theta0}, (half, theta0)),
        )
        for name, setup, op, reopen, sealed, live in scenarios:
            for label, error, handle in _sweep(setup, op):
                where, why = f"{subject} {name}[{label}]", f" after {error!r}" if error else ""
                found = reopen()
                rep.check(
                    found in sealed, "durability.reopen", where,
                    f"reopen{why} found {found!r}, not a sealed state of "
                    f"{sorted(map(str, sealed))} serving as a fresh run",
                )
                if live is not None:
                    got, want = held(handle), live[error is None]
                    handle.close()
                    rep.check(
                        got in (want, "raised"), "durability.live-handle", where,
                        f"a handle open through it{why} holds {got!r}, expected {want!r}",
                    )
        for index in sources.values():
            index.close()
    return rep
