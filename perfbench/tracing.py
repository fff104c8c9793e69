"""Spans recorded from outside the program: wrappers around public entry points.

A :class:`Tracer` patches each entry point at the name its callers look it
up by, records one span per call and restores every patch on
:meth:`Tracer.uninstall`.  A span is ``(id, parent, op, name, start_ns,
end_ns)``: the parent comes from a :mod:`contextvars` stack, so it follows
``await`` chains, tasks created inside an op and ``asyncio.to_thread``
(which copies the caller's context); ``op`` is the id of the benchmark
operation the span belongs to.  Spans stay in memory until
:meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from pathlib import Path

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
OP: contextvars.ContextVar = contextvars.ContextVar("perfbench_op", default=None)

#: span name -> layer, for the self-time table.
LAYER_OF = {
    "datasets.load": "datasets",
    "imm": "imm",
    "estimate_theta": "imm.theta",
    "sample_batch": "sampling",
    "BatchedRRRSampler.sample_into": "sampling",
    "select_seeds": "imm.select",
    "ParallelSamplingEngine.spawn_pool": "sampling.parallel_engine",
    "ParallelSamplingEngine.sample_into": "sampling.parallel_engine",
    "ParallelSamplingEngine.close": "sampling.parallel_engine",
    "freeze_index": "serving.query",
    "FrozenRRRIndex.open": "serving.frozen",
    "FrozenRRRIndex.extend": "serving.frozen",
    "FrozenRRRIndex.amend": "serving.frozen",
    "IndexCache.lease": "serving.cache",
    "IndexCache.identity": "serving.cache",
}
for _op in ("top_k", "what_if", "marginal_gain", "tighten"):
    LAYER_OF[f"ClusterRouter.{_op}"] = "serving.cluster"
    LAYER_OF[f"ServingFrontend.{_op}"] = "serving.frontend"
    LAYER_OF[f"InfluenceQueryEngine.{_op}"] = "serving.query"


class _TimedEnter:
    """Context manager proxy whose span covers ``__enter__`` only."""

    def __init__(self, tracer: "Tracer", name: str, cm) -> None:
        self._tracer, self._name, self._cm = tracer, name, cm

    def __enter__(self):
        t0 = time.perf_counter_ns()
        try:
            return self._cm.__enter__()
        finally:
            self._tracer.record(self._name, _PARENT.get(), t0, time.perf_counter_ns())

    def __exit__(self, *exc):
        return self._cm.__exit__(*exc)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def record(self, name: str, parent, t0: int, t1: int, sid: int | None = None) -> None:
        sid = next(self._ids) if sid is None else sid
        self.spans.append((sid, parent, OP.get(), name, t0, t1))

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records a span named ``name``."""
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                sid = next(tracer._ids)
                parent = _PARENT.get()
                token = _PARENT.set(sid)
                t0 = time.perf_counter_ns()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter_ns()
                    _PARENT.reset(token)
                    tracer.record(name, parent, t0, t1, sid)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = _PARENT.get()
            token = _PARENT.set(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                _PARENT.reset(token)
                tracer.record(name, parent, t0, t1, sid)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper (class or module)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        else:
            new = self.wrap(raw, name)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def patch_enter(self, owner, attr: str, name: str) -> None:
        """Trace only the acquisition of a context-manager-returning method."""
        raw = owner.__dict__[attr]
        tracer = self

        @functools.wraps(raw)
        def traced(*args, **kwargs):
            return _TimedEnter(tracer, name, raw(*args, **kwargs))

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)

    def install_program_wrappers(self) -> None:
        """Wrap the public entry points of every layer the benchmark reports."""
        import importlib

        imm_mod = importlib.import_module("repro.imm.imm")
        theta_mod = importlib.import_module("repro.imm.theta")
        from repro.sampling import BatchedRRRSampler, ParallelSamplingEngine
        from repro.serving import (
            ClusterRouter,
            FrozenRRRIndex,
            IndexCache,
            InfluenceQueryEngine,
            ServingFrontend,
        )

        self.patch(imm_mod, "estimate_theta", "estimate_theta")
        for mod in (imm_mod, theta_mod):
            self.patch(mod, "sample_batch", "sample_batch")
            self.patch(mod, "select_seeds", "select_seeds")
        self.patch(BatchedRRRSampler, "sample_into", "BatchedRRRSampler.sample_into")
        for attr in ("spawn_pool", "sample_into", "close"):
            self.patch(ParallelSamplingEngine, attr, f"ParallelSamplingEngine.{attr}")
        for attr in ("open", "extend", "amend"):
            self.patch(FrozenRRRIndex, attr, f"FrozenRRRIndex.{attr}")
        self.patch_enter(IndexCache, "lease", "IndexCache.lease")
        self.patch(IndexCache, "identity", "IndexCache.identity")
        for cls in (InfluenceQueryEngine, ServingFrontend, ClusterRouter):
            for op in ("top_k", "what_if", "marginal_gain", "tighten"):
                self.patch(cls, op, f"{cls.__name__}.{op}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _op, _name, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _op, _name, t0, t1 in spans:
        covered = 0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (t1 - t0) - covered
    return out


def per_span_cost_s(calls: int = 20000) -> float:
    """Seconds a traced call adds over an untraced one, measured here."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "calibrate")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - t0 - bare) / calls)
    return max(best, 0.0)
