"""Influence queries against a frozen RRR index — no resampling.

The paper's premise is that RRR sampling dominates IMM cost; the serving
layer amortizes it.  :func:`freeze_index` runs the sampling once —
through ``imm()``'s own phase driver — and freezes the collection with
its algorithm facts; :class:`InfluenceQueryEngine` then answers ``top_k``,
``marginal_gain``, ``what_if`` and ``tighten`` queries from the mapped
bytes.

**Bit-identity by prefix replay.**  A fresh ``imm(graph, k, eps)`` is a
deterministic function of its arguments: the θ-estimation doubling
search selects over the *first* ``θ_x`` samples each round, accepts at
some coverage, and the final selection runs over ``max(θ_x_last, θ)``
samples — where sample ``j`` is itself a pure function of ``(graph,
model, seed, j)``.  The engine therefore replays that exact control flow
against *prefix views* of the frozen collection: every per-round
selection happens over the same samples the fresh run would have drawn,
so the answer is bit-identical for **any** ``(k, eps)`` — not just the
pair the index was frozen with.  When a query's ``θ_x`` or ``θ`` exceeds
the frozen sample count, the deterministic streams let the engine extend
the index tail in place (old samples stay valid; θ grows monotonically);
queries that fit inside the index touch **zero** graph edges, which the
oracle's edge-meter assertion enforces.

**One kernel, one search.**  ``top_k`` drives
:func:`~repro.imm.theta.doubling_search`, the search that ``imm()``'s
estimation and every ``imm_dist`` rank drive, with a cover step that
extends or cuts the index prefix instead of sampling.  Every
selection — replay rounds, the final pick, ``what_if`` and degraded
answers — runs :func:`~repro.imm.select.greedy_cover`, the kernel
behind ``select_seeds``, over a :class:`~repro.imm.select.FlatView`
that cuts the prefix from one cached sample-keyed hit index (``int32``
sample ids, built once per mapping; no per-entry owner array exists);
``marginal_gain`` reuses the kernel's cover step.

**Sealed prefixes answer from memory.**  A sealed prefix never changes:
extension only appends past it, ``amend`` edits facts, not samples, and
a republish retires the engine.  So each engine remembers its
unconstrained greedy answers per ``(prefix length, k)`` — the replay
rounds, the final pick and ``degraded`` — and a repeated ``top_k`` costs
the θ-search arithmetic plus one lookup per round.  ``top_k(...,
remembered=True)`` runs that search over the memo alone and gives up at
the first miss, reading no rows: the front end answers such reads on its
event loop.  ``what_if`` and ``marginal_gain`` are computed every time.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..diffusion import DiffusionModel
from ..imm.imm import _Algorithm1
from ..imm.select import CoverState, FlatView, drive, greedy_cover, vertex_index
from ..imm.theta import check_instance, doubling_search, shrink_epsilon
from ..sampling import BatchedRRRSampler, SortedRRRCollection
from .frozen import FrozenIndexError, FrozenRRRIndex

__all__ = [
    "InfluenceQueryEngine",
    "ServingResult",
    "DegradedServingResult",
    "MarginalGains",
    "freeze_index",
]

#: Greedy answers each engine keeps, least recently used out first.  An
#: entry holds ``k`` seed ids, and a ``top_k`` pair needs one per replay
#: round plus the final pick.
_MEMO_ENTRIES = 128


class _Forgotten(Exception):
    """A ``remembered=True`` read reached a selection the memo lacks."""


@dataclass
class ServingResult:
    """Answer to one serving query, with its no-resampling accounting.

    ``edges_examined`` and ``samples_added`` are both zero when the query
    was answered entirely from the frozen index — the serving layer's
    core claim, asserted by the oracle's edge meter.  ``samples_reused``
    counts how many of the samples the answer used were already frozen
    before the query ran (for a ``tighten``, all previously landed
    samples by construction).
    """

    seeds: np.ndarray
    k: int
    epsilon: float
    model: str
    theta: int
    num_samples_used: int
    coverage: float
    lb: float
    estimation_rounds: int
    coverage_history: list[tuple[int, float]] = field(default_factory=list)
    samples_added: int = 0
    samples_reused: int = 0
    edges_examined: int = 0
    seconds: float = 0.0

    @property
    def served_from_index(self) -> bool:
        return self.samples_added == 0

    @property
    def degraded(self) -> bool:
        """``True`` only on the front end's typed degraded subclass."""
        return False


@dataclass
class DegradedServingResult(ServingResult):
    """A typed, honest partial answer from the frozen prefix.

    ``theta_effective`` is the sample count actually selected over;
    ``epsilon_effective`` the guarantee that budget certifies via
    :func:`~repro.imm.theta.shrink_epsilon`; ``theta`` keeps the θ the
    query *wanted* (when known), so ``theta - theta_effective`` is the
    shortfall.
    """

    theta_effective: int = 0
    epsilon_effective: float = float("inf")
    degraded_reason: str = ""

    @property
    def degraded(self) -> bool:
        return True


@dataclass
class MarginalGains:
    """Coverage-estimated spread of a seed set plus per-vertex marginals.

    ``spread`` is the standard RRR estimator ``n · F_R(S)``; ``gains[v]``
    is the estimated spread *increase* from adding ``v`` to the set.
    """

    spread: float
    covered_samples: int
    num_samples: int
    gains: np.ndarray  # n-length float64, 0 for vertices already in the set


def freeze_index(
    graph,
    k: int,
    eps: float,
    model: DiffusionModel | str = DiffusionModel.IC,
    seed: int = 0,
    l: float = 1.0,
    *,
    theta_cap: int | None = None,
    out_dir: str | Path,
) -> tuple[FrozenRRRIndex, ServingResult]:
    """Sample once (``imm()``'s own Algorithm 1 phase driver) and freeze.

    The frozen manifest records everything the replay needs — ``(n,
    model, seed, k, eps, l, theta_cap)`` plus the derived ``(theta, lb,
    coverage_history)`` — and the per-sample examined-edge meters ride
    along so serving-time extensions account work the same way fresh
    sampling does.
    """
    t0 = time.perf_counter()
    trace: list = []
    with _Algorithm1(
        graph, model, seed, l, SortedRRRCollection(graph.n), theta_cap=theta_cap
    ) as alg:
        run = alg.solve(k, eps, trace=trace)
    collection, est, sel = alg.collection, run.est, run.sel
    per_edges = np.concatenate(
        [np.asarray(b.per_sample_edges, dtype=np.int64)
         for kind, b in trace if kind == "sample"]
        + [np.asarray(run.batch.per_sample_edges, dtype=np.int64)]
    )
    if len(per_edges) != len(collection):
        raise RuntimeError(
            f"edge-meter capture covers {len(per_edges)} samples, "
            f"collection holds {len(collection)}"
        )
    index = FrozenRRRIndex.freeze(
        collection, out_dir,
        graph=graph, model=alg.model.value, seed=seed,
        k=k, eps=eps, l=l,
        theta=est.theta, lb=est.lb, theta_cap=theta_cap,
        coverage_history=est.coverage_history,
        estimation_rounds=est.rounds,
        edges=per_edges,
    )
    res = ServingResult(
        seeds=sel.seeds,
        k=k,
        epsilon=eps,
        model=alg.model.value,
        theta=est.theta,
        num_samples_used=len(collection),
        coverage=sel.coverage_fraction(len(collection)),
        lb=est.lb,
        estimation_rounds=est.rounds,
        coverage_history=list(est.coverage_history),
        samples_added=len(collection),
        samples_reused=0,
        edges_examined=int(per_edges.sum()),
        seconds=time.perf_counter() - t0,
    )
    return index, res


def _validate_vertex_ids(ids, n: int, what: str) -> tuple[int, ...]:
    """Check query vertex ids before any coverage structure is touched.

    Without this, a float or bool id would be truncated to some vertex,
    an out-of-range id would surface as a numpy ``IndexError`` deep in
    the kernel, and a *negative* id would silently wrap around — each an
    answer about the wrong vertex, which is worse than crashing.
    """
    checked = []
    for v in ids:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} vertex {v} is not an integer id")
        if not 0 <= v < n:
            raise ValueError(
                f"{what} vertex {v} out of range for a graph with "
                f"{n} vertices (valid ids: 0..{n - 1})"
            )
        checked.append(int(v))
    return tuple(checked)


class InfluenceQueryEngine:
    """Serve influence queries from one frozen index.

    Parameters
    ----------
    index:
        An open :class:`FrozenRRRIndex`.
    graph:
        The graph the index was frozen against.  Verified against the
        frozen fingerprint (raising
        :class:`~repro.serving.frozen.StaleIndexError` on mismatch) and
        required only when a query must extend the index; pure in-index
        queries work without it.
    """

    def __init__(self, index: FrozenRRRIndex, graph=None, *, verify: bool = True) -> None:
        if graph is not None and verify:
            index.verify_graph(graph)
        self.index = index
        self.graph = graph
        self._sampler = None
        # The hit index as ONE attribute: the front end runs concurrent
        # queries against a shared engine in worker threads, and a
        # single tuple assignment is atomic where a pair of attribute
        # writes can be observed half-built.
        self._vert_cache: tuple[np.ndarray, np.ndarray] | None = None
        # (prefix length, k) -> (seeds, covered) of unconstrained greedy.
        self._memo: OrderedDict[tuple[int, int], tuple[np.ndarray, int]] = OrderedDict()
        self._memo_lock = threading.Lock()
        #: cumulative edges examined by serving-time extensions.
        self.edges_examined = 0

    # -- coverage structures ----------------------------------------------

    def _prefix(self, num_samples: int) -> FlatView:
        """Greedy view of the first ``num_samples`` samples, cut from the
        cached hit index over the whole mapped index."""
        flat, indptr = self.index.rows()
        cache = self._vert_cache
        # Rebuilt when it covers fewer entries than the mapping: a reader
        # that raced an extension may store an index of the old one.
        if cache is None or len(cache[0]) < len(flat):
            cache = self._vert_cache = vertex_index(np.asarray(flat), indptr, self.index.n)
        return FlatView(
            self.index.n, flat, indptr, num_samples=num_samples, by_vertex=cache
        )

    def _recall(self, num_samples: int, k: int) -> tuple[np.ndarray, int] | None:
        """The remembered (seeds, covered) over a sample prefix, or
        ``None``.  The prefix is clamped to the mapped rows as
        :class:`FlatView` clamps it, read without touching the rows."""
        key = (min(num_samples, self.index.mapped_samples()), k)
        with self._memo_lock:
            hit = self._memo.get(key)
            if hit is not None:
                self._memo.move_to_end(key)
        return hit

    def _select(self, num_samples: int, k: int) -> tuple[np.ndarray, int]:
        """(seeds, covered samples) of unconstrained greedy over a sample
        prefix, remembered per (clamped prefix length, k)."""
        hit = self._recall(num_samples, k)
        if hit is not None:
            return hit[0].copy(), hit[1]
        view = self._prefix(num_samples)
        seeds, state = drive(greedy_cover(view, k))
        with self._memo_lock:
            self._memo[(view.num_samples, k)] = (seeds.copy(), state.covered)
            if len(self._memo) > _MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return seeds, state.covered

    # -- sampling-on-demand ------------------------------------------------

    def _ensure_samples(self, target: int, allow_extend: bool) -> tuple[int, int]:
        """Grow the index to ``target`` samples; return (added, edges)."""
        idx = self.index
        if target <= idx.num_samples:
            return 0, 0
        if not allow_extend or self.graph is None:
            why = (
                "extension is disabled"
                if self.graph is not None
                else "no graph is attached to extend it"
            )
            exc = FrozenIndexError(
                f"query needs {target} samples but the index holds "
                f"{idx.num_samples} and {why}"
            )
            # The front end's degradation path reads these to report an
            # honest theta_effective/theta target pair.
            exc.needed = int(target)
            exc.have = int(idx.num_samples)
            raise exc
        start = idx.num_samples
        if self._sampler is None:
            self._sampler = BatchedRRRSampler(self.graph, idx.model)
        coll = SortedRRRCollection(idx.n)
        indices = np.arange(start, target, dtype=np.int64)
        per_sample = self._sampler.sample_into(coll, indices, idx.seed)
        flat, indptr = coll.flattened()
        idx.extend(
            flat, np.diff(indptr), per_sample, start=start
        )
        edges = int(per_sample.sum())
        self.edges_examined += edges
        return target - start, edges

    # -- queries -----------------------------------------------------------

    def top_k(
        self,
        k: int | None = None,
        eps: float | None = None,
        *,
        allow_extend: bool | None = None,
        remembered: bool = False,
    ) -> ServingResult | None:
        """The ``k`` best seeds, bit-identical to ``imm(graph, k, eps)``.

        Defaults to the frozen ``(k, eps)``; any other pair replays the
        estimation over index prefixes, extending the tail only when the
        new pair genuinely demands more samples (requires ``graph``).
        ``allow_extend=False`` forbids extension even with a graph
        attached — the front end uses it to keep in-prefix queries out of
        the single-writer bulkhead; an out-of-prefix query then raises
        :class:`FrozenIndexError` with ``needed``/``have`` attributes.

        ``remembered=True`` answers from the memo alone: it returns
        ``None`` at the first round or final pick the memo lacks, or
        whose θ lies past the sealed prefix, and never runs the kernel
        or builds the hit index.
        """
        t0 = time.perf_counter()
        idx = self.index
        mf = idx.manifest
        k = int(mf["k"]) if k is None else int(k)
        eps = float(mf["eps"]) if eps is None else float(eps)
        before = idx.num_samples
        if allow_extend is None:
            allow_extend = self.graph is not None
        check_instance(idx.n, k, eps)
        added = edges = 0

        def select(num_samples: int) -> tuple[np.ndarray, int]:
            nonlocal added, edges
            if remembered:
                hit = self._recall(num_samples, k) if num_samples <= before else None
                if hit is None:
                    raise _Forgotten
                return hit
            a, e = self._ensure_samples(num_samples, allow_extend)
            added += a
            edges += e
            return self._select(num_samples, k)

        try:
            theta, lb, history = drive(
                doubling_search(idx.n, k, eps, float(mf["l"]), theta_cap=mf.get("theta_cap")),
                lambda theta_x: select(theta_x)[1] / max(theta_x, 1),
            )
            # imm() tops the collection up to θ; its final selection sees
            # every sample the estimation rounds drew, θ or more.
            num_used = max(history[-1][0], theta)
            seeds, covered = select(num_used)
        except _Forgotten:
            return None
        if remembered:
            seeds = seeds.copy()
        return ServingResult(
            seeds=seeds,
            k=k,
            epsilon=eps,
            model=idx.model,
            theta=theta,
            num_samples_used=num_used,
            coverage=covered / max(num_used, 1),
            lb=lb,
            estimation_rounds=len(history),
            coverage_history=history,
            samples_added=added,
            samples_reused=min(before, num_used),
            edges_examined=edges,
            seconds=time.perf_counter() - t0,
        )

    def tighten(self, eps: float, k: int | None = None) -> ServingResult:
        """Re-derive at a tighter ``eps``, extending the index in place.

        All previously landed samples are reused verbatim — the
        deterministic per-sample streams mean the tail the tighter θ
        demands is appended after the sealed prefix, never resampled.
        The manifest is amended to the new facts, so subsequent default
        queries serve the tightened guarantee.
        """
        res = self.top_k(k=k, eps=eps)
        self.index.amend(
            k=res.k,
            eps=res.epsilon,
            theta=res.theta,
            lb=res.lb,
            coverage_history=res.coverage_history,
            estimation_rounds=res.estimation_rounds,
        )
        return res

    def what_if(
        self,
        k: int | None = None,
        *,
        forced: tuple[int, ...] = (),
        excluded: tuple[int, ...] = (),
    ) -> ServingResult:
        """Constrained selection over the frozen samples.

        ``forced`` vertices are seated first; ``excluded`` vertices are
        never picked (a repeated id counts once).  Serves from the index
        as-is (no resampling, no approximation-guarantee claim — this is
        the scenario-exploration query).
        """
        t0 = time.perf_counter()
        mf = self.index.manifest
        n = self.index.n
        k = int(mf["k"]) if k is None else int(k)
        # The samples the view holds: a racing extension commits its
        # count before the remap lands (see marginal_gain).
        view = self._prefix(self.index.num_samples)
        m = view.num_samples
        seeds, state = drive(greedy_cover(
            view, k,
            forced=_validate_vertex_ids(forced, n, "forced"),
            excluded=_validate_vertex_ids(excluded, n, "excluded"),
        ))
        return ServingResult(
            seeds=seeds,
            k=k,
            epsilon=float(mf["eps"]),
            model=self.index.model,
            theta=int(mf["theta"]),
            num_samples_used=m,
            coverage=state.covered / max(m, 1),
            lb=float(mf["lb"]) if mf.get("lb") is not None else 1.0,
            estimation_rounds=int(mf.get("estimation_rounds") or 0),
            coverage_history=[],
            samples_added=0,
            samples_reused=m,
            edges_examined=0,
            seconds=time.perf_counter() - t0,
        )

    def marginal_gain(
        self, seed_set, candidates: np.ndarray | None = None
    ) -> MarginalGains:
        """Spread estimate of ``seed_set`` and marginal gains on top of it.

        Pure index read: covers the seed set's samples, then counts every
        vertex's membership among the still-alive samples.  ``gains[v]``
        is the estimated spread increase of adding ``v``; vertices in
        ``seed_set`` report 0.  ``candidates`` restricts the returned
        array to those vertices (same order) without changing values.
        """
        idx = self.index
        n = idx.n
        seed_set = _validate_vertex_ids(seed_set, n, "seed")
        if candidates is not None:
            candidates = np.asarray(
                _validate_vertex_ids(candidates, n, "candidate"), dtype=np.int64
            )
        # Snapshot the prefix: the front end runs pure reads concurrently
        # with a single extension writer, so the mapped arrays may already
        # cover samples past the sealed count — the view cuts every read
        # to the first ``num_samples``.
        view = self._prefix(idx.num_samples)
        m = view.num_samples
        state = CoverState(view)
        for v in seed_set:
            state.cover(v)
        covered = state.covered
        alive = np.flatnonzero(state.alive)
        counts = view.tally(alive) if len(alive) else np.zeros(n, dtype=np.int64)
        scale = n / m if m else 0.0
        gains = counts.astype(np.float64) * scale
        gains[list(seed_set)] = 0.0
        if candidates is not None:
            gains = gains[candidates]
        return MarginalGains(
            spread=covered * scale,
            covered_samples=covered,
            num_samples=m,
            gains=gains,
        )

    def degraded(
        self,
        k: int | None,
        eps: float | None,
        reason: str,
        needed: int | None = None,
    ) -> DegradedServingResult:
        """Answer a selection from the frozen prefix as it stands, typed
        degraded with honest accounting.

        ``theta_effective`` is the sealed sample count and
        ``epsilon_effective`` what it certifies
        (:func:`~repro.imm.theta.shrink_epsilon`); ``theta`` is the
        ``needed`` sample count when the caller knows it.
        """
        t0 = time.perf_counter()
        idx = self.index
        mf = idx.manifest
        k = int(mf["k"]) if k is None else int(k)
        eps = float(mf["eps"]) if eps is None else float(eps)
        m = idx.num_samples
        lb = float(mf["lb"]) if mf.get("lb") is not None else 1.0
        seeds, covered = self._select(m, k)
        return DegradedServingResult(
            seeds=seeds,
            k=k,
            epsilon=eps,
            model=idx.model,
            theta=int(needed) if needed else m,
            num_samples_used=m,
            coverage=covered / max(m, 1),
            lb=lb,
            estimation_rounds=0,
            coverage_history=[],
            samples_added=0,
            samples_reused=m,
            edges_examined=0,
            seconds=time.perf_counter() - t0,
            theta_effective=m,
            epsilon_effective=shrink_epsilon(idx.n, k, float(mf["l"]), m, lb),
            degraded_reason=reason,
        )
