"""Batched cohort RRR sampling: many reverse traversals fused into one.

The serial :class:`~repro.sampling.rrr.RRRSampler` pays full NumPy
dispatch overhead per BFS level of *one* sample, on frontiers that are
often 1–10 vertices — the interpreter, not the hardware, sets the pace.
This module generates a whole **cohort** of ``B`` RRR sets
simultaneously:

* **IC** — a multi-source level-synchronous reverse BFS over
  ``(sample, vertex)`` pair arrays.  All samples of the cohort advance
  one level per iteration, so every NumPy kernel operates on the union
  of all frontiers and per-level overhead is amortized across the
  cohort (the gIM-style fused-traversal idea, here on a NumPy
  substrate).
* **LT** — all ``B`` reverse random walks step in lockstep, with the
  per-vertex pick done by a vectorized first-above-threshold search
  over precomputed local cumulative weights.

Determinism contract
--------------------
The RRR set with global index ``j`` is a pure function of
``(graph, model, seed, j, edge_flip)`` — independent of cohort size,
cohort composition, and traversal interleaving — and **bit-identical**
to what the serial sampler produces for the same sample:

* ``edge_flip="hash"`` (IC only): coins come from
  :func:`~repro.sampling.rrr.hash_edge_flips`, keyed on
  ``(sample key, edge slot)``; they are order-free by construction.
* ``edge_flip="stream"`` (the default): the serial sampler draws sample
  ``j``'s coins *sequentially* from ``sample_stream(seed, j)``.  Because
  SplitMix64 is counter-based, output ``c`` of that stream is the pure
  function ``mix64(seed_j + c·γ)`` — so the cohort sampler reproduces
  the serial consumption by *bookkeeping* instead of iteration: it
  tracks each sample's stream counter and computes every coin at its
  exact serial position.  The only requirement is reproducing the
  serial coin **order**, which is fixed by two invariants the fused
  traversal maintains: each sample's frontier is sorted by vertex id at
  every level (the serial ``np.unique``), and a frontier vertex's
  in-edges are examined in CSR slot order.
* **LT**: each step consumes one variate from the sample's stream; the
  batched walker computes it at the same counter position.  Both
  samplers pick the live edge against the *same* precomputed per-vertex
  cumulative weights (:func:`~repro.sampling.rrr.in_edge_cumweights`,
  bit-equal to the per-visit ``np.cumsum`` it replaces), so the float
  comparisons agree exactly.

Work metering is preserved: the fused traversal still attributes every
examined in-edge to its owning sample (``per-sample edge counts``), so
the parallel cost models see the identical work distribution the serial
loop reported.

Visited tracking uses one flat epoch-stamped array over ``(sample,
vertex)`` keys (``key = sample·n + vertex``), allocated once per
sampler and reused across cohorts — the same O(traversal) scratch
discipline as the serial sampler, extended to the cohort dimension.
"""

from __future__ import annotations

import numpy as np

from ..diffusion import DiffusionModel
from ..graph import CSRGraph
from ..rng.splitmix import mix64_array
from ..rng.streams import stream_seeds_array
from .collection import RRRCollection
from .rrr import in_edge_cumweights

__all__ = ["BatchedRRRSampler", "stream_seeds", "stream_coins"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_INV_2_53 = 1.0 / float(1 << 53)
_M64 = (1 << 64) - 1

#: Soft cap on visited-scratch entries (``cohort × n``).  The default
#: cohort size keeps the int32 epoch array around 2 MiB: the visited
#: probes are random accesses into it, and cohort sweeps across the
#: dataset registry put the throughput knee right where the scratch
#: falls out of L2-sized cache (larger cohorts amortize dispatch a bit
#: more but lose more to mark-probe misses and bigger key sorts).
_SCRATCH_ENTRY_BUDGET = 1 << 19


def _mix64_into(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`~repro.rng.splitmix.mix64_array` computed in place.

    ``z`` is overwritten with its mix, ``tmp`` is same-shaped scratch;
    no temporaries are allocated — the allocation-free variant the IC
    hot loop uses on edge-sized buffers.
    """
    np.right_shift(z, np.uint64(30), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(0xBF58476D1CE4E5B9), out=z)
    np.right_shift(z, np.uint64(27), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    np.multiply(z, np.uint64(0x94D049BB133111EB), out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def _key_dtype(B: int, n: int) -> type:
    """Dtype for ``(sample, vertex)`` keys: ``sample·n + vertex < B·n``.

    The key arrays carry the cohort's sort, dedup and visited-probe
    traffic, so packing them into int32 whenever ``B·n`` fits (always,
    at the default cohort size) roughly halves that bandwidth.
    """
    return np.int32 if B * max(n, 1) <= np.iinfo(np.int32).max else np.int64


def stream_seeds(seed: int, sample_indices: np.ndarray) -> np.ndarray:
    """Vectorized ``sample_stream(seed, j).seed`` for an index array.

    Alias of :func:`repro.rng.streams.stream_seeds_array`, kept here for
    the cohort kernel's callers; the identity itself lives with the RNG
    substrate so process-pool workers share one definition.
    """
    return stream_seeds_array(seed, sample_indices)


def stream_coins(seeds: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output ``counters`` (1-based) of the streams with the given seeds.

    ``SplitMix64.next_u64`` output ``c`` is ``mix64(seed + c·γ)``; this
    computes it for (seed, counter) pairs without touching any stream
    object — the random-access property the cohort sampler exploits.
    """
    return mix64_array(seeds + counters.astype(np.uint64) * _GAMMA)


class BatchedRRRSampler:
    """Cohort ``GenerateRR`` kernel: ``B`` samples per fused traversal.

    Drop-in alternative to :class:`~repro.sampling.rrr.RRRSampler` for
    the batch drivers (``sample_batch`` and everything above it); the
    output is bit-identical under the module's determinism contract.
    Instances hold reusable scratch and are *not* safe for concurrent
    use, mirroring the serial sampler's ownership discipline.

    Parameters
    ----------
    graph, model:
        The input graph and diffusion model.
    max_cohort:
        Largest number of samples fused into one traversal.  Defaults
        to a size that keeps the ``cohort × n`` visited scratch within
        a fixed budget.  Results never depend on it.
    """

    __slots__ = (
        "graph",
        "model",
        "max_cohort",
        "_in_thresh",
        "_thresh_shifted",
        "_lt_cum",
        "_mark",
        "_epoch",
        "_iota",
        "_gamma_ramp",
        "_mix_tmp",
    )

    def __init__(
        self,
        graph: CSRGraph,
        model: DiffusionModel | str,
        *,
        max_cohort: int | None = None,
    ) -> None:
        self.graph = graph
        self.model = DiffusionModel.parse(model)
        if max_cohort is None:
            max_cohort = max(1, min(4096, _SCRATCH_ENTRY_BUDGET // max(graph.n, 1)))
        if max_cohort < 1:
            raise ValueError("max_cohort must be positive")
        self.max_cohort = max_cohort
        # Same integer acceptance thresholds as the serial sampler (see
        # RRRSampler.__init__): exact equivalent of the float compare.
        self._in_thresh = np.ceil(graph.in_probs * float(1 << 53)).astype(np.uint64)
        # Pre-shifted variant: ``(raw >> 11) < t`` equals ``raw < (t << 11)``
        # exactly (write raw = q·2^11 + r, r < 2^11: q < t iff q·2^11 + r
        # < t·2^11), saving the per-edge shift pass — unless t = 2^53
        # (p = 1.0), where the shift overflows; such graphs use the
        # unshifted compare.
        if bool((self._in_thresh < np.uint64(1 << 53)).all()):
            self._thresh_shifted = self._in_thresh << np.uint64(11)
        else:
            self._thresh_shifted = None
        self._lt_cum: np.ndarray | None = None
        self._mark: np.ndarray | None = None
        self._epoch = -1
        self._iota = np.empty(0, dtype=np.int64)
        self._gamma_ramp = np.empty(0, dtype=np.uint64)
        self._mix_tmp = np.empty(0, dtype=np.uint64)

    # -- public API ----------------------------------------------------------

    def sample_into(
        self,
        collection: RRRCollection,
        sample_indices: np.ndarray,
        seed: int,
        *,
        edge_flip: str = "stream",
    ) -> np.ndarray:
        """Generate the given global sample indices into ``collection``.

        Splits the indices into cohorts of at most ``max_cohort``,
        appends each cohort with one :meth:`RRRCollection.append_batch`
        call, and returns the per-sample edge counts (aligned with
        ``sample_indices``).
        """
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        per_sample = np.empty(len(sample_indices), dtype=np.int64)
        for lo in range(0, len(sample_indices), self.max_cohort):
            chunk = sample_indices[lo : lo + self.max_cohort]
            verts, sizes, edges = self.sample_cohort(chunk, seed, edge_flip=edge_flip)
            collection.append_batch(verts, sizes)
            per_sample[lo : lo + len(chunk)] = edges
        return per_sample

    def sample_cohort(
        self,
        sample_indices: np.ndarray,
        seed: int,
        *,
        edge_flip: str = "stream",
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate one cohort and return ``(verts, sizes, edges)``.

        ``verts`` is the concatenation of the cohort's sorted ``int32``
        vertex lists, ``sizes[i]`` the length of sample ``i``'s list and
        ``edges[i]`` its examined-edge count — both aligned with
        ``sample_indices``.
        """
        self.check_edge_flip(edge_flip)
        sample_indices = np.asarray(sample_indices, dtype=np.int64)
        if len(sample_indices) and int(sample_indices.min()) < 0:
            raise ValueError("sample indices must be non-negative")
        if len(sample_indices) == 0:
            empty64 = np.empty(0, dtype=np.int64)
            return np.empty(0, dtype=np.int32), empty64, empty64.copy()
        if self.model is DiffusionModel.IC:
            return self._cohort_ic(sample_indices, seed, edge_flip == "hash")
        return self._cohort_lt(sample_indices, seed)

    def check_edge_flip(self, edge_flip: str) -> None:
        """Reject an edge-coin mode this sampler's model cannot draw.

        Shared with the process-pool engine, which checks in the parent
        before it plans a block.
        """
        if edge_flip not in ("stream", "hash"):
            raise ValueError(f"unknown edge_flip mode {edge_flip!r}")
        if edge_flip == "hash" and self.model is not DiffusionModel.IC:
            raise ValueError("hash edge flips are only defined for the IC model")

    # -- scratch -------------------------------------------------------------

    def _fresh_epoch(self, cohort: int) -> tuple[np.ndarray, int]:
        """The epoch-stamped visited scratch, grown to ``cohort × n``.

        int32 stamps halve the random-access traffic of the visited
        probes; the IC traversal consumes one stamp per BFS *level* (its
        frontiers are recovered by scanning for the level's stamp), so
        the wrap refill triggers with a wide safety margin left before
        the int32 ceiling.  Either way stale marks can never alias.
        """
        need = cohort * max(self.graph.n, 1)
        if (
            self._mark is None
            or len(self._mark) < need
            or self._epoch >= np.iinfo(np.int32).max - (1 << 22)
        ):
            size = need if self._mark is None else max(need, len(self._mark))
            self._mark = np.full(size, -1, dtype=np.int32)
            self._epoch = -1
        self._epoch += 1
        return self._mark, self._epoch

    def _level_ramps(self, total: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``arange(total)`` and ``arange(total) * γ`` prefixes.

        Every BFS level needs both ramps; reusing one growable pair of
        buffers removes two O(edges) allocations-and-fills per level.
        """
        if len(self._iota) < total:
            size = max(total, 2 * len(self._iota), 1 << 14)
            self._iota = np.arange(size, dtype=np.int64)
            self._gamma_ramp = self._iota.astype(np.uint64) * _GAMMA
        return self._iota[:total], self._gamma_ramp[:total]

    def _mix_scratch(self, total: int) -> np.ndarray:
        """Reusable shift scratch for :func:`_mix64_into`."""
        if len(self._mix_tmp) < total:
            size = max(total, 2 * len(self._mix_tmp), 1 << 14)
            self._mix_tmp = np.empty(size, dtype=np.uint64)
        return self._mix_tmp[:total]

    # -- IC ------------------------------------------------------------------

    def _cohort_ic(
        self, sample_indices: np.ndarray, seed: int, hash_flips: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.graph
        n = g.n
        B = len(sample_indices)
        kd = _key_dtype(B, n)
        sd = stream_seeds(seed, sample_indices)
        # Root draw == SplitMix64.randint(0, n): output 1, mod n.
        roots = (mix64_array(sd + _GAMMA) % np.uint64(n)).astype(kd)
        ctr = np.ones(B, dtype=np.int64)  # the root consumed one output
        mark, cohort_floor = self._fresh_epoch(B)
        mark_live = mark[: B * n]

        root_keys = np.arange(B, dtype=kd) * kd(n) + roots
        mark_live[root_keys] = cohort_floor
        visited_keys = [root_keys]
        per_edges = np.zeros(B, dtype=np.int64)

        # Frontier as parallel (sample, vertex) arrays, kept sorted by
        # (sample, vertex) — the invariant matching the serial sampler's
        # per-level ``np.unique`` order.
        f_sample = np.arange(B, dtype=kd)
        f_vertex = roots
        indptr = g.in_indptr
        while len(f_sample):
            starts = indptr[f_vertex].astype(np.int64)
            counts = indptr[f_vertex + 1].astype(np.int64) - starts
            if int(counts.min()) == 0:
                # Prune in-degree-0 pairs: they examine no edges (and so
                # consume no coins), and pruning keeps every pair's edge
                # segment non-empty for the reduceat partitions below.
                keep = counts > 0
                f_sample = f_sample[keep]
                if len(f_sample) == 0:
                    break
                starts, counts = starts[keep], counts[keep]
            pair_end = np.cumsum(counts)
            total = int(pair_end[-1])
            pair_pos = pair_end - counts  # level-array start per pair
            arange_total, gamma_ramp = self._level_ramps(total)
            off = np.repeat(starts - pair_pos, counts)
            off += arange_total
            # Runs: the contiguous stretch of pairs owned by one sample
            # (the frontier is sample-major).  All per-sample bookkeeping
            # happens at run granularity so the per-edge hot path stays
            # as lean as the serial sampler's.
            is_run_start = np.empty(len(f_sample), dtype=bool)
            is_run_start[0] = True
            is_run_start[1:] = f_sample[1:] != f_sample[:-1]
            run_pair = np.flatnonzero(is_run_start)
            run_sample = f_sample[run_pair]
            run_edges = np.add.reduceat(counts, run_pair)
            if hash_flips:
                # hash_edge_flips with a per-edge sample key (same mix).
                sd_edge = np.repeat(sd[f_sample], counts)
                z = sd_edge ^ mix64_array(off.astype(np.uint64) + _GAMMA)
                coins = (mix64_array(z) >> np.uint64(11)).astype(np.float64) * _INV_2_53
                hit = coins < g.in_probs[off]
            else:
                # Each edge's coin sits at its serial stream position:
                # the sample's running counter + the edge's rank within
                # the sample's level block.  Folding seed and counter
                # into one per-pair base leaves repeat + add + in-place
                # mix on the per-edge path: the coin input for
                # level-edge t of pair p is mix64(sd + (ctr + rank +
                # 1)·γ) = base[p] + t·γ with base = sd + (ctr -
                # run_first + 1)·γ (uint64 wrap-around is exactly the
                # mod-2^64 arithmetic SplitMix64 wants).
                run_first = pair_pos[run_pair][np.cumsum(is_run_start) - 1]
                base = sd[f_sample] + (
                    (ctr[f_sample] - run_first + np.int64(1)).astype(np.uint64) * _GAMMA
                )
                z = np.repeat(base, counts)
                z += gamma_ramp
                raw = _mix64_into(z, self._mix_scratch(total))
                if self._thresh_shifted is not None:
                    hit = raw < self._thresh_shifted[off]
                else:
                    np.right_shift(raw, np.uint64(11), out=raw)
                    hit = raw < self._in_thresh[off]
                ctr[run_sample] += run_edges
            per_edges[run_sample] += run_edges

            # Owning sample of each hit edge, recovered by binary-searching
            # the hit's level index in the (cache-resident) pair partition
            # — cheaper than materializing a per-edge sample array for
            # all examined edges.
            hit_idx = np.flatnonzero(hit)
            if len(hit_idx) == 0:
                break
            hit_pair = np.searchsorted(pair_end, hit_idx, side="right")
            cand_keys = f_sample[hit_pair] * kd(n) + g.in_indices[
                off[hit_idx]
            ].astype(kd, copy=False)
            cand_keys = cand_keys[mark_live[cand_keys] < cohort_floor]
            if len(cand_keys) == 0:
                break
            if len(cand_keys) << 6 >= len(mark_live):
                # Sort-free frontier dedup for busy levels: stamp the
                # surviving candidates with a fresh per-level stamp,
                # then scan the (cache-sized) mark prefix for it —
                # ``flatnonzero`` hands back the keys already unique
                # and ascending, i.e. exactly the next frontier in the
                # serial ``np.unique`` order, without sorting anything.
                # Visited-this-cohort stays ``mark >= cohort_floor``
                # since stamps only grow.
                self._epoch += 1
                stamp = self._epoch
                mark_live[cand_keys] = stamp
                new_keys = np.flatnonzero(mark_live == stamp).astype(kd, copy=False)
            else:
                # Sparse tail levels: a small sort beats an O(B·n) scan.
                # In place plus an adjacent-difference mask: the same
                # ascending unique keys as ``np.unique``, whose hash-table
                # path costs over ten times more at a few thousand keys.
                cand_keys.sort()
                first = np.empty(len(cand_keys), dtype=bool)
                first[0] = True
                np.not_equal(cand_keys[1:], cand_keys[:-1], out=first[1:])
                new_keys = cand_keys[first]
                mark_live[new_keys] = cohort_floor
            visited_keys.append(new_keys)
            f_sample, f_vertex = np.divmod(new_keys, kd(n))
        return self._assemble(visited_keys, B, per_edges)

    # -- LT ------------------------------------------------------------------

    def _cohort_lt(
        self, sample_indices: np.ndarray, seed: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        g = self.graph
        n = g.n
        B = len(sample_indices)
        if self._lt_cum is None:
            self._lt_cum = in_edge_cumweights(g)
        cum = self._lt_cum
        kd = _key_dtype(B, n)
        sd = stream_seeds(seed, sample_indices)
        roots = (mix64_array(sd + _GAMMA) % np.uint64(n)).astype(kd)
        ctr = np.ones(B, dtype=np.int64)
        mark, epoch = self._fresh_epoch(B)

        root_keys = np.arange(B, dtype=kd) * kd(n) + roots
        mark[root_keys] = epoch
        visited_keys = [root_keys]
        per_edges = np.zeros(B, dtype=np.int64)

        w_sample = np.arange(B, dtype=kd)
        w_vertex = roots
        indptr = g.in_indptr
        while len(w_sample):
            lo = indptr[w_vertex].astype(np.int64)
            deg = indptr[w_vertex + 1].astype(np.int64) - lo
            alive = deg > 0  # a vertex with no in-edges ends its walk
            w_sample, lo, deg = w_sample[alive], lo[alive], deg[alive]
            if len(w_sample) == 0:
                break
            per_edges[w_sample] += deg
            ctr[w_sample] += 1
            raw = stream_coins(sd[w_sample], ctr[w_sample])
            r = (raw >> np.uint64(11)).astype(np.float64) * _INV_2_53
            go = r < cum[lo + deg - 1]  # else the no-live-edge residual fired
            w_sample, lo, deg, r = w_sample[go], lo[go], deg[go], r[go]
            if len(w_sample) == 0:
                break
            # searchsorted(cum_local, r, side="right") for all walks at
            # once: first in-slot whose cumulative weight exceeds r.
            total = int(deg.sum())
            seg_start = np.cumsum(deg) - deg
            arange_total, _ = self._level_ramps(total)
            pos = np.repeat(lo - seg_start, deg) + arange_total
            within = arange_total - np.repeat(seg_start, deg)
            above = cum[pos] > np.repeat(r, deg)
            pick = np.minimum.reduceat(np.where(above, within, total), seg_start)
            nxt = g.in_indices[lo + pick].astype(kd, copy=False)
            keys = w_sample * kd(n) + nxt
            fresh = mark[keys] != epoch  # walking into a visited vertex stops
            w_sample, keys, nxt = w_sample[fresh], keys[fresh], nxt[fresh]
            if len(w_sample) == 0:
                break
            mark[keys] = epoch
            visited_keys.append(keys)
            w_vertex = nxt
        return self._assemble(visited_keys, B, per_edges)

    # -- assembly ------------------------------------------------------------

    def _assemble(
        self, visited_keys: list[np.ndarray], B: int, per_edges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sort the visited (sample, vertex) keys into per-sample lists."""
        n = max(self.graph.n, 1)
        all_keys = np.concatenate(visited_keys)
        all_keys.sort()  # sample-major, vertex-ascending within a sample
        samples, verts64 = np.divmod(all_keys, n)
        sizes = np.bincount(samples, minlength=B)
        verts = verts64.astype(np.int32)
        return verts, sizes.astype(np.int64), per_edges
