"""Mutation testing: prove the oracle actually catches faults.

A validation subsystem that silently passes everything is worse than no
validation at all — later perf PRs would lean on a green light that
means nothing.  So ``repro-imm validate --mutate`` injects one
deliberate fault per known failure class and asserts the corresponding
checker *reports a violation*.  A mutant that survives (no violation)
fails the run.

Fault classes and the checker expected to kill each:

==========================  ==========================================
mutant                      expected detector
==========================  ==========================================
unsorted sample             ``collection.sortedness`` invariant
within-sample duplicate     ``collection.sortedness`` invariant
corrupted ``indptr``        ``collection.indptr-monotone`` invariant
hit-index keys mis-folded   ``collection.hit-index`` invariant and
                            ``oracle.seed-set`` on ``imm_dist[nodes=1]``
byte-model drift            ``collection.byte-model`` invariant
dropped inverted entry      ``collection.inverted-index`` invariant
skipped counter decrement   seed-set equivalence comparison
SPMD decrement not reduced  ``oracle.seed-set`` on ``imm_dist[nodes=2]``
biased RNG draw             bitwise collection comparison
candidate bound too tight   bitwise collection comparison
recovery skips a sample     ``recovery.rebuild-count``
wrong-stream replay         ``recovery.rebuild-bitwise``
double-count after shrink   ``recovery.degraded-accounting``
worker reorders landing     ``engine.collection-bitwise``
worker wrong stream offset  ``engine.collection-bitwise``
arena extent overlap        ``engine.collection-bitwise``
replay lands block twice    ``supervised.collection-bitwise``
resume skips the cursor     ``supervised.collection-bitwise``
speculation lands reordered ``supervised.collection-bitwise``
stale index after change    ``serving.graph-binding``
tighten wrong stream offset ``serving.extension-bitwise``
re-freeze renames in place  ``durability.reopen``
append commits before data  ``durability.reopen``
dishonest degradation       ``frontend.degraded-honesty``
breaker bypassed            ``frontend.breaker-discipline``
stale served as fresh       ``cluster.unavailable-honesty``
failover hedges a write     ``cluster.single-writer``
memo survives republish     ``frontend.republish-fresh``
identity memo by path only  ``frontend.republish-fresh``
==========================  ==========================================

The corruption is applied *behind* the append-time validation (directly
to the flat buffers, or to a sampler's acceptance thresholds), modeling
bugs that slip in after construction — the only kind the runtime
invariants exist to catch.  The serving, engine and supervisor mutants
patch a small private seam of their class, and the candidate-bound
mutant the cohort kernel's module-level bound (:func:`_patched`), for
the length of their run, so the shipping code carries no mutation flags.
The two worker-side engine mutants swap in a module-level pool task as
``ParallelSamplingEngine._block_task``: a worker receives the task by
reference, while a patch made in the parent would never reach a spawned
worker.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from ..datasets import load
from ..imm.select import FlatView, drive, greedy_cover, select_seeds
from ..mpi import imm_dist, rebuild_partition
from ..mpi.comm import Allreduce
from ..rng.streams import stream_checksum
from ..sampling import (
    BatchedRRRSampler,
    HypergraphRRRCollection,
    SortedRRRCollection,
    batched,
    parallel_engine,
    sample_batch,
)
from ..sampling.parallel_engine import ParallelSamplingEngine
from ..sampling.supervisor import SupervisedSamplingEngine
from .engine import check_engine_sampling, serial_sample_batch
from .invariants import check_hypergraph_collection, check_sorted_collection
from .recovery import check_degraded_accounting, check_rebuild_fidelity
from .serving import _perturbed, check_index_bitwise, check_index_graph_binding
from .supervision import check_supervised_sampling

__all__ = ["MutantResult", "run_mutation_suite", "SMOKE_MUTANTS"]

#: The small real workload every sampler-level mutant runs against.
_MUTATION_DATASET = "cit-HepTh"
_MUTATION_THETA = 200


@dataclass(frozen=True)
class MutantResult:
    """Outcome of one injected fault."""

    name: str
    fault: str
    detected: bool
    evidence: str

    def __str__(self) -> str:
        verdict = "KILLED" if self.detected else "SURVIVED (oracle blind spot!)"
        return f"{self.name:24s} {verdict:10s} — {self.evidence}"


def _sample_collection(seed: int) -> SortedRRRCollection:
    """A healthy sampled collection to corrupt."""
    graph = load(_MUTATION_DATASET, "IC")
    coll = SortedRRRCollection(graph.n)
    sample_batch(graph, "IC", coll, _MUTATION_THETA, seed)
    return coll

def _violated(report, check_name: str) -> tuple[bool, str]:
    hits = [v for v in report.violations if v.check == check_name]
    if hits:
        return True, f"flagged by {check_name}: {hits[0].detail}"
    return False, (
        f"{check_name} stayed green ({report.checks_run} checks, "
        f"{len(report.violations)} unrelated violations)"
    )


@contextmanager
def _patched(owner, name: str, value):
    """``owner.name`` replaced by ``value`` for the length of the block.

    The seam must be ``owner``'s own attribute; it is restored raw, so a
    ``staticmethod`` stays one.
    """
    real = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, real)


def _mutant_unsorted(seed: int) -> tuple[bool, str]:
    coll = _sample_collection(seed)
    flat, indptr = coll.flattened()
    # Reverse the first sample with >= 2 vertices, behind validation.
    sizes = np.diff(indptr)
    target = int(np.argmax(sizes >= 2))
    lo, hi = int(indptr[target]), int(indptr[target + 1])
    coll._flat[lo:hi] = coll._flat[lo:hi][::-1].copy()
    return _violated(check_sorted_collection(coll, "mutant"), "collection.sortedness")


def _mutant_duplicate(seed: int) -> tuple[bool, str]:
    coll = _sample_collection(seed)
    _, indptr = coll.flattened()
    sizes = np.diff(indptr)
    target = int(np.argmax(sizes >= 2))
    lo = int(indptr[target])
    coll._flat[lo + 1] = coll._flat[lo]  # a within-sample duplicate
    return _violated(check_sorted_collection(coll, "mutant"), "collection.sortedness")


def _mutant_indptr(seed: int) -> tuple[bool, str]:
    coll = _sample_collection(seed)
    mid = len(coll) // 2
    coll._indptr[mid] = coll._indptr[mid + 1] + 1  # break monotonicity
    return _violated(check_sorted_collection(coll, "mutant"), "collection.indptr-monotone")


def _misfolded_vertex_index(ids, indptr, n):
    """The injected hit-index bug: keys folded as ``id·(m-1) + sample``
    but unfolded with ``m`` — hits land in shifted groups under shifted
    sample ids, and every id is still a valid sample."""
    m = len(indptr) - 1
    keys = ids.astype(np.int64) * (m - 1)
    keys += np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    keys.sort()
    vptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * m)
    return (keys % m).astype(np.int32), vptr


def _mutant_hit_index_fold(seed: int) -> tuple[bool, str]:
    """The kernel's hit index built with the wrong key fold.

    The structural invariant compares it with the rows' transpose; the
    oracle sees the seeds ``imm_dist`` picks through it diverge from a
    serial run computed before the fault went in.
    """
    from ..imm import imm, select
    from .oracle import OracleConfig, check_dist_equivalence

    coll = _sample_collection(seed)
    cfg = OracleConfig(datasets=(_MUTATION_DATASET,), seed=seed, rank_counts=(1,))
    graph = load(_MUTATION_DATASET, "IC")
    ref = imm(graph, cfg.k, cfg.eps, "IC", seed=seed, theta_cap=cfg.theta_cap)
    real = select.vertex_index
    select.vertex_index = _misfolded_vertex_index
    try:
        structural = check_sorted_collection(coll, "mutant")
        oracle = check_dist_equivalence(graph, "IC", ref, cfg, "mutant")
    finally:
        select.vertex_index = real
    by_invariant, inv_evidence = _violated(structural, "collection.hit-index")
    by_oracle, oracle_evidence = _violated(oracle, "oracle.seed-set")
    return by_invariant and by_oracle, f"{inv_evidence}; {oracle_evidence}"


def _mutant_byte_model(seed: int) -> tuple[bool, str]:
    coll = _sample_collection(seed)

    class _Drifted(SortedRRRCollection):
        def nbytes_model(self) -> int:  # a lost header per sample
            return super().nbytes_model() - len(self) * 24

    coll.__class__ = _Drifted
    return _violated(check_sorted_collection(coll, "mutant"), "collection.byte-model")


def _mutant_inverted_index(seed: int) -> tuple[bool, str]:
    graph = load(_MUTATION_DATASET, "IC")
    coll = HypergraphRRRCollection(graph.n)
    sample_batch(graph, "IC", coll, 50, seed)
    counts = coll.counters()
    v = int(np.argmax(counts))  # a vertex certain to have entries
    coll._inverted[v].pop()  # drop one incidence from the inverse direction
    return _violated(check_hypergraph_collection(coll, "mutant"), "collection.inverted-index")


class _NoDecrementView(FlatView):
    """The injected selection bug: killed samples tally no entries, so
    the real kernel never decrements — the classic "forgot to subtract
    covered memberships" slip that still returns a plausible seed set."""

    def tally(self, samples: np.ndarray) -> np.ndarray:
        return np.zeros(self.n, dtype=np.int64)


def _mutant_skipped_decrement(seed: int) -> tuple[bool, str]:
    # A collection where skipping decrements provably flips the second
    # pick: vertex 1 covers everything vertex 0 appears in, so after a
    # correct purge vertex 0's count drops to zero and vertex 2 wins.
    coll = SortedRRRCollection(3)
    for s in ([0, 1], [0, 1], [1], [2]):
        coll.append(np.asarray(s, dtype=np.int64))
    good = select_seeds(coll, 3, 2).seeds
    bad, _ = drive(greedy_cover(_NoDecrementView(3, *coll.flattened()), 2))
    if np.array_equal(good, bad):
        return False, "mutant selector returned the reference seed set"
    return True, f"seed-set comparison caught it: {good.tolist()} vs {bad.tolist()}"


def _own_decrements(steps, n: int):
    """The injected SPMD bug: an All-Reduce adapter that still issues every
    collective, but after the counts hands each rank its own decrement."""
    try:
        local = steps.send((yield Allreduce(next(steps))))
        while True:
            if local is None:
                local = np.zeros(n, dtype=np.int64)
            yield Allreduce(local)  # the reduced sum is dropped
            local = steps.send(local)
    except StopIteration as done:
        return done.value


def _mutant_spmd_decrement(seed: int) -> tuple[bool, str]:
    """Distributed greedy whose ranks subtract only their own decrements.

    The collective schedule is unchanged, so no rank hangs, and one rank
    is still exact; from two ranks on, each rank's counters miss the
    other ranks' kills, and the oracle's ``imm_dist`` axis must see it.
    """
    from ..imm import imm
    from ..mpi import distributed
    from .oracle import OracleConfig, check_dist_equivalence

    cfg = OracleConfig(datasets=(_MUTATION_DATASET,), seed=seed, rank_counts=(2,))
    graph = load(_MUTATION_DATASET, "IC")
    ref = imm(graph, cfg.k, cfg.eps, "IC", seed=seed, theta_cap=cfg.theta_cap)
    real = distributed._allreduced
    distributed._allreduced = _own_decrements
    try:
        report = check_dist_equivalence(graph, "IC", ref, cfg, "mutant")
    finally:
        distributed._allreduced = real
    return _violated(report, "oracle.seed-set")


def _serial_divergence(sampler: BatchedRRRSampler, seed: int) -> tuple[bool, str]:
    """Sample the mutation workload through ``sampler`` and compare the
    collection bitwise with the serial reference sampler's."""
    graph = sampler.graph
    reference = SortedRRRCollection(graph.n)
    serial_sample_batch(graph, "IC", reference, _MUTATION_THETA, seed)
    mutant = SortedRRRCollection(graph.n)
    sample_batch(graph, "IC", mutant, _MUTATION_THETA, seed, sampler=sampler)
    ref_flat, ref_indptr = reference.flattened()
    mut_flat, mut_indptr = mutant.flattened()
    if np.array_equal(ref_flat, mut_flat) and np.array_equal(ref_indptr, mut_indptr):
        return False, "mutant sampler reproduced the reference collection"
    return True, (
        f"bitwise collection comparison caught it "
        f"({reference.total_entries} vs {mutant.total_entries} entries)"
    )


def _mutant_biased_rng(seed: int) -> tuple[bool, str]:
    """Bias the IC coin acceptance and demand the bitwise compare sees it."""
    sampler = BatchedRRRSampler(load(_MUTATION_DATASET, "IC"), "IC")
    # Double every acceptance threshold: each coin flip now succeeds
    # roughly twice as often — a biased draw, not a different stream.
    sampler._in_thresh = np.minimum(
        sampler._in_thresh * np.uint64(2), np.uint64(1 << 53)
    )
    return _serial_divergence(sampler, seed)


def _mutant_candidate_bound(seed: int) -> tuple[bool, str]:
    """Candidate bound taken for half the largest acceptance threshold.

    The cohort kernel settles every coin above the bound without its
    exact compare (the mutation workload's largest ``p``, 0.22, keeps
    its candidate filter on), so a bound too tight drops edges that
    should hit; the serial sampler has no bound, and the bitwise compare
    must see the missing entries.
    """
    real = batched.candidate_bound
    with _patched(batched, "candidate_bound", lambda t: real(t // 2)):
        return _serial_divergence(BatchedRRRSampler(load(_MUTATION_DATASET, "IC"), "IC"), seed)


def _mutant_recovery_skip(seed: int) -> tuple[bool, str]:
    """Buggy respawn that drops the last sample of the lost rank's slice.

    The classic off-by-one in the rebuild bound: the recovered rank
    regenerates ``[0, upto - stride)`` instead of ``[0, upto)``.
    """
    graph = load(_MUTATION_DATASET, "IC")
    deals = ((0, (0, 1)),)
    upto = 60
    # rank 1 owns the odd indices; stopping 2 short drops exactly index 59
    bad, _, _ = rebuild_partition(graph, "IC", deals, 1, upto - 2, seed)
    return _violated(
        check_rebuild_fidelity(bad, graph, "IC", deals, 1, upto, seed, "mutant"),
        "recovery.rebuild-count",
    )


def _mutant_wrong_stream(seed: int) -> tuple[bool, str]:
    """Buggy respawn that replays the wrong RNG stream (seed off by one).

    Sample counts come out right — only the bitwise comparison against
    the index-derived reference partition can see it.
    """
    graph = load(_MUTATION_DATASET, "IC")
    deals = ((0, (0, 1)),)
    upto = 60
    bad, _, _ = rebuild_partition(graph, "IC", deals, 1, upto, seed + 1)
    return _violated(
        check_rebuild_fidelity(bad, graph, "IC", deals, 1, upto, seed, "mutant"),
        "recovery.rebuild-bitwise",
    )


def _mutant_double_count(seed: int) -> tuple[bool, str]:
    """Shrink accounting that still counts the lost block toward θ_eff.

    A real shrunk run is taken and its ``theta_effective`` is inflated
    back to the nominal θ — the "forgot to subtract the dead rank's
    samples" bug.  The accounting checker must notice the books no
    longer balance.
    """
    graph = load(_MUTATION_DATASET, "IC")
    res = imm_dist(
        graph, 5, 0.5, "IC", num_nodes=2, seed=seed, theta_cap=150,
        fault_plan="crash:1@phase=SelectSeeds", policy="shrink",
    )
    assert res.extra["degraded"], "mutant needs a genuinely shrunk run"
    res.extra["theta_effective"] = res.theta  # lost block double-counted
    return _violated(check_degraded_accounting(res, "mutant"), "recovery.degraded-accounting")


def _engine_mutant(seed: int, name: str, value, check_name: str):
    """Run the engine oracle axis on a pool engine with its private seam
    ``name`` patched; return ``(detected, evidence)`` for ``check_name``."""
    graph = load(_MUTATION_DATASET, "IC")
    with _patched(ParallelSamplingEngine, name, value), ParallelSamplingEngine(
        graph, "IC", workers=2, chunk_size=37
    ) as eng:
        report = check_engine_sampling(
            graph, "IC", _MUTATION_THETA, seed, "mutant",
            chunk_sizes=(37,), engine=eng,
        )
    return _violated(report, check_name)


def _mutant_engine_landing(seed: int) -> tuple[bool, str]:
    """Parent lands worker blocks in the wrong order.

    Models a completion-order landing bug (appending blocks as futures
    finish instead of in global index order): the blocks are planned,
    so submitted and landed, last first.  Every block's *contents* are
    correct, so only the bitwise comparison of the assembled collection
    can see the permutation.
    """
    plan = ParallelSamplingEngine._plan

    def reversed_plan(self, *args):
        return reversed(list(plan(self, *args)))

    return _engine_mutant(seed, "_plan", reversed_plan, "engine.collection-bitwise")


# The two worker-side faults below are pool tasks: module-level, so a
# worker pickles them by reference (a patch made in the parent never
# reaches a spawned worker), swapped in as ``_block_task``.


def _offset_task(indices, seed, extent, sleep_s=0.0):
    """Samples block-local ``[0, hi-lo)`` but answers the checksum of the
    global indices it was sent."""
    desc = parallel_engine._worker_block(indices - indices[0], seed, extent, sleep_s)
    return desc[:3] + (stream_checksum(seed, indices),) + desc[4:]


def _overlap_task(indices, seed, extent, sleep_s=0.0):
    """Writes its payload 8 bytes past the start of its arena extent."""
    if extent is not None:
        extent = (extent[0], extent[1] + 8, extent[2])
    return parallel_engine._worker_block(indices, seed, extent, sleep_s)


def _mutant_engine_offset(seed: int) -> tuple[bool, str]:
    """Worker samples block-local indices instead of global ones.

    The classic lost-offset bug: a worker handed global indices
    ``[lo, hi)`` draws the streams of ``[0, hi - lo)``.  The mutation
    sits *inside* the sampling call — the worker still checksums the
    indices it received, deliberately slipping past the protocol
    handshake — so the oracle's bitwise comparison is the detector
    under test.
    """
    return _engine_mutant(
        seed, "_block_task", staticmethod(_offset_task), "engine.collection-bitwise"
    )


def _mutant_arena_overlap(seed: int) -> tuple[bool, str]:
    """Worker writes its payload past the assigned arena extent start.

    The classic extent-stitching off-by-one: every worker writes 8 bytes
    deep into its extent, so the parent's zero-copy views read a shifted
    layout — garbage at the head of ``flat`` and misaligned ``sizes``.
    Depending on where the shift lands, the corruption surfaces as a
    bitwise mismatch of the assembled collection *or* as a landing-time
    exception (the collection's invariants reject the stitched views);
    the hardened oracle reports both as ``engine.collection-bitwise``
    violations.
    """
    return _engine_mutant(
        seed, "_block_task", staticmethod(_overlap_task), "engine.collection-bitwise"
    )


def _mutant_replay_overlap(seed: int) -> tuple[bool, str]:
    """Crash recovery that re-lands the last already-landed block.

    The classic replay-cursor bug: after a pool rebuild the supervisor
    restarts from the block *before* the landing cursor.  Every byte it
    appends is individually valid — only the bitwise comparison of the
    assembled collection (now one block too long) can see it.
    """
    land = SupervisedSamplingEngine._land
    last: list = []  # (rebuilds when it landed, private copy of the block)

    def relanding(self, collection, block, flat, sizes, edges):
        if last and last[0] < self.stats.rebuilds:
            collection.append_batch(*last[1])  # lands again after the rebuild
        land(self, collection, block, flat, sizes, edges)
        # arena extents are recycled between calls: copy, not the views
        last[:] = [self.stats.rebuilds, (flat.copy(), sizes.copy())]

    graph = load(_MUTATION_DATASET, "IC")
    with _patched(SupervisedSamplingEngine, "_land", relanding), SupervisedSamplingEngine(
        graph, "IC", workers=2, chunk_size=37, backoff_base=0.0, fault_plan="crash:0@2"
    ) as eng:
        report = check_supervised_sampling(
            graph, "IC", _MUTATION_THETA, seed, "mutant", engine=eng
        )
    return _violated(report, "supervised.collection-bitwise")


def _mutant_resume_skip(seed: int) -> tuple[bool, str]:
    """Resume that skips one sample past the checkpoint cursor.

    The off-by-one at the spill boundary: the first fresh sample after
    the resumed prefix is dropped, so every later sample shifts down by
    one slot.  Counts stay plausible per block; the bitwise comparison
    against the from-scratch reference is the detector.
    """
    import os
    import tempfile

    open_run = SupervisedSamplingEngine._open_run

    def skipping(self, collection, indices, seed, per_sample):
        pos = open_run(self, collection, indices, seed, per_sample)
        if 0 < pos < len(indices):
            per_sample[pos] = 0  # the first sample past the prefix is dropped
            return pos + 1
        return pos

    graph = load(_MUTATION_DATASET, "IC")
    with tempfile.TemporaryDirectory(prefix="repro-mutant-ck-") as td:
        ckdir = os.path.join(td, "run")
        with SupervisedSamplingEngine(
            graph, "IC", workers=2, chunk_size=37, checkpoint_dir=ckdir
        ) as eng:
            partial = SortedRRRCollection(graph.n)
            eng.sample_into(
                partial, np.arange(_MUTATION_THETA // 2, dtype=np.int64), seed
            )
        with _patched(SupervisedSamplingEngine, "_open_run", skipping), SupervisedSamplingEngine(
            graph, "IC", workers=2, chunk_size=37, resume_from=ckdir
        ) as eng:
            report = check_supervised_sampling(
                graph, "IC", _MUTATION_THETA, seed, "mutant", engine=eng
            )
    return _violated(report, "supervised.collection-bitwise")


def _mutant_spec_order(seed: int) -> tuple[bool, str]:
    """Speculative win that lands behind its successor block.

    The race every speculation implementation risks: the copy of the
    laggard block finishes after its successor and the supervisor lands
    them in completion order instead of index order.  Both blocks'
    bytes are correct, so only the bitwise comparison sees the swap.
    """
    land = SupervisedSamplingEngine._land
    held: list = []  # a raced block waiting for its successor

    def completion_order(self, collection, block, flat, sizes, edges):
        if not held and block.spec is not None:  # a speculative copy raced it
            held.append((block, flat.copy(), sizes.copy(), edges.copy()))
            return
        land(self, collection, block, flat, sizes, edges)
        while held:
            land(self, collection, *held.pop())

    graph = load(_MUTATION_DATASET, "IC")
    with _patched(SupervisedSamplingEngine, "_land", completion_order), SupervisedSamplingEngine(
        graph, "IC", workers=2, chunk_size=37, backoff_base=0.0,
        fault_plan="straggler:2x4", straggler_sleep=0.15,
        straggler_floor=0.02, straggler_factor=2.0, straggler_min_history=2,
    ) as eng:
        report = check_supervised_sampling(
            graph, "IC", _MUTATION_THETA, seed, "mutant", engine=eng
        )
    return _violated(report, "supervised.collection-bitwise")


def _mutant_stale_index(seed: int) -> tuple[bool, str]:
    """A frozen index kept serving after the graph changed underneath it.

    The serving path that forgets to verify the graph fingerprint: the
    activation probabilities are re-weighted after the freeze (a routine
    dataset refresh), yet the old index keeps answering.  Every cached
    byte is internally consistent — the seal still verifies — so only
    the graph-binding check can see that the answers describe an
    influence instance that no longer exists.
    """
    import tempfile

    from ..serving import freeze_index

    graph = load(_MUTATION_DATASET, "IC")
    with tempfile.TemporaryDirectory(prefix="repro-mutant-idx-") as td:
        index, _ = freeze_index(
            graph, 5, 0.5, "IC", seed, theta_cap=_MUTATION_THETA,
            out_dir=td + "/index",
        )
        try:
            return _violated(
                check_index_graph_binding(index, _perturbed(graph), "mutant"),
                "serving.graph-binding",
            )
        finally:
            index.close()


class _RestartingSampler(BatchedRRRSampler):
    """Draws the streams of ``[0, count)`` whatever indices it is asked
    for — an extension that lost its stream offset."""

    def sample_into(self, collection, sample_indices, seed):
        return super().sample_into(collection, sample_indices - sample_indices[0], seed)


def _mutant_tighten_offset(seed: int) -> tuple[bool, str]:
    """Index extension that restarts the sample streams from zero.

    The serving twin of the pool worker's lost-offset bug: a tighten (or
    cross-``k`` query) that needs samples ``[frozen, θ)`` draws the
    streams of ``[0, θ - frozen)`` instead.  Sample counts, sizes, and
    the manifest all stay plausible — only the bitwise comparison
    against the from-scratch serial reference can see that the appended
    tail repeats the head of the stream space.
    """
    import tempfile

    from ..serving import FrozenRRRIndex, InfluenceQueryEngine

    graph = load(_MUTATION_DATASET, "IC")
    half = _MUTATION_THETA // 2
    coll = SortedRRRCollection(graph.n)
    batch = sample_batch(graph, "IC", coll, half, seed)
    with tempfile.TemporaryDirectory(prefix="repro-mutant-idx-") as td:
        index = FrozenRRRIndex.freeze(
            coll, td + "/index",
            graph=graph, model="IC", seed=seed, k=5, eps=0.5,
            theta_cap=_MUTATION_THETA, edges=batch.per_sample_edges,
        )
        try:
            eng = InfluenceQueryEngine(index, graph=graph)
            eng._sampler = _RestartingSampler(graph, "IC")
            res = eng.top_k()  # forces the (mutated) extension past `half`
            assert res.samples_added > 0, "mutant needs a genuine extension"
            return _violated(
                check_index_bitwise(index, graph, "IC", "mutant"), "serving.extension-bitwise"
            )
        finally:
            index.close()


def _mutant_refreeze_in_place(seed: int) -> tuple[bool, str]:
    """A re-freeze that renames each new data file over the old one,
    then writes the manifest: four commit points instead of one.

    The order the store's generations replaced.  An interruption after
    the first rename leaves a manifest that still seals the old seed over
    a new flat file: it opens and serves answers no run produced.  Only
    the crash-point sweep interrupts a re-freeze there.
    """
    from ..sampling import store
    from .durability import check_crash_points
    from .oracle import quick_config

    commit = store.RRRStore._commit

    def in_place(self, arrays=None, facts=None, *, fresh=False):
        if not (fresh and (self.path / self.CERT).exists()):
            return commit(self, arrays, facts, fresh=fresh)
        with store._writer_lock(self.path):
            on_disk = store._read_manifest(self.path / self.CERT, self.error)
            for name, arr in zip(self._files(on_disk), arrays):
                np.asarray(arr).tofile(self.path / (name + ".tmp"))
                store.os.replace(self.path / (name + ".tmp"), self.path / name)
            num = len(arrays[1])
            cert = {**self.cert, "num_samples": num, "entries": len(arrays[0]),
                    "stream_fold": store._fold_range(self.seed, 0, num),
                    "files": on_disk.get("files")}
            store._write_manifest(self.path, self.CERT, cert)
            self.cert = cert
            self._map()

    graph = load(_MUTATION_DATASET, "IC")
    with _patched(store.RRRStore, "_commit", in_place):
        report = check_crash_points(graph, "IC", replace(quick_config(), seed=seed), "mutant")
    return _violated(report, "durability.reopen")


def _mutant_manifest_before_data(seed: int) -> tuple[bool, str]:
    """An append (``extend``, a checkpoint block) that installs its
    certificate first, then writes and fsyncs the data it certifies.

    Every append that completes reopens whole.  One interrupted after
    the certificate rename leaves a certificate that seals bytes no data
    file holds, and the old state is gone with it.  Only the crash-point
    sweep interrupts an append there.
    """
    from ..sampling import store
    from .durability import check_crash_points
    from .oracle import quick_config

    commit = store.RRRStore._commit

    def manifest_first(self, arrays=None, facts=None, *, fresh=False):
        if fresh or arrays is None:
            return commit(self, arrays, facts, fresh=fresh)
        flat, sizes, _ = arrays
        count = int(self.cert[self.COUNT])
        cert = {**self.cert, **(facts or {}), self.COUNT: count + len(sizes),
                "entries": self.entries + len(flat),
                "stream_fold": int(self.cert["stream_fold"])
                ^ store._fold_range(self.seed, count, count + len(sizes))}
        with store._writer_lock(self.path):
            store._write_manifest(self.path, self.CERT, cert)
            for name, keep, arr in zip(self._files(self.cert), self._certified(self.cert), arrays):
                fd = store.os.open(self.path / name, store.os.O_WRONLY)
                try:
                    store.os.ftruncate(fd, keep)
                    store.os.lseek(fd, keep, store.os.SEEK_SET)
                    store._write_all(fd, arr)
                    store.os.fsync(fd)
                finally:
                    store.os.close(fd)
            self.cert = cert
            self._map()

    graph = load(_MUTATION_DATASET, "IC")
    with _patched(store.RRRStore, "_commit", manifest_first):
        report = check_crash_points(graph, "IC", replace(quick_config(), seed=seed), "mutant")
    return _violated(report, "durability.reopen")


def _frontend_mutant(check_name: str):
    """Run the front-end oracle axis (with the caller's seam patched in)."""
    from .frontend import check_frontend_equivalence
    from .oracle import quick_config

    graph = load(_MUTATION_DATASET, "IC")
    report = check_frontend_equivalence(graph, "IC", quick_config(), "mutant")
    return _violated(report, check_name)


def _mutant_dishonest_degrade(seed: int) -> tuple[bool, str]:
    """A front end that degrades but reports the *requested* ε as
    achieved.

    The seeds are plausible (they really are the best selection over the
    frozen prefix), the result is typed, the reason is set — only the
    shrink-arithmetic recomputation in ``frontend.degraded-honesty``
    can see that the certified guarantee is a lie.
    """
    from ..serving import ServingFrontend

    honest = ServingFrontend._degrade

    async def dishonest(self, *args, **kwargs):
        result = await honest(self, *args, **kwargs)
        result.epsilon_effective = result.epsilon
        return result

    with _patched(ServingFrontend, "_degrade", dishonest):
        return _frontend_mutant("frontend.degraded-honesty")


def _mutant_breaker_bypass(seed: int) -> tuple[bool, str]:
    """A front end whose extension path ignores the open circuit breaker.

    Every individual answer is still correct-or-typed-degraded, so no
    bit-identity check fires; the failure mode is *operational* —
    queries keep queueing into a sick sampler instead of degrading —
    and only the attempt accounting in ``frontend.breaker-discipline``
    catches it.
    """
    from ..serving import ServingFrontend

    def bypass(self, brk):
        brk.allow()  # asked, as the healthy gate asks, then ignored
        return True

    with _patched(ServingFrontend, "_breaker_allows", bypass):
        return _frontend_mutant("frontend.breaker-discipline")


def _mutant_memo_per_path(seed: int) -> tuple[bool, str]:
    """Greedy answers remembered per index path instead of per engine.

    Every engine opened on a path shares one table, so a republish that
    reopens the path inherits the old index's answers.  A re-freeze at
    the same cap repeats every replay prefix length, so each lookup hits
    and the old seed set comes back whole — plausible, untyped and fast.
    Only ``frontend.republish-fresh``, which compares the answer after
    the republish with a fresh ``imm()`` at the new seed, can see it.
    """
    from pathlib import Path

    from ..serving import InfluenceQueryEngine

    tables: dict = {}
    real_init = InfluenceQueryEngine.__init__

    def shared_init(self, index, *args, **kwargs):
        real_init(self, index, *args, **kwargs)
        self._memo = tables.setdefault(Path(index.path).resolve(), self._memo)

    with _patched(InfluenceQueryEngine, "__init__", shared_init):
        return _frontend_mutant("frontend.republish-fresh")


def _mutant_identity_memo_per_path(seed: int) -> tuple[bool, str]:
    """Index identities remembered per path alone.

    The cache answers ``identity`` and ``lease`` from what it read the
    first time a path came by, never checking the manifest's stat
    signature again, so a re-freeze over the path keeps the old identity
    key and the lease hands out the old engine, with the answers it
    remembers.  Every answer is plausible and untyped; only
    ``frontend.republish-fresh``, which compares the answer after the
    re-freeze with a fresh ``imm()`` at the new seed, can see it.
    """
    import os

    from ..serving import IndexCache

    lookup = IndexCache._lookup

    def per_path(self, path):
        seen = self.__dict__.setdefault("_seen", {})
        given = os.fspath(path)
        if given not in seen:
            seen[given] = lookup(self, path)
        return seen[given]

    with _patched(IndexCache, "_lookup", per_path):
        return _frontend_mutant("frontend.republish-fresh")


def _cluster_mutant(check_name: str):
    """Run the cluster oracle axis (with the caller's seam patched in)."""
    from .cluster import check_cluster_equivalence
    from .oracle import quick_config

    graph = load(_MUTATION_DATASET, "IC")
    report = check_cluster_equivalence(graph, "IC", quick_config(), "mutant")
    return _violated(report, check_name)


def _mutant_stale_as_fresh(seed: int) -> tuple[bool, str]:
    """A router that serves the all-replicas-down fallback untyped.

    The seeds are plausible (they really are the best selection over the
    stale local prefix) and the answer arrives promptly — but it claims
    the full requested guarantee instead of declaring itself degraded.
    Only the typed-result + shrink-arithmetic recomputation in
    ``cluster.unavailable-honesty`` can see the lie.
    """
    from dataclasses import fields

    from ..serving import ClusterRouter, ServingResult

    typed = ClusterRouter._degrade_local

    async def untyped(self, *args, **kwargs):
        result = await typed(self, *args, **kwargs)
        return ServingResult(
            **{f.name: getattr(result, f.name) for f in fields(ServingResult)}
        )

    with _patched(ClusterRouter, "_degrade_local", untyped):
        return _cluster_mutant("cluster.unavailable-honesty")


def _mutant_hedge_writes(seed: int) -> tuple[bool, str]:
    """A router that hedges extension traffic like any other read.

    Two replicas race the same index extension: torn manifest renames,
    double-drawn sample streams, two writers behind one bulkhead.  The
    extension-attempt accounting in ``cluster.single-writer`` (exactly
    one attempt cluster-wide, zero hedges) is the detector under test —
    a torn index raising out of the routed tighten counts as the same
    kill.
    """
    import asyncio

    from ..serving import ClusterRouter

    async def hedged(self, op, path, args, kwargs, *, graph, k=None, eps=None):
        qid = self._admit()
        self.stats.routed += 1
        self.stats.hedges += 1
        tasks = [
            asyncio.ensure_future(
                self._dispatch(r, qid, op, path, *args, graph=graph, **kwargs)
            )
            for r in self._order(path)[:2]
        ]
        done, pending = await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
        for loser in pending:
            loser.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        return next(iter(done)).result()

    with _patched(ClusterRouter, "_write", hedged):
        return _cluster_mutant("cluster.single-writer")


#: name -> (the mutant, the fault it injects).  A mutant returns
#: ``(detected, evidence)`` from the checker expected to kill it.
_MUTANTS = {
    "unsorted-sample": (_mutant_unsorted, "reversed the vertices of the first multi-vertex sample"),
    "within-sample-duplicate": (
        _mutant_duplicate, "duplicated the first vertex of the first multi-vertex sample",
    ),
    "indptr-corruption": (_mutant_indptr, "made the middle indptr entry exceed its successor"),
    "hit-index-keys-misfolded": (
        _mutant_hit_index_fold, "hit-index keys folded with m-1 samples, unfolded with m",
    ),
    "byte-model-drift": (_mutant_byte_model, "nbytes_model under-reports one header per sample"),
    "inverted-index-drop": (
        _mutant_inverted_index, "removed one sample id from the busiest vertex's inverted list",
    ),
    "skipped-decrement": (
        _mutant_skipped_decrement,
        "greedy kernel over a view whose killed samples tally no entries",
    ),
    "spmd-decrement-not-reduced": (
        _mutant_spmd_decrement,
        "imm_dist ranks subtract their local decrement, not the All-Reduced one",
    ),
    "biased-rng": (_mutant_biased_rng, "IC edge coins accept at ~2x the configured probability"),
    "coin-candidate-bound-too-tight": (
        _mutant_candidate_bound,
        "IC stream coins pre-screened against the bound for half the largest threshold",
    ),
    "recovery-skips-sample": (
        _mutant_recovery_skip, "respawn rebuild stops one stride short of the crash cursor",
    ),
    "wrong-stream-replay": (
        _mutant_wrong_stream, "respawn rebuild draws from seed+1 instead of the job seed",
    ),
    "double-count-after-shrink": (
        _mutant_double_count, "degraded result reports the lost samples as still present",
    ),
    "worker-reorders-cohort-landing": (
        _mutant_engine_landing, "pool parent appends sample blocks in reverse index order",
    ),
    "worker-uses-wrong-stream-offset": (
        _mutant_engine_offset, "pool worker samples local [0, hi-lo) instead of global [lo, hi)",
    ),
    "worker-writes-overlapping-arena-extent": (
        _mutant_arena_overlap, "pool worker writes its block payload 8 bytes past its extent start",
    ),
    "replay-lands-block-twice": (
        _mutant_replay_overlap, "crash recovery re-appends the block that landed before the kill",
    ),
    "resume-skips-cursor": (
        _mutant_resume_skip, "resume drops the first sample past the checkpointed prefix",
    ),
    "speculative-result-raced-in-wrong-order": (
        _mutant_spec_order, "speculative win lands after its successor block (completion order)",
    ),
    "stale-index-served-after-graph-change": (
        _mutant_stale_index, "edge probabilities re-weighted after the freeze, old index kept",
    ),
    "tighten-reuses-wrong-stream-offset": (
        _mutant_tighten_offset,
        "extension past the frozen prefix re-draws streams [0, …) from zero",
    ),
    "refreeze-renames-data-before-manifest": (
        _mutant_refreeze_in_place,
        "re-freeze renames each data file over the old one, then the manifest",
    ),
    "extend-commits-manifest-before-data": (
        _mutant_manifest_before_data,
        "an append installs its certificate before it writes and fsyncs the data",
    ),
    "degraded-result-reports-full-epsilon": (
        _mutant_dishonest_degrade, "degraded answer claims epsilon_effective == requested eps",
    ),
    "breaker-open-still-extends": (
        _mutant_breaker_bypass, "extension bulkhead entered while the circuit breaker is open",
    ),
    "memo-survives-republish": (
        _mutant_memo_per_path, "greedy memo kept per index path, so a republish reuses old answers",
    ),
    "identity-memo-ignores-republish": (
        _mutant_identity_memo_per_path,
        "identity memo keyed by path alone, so a re-freeze serves the old engine",
    ),
    "cluster-unavailable-served-as-fresh": (
        _mutant_stale_as_fresh,
        "all-replicas-down fallback answers as a plain (non-degraded) result",
    ),
    "failover-double-dispatches-extension": (
        _mutant_hedge_writes, "router hedges a tighten onto two replicas (two writers, one index)",
    ),
}

#: The cheap subset tier-1 CI runs on every commit (sub-second each):
#: one representative per checker family, including all recovery classes.
SMOKE_MUTANTS = (
    "unsorted-sample",
    "indptr-corruption",
    "skipped-decrement",
    "recovery-skips-sample",
    "wrong-stream-replay",
    "double-count-after-shrink",
)


def run_mutation_suite(
    seed: int = 1, names: tuple[str, ...] | None = None
) -> list[MutantResult]:
    """Inject every fault class (or the ``names`` subset); return one
    result per mutant.

    The caller fails the run if any result has ``detected=False`` —
    a surviving mutant means the oracle has a blind spot.
    """
    if names is None:
        chosen = _MUTANTS
    else:
        unknown = [n for n in names if n not in _MUTANTS]
        if unknown:
            raise ValueError(
                f"unknown mutants {unknown}; known: {sorted(_MUTANTS)}"
            )
        chosen = {n: _MUTANTS[n] for n in names}
    return [
        MutantResult(name, fault, *mutant(seed)) for name, (mutant, fault) in chosen.items()
    ]
