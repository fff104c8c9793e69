"""In-process SPMD runtime with real (bit-exact) collectives.

Rank programs are generators.  When a rank needs a collective it yields
an operation object and receives the combined result::

    def program(rank: int, size: int):
        local = np.bincount(...)
        global_counts = yield Allreduce(local)          # sum by default
        ...
        return my_result

    results, stats = run_spmd(4, program)

The runtime advances all ranks to their next collective, checks that
they agree on the operation (mismatch → the deadlock/abort a real MPI
job would suffer, surfaced as :class:`CollectiveMismatchError`), then
combines the buffers exactly as MPI would — so numerical results are
identical to a genuine distributed execution — and resumes every rank
with the combined value.  :class:`CommStats` tallies call counts and
payload bytes for the communication cost model.

``run_spmd(..., faults=...)`` consults a
:class:`repro.mpi.faults.FaultInjector` at every collective: injected
crashes/OOM kills surface as typed errors
(:class:`~repro.mpi.faults.RankFailedError`,
:class:`~repro.mpi.faults.SimulatedOOMError`), transient collective
failures as :class:`~repro.mpi.faults.TransientCommError`.  This
runtime *aborts* on all of them: it is the ``"abort"`` policy of the one
lockstep loop, :func:`repro.mpi.resilient.run_spmd_resilient`, where
the recovery policies live.

This mirrors the semantics of ``MPI_Allreduce`` et al. while staying a
single deterministic process; it is the substitution DESIGN.md records
for the paper's OpenMPI / Cray MPICH runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, NamedTuple

import numpy as np

from .faults import FaultInjector, FaultPlan

__all__ = [
    "Allreduce",
    "Allgather",
    "Bcast",
    "Barrier",
    "CommCall",
    "CommStats",
    "CollectiveMismatchError",
    "run_spmd",
]


class CollectiveMismatchError(RuntimeError):
    """Raised when ranks disagree on the next collective (a hang in real MPI)."""


@dataclass
class Allreduce:
    """Combine every rank's ``data`` elementwise; all ranks receive the result.

    ``op`` is one of ``"sum"``, ``"max"``, ``"min"``.  ``data`` may be a
    scalar or ndarray; shapes must match across ranks.
    """

    data: Any
    op: str = "sum"


@dataclass
class Allgather:
    """All ranks receive the list ``[data_0, ..., data_{p-1}]``.

    Like ``MPI_Allgather``, array contributions must agree in shape and
    dtype across ranks (mismatched counts hang a real job).
    """

    data: Any


@dataclass
class Bcast:
    """All ranks receive rank ``root``'s ``data``."""

    data: Any
    root: int = 0


@dataclass
class Barrier:
    """Synchronization only; resumes with ``None``."""


class CommCall(NamedTuple):
    """One ledger entry: collective kind, per-rank payload bytes, and the
    phase/recovery label active when it was issued (``""`` = unlabeled
    first-attempt traffic; ``"retry"``/``"replay"`` mark recovery traffic)."""

    kind: str
    nbytes: int
    label: str = ""


@dataclass
class CommStats:
    """Ledger of collective traffic for the cost model.

    ``payload_bytes`` counts the per-rank buffer size of each call (the
    quantity the α–β model multiplies by the tree depth), summed over
    calls; ``per_call`` retains :class:`CommCall` entries in issue order
    so phases — and retried/replayed recovery traffic — can be priced
    separately.  Rank programs set ``phase`` via :meth:`set_phase`;
    recovery runtimes pass explicit ``label`` overrides.
    """

    calls: int = 0
    payload_bytes: int = 0
    per_call: list[CommCall] = field(default_factory=list)
    phase: str = ""

    def record(self, kind: str, nbytes: int, label: str | None = None) -> None:
        self.calls += 1
        self.payload_bytes += nbytes
        self.per_call.append(CommCall(kind, nbytes, self.phase if label is None else label))

    def set_phase(self, phase: str) -> None:
        """Label subsequent calls with ``phase`` (idempotent, rank-safe:
        lockstep ranks setting the same phase is a no-op)."""
        self.phase = phase

    def label_totals(self) -> dict[str, tuple[int, int]]:
        """``label -> (calls, payload_bytes)`` aggregation of the ledger."""
        totals: dict[str, tuple[int, int]] = {}
        for call in self.per_call:
            calls, nbytes = totals.get(call.label, (0, 0))
            totals[call.label] = (calls + 1, nbytes + call.nbytes)
        return totals


def _nbytes(data: Any) -> int:
    if isinstance(data, np.ndarray):
        return int(data.nbytes)
    return 8  # scalar payload


def _combine(kind_op: Allreduce | Allgather, buffers: list[Any]) -> Any:
    """Combine ``buffers`` (one per rank, rank order) for a data collective.

    ``Bcast``/``Barrier`` never reach this function: broadcast resolves to
    the root's buffer alone and a barrier carries no data.
    """
    if isinstance(kind_op, Allreduce):
        op = kind_op.op
        arrays = [np.asarray(b) for b in buffers]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise CollectiveMismatchError(f"allreduce shape mismatch: {shapes}")
        stacked = np.stack(arrays)
        if op == "sum":
            out = stacked.sum(axis=0)
        elif op == "max":
            out = stacked.max(axis=0)
        elif op == "min":
            out = stacked.min(axis=0)
        else:
            raise ValueError(f"unknown allreduce op {op!r}")
        if np.ndim(buffers[0]) == 0 and not isinstance(buffers[0], np.ndarray):
            return out.item()
        return out
    if isinstance(kind_op, Allgather):
        is_array = [isinstance(b, np.ndarray) for b in buffers]
        if any(is_array):
            if not all(is_array):
                raise CollectiveMismatchError(
                    "allgather mixes array and scalar contributions"
                )
            shapes = {b.shape for b in buffers}
            if len(shapes) != 1:
                raise CollectiveMismatchError(f"allgather shape mismatch: {shapes}")
            dtypes = {b.dtype for b in buffers}
            if len(dtypes) != 1:
                raise CollectiveMismatchError(f"allgather dtype mismatch: {dtypes}")
        return list(buffers)
    raise TypeError(f"not a data collective: {type(kind_op).__name__}")


def _validate_step(ops: list[tuple[int, Any]], num_ranks: int) -> Any:
    """Check concurrently-issued ops agree; return the prototype op.

    ``ops`` is ``[(rank, op), ...]`` for the ranks participating in this
    step.
    """
    kinds = {type(op) for _, op in ops}
    if len(kinds) != 1:
        raise CollectiveMismatchError(
            f"mixed collectives in one step: {sorted(k.__name__ for k in kinds)}"
        )
    proto = ops[0][1]
    if isinstance(proto, Allreduce):
        reduce_ops = {op.op for _, op in ops}
        if len(reduce_ops) != 1:
            raise CollectiveMismatchError(f"mixed allreduce ops: {reduce_ops}")
    if isinstance(proto, Bcast):
        roots = {op.root for _, op in ops}
        if len(roots) != 1:
            raise CollectiveMismatchError(f"mixed bcast roots: {roots}")
        if not 0 <= proto.root < num_ranks:
            raise ValueError(f"bcast root {proto.root} out of range")
        if proto.root not in {rank for rank, _ in ops}:
            raise CollectiveMismatchError(
                f"bcast root {proto.root} is not participating in this step"
            )
    return proto


def _as_injector(faults: FaultPlan | FaultInjector | None) -> FaultInjector | None:
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults.injector()
    if isinstance(faults, FaultInjector):
        return faults
    raise TypeError(f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}")


def _close_quietly(gen: Generator) -> None:
    try:
        gen.close()
    except Exception:
        pass  # a rank swallowing GeneratorExit must not mask the real error


def run_spmd(
    num_ranks: int,
    program: Callable[[int, int], Generator],
    *,
    stats: CommStats | None = None,
    faults: FaultPlan | FaultInjector | None = None,
) -> tuple[list[Any], CommStats]:
    """Execute ``program(rank, num_ranks)`` on every rank to completion.

    Returns ``(results, stats)`` where ``results[r]`` is rank ``r``'s
    generator return value.  All rank generators are closed on exit,
    normal or not — an aborted job leaves no suspended rank frames.
    This is the ``"abort"`` policy of the one lockstep loop,
    :func:`repro.mpi.resilient.run_spmd_resilient`.

    Raises
    ------
    CollectiveMismatchError
        If ranks diverge: some finish while others still wait in a
        collective, or concurrent operations have mismatched types,
        reduce ops, or broadcast roots.
    RankFailedError, SimulatedOOMError, TransientCommError
        If ``faults`` injects a failure; this runtime aborts on the
        first one (recovery lives in ``run_spmd_resilient``).
    """
    # Imported here: the resilient loop builds on this module's helpers.
    from .resilient import run_spmd_resilient

    results, stats, _ = run_spmd_resilient(
        num_ranks, program, policy="abort", faults=faults, stats=stats
    )
    return results, stats
