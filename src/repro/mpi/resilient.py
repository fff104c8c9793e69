"""The SPMD runtime's one lockstep loop, with abort, retry, respawn and
shrink policies.

:func:`run_spmd_resilient` advances every rank's generator program to
its next collective, checks the ranks agree, combines the buffers and
resumes them.  Under ``abort`` (what :func:`repro.mpi.comm.run_spmd`
runs) the first injected fault propagates as its typed error; the other
policies survive faults instead:

* **retry** — a transiently failing collective is re-attempted in place
  with capped exponential backoff (the failed attempts are metered in
  ``CommStats`` under the ``"retry"`` label and the modeled backoff
  accumulates in :class:`RecoveryLog`); exhaustion surfaces the typed
  :class:`~repro.mpi.faults.TransientCommError`.

* **respawn** — a crashed rank is reconstructed *mid-job*.  The runtime
  keeps the combined value of every completed collective (identical on
  all ranks by definition); a fresh generator for the dead rank is fed
  that history, which — because every rank program is deterministic
  given its collective inputs — replays it to exactly the crash point,
  local state and all.  For ``imm_dist`` this is where the
  counter-addressable RNG pays off: the replayed rank regenerates
  precisely its own sample slice, bit-exact, without touching
  survivors.  Replayed collectives are metered under ``"replay"`` and
  do not advance the fault injector's step counter.

* **shrink** — an irrecoverable rank (crash under the shrink policy, or
  an OOM kill) is dropped: every surviving generator is closed and
  restarted against the caller's shrunken world via the ``on_shrink``
  callback (``imm_dist`` uses it to re-deal the dead rank's sample
  block and resume from its last checkpoint).  Transient failures are
  retried under every policy but ``abort``.

Policy × fault dispatch (anything unlisted propagates):

========== ==================== ==================== ==========
policy     TransientCommError   RankFailedError      OOM kill
========== ==================== ==================== ==========
abort      propagates           propagates           propagates
retry      retried w/ backoff   propagates           propagates
respawn    retried w/ backoff   replayed             propagates
shrink     retried w/ backoff   world shrinks        world shrinks
========== ==================== ==================== ==========
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from .comm import (
    Allreduce,
    Barrier,
    Bcast,
    CollectiveMismatchError,
    CommStats,
    _as_injector,
    _close_quietly,
    _combine,
    _nbytes,
    _validate_step,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    RankFailedError,
    SimulatedOOMError,
    TransientCommError,
)

__all__ = ["run_spmd_resilient", "RecoveryLog", "POLICIES"]

POLICIES = ("abort", "retry", "respawn", "shrink")


@dataclass
class RecoveryLog:
    """What the resilient runtime did to keep the job alive."""

    policy: str
    retries: int = 0
    backoff_seconds: float = 0.0
    respawns: int = 0
    respawned_ranks: list[int] = field(default_factory=list)
    replayed_calls: int = 0
    shrinks: int = 0
    dead_ranks: list[int] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "retries": self.retries,
            "backoff_seconds": self.backoff_seconds,
            "respawns": self.respawns,
            "respawned_ranks": list(self.respawned_ranks),
            "replayed_calls": self.replayed_calls,
            "shrinks": self.shrinks,
            "dead_ranks": list(self.dead_ranks),
            "events": list(self.events),
        }


def _op_nbytes(op: Any) -> int:
    return 0 if isinstance(op, Barrier) else _nbytes(op.data)


def run_spmd_resilient(
    num_ranks: int,
    program: Callable[[int, int], Generator],
    *,
    policy: str = "respawn",
    faults: FaultPlan | FaultInjector | None = None,
    max_retries: int = 3,
    backoff_base: float = 1e-3,
    backoff_cap: float = 0.05,
    stats: CommStats | None = None,
    on_shrink: Callable[[tuple[int, ...], tuple[int, ...]], None] | None = None,
) -> tuple[list[Any], CommStats, RecoveryLog]:
    """Execute ``program(rank, num_ranks)`` on every rank, recovering
    from injected faults according to ``policy``.

    Returns ``(results, stats, recovery_log)``; ``results[r]`` is rank
    ``r``'s return value, or ``None`` for a rank dropped by shrink.
    ``on_shrink(dead, alive)`` is invoked — with the cumulative dead
    tuple and the surviving ranks — after generators are torn down and
    before survivors restart, so the caller can re-deal work and arm a
    resume checkpoint.  ``backoff_base``/``backoff_cap`` shape the
    modeled retry backoff ``min(cap, base * 2^(attempt-1))`` in seconds.
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if stats is None:
        stats = CommStats()
    injector = _as_injector(faults)
    rlog = RecoveryLog(policy=policy)

    alive: list[int] = list(range(num_ranks))
    results: list[Any] = [None] * num_ranks
    gens: dict[int, Generator] = {}
    started: dict[int, bool] = {}
    inbox: dict[int, Any] = {}
    done: dict[int, bool] = {}
    #: combined value of every completed collective — the replay tape,
    #: kept only under respawn (the one policy that reads it).
    history: list[Any] = []

    def _boot_world() -> None:
        for r in alive:
            gens[r] = program(r, num_ranks)
            started[r] = False
            inbox[r] = None
            done[r] = False

    def _advance(r: int) -> Any:
        """Advance rank ``r`` to its next collective; ``None`` = finished."""
        value = inbox[r] if started[r] else None
        started[r] = True
        try:
            return gens[r].send(value)
        except StopIteration as stop:
            results[r] = stop.value
            done[r] = True
            return None

    def _respawn(r: int) -> Any:
        """Rebuild rank ``r`` by replaying the collective history.

        Returns the op the respawned rank yields at the current step —
        which lockstep determinism guarantees exists: the rank crashed
        *while issuing* a collective here, so its replay must reach one.
        """
        _close_quietly(gens[r])
        gen = program(r, num_ranks)
        try:
            op = gen.send(None)
            for past in history:
                stats.record(type(op).__name__.lower(), _op_nbytes(op), label="replay")
                rlog.replayed_calls += 1
                op = gen.send(past)
        except StopIteration:
            raise CollectiveMismatchError(
                f"respawned rank {r} finished during replay — the rank program "
                "is not a deterministic function of its collective inputs"
            ) from None
        gens[r] = gen
        started[r] = True
        rlog.respawns += 1
        rlog.respawned_ranks.append(r)
        rlog.events.append(
            f"respawned rank {r} at step {len(history)} "
            f"(replayed {len(history)} collective(s))"
        )
        return op

    def _shrink(r: int, exc: BaseException) -> None:
        """Drop rank ``r`` and restart the survivors' world."""
        for g in gens.values():
            _close_quietly(g)
        gens.clear()
        alive.remove(r)
        results[r] = None
        rlog.shrinks += 1
        rlog.dead_ranks.append(r)
        rlog.events.append(
            f"rank {r} lost ({type(exc).__name__}); "
            f"shrinking to {len(alive)} rank(s)"
        )
        if not alive:
            raise exc
        if on_shrink is not None:
            on_shrink(tuple(rlog.dead_ranks), tuple(alive))
        _boot_world()

    _boot_world()
    try:
        while True:
            if all(done[r] for r in alive):
                break
            ops: dict[int, Any] = {}
            restarted = False
            for r in list(alive):
                if done[r]:
                    continue
                try:
                    op = _advance(r)
                    if op is not None and injector is not None:
                        injector.check_rank(r, phase=stats.phase)
                except (RankFailedError, SimulatedOOMError) as exc:
                    if policy == "respawn" and isinstance(exc, RankFailedError):
                        op = _respawn(r)
                    elif policy == "shrink":
                        _shrink(r, exc)
                        restarted = True
                        break
                    else:
                        raise
                if op is not None:
                    ops[r] = op
            if restarted:
                continue
            if not ops:
                break  # every surviving rank finished this round
            if any(done[r] for r in alive):
                finished = [r for r in alive if done[r]]
                raise CollectiveMismatchError(
                    f"ranks {finished} returned while ranks {sorted(ops)} wait "
                    "in a collective — a real MPI job would hang here"
                )
            participants = sorted(ops)
            proto = _validate_step([(r, ops[r]) for r in participants], num_ranks)
            attempt = 0
            while injector is not None and injector.transient_failure():
                attempt += 1
                step = injector.step
                if policy == "abort":
                    raise TransientCommError(step, attempt)
                rlog.retries += 1
                rlog.backoff_seconds += min(
                    backoff_cap, backoff_base * 2 ** (attempt - 1)
                )
                stats.record(
                    type(proto).__name__.lower(), _op_nbytes(proto), label="retry"
                )
                rlog.events.append(
                    f"transient failure at step {step} (attempt {attempt})"
                )
                if attempt > max_retries:
                    raise TransientCommError(step, attempt)
            if isinstance(proto, Bcast):
                combined = ops[proto.root].data
                stats.record("bcast", _nbytes(combined))
            elif isinstance(proto, Barrier):
                combined = None
                stats.record("barrier", 0)
            else:
                buffers = [ops[r].data for r in participants]
                if injector is not None and isinstance(proto, Allreduce):
                    buffers = [
                        injector.corrupt_buffer(r, b)
                        for r, b in zip(participants, buffers)
                    ]
                combined = _combine(proto, buffers)
                stats.record(type(proto).__name__.lower(), _nbytes(buffers[0]))
            if policy == "respawn":
                history.append(combined)
            for r in participants:
                inbox[r] = combined
            if injector is not None:
                injector.advance_step()
    finally:
        for g in gens.values():
            _close_quietly(g)
    return results, stats, rlog
