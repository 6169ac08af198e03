"""The supervised executor: deadlines, classified retries, quarantine.

This is how :class:`~repro.sweep.SweepRunner` executes every grid: a
:class:`~repro.sweep_stream.ResultRing` carries result payloads,
windowed future submission does the scheduling, and a supervision loop
runs over both:

* **watchdog**: workers stamp each cell's start on a
  :class:`~repro.supervise.heartbeat.HeartbeatBoard`; the parent polls
  it, confirms an overdue reading across two polls (so a torn slot read
  cannot reap an innocent), SIGKILLs the hung worker, and surfaces the
  cell as ``timed_out``.  A timeout is treated as a *deterministic*
  outcome -- a cell that hangs once will hang again -- so it is never
  retried, and the rest of the grid continues on a replacement pool.
* **classified retries**: failures that are positively environmental
  (see :mod:`repro.supervise.classify`) are re-submitted with bounded
  exponential backoff + deterministic jitter; everything else -- real
  divergences, expectation failures, scenario exceptions -- is final on
  first delivery.  A cell that fails transiently more times than the
  retry budget is **quarantined**: parked with its failure history
  (archived for triage when an artifact directory is configured) so a
  crash-looping cell cannot burn the grid's wall-clock budget.
* **pool generations**: any pool breakage (a reap, an OOM kill, a hard
  crash) ends the current *generation* -- drain the ring, settle every
  in-flight cell (reaped => timed out; otherwise => transient failure),
  then rebuild the pool with a fresh heartbeat board and keep going.
  One hung worker costs one generation, not the grid.

Results that escaped a broken generation still count: the ring is
drained before in-flight cells are settled, and a record always beats a
synthesized failure.  Ring-push failures arrive as
:class:`~repro.sweep_stream.ResultPushError` carrying the worker's
encoded record, so the parent recovers the finished result without
re-executing the cell.

The parent's transport state stays O(window + workers); the per-cell
supervision state is a few integers per cell -- the same order as the
result list the caller is accumulating anyway.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.supervise.classify import TRANSIENT, classify_error
from repro.supervise.heartbeat import HeartbeatBoard
from repro.supervise.journal import archive_quarantine, cell_fingerprint

#: Default retry budget: a cell may be re-executed this many times
#: after transient failures before quarantine.
DEFAULT_RETRIES = 2
#: Backoff ladder: base * 2^(failure-1), capped, then jittered into
#: [0.5x, 1.5x) by a fingerprint-seeded stream.
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: The parent's poll/confirmation cadence.
_POLL_S = 0.05


@dataclass(frozen=True)
class SupervisionPolicy:
    """What the supervised executor enforces.

    ``cell_timeout_s=None`` disables the watchdog (retries still apply);
    ``retries=0`` disables re-execution (the first transient failure
    quarantines).
    """

    cell_timeout_s: Optional[float] = None
    retries: int = DEFAULT_RETRIES

    def __post_init__(self) -> None:
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


def backoff_delay(fingerprint: str, failures: int) -> float:
    """Delay before retry number ``failures`` of one cell.

    Exponential in the consecutive-failure count, capped at
    :data:`BACKOFF_CAP_S`,
    then jittered into ``[0.5x, 1.5x)`` so simultaneous failers do not
    retry in lockstep.  The jitter stream is seeded from the cell's
    content fingerprint and the failure ordinal -- deterministic for a
    given (cell, attempt), per the repo's no-ambient-entropy contract.
    """
    exponential = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** max(failures - 1, 0)))
    rng = random.Random(f"supervise-backoff|{fingerprint}|{failures}")
    return exponential * (0.5 + rng.random())


# ----------------------------------------------------------------------
# worker-process plumbing (module-level so it pickles by reference)
# ----------------------------------------------------------------------

_WORKER_BOARD: Optional[HeartbeatBoard] = None
_WORKER_SLOT: Optional[int] = None


def supervised_worker_init(
    ring_name: str, lock, capacity: int, board_name: str, claim_dir: str
) -> None:
    """Pool initializer: attach the result ring, claim a heartbeat slot.

    Slot claiming must not touch any cross-process lock: pool breakage
    SIGTERMs sibling workers at arbitrary instructions, and a worker
    killed inside a (non-robust) semaphore's critical section poisons it
    for every later pool generation -- the exact hang this layer exists
    to prevent.  Instead each slot is claimed by ``O_CREAT | O_EXCL`` on
    a per-generation lockfile: atomic in the kernel, never blocking, and
    a corpse's claim simply retires its slot for the generation.  Boards
    (and claim directories) are per pool generation, so a replacement
    pool never fights a dead predecessor for slots.
    """
    from repro.sweep_stream import stream_worker_init

    stream_worker_init(ring_name, lock, capacity)
    global _WORKER_BOARD, _WORKER_SLOT
    board = HeartbeatBoard.attach(board_name)
    pid = os.getpid()
    for slot in range(board.slots):
        try:
            fd = os.open(
                os.path.join(claim_dir, f"slot-{slot:04d}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            continue
        try:
            os.write(fd, f"{pid}\n".encode("ascii"))
        finally:
            os.close(fd)
        board.claim(slot, pid)
        _WORKER_BOARD = board
        _WORKER_SLOT = slot
        return
    raise RuntimeError(
        f"no free heartbeat slot on board of {board.slots} (pool oversubscribed?)"
    )


def run_supervised_cell(index: int, cell) -> int:
    """Execute one cell under heartbeat cover and stream its result."""
    from repro.sweep_stream import run_streamed_cell

    assert _WORKER_BOARD is not None and _WORKER_SLOT is not None, (
        "worker not attached to a heartbeat board"
    )
    pid = os.getpid()
    _WORKER_BOARD.begin(_WORKER_SLOT, pid, index)
    try:
        return run_streamed_cell(index, cell)
    finally:
        _WORKER_BOARD.clear(_WORKER_SLOT, pid)


# ----------------------------------------------------------------------
# parent-side supervision loop
# ----------------------------------------------------------------------

@dataclass
class _CellState:
    """Per-cell supervision bookkeeping."""

    attempts: int = 0          # executions submitted so far
    failures: int = 0          # consecutive transient failures
    retry_at: float = 0.0      # monotonic instant the next attempt may start
    errors: List[str] = field(default_factory=list)


def inline_supervised_iter(
    cells: Sequence,
    policy: SupervisionPolicy,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable] = None,
):
    """Single-process supervision: classified retries without a pool.

    Serves ``workers=1`` grids without a deadline (a deadline needs a
    separate process to reap, so the runner promotes those to a pool of
    one).  Semantics match the pooled loop: transient in-cell failures
    retry with backoff, exhaustion quarantines, deterministic outcomes
    are final on first execution.
    """
    from repro.sweep import CellResult, run_cell

    for index, cell in enumerate(cells):
        attempts = 0
        errors: List[str] = []
        while True:
            attempts += 1
            result = run_cell(cell)
            if (
                result.error is not None
                and classify_error(result.error) == TRANSIENT
            ):
                errors.append(result.error)
                if len(errors) > policy.retries:
                    archive_quarantine(
                        artifact_dir or cell.artifact_dir, cell, errors
                    )
                    result = CellResult.for_cell(
                        cell,
                        error=f"quarantined after {len(errors)} consecutive "
                        f"transient failures; last: {result.error}",
                        attempts=attempts,
                        outcome="quarantined",
                    )
                    break
                time.sleep(backoff_delay(cell_fingerprint(cell), len(errors)))
                continue
            result = replace(result, attempts=attempts, outcome="completed")
            break
        if progress is not None:
            progress(result)
        yield index, result


def supervised_iter(
    cells: Sequence,
    *,
    workers: int,
    ctx,
    policy: SupervisionPolicy,
    ring_capacity: int,
    artifact_dir: Optional[str] = None,
    progress: Optional[Callable] = None,
):
    """Run ``cells`` on a supervised worker pool; yield ``(index, result)``.

    Yields in completion order.  Every cell is eventually yielded with
    exactly one of the outcomes ``completed`` (a result arrived, error
    or not), ``timed_out`` (reaped past the deadline), or
    ``quarantined`` (transient retry budget exhausted).
    """
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    from repro.sweep import CellResult
    from repro.sweep_stream import ResultPushError, ResultRing, decode_record

    cells = list(cells)
    if not cells:
        return
    states = [_CellState() for _ in cells]
    done = [False] * len(cells)
    waiting: Set[int] = set()
    outbox: List = []
    window = max(4 * workers, 16)

    def flush():
        while outbox:
            index, result = outbox.pop(0)
            if progress is not None:
                progress(result)
            yield index, result

    def deliver(index: int, result, outcome: str = "completed") -> None:
        if done[index]:
            return
        done[index] = True
        waiting.discard(index)
        outbox.append((
            index,
            replace(
                result,
                attempts=max(states[index].attempts, 1),
                outcome=outcome,
            ),
        ))

    def transient_failure(index: int, error: str) -> None:
        if done[index]:
            return
        state = states[index]
        state.failures += 1
        state.errors.append(error)
        if state.failures > policy.retries:
            archive_quarantine(
                artifact_dir or cells[index].artifact_dir,
                cells[index],
                state.errors,
            )
            deliver(
                index,
                CellResult.for_cell(
                    cells[index],
                    error=f"quarantined after {state.failures} consecutive "
                    f"transient failures; last: {error}",
                ),
                outcome="quarantined",
            )
        else:
            state.retry_at = time.monotonic() + backoff_delay(
                cell_fingerprint(cells[index]), state.failures
            )
            waiting.add(index)

    def settle_reported(index: int, result) -> None:
        """A result actually arrived: final unless its error is transient."""
        if result.error is not None and classify_error(result.error) == TRANSIENT:
            transient_failure(index, result.error)
        else:
            deliver(index, result)

    ring = ResultRing.create(capacity=ring_capacity, lock=ctx.Lock())

    def drain() -> None:
        for raw in ring.pop_all():
            rindex, payload = decode_record(raw)
            if done[rindex]:
                continue
            settle_reported(
                rindex, CellResult.for_cell(cells[rindex], **payload)
            )

    #: Consecutive generations that broke without advancing any cell's
    #: state: a pool that cannot even start (initializer crash, fork
    #: failure) must become a loud error, not an infinite rebuild loop.
    barren_generations = 0

    def _progress_marker() -> tuple:
        return (
            sum(state.attempts for state in states),
            sum(state.failures for state in states),
            sum(done),
        )

    try:
        while not all(done):
            # -- one pool generation --------------------------------------
            before = _progress_marker()
            board = HeartbeatBoard.create(workers)
            claim_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=supervised_worker_init,
                initargs=(
                    ring.name, ring.lock, ring.capacity, board.name, claim_dir
                ),
            )
            pending: Dict = {}          # future -> cell index
            in_flight: Set[int] = set()
            reaped: Dict[int, int] = {}  # cell index -> reaped worker pid
            prev_overdue: Set = set()
            broken: Optional[BaseException] = None
            backlog = deque(
                index
                for index in range(len(cells))
                if not done[index] and index not in waiting
            )
            try:
                while True:
                    now = time.monotonic()
                    for index in sorted(waiting):
                        if states[index].retry_at <= now:
                            waiting.discard(index)
                            backlog.append(index)
                    while broken is None and backlog and len(pending) < window:
                        index = backlog.popleft()
                        if done[index]:
                            continue
                        try:
                            future = pool.submit(
                                run_supervised_cell, index, cells[index]
                            )
                        except Exception as exc:  # pool broke mid-submit
                            broken = exc
                            backlog.appendleft(index)
                            break
                        states[index].attempts += 1
                        pending[future] = index
                        in_flight.add(index)
                    if not pending:
                        drain()
                        yield from flush()
                        if broken is not None or all(done):
                            break
                        if backlog:
                            continue
                        if waiting:
                            next_retry = min(
                                states[index].retry_at for index in waiting
                            )
                            time.sleep(
                                min(
                                    max(next_retry - time.monotonic(), 0.0),
                                    _POLL_S,
                                )
                            )
                            continue
                        break  # pragma: no cover - defensive: no work left
                    finished, _ = wait(list(pending), timeout=_POLL_S)
                    for future in finished:
                        index = pending.pop(future)
                        exc = future.exception()
                        if exc is None:
                            in_flight.discard(index)
                            continue
                        if isinstance(exc, BrokenProcessPool):
                            # the pool broke under this cell -- leave it
                            # in-flight so teardown settles it (after the
                            # drain, so an escaped record still wins)
                            if broken is None:
                                broken = exc
                            continue
                        in_flight.discard(index)
                        if isinstance(exc, ResultPushError):
                            # the cell finished; its record rode the
                            # exception instead of the ring -- recover it
                            try:
                                _idx, payload = decode_record(exc.record)
                            except Exception as decode_exc:
                                transient_failure(
                                    index,
                                    f"{type(exc).__name__}: {exc} "
                                    f"(record undecodable: {decode_exc})",
                                )
                            else:
                                if not done[index]:
                                    settle_reported(
                                        index,
                                        CellResult.for_cell(
                                            cells[index], **payload
                                        ),
                                    )
                            continue
                        text = f"{type(exc).__name__}: {exc}"
                        if classify_error(text) == TRANSIENT:
                            transient_failure(index, text)
                        else:
                            deliver(
                                index,
                                CellResult.for_cell(cells[index], error=text),
                            )
                    drain()
                    yield from flush()
                    if policy.cell_timeout_s is not None and broken is None:
                        overdue = set(board.overdue(policy.cell_timeout_s))
                        # reap only readings stable across two polls: a
                        # torn slot read must not kill an innocent worker
                        for slot, pid, index, start_ns in overdue & prev_overdue:
                            try:
                                os.kill(pid, signal.SIGKILL)
                            except (ProcessLookupError, PermissionError):
                                pass
                            reaped[index] = pid
                            if broken is None:
                                broken = RuntimeError(
                                    f"hung worker pid {pid} reaped "
                                    f"(cell {index} past deadline)"
                                )
                        prev_overdue = overdue
                    if broken is not None:
                        break
            except GeneratorExit:
                ring.close_for_writers()
                pool.shutdown(wait=False, cancel_futures=True)
                board.destroy()
                shutil.rmtree(claim_dir, ignore_errors=True)
                raise
            # -- generation teardown --------------------------------------
            # join workers only when the pool is healthy; after a reap or
            # hard crash the executor's own cleanup handles the corpses
            pool.shutdown(wait=broken is None, cancel_futures=True)
            # records that escaped before the breakage still count, and
            # must win over synthesized outcomes below
            drain()
            # the board knows which in-flight cells were actually
            # *executing* when the generation died: their slots are still
            # stamped (a crashed worker never reaches clear()).  Cells
            # whose futures broke while merely queued are collateral --
            # they go back to the backlog with no failure mark, so a
            # crash-looping neighbour cannot quarantine innocents.
            executing = {entry[2] for entry in board.active()}
            executing.update(reaped)
            for index in sorted(in_flight):
                if done[index]:
                    continue
                pid = reaped.get(index)
                if pid is not None:
                    deliver(
                        index,
                        CellResult.for_cell(
                            cells[index],
                            error=f"cell exceeded the "
                            f"{policy.cell_timeout_s:g}s wall-clock "
                            f"deadline (worker pid {pid} reaped)",
                        ),
                        outcome="timed_out",
                    )
                elif index in executing:
                    transient_failure(
                        index,
                        "worker pool broken while the cell was executing"
                        + (f": {broken}" if broken is not None else ""),
                    )
                # else: queued when the pool broke -- next generation's
                # backlog rebuild resubmits it, penalty-free
            board.destroy()
            shutil.rmtree(claim_dir, ignore_errors=True)
            if broken is not None and _progress_marker() == before:
                barren_generations += 1
                if barren_generations >= 3:
                    for index in range(len(cells)):
                        if not done[index]:
                            deliver(
                                index,
                                CellResult.for_cell(
                                    cells[index],
                                    error="supervised worker pool failed to "
                                    f"start after {barren_generations} "
                                    f"attempts: {broken}",
                                ),
                            )
            else:
                barren_generations = 0
            yield from flush()
    finally:
        ring.destroy()
