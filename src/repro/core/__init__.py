"""DEFINED: the paper's primary contribution.

Two cooperating subsystems, both layered under unmodified control-plane
daemons through the :class:`~repro.simnet.node.Stack` interface:

* **DEFINED-RB** (:mod:`repro.core.shim`) instruments a *production*
  network: speculative delivery checked against a deterministic ordering
  function, with checkpoint/rollback and anti-messages when the
  speculation misses (Section 2.2 of the paper).
* **DEFINED-LS** (:mod:`repro.core.lockstep`) drives a *debugging*
  network in lockstep phases from a partial recording, reproducing the
  production execution exactly (Theorem 1), with an interactive stepper
  on top (:mod:`repro.core.debugger`).

Supporting pieces: ordering functions (:mod:`repro.core.ordering`),
beacon-driven group numbering (:mod:`repro.core.groups`), virtual-time
timers (:mod:`repro.core.virtual_time`), checkpoint strategies and cost
models (:mod:`repro.core.checkpoint`), partial recordings
(:mod:`repro.core.recorder`), and execution fingerprints
(:mod:`repro.core.fingerprint`).
"""

from repro.core.checkpoint import (
    CheckpointStrategy,
    ForkOnReceive,
    MemoryIntercept,
    PreFork,
    PreForkTouch,
    baseline_processing_model,
    strategy_by_name,
)
from repro.core.debugger import Breakpoint, Debugger
from repro.core.fingerprint import execution_fingerprint
from repro.core.groups import BeaconService
from repro.core.lockstep import LockstepCoordinator, LockstepStack
from repro.core.ordering import (
    OptimizedOrdering,
    OrderingFunction,
    RandomOrdering,
)
from repro.core.history import WindowHeadroomStats
from repro.core.recorder import RecordedEvent, Recorder, Recording
from repro.core.shim import (
    DefinedShim,
    HistoryWindowWarning,
    default_window_us,
)
from repro.core.virtual_time import TimerTable

__all__ = [
    "BeaconService",
    "Breakpoint",
    "CheckpointStrategy",
    "Debugger",
    "DefinedShim",
    "ForkOnReceive",
    "HistoryWindowWarning",
    "LockstepCoordinator",
    "LockstepStack",
    "MemoryIntercept",
    "OptimizedOrdering",
    "OrderingFunction",
    "PreFork",
    "PreForkTouch",
    "RandomOrdering",
    "RecordedEvent",
    "Recorder",
    "Recording",
    "TimerTable",
    "WindowHeadroomStats",
    "baseline_processing_model",
    "default_window_us",
    "execution_fingerprint",
    "strategy_by_name",
]
