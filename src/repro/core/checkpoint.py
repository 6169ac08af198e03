"""Checkpoint strategies and their cost models (Section 3 and Section 5.2).

The paper's implementation checkpoints XORP/Quagga with ``fork()`` and
evaluates four variants of the non-rollback path (Figure 7b) plus two of
the rollback path (Figure 7a):

* **TF** -- fork when the new packet arrives (the naive scheme);
* **PF** -- *pre-fork* after the previous packet was processed, moving the
  fork into idle cycles (copy-on-write still charges the first write);
* **TM** -- pre-fork plus an overloaded ``malloc()`` that *touches memory*
  on the heap during the pre-fork, pre-paying the copy-on-write faults;
* **MI** -- *memory intercept*: track dirty bytes via
  ``/proc/<pid>/mem`` and copy only what changed (the paper uses this to
  identify the optimal bound; rollback cost drops to ~0.6 ms median).

We cannot fork a real router process, so each strategy is a *cost model*:
a distribution of per-delivery checkpoint cost, per-rollback restore and
replay costs, and a memory-accounting rule (virtual vs physical, Figure
7c).  The distributions are calibrated so the medians and orderings match
the paper's figures; the benches then measure them end-to-end through the
rollback engine, which supplies the workload-dependent variance (rollback
depth, state size).

The checkpointed *content* is exact regardless of strategy: a versioned
snapshot of the daemon state and timer table plus the shim's counters.
Cost-model strategies only differ in what the checkpoint is *charged*.

The checkpoint *mechanism* is one for every run: the node's copy-on-write
:class:`~repro.core.statestore.StateStore`, whose real cost is
O(dirty-bytes) -- the MI scheme's scaling, for real.
:meth:`CheckpointStrategy.memory_bytes` receives the *measured* private
byte count (the store's undo journals) instead of modelling it as a
fraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.core.statestore import StoreVersion

#: Default resident size of a router daemon process (Figure 7c's x-axis
#: starts around 100 MB for unmodified XORP).
DEFAULT_PROCESS_BYTES = 100 * 1024 * 1024


def baseline_processing_model(rng: random.Random) -> int:
    """Per-message processing cost of the *unmodified* daemon.

    This is the "XORP" line in Figure 7b: most packets take well under
    0.2 ms to process: N(80, 40) us, floored at 10 us.
    """
    return int(max(10.0, rng.gauss(80.0, 40.0)))


@dataclass
class Checkpoint:
    """One checkpoint: the node's store version (daemon state and timer
    table) and the shim's origination counters."""

    version: StoreVersion
    counters: Tuple[int, int]


class CheckpointStrategy:
    """Base class: cost/memory models for one checkpointing scheme.

    Subclasses override the class attributes; the draw methods are shared.
    All draws come from the caller's seeded RNG stream so runs stay
    reproducible per seed.
    """

    #: Short name used in figures ("TF", "PF", "TM", "MI").
    name: str = "?"
    #: Per-delivery checkpoint cost (charged on the non-rollback fast path).
    delivery_mu: float = 0.0
    delivery_sigma: float = 0.0
    delivery_floor: float = 0.0
    #: One-off state-restore cost when a rollback fires.
    restore_mu: float = 0.0
    restore_sigma: float = 0.0
    restore_floor: float = 0.0
    #: Per-entry cost of replaying a rolled-back delivery.
    replay_mu: float = 0.0
    replay_sigma: float = 0.0
    replay_floor: float = 0.0

    # every draw is a truncated Gaussian in microseconds: max(floor, N(mu, sigma))
    def delivery_cost_us(self, rng: random.Random) -> int:
        draw = rng.gauss(self.delivery_mu, self.delivery_sigma)
        return int(max(self.delivery_floor, draw))

    def restore_cost_us(self, rng: random.Random) -> int:
        draw = rng.gauss(self.restore_mu, self.restore_sigma)
        return int(max(self.restore_floor, draw))

    def replay_cost_us(self, rng: random.Random) -> int:
        draw = rng.gauss(self.replay_mu, self.replay_sigma)
        return int(max(self.replay_floor, draw))

    def memory_bytes(self, live_checkpoints: int, private_bytes: int) -> Tuple[int, int]:
        """(virtual, physical) memory footprint with ``live_checkpoints``
        outstanding.

        Virtual memory grows linearly with the number of forked processes
        (each maps the whole image); physical memory only pays the pages
        actually written since the fork: ``private_bytes``, the store's
        *measured* private copies (Section 5.2 reports <2% inflation over
        an entire run).
        """
        virtual = DEFAULT_PROCESS_BYTES * (1 + live_checkpoints)
        return virtual, DEFAULT_PROCESS_BYTES + private_bytes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CheckpointStrategy {self.name}>"


class ForkOnReceive(CheckpointStrategy):
    """TF: ``fork()`` synchronously when each packet arrives.

    Also the "FK" rollback line of Figure 7a: restoring means switching to
    the forked child and replaying, which costs milliseconds.
    """

    name = "TF"
    delivery_mu, delivery_sigma, delivery_floor = 400.0, 150.0, 100.0
    restore_mu, restore_sigma, restore_floor = 6_000.0, 2_500.0, 1_500.0
    replay_mu, replay_sigma, replay_floor = 1_800.0, 700.0, 500.0


class PreFork(ForkOnReceive):
    """PF: fork during idle cycles after the previous packet.

    Copy-on-write defers the page copies to the next packet's writes, so
    the fast path improves but does not reach the baseline.
    """

    name = "PF"
    delivery_mu, delivery_sigma, delivery_floor = 220.0, 80.0, 60.0


class PreForkTouch(PreFork):
    """TM: pre-fork plus touching heap pages during the idle fork,
    pre-paying the copy-on-write faults (the overloaded ``malloc()``
    heuristic of Section 5.2)."""

    name = "TM"
    delivery_mu, delivery_sigma, delivery_floor = 130.0, 50.0, 30.0


class MemoryIntercept(CheckpointStrategy):
    """MI: intercept memory writes and copy only changed bytes.

    The paper implements this with ``/proc/<pid>/mem`` to identify the
    optimal rollback bound; the median rollback cost drops to ~0.6 ms.
    """

    name = "MI"
    delivery_mu, delivery_sigma, delivery_floor = 60.0, 20.0, 15.0
    restore_mu, restore_sigma, restore_floor = 450.0, 150.0, 200.0
    replay_mu, replay_sigma, replay_floor = 70.0, 30.0, 20.0


_STRATEGIES = {
    cls.name: cls for cls in (ForkOnReceive, PreFork, PreForkTouch, MemoryIntercept)
}
_STRATEGIES["FK"] = ForkOnReceive  # Figure 7a's name for the fork scheme


def strategy_by_name(name: str) -> CheckpointStrategy:
    """Factory used by the benchmark harness ("TF"/"FK"/"PF"/"TM"/"MI")."""
    try:
        return _STRATEGIES[name.upper()]()
    except KeyError:
        raise ValueError(
            f"unknown checkpoint strategy {name!r}; "
            f"expected one of {sorted(_STRATEGIES)}"
        ) from None
