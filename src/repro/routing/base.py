"""The daemon contract: what control-plane software looks like to DEFINED.

A daemon is event-driven, deterministic, and checkpointable:

* **event-driven** -- all activity happens inside ``on_start``,
  ``on_message``, ``on_timer`` and ``on_external`` callbacks, and all
  effects go through the stack API (``send`` / ``set_timer`` /
  ``cancel_timer``).  No wall-clock reads, no OS randomness.
* **deterministic** -- given the same callback sequence, a daemon makes
  the same decisions and sends the same messages.  (Section 2.5: local
  nondeterminism such as thread scheduling is removed separately; our
  daemons are single-threaded by construction, like the instrumented
  XORP/Quagga of Section 4.)
* **checkpointable** -- the complete mutable protocol state lives in
  namespaced sub-stores of ``self.store`` (a
  :class:`~repro.core.statestore.StateStore`).  This is the
  reproduction's stand-in for the paper's ``fork()``-based
  checkpointing.

The causal-marking contract of Section 3 applies: when a send is caused
by the message currently being processed, daemons pass it as ``parent``;
timer- and external-event-triggered sends pass ``parent=None`` and become
*originations* (new causal chains).

**The store contract.**  Every mutation goes through the namespace API
(``ns[key] = value`` / ``del ns[key]``), values are immutable (tuples,
ints, strings, frozen dataclasses), and iteration is in sorted key
order.  In exchange, the DEFINED shims checkpoint the daemon by store
*version* -- O(dirty keys) instead of a full deepcopy per delivered
message (the MI scheme's cost, for real).  The store is the only
checkpoint path: a daemon writes no save or load code of its own, and
:meth:`Daemon.state` is a read-only inspection view over the store
(the debugger's ``inspect``).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from repro.core.statestore import StateStore
from repro.simnet.events import ExternalEvent
from repro.simnet.messages import Message
from repro.simnet.node import Stack


class Daemon(abc.ABC):
    """Base class for routing daemons."""

    def __init__(self, node_id: str, stack: Stack) -> None:
        self.node_id = node_id
        self.stack = stack
        self.store = StateStore()

    # ------------------------------------------------------------------
    # callbacks (driven by the stack)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def on_start(self) -> None:
        """Boot: install initial state, arm timers, send initial traffic."""

    @abc.abstractmethod
    def on_message(self, msg: Message) -> None:
        """A protocol message was delivered."""

    @abc.abstractmethod
    def on_timer(self, key: str) -> None:
        """The named timer fired."""

    def on_external(self, event: ExternalEvent) -> None:
        """An external event (link/node change, external announcement) was
        observed at this node.  Default: ignore."""

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """An independent plain-dict copy of the protocol state.
        Default: the whole store, which is exactly what a rewind restores."""
        return self.store.materialize()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def send(
        self,
        dst: str,
        protocol: str,
        payload: Any,
        parent: Optional[Message] = None,
        size_bytes: int = 64,
    ) -> None:
        self.stack.send(dst, protocol, payload, parent=parent, size_bytes=size_bytes)
