"""Control-plane software substrate.

The daemons here play the role of XORP and Quagga in the paper: real
routing protocol implementations that run *unmodified* on any
:class:`~repro.simnet.node.Stack` -- the uninstrumented baseline, the
DEFINED-RB shim, or the DEFINED-LS lockstep stack.  Per the paper's
instrumentation contract (Section 3) they mark immediate causal
relationships by passing the message being processed as ``parent`` when
sending, and they keep their state in a copy-on-write store so the shim
can checkpoint them (the stand-in for ``fork()``).

* :mod:`repro.routing.ospf` -- link-state routing with reliable flooding
  (hello + LSA + ack + retransmit timers), the protocol of the paper's
  evaluation (XORP OSPF 1.6).
* :mod:`repro.routing.bgp`  -- path-vector decision process;
  :class:`~repro.routing.bgp.BuggyXorpBgp` reproduces the XORP 0.4
  MED-ordering bug of Figure 4.
* :mod:`repro.routing.rip`  -- distance-vector with route expiry timers;
  :class:`~repro.routing.rip.BuggyQuaggaRip` reproduces the Quagga
  0.96.5 timer-refresh black hole of Figure 5.
"""

from repro.routing.base import Daemon
from repro.routing.bgp import BgpDaemon, BgpPath, BuggyXorpBgp, CorrectBgp
from repro.routing.damping import DampedRouteMonitor, FlapDampener
from repro.routing.ospf import OspfDaemon
from repro.routing.rib import RouteEntry, Rib
from repro.routing.rip import BuggyQuaggaRip, CorrectRip, RipDaemon
from repro.routing.spf import dijkstra, expected_distances

__all__ = [
    "BgpDaemon",
    "BgpPath",
    "BuggyQuaggaRip",
    "BuggyXorpBgp",
    "CorrectBgp",
    "CorrectRip",
    "Daemon",
    "DampedRouteMonitor",
    "FlapDampener",
    "OspfDaemon",
    "Rib",
    "RipDaemon",
    "RouteEntry",
    "dijkstra",
    "expected_distances",
]
