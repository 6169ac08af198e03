"""The simulated network: topology, transmission, failures, workloads.

A :class:`Network` ties together the event engine, the links, and the
nodes.  It is deliberately the *only* place where modelled nondeterminism
enters the system: every random draw (link jitter, loss, timer skew) comes
from a named RNG stream derived from the network's ``seed``.  Running the
same workload with two different seeds yields two different "real world"
executions -- different message orderings and timings -- which is the
nondeterminism DEFINED-RB is designed to mask.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.events import (
    ANNOUNCE,
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    EventSchedule,
    ExternalEvent,
)
from repro.simnet.faults import LinkFaultWindow, NetworkTuning
from repro.simnet.link import DelayModel, Link
from repro.simnet.messages import Message
from repro.simnet.node import Node, Stack, VanillaStack
from repro.simnet.stats import RunStats

#: Default virtual-time unit: the paper broadcasts one beacon every 250 ms
#: and advances virtual time by one unit per beacon (Section 3).
DEFAULT_TIME_UNIT_US = 250_000

StackFactory = Callable[[Node], Stack]
DaemonFactory = Callable[[str, Stack], object]


class Route(NamedTuple):
    """What a packet from ``src`` to an adjacent ``dst`` needs, bound once
    per directed pair by :meth:`Network.route`."""

    link: Link
    src: Node
    dst: Node
    model: DelayModel
    #: The direction's jitter/loss stream, ``jitter|<link id>|<src>``.
    jitter: random.Random
    #: ``(link id, src)``: the direction's key in the FIFO clamp.
    fifo_key: Tuple[str, str]


class Network:
    """A simulated network of control-plane nodes.

    Parameters
    ----------
    seed:
        Seed for all modelled-nondeterminism RNG streams.  Two runs with
        the same topology, workload and seed are bit-identical; changing
        the seed changes arrival orderings and timer skews.
    time_unit_us:
        Length of one virtual-time unit (= beacon interval under DEFINED).
    """

    def __init__(self, seed: int = 0, time_unit_us: int = DEFAULT_TIME_UNIT_US) -> None:
        self.sim = Simulator()
        self.seed = seed
        self.time_unit_us = time_unit_us
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[Link]] = {}
        self.run_stats = RunStats()
        self._uid = 0
        self._rng_cache: Dict[str, random.Random] = {}
        self._delay_matrix: Optional[Dict[str, Dict[str, int]]] = None
        #: Per-direction FIFO enforcement: physical links do not reorder
        #: packets, so a later transmission never arrives before an
        #: earlier one on the same (link, direction).  Without this,
        #: i.i.d. per-packet jitter would shuffle back-to-back bursts
        #: (e.g. a database exchange), which no real wire does.
        self._fifo_front: Dict[Tuple[str, str], int] = {}
        #: ``(src, dst) -> Route``, filled by :meth:`route` on first use.
        self._routes: Dict[Tuple[str, str], Route] = {}
        #: Messages annihilated in flight by an anti-message; checked at
        #: delivery time.  Maintained by the DEFINED-RB shims via
        #: :meth:`annihilate`.
        self._annihilated: set = set()
        #: Optional observer invoked for every applied external event.
        #: Production harnesses hook the DEFINED recorder here so topology
        #: facts (which have no single observing daemon) enter the partial
        #: recording.
        self.event_tap = None
        #: Per-node constant clock skew applied to beacon fan-out delays
        #: (chaos DSL ``clock_skew`` fault); empty means no skew anywhere.
        #: Consumed by :class:`repro.core.groups.BeaconService`.
        self.clock_skew_us: Dict[str, int] = {}
        #: Installed link-layer fault windows, in installation order.  The
        #: transmit hot path checks truthiness first, so a network with no
        #: faults draws exactly the same RNG sequence as before the chaos
        #: subsystem existed.
        self._link_faults: Tuple[LinkFaultWindow, ...] = ()
        #: Duplicated uids whose first copy has not arrived yet, and uids
        #: whose surviving copy already arrived (next copy is suppressed).
        self._dup_pending: set = set()
        self._dup_suppress: set = set()
        #: Applied link up/down transitions, in application order, as
        #: ``(time_us, link_id, up)``.  Post-run analyses (the chaos
        #: DSL's route-damping expectation, flap forensics) read this
        #: instead of re-deriving flaps from schedules, so mid-run state
        #: (a link still down at run end) is captured too.
        self.link_transitions: List[Tuple[int, str, bool]] = []
        #: Observability counters for the fault families, keyed by effect.
        self.fault_stats: Dict[str, int] = {
            "duplicated": 0,
            "dup_suppressed": 0,
            "reordered": 0,
            "gray_drops": 0,
        }

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: str) -> Node:
        if node_id in self.nodes:
            raise ValueError(f"duplicate node id {node_id!r}")
        node = Node(node_id, self)
        self.nodes[node_id] = node
        self._adjacency.setdefault(node_id, [])
        return node

    def add_link(
        self,
        a: str,
        b: str,
        model: DelayModel = DelayModel(),
        model_reverse: Optional[DelayModel] = None,
    ) -> Link:
        for end in (a, b):
            if end not in self.nodes:
                raise ValueError(f"unknown node {end!r}")
        key = self._link_key(a, b)
        if key in self.links:
            raise ValueError(f"duplicate link {a}-{b}")
        link = Link(a, b, model, model_reverse)
        self.links[key] = link
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._delay_matrix = None
        return link

    def attach(
        self,
        stack_factory: StackFactory,
        daemon_factory: Optional[DaemonFactory] = None,
    ) -> None:
        """Instantiate a stack (and optionally a daemon) on every node."""
        for node in self.nodes.values():
            node.stack = stack_factory(node)
            if daemon_factory is not None:
                node.daemon = daemon_factory(node.node_id, node.stack)

    def attach_vanilla(
        self,
        daemon_factory: Optional[DaemonFactory] = None,
        timer_jitter_us: int = 20_000,
    ) -> None:
        """Attach the uninstrumented baseline stack everywhere."""
        self.attach(
            lambda node: VanillaStack(node, timer_jitter_us=timer_jitter_us),
            daemon_factory,
        )

    def start(self, stagger_us: int = 0) -> None:
        """Boot every node's stack/daemon (deterministic node-id order).

        ``stagger_us`` optionally spaces the boots out (node index times
        the value).  Caveat for DEFINED-RB networks: the delay-sensitive
        ordering assumes origins transmit at roughly the same time
        (Section 2.2), so staggering boots makes later nodes' boot
        traffic systematically late relative to its d_i estimates and
        multiplies rollbacks.  Keep any spread below one beacon interval
        so all boot traffic stays in group 0.
        """
        for index, node_id in enumerate(sorted(self.nodes)):
            if stagger_us <= 0:
                self.nodes[node_id].start()
            else:
                self.sim.schedule(index * stagger_us, self.nodes[node_id].start)

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def link_between(self, a: str, b: str) -> Optional[Link]:
        return self.links.get(self._link_key(a, b))

    def route(self, src: str, dst: str) -> Route:
        """The :class:`Route` from ``src`` to ``dst``, bound on first use.

        Links, their delay models and the named streams are fixed once
        the topology is built, so every later packet on the pair reuses
        them instead of re-deriving them.  Raises ``ValueError`` when the
        two nodes are not adjacent.
        """
        route = self._routes.get((src, dst))
        if route is None:
            link = self.link_between(src, dst)
            if link is None:
                raise ValueError(f"no link for {src}->{dst}")
            route = self._routes[src, dst] = Route(
                link,
                self.nodes[src],
                self.nodes[dst],
                link.model_for(src),
                self.rng_stream(f"jitter|{link.link_id}|{src}"),
                (link.link_id, src),
            )
        return route

    def live_neighbors(self, node_id: str) -> List[str]:
        """Neighbors reachable over up links to up nodes, sorted."""
        out = []
        for link in self._adjacency.get(node_id, []):
            other = link.other(node_id)
            if link.up and self.nodes[other].up:
                out.append(other)
        return sorted(out)

    def all_neighbors(self, node_id: str) -> List[str]:
        """Neighbors regardless of link state, sorted."""
        return sorted(link.other(node_id) for link in self._adjacency.get(node_id, []))

    def node_ids(self) -> List[str]:
        return sorted(self.nodes)

    # ------------------------------------------------------------------
    # deterministic delay estimates (the paper's measured average delays)
    # ------------------------------------------------------------------
    def avg_link_delay_us(self, src: str, dst: str) -> int:
        return self.route(src, dst).model.avg_us

    def delay_matrix(self) -> Dict[str, Dict[str, int]]:
        """All-pairs shortest path delays over average link delays.

        Used for deterministic beacon propagation schedules and for the
        history-window bound (2x the maximum propagation time,
        Section 2.2).  Computed once and cached; link state changes do not
        invalidate it because the paper fixes delay estimates at launch.
        """
        if self._delay_matrix is None:
            self._delay_matrix = {
                src: self._dijkstra(src) for src in self.nodes
            }
        return self._delay_matrix

    def _dijkstra(self, src: str) -> Dict[str, int]:
        dist = {src: 0}
        heap: List[Tuple[int, str]] = [(0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for link in self._adjacency.get(u, []):
                v = link.other(u)
                nd = d + link.avg_delay_us(u)
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def assert_lossless(self, context: str = "DEFINED-RB") -> None:
        """Fail fast when any link can drop packets.

        Deterministic execution assumes reliable delivery (the paper's
        control planes run over TCP; footnote 4 offers recording losses
        as the alternative, which this reproduction does not implement).
        Silently running an instrumented network over lossy links would
        produce recordings that cannot reproduce the execution.  Gray
        failures (lossy-but-up fault windows from the chaos DSL) are loss
        by another name and are rejected for the same reason.
        """
        for link in self.links.values():
            if link.model_ab.loss > 0 or link.model_ba.loss > 0:
                raise ValueError(
                    f"{context} requires lossless links, but {link.link_id} "
                    f"has a loss model; use loss=0 or an uninstrumented mode"
                )
        for fault in self._link_faults:
            if fault.kind == "gray":
                raise ValueError(
                    f"{context} requires lossless links, but a gray-failure "
                    f"window (loss={fault.loss}) is installed; gray scenarios "
                    f"run in uninstrumented modes only"
                )

    def max_propagation_us(self) -> int:
        """Largest finite all-pairs delay (the network 'diameter' in time)."""
        best = 0
        for row in self.delay_matrix().values():
            for d in row.values():
                if d > best:
                    best = d
        return best

    def max_link_delay_us(self) -> int:
        """Largest average delay of one link direction: the longest any
        :meth:`transmit_deterministic` hop between neighbours takes."""
        return max(
            (max(link.model_ab.avg_us, link.model_ba.avg_us) for link in self.links.values()),
            default=0,
        )

    # ------------------------------------------------------------------
    # declarative perturbations (chaos DSL fault families)
    # ------------------------------------------------------------------
    def install_tuning(self, tuning: Optional[NetworkTuning]) -> None:
        """Install clock skew and link-layer fault windows before the run.

        Validates targets against the built topology: unknown node ids or
        link ids fail loudly here rather than silently perturbing nothing.
        Must be called before :meth:`start` -- fault windows are consulted
        at transmit time, so installing mid-run would perturb only the
        remaining traffic, which is not a scenario the DSL can express.
        """
        if tuning is None or not tuning:
            return
        for node_id, skew in tuning.clock_skew_us:
            if node_id not in self.nodes:
                raise ValueError(
                    f"clock-skew tuning references unknown node {node_id!r}"
                )
            self.clock_skew_us[node_id] = self.clock_skew_us.get(node_id, 0) + skew
        known_links = {link.link_id for link in self.links.values()}
        for fault in tuning.link_faults:
            for link_id in fault.links:
                if link_id not in known_links:
                    raise ValueError(
                        f"{fault.kind} fault window references unknown link "
                        f"{link_id!r}"
                    )
        self._link_faults = self._link_faults + tuple(tuning.link_faults)

    def _fault_transmit(
        self,
        link: Link,
        msg: Message,
        model: DelayModel,
        delay: int,
        extra_delay_us: int,
    ) -> bool:
        """Apply active link-layer fault windows to an outgoing packet.

        Returns True when the packet was fully handled here (gray-dropped
        or rescheduled out of FIFO order); the caller then skips the
        normal FIFO-clamped scheduling.  Duplication schedules the extra
        copy and returns False so the original proceeds normally.  All
        draws come from a dedicated per-(link, direction) stream so a
        scenario with no faults consumes the exact jitter sequence it did
        before this hook existed.
        """
        frng = self.rng_stream(f"fault|{link.link_id}|{msg.src}")
        for fault in self._link_faults:
            if not fault.matches(link.link_id) or not fault.active_at(self.sim.now):
                continue
            if fault.kind == "gray":
                if frng.random() < fault.loss:
                    self.fault_stats["gray_drops"] += 1
                    return True
            elif fault.kind == "reorder":
                if frng.random() < fault.probability:
                    # The packet takes a different path through the
                    # forwarding fabric: it skips the per-direction FIFO
                    # clamp entirely (may overtake or be overtaken) and
                    # picks up an extra uniform delay.
                    extra = (
                        frng.randrange(fault.magnitude_us + 1)
                        if fault.magnitude_us > 0
                        else 0
                    )
                    self.fault_stats["reordered"] += 1
                    self.sim.schedule(delay + extra, self._deliver, msg)
                    return True
            elif fault.kind == "duplicate":
                if frng.random() < fault.probability:
                    # Link-layer duplication beneath a deduplicating
                    # transport (the paper's control planes run over TCP):
                    # the daemon sees the uid once, at the earlier of the
                    # two independently delayed arrivals; the later copy
                    # is suppressed in _deliver and only counted.
                    self.fault_stats["duplicated"] += 1
                    self._dup_pending.add(msg.uid)
                    copy_delay = model.sample_us(frng) + extra_delay_us
                    self.sim.schedule(copy_delay, self._deliver, msg)
        return False

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------
    def rng_stream(self, name: str) -> random.Random:
        """A named, seeded RNG stream.  Stable for a given (seed, name)."""
        if name not in self._rng_cache:
            self._rng_cache[name] = random.Random(f"{self.seed}|{name}")
        return self._rng_cache[name]

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def _stamp(self, msg: Message) -> None:
        """Per-message send accounting: uid, send time, sender counters."""
        if msg.uid < 0:
            msg.uid = self.next_uid()
        msg.sent_at_us = self.sim.now
        stats = self.nodes[msg.src].stats
        if msg.protocol == "_beacon":
            pass  # beacons are constant background, tracked at receivers
        elif msg.is_control:
            stats.control_packets_sent += 1
        else:
            stats.data_packets_sent += 1
        stats.bytes_sent += msg.size_bytes

    def _launch(self, msg: Message, extra_delay_us: int) -> Optional[int]:
        """Stamp ``msg`` and draw its fate on its route: the instant it
        lands, or ``None`` when it is dropped or a fault window took it
        over (gray drop, or a reordered copy scheduled here)."""
        self._stamp(msg)
        link, src_node, dst_node, model, rng, fifo_key = self.route(msg.src, msg.dst)
        if not link.up or not src_node.up or not dst_node.up:
            return None
        if model.sample_loss(rng):
            return None
        delay = model.sample_us(rng) + extra_delay_us
        if self._link_faults and self._fault_transmit(
            link, msg, model, delay, extra_delay_us
        ):
            return None
        arrival = max(self.sim.now + delay, self._fifo_front.get(fifo_key, 0) + 1)
        self._fifo_front[fifo_key] = arrival
        return arrival

    def transmit(self, msg: Message, extra_delay_us: int = 0) -> int:
        """Put ``msg`` on the wire.  Returns the assigned uid.

        ``extra_delay_us`` models sender-side processing latency (e.g. the
        checkpointing overhead charged by DEFINED-RB before a response
        leaves the node); it is added to the sampled link delay.

        The packet is dropped (silently, as in a real network) when the
        link is down, an endpoint is down, or the loss model fires.
        """
        arrival = self._launch(msg, extra_delay_us)
        if arrival is not None:
            self.sim.schedule(arrival - self.sim.now, self._deliver, msg)
        return msg.uid

    def transmit_timed(self, msg: Message) -> Optional[int]:
        """:meth:`transmit`, returning the instant ``msg`` will arrive, or
        ``None`` when it was dropped or a fault window rerouted it."""
        arrival = self._launch(msg, 0)
        if arrival is not None:
            self.sim.schedule(arrival - self.sim.now, self._deliver, msg)
        return arrival

    def account(self, msg: Message) -> Optional[Tuple[int, int]]:
        """Send ``msg`` without an arrival event.

        Everything :meth:`transmit` does happens -- uid, send counters,
        the loss and delay draws on the route's stream, the FIFO front --
        except scheduling the delivery: the engine sequence number that
        event would have had is reserved instead, and ``(arrival, seq)``
        returned, ``None`` when the packet is dropped.  The caller stands
        for the arrival (the receiver's counters included), or hands it
        back to the engine with :meth:`deliver_at`.  On a network with
        link fault windows, which may reorder or duplicate a packet,
        ``msg`` travels as an ordinary packet and ``None`` is returned.
        """
        if self._link_faults:
            self.transmit(msg)
            return None
        arrival = self._launch(msg, 0)
        if arrival is None:
            return None
        return arrival, self.sim.reserve_seq()

    def deliver_at(self, msg: Message, time_us: int, seq: int) -> None:
        """Deliver an :meth:`account`-ed packet at its arrival key after
        all, as the event :meth:`transmit` would have scheduled."""
        self.sim.schedule_reserved(time_us, seq, self._deliver, msg)

    def transmit_deterministic(self, msg: Message, delay_us: int) -> int:
        """Transmit with an exact delay and no loss (anti-messages).

        Bypasses link lookup: used for traffic whose propagation must be
        reproducible, with delays taken from the deterministic average
        link delays or :meth:`delay_matrix`.
        """
        self._stamp(msg)
        self.sim.schedule(delay_us, self._deliver, msg)
        return msg.uid

    def fan_out_deterministic(self, sends: Iterable[Tuple[Message, int]]) -> None:
        """:meth:`transmit_deterministic` for ``(msg, delay_us)`` pairs
        sent at one instant (a beacon tick): one engine event per distinct
        delay, which hands that arrival instant's messages to
        :meth:`_deliver` in ``sends`` order.

        Same execution as one event per message: those events would have
        been scheduled back to back, so each arrival instant's share held
        consecutive sequence numbers -- nothing else could run between
        them, and they ran in ``sends`` order.
        """
        instants: Dict[int, List[Message]] = {}
        for msg, delay_us in sends:
            self._stamp(msg)
            instants.setdefault(delay_us, []).append(msg)
        for delay_us in sorted(instants):
            self.sim.schedule(delay_us, self._deliver_each, instants[delay_us])

    def _deliver_each(self, msgs: List[Message]) -> None:
        for msg in msgs:
            self._deliver(msg)

    def _deliver(self, msg: Message) -> None:
        if msg.uid in self._dup_suppress:
            # Second copy of a duplicated packet: the transport already
            # accepted the first arrival, so this one is dropped before
            # any other bookkeeping (including annihilation, which was
            # settled by the surviving copy).
            self._dup_suppress.discard(msg.uid)
            self.fault_stats["dup_suppressed"] += 1
            return
        if msg.uid in self._dup_pending:
            self._dup_pending.discard(msg.uid)
            self._dup_suppress.add(msg.uid)
        if msg.uid in self._annihilated:
            self._annihilated.discard(msg.uid)
            node = self.nodes.get(msg.dst)
            if node is not None:
                node.stats.annihilated += 1
            return
        node = self.nodes.get(msg.dst)
        if node is not None:
            node.deliver(msg)

    def annihilate(self, uid: int) -> None:
        """Mark an in-flight message as unsent (anti-message caught it in
        transit); it will be dropped at delivery time."""
        self._annihilated.add(uid)

    def forget_annihilated(self, uid: int) -> None:
        self._annihilated.discard(uid)

    # ------------------------------------------------------------------
    # external events
    # ------------------------------------------------------------------
    def schedule_events(self, schedule: EventSchedule) -> None:
        for event in schedule:
            self.sim.schedule_at(event.time_us, self.apply_event, event)

    def apply_event(self, event: ExternalEvent) -> None:
        """Apply an external event *now* and notify observing nodes."""
        if self.event_tap is not None:
            self.event_tap(event)
        if event.kind in (LINK_DOWN, LINK_UP):
            a, b = event.target
            link = self.link_between(a, b)
            if link is None:
                raise ValueError(f"external event references unknown link {event.target}")
            link.up = event.kind == LINK_UP
            # flap history for post-run analysis (e.g. the chaos DSL's
            # route-damping expectations): (time_us, link id, up?)
            self.link_transitions.append((self.sim.now, link.link_id, link.up))
            for end in (a, b):
                self.nodes[end].observe_external(event)
        elif event.kind in (NODE_DOWN, NODE_UP):
            node = self.nodes[event.target]
            if event.kind == NODE_DOWN and node.up and node.stack is not None:
                node.stack.on_crash()
            node.set_up(event.kind == NODE_UP)
            if event.kind == NODE_UP:
                node.start()
            node.observe_external(event)
        elif event.kind == ANNOUNCE:
            self.nodes[event.target].observe_external(event)
        else:  # pragma: no cover - EventSchedule validates kinds
            raise ValueError(f"unknown event kind {event.kind}")

    # ------------------------------------------------------------------
    # execution fingerprints
    # ------------------------------------------------------------------
    def delivery_logs(self) -> Dict[str, Tuple[str, ...]]:
        """Per-node sequences of events delivered to the daemons."""
        out: Dict[str, Tuple[str, ...]] = {}
        for node_id in sorted(self.nodes):
            stack = self.nodes[node_id].stack
            out[node_id] = tuple(stack.delivery_log) if stack is not None else ()
        return out

    def execution_fingerprint(self) -> str:
        """Fingerprint the run from the live per-node logs.

        Equal by construction to ``execution_fingerprint(self.delivery_logs())``
        but feeds the stacks' :class:`~repro.core.fingerprint.DeliveryLog`
        objects straight to the fold, so each node contributes its rolling
        digest instead of re-encoding every entry at run end.
        """
        from repro.core.fingerprint import execution_fingerprint

        logs = {
            node_id: (node.stack.delivery_log if node.stack is not None else ())
            for node_id, node in self.nodes.items()
        }
        return execution_fingerprint(logs)

    def run(self, until_us: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Convenience passthrough to the engine."""
        if until_us is None and max_events is None:
            return self.sim.drain()
        return self.sim.run(until_us=until_us, max_events=max_events)


def build_network(
    topology: Iterable[Tuple[str, str, int]],
    seed: int = 0,
    jitter_us: int = 500,
    loss: float = 0.0,
    time_unit_us: int = DEFAULT_TIME_UNIT_US,
) -> Network:
    """Build a :class:`Network` from ``(a, b, base_delay_us)`` triples.

    A small convenience used by examples and tests; the topology package
    produces richer graphs via :func:`repro.topology.to_network`.
    """
    net = Network(seed=seed, time_unit_us=time_unit_us)
    seen = set()
    for a, b, base_us in topology:
        for end in (a, b):
            if end not in seen:
                net.add_node(end)
                seen.add(end)
        net.add_link(a, b, DelayModel(base_us=base_us, jitter_us=jitter_us, loss=loss))
    return net
