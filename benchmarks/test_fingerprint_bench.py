"""Fingerprint-pipeline benchmarks: cached interned tags vs repr rebuild.

Event identity is computed once: the payload repr is canonicalized and
interned at origination, the full identity tag is cached on the history
entry, and the per-node delivery logs fold into rolling digests.  This
bench measures the per-delivery tag + digest cost over a settled
flap-storm@40 history and pins the acceptance bar: the cached path must
be at least 2x faster per delivery than rebuilding ``repr(payload)`` on
every call (the test oracle ``_oracles.rebuilt_tag``; in practice ~3-4x,
and the bar leaves room for slow CI hosts).  Both paths must agree on
the fingerprint bit-for-bit -- the differential grid
(tests/test_fingerprint_differential.py) pins the same equality across
whole cells.
"""

import statistics
import time

from _bench import emit, settled_defined_network
from _oracles import rebuilt_tag

from repro.core.fingerprint import DeliveryLog, execution_fingerprint


def test_fingerprint_tag_cache_speedup_at_least_2x():
    """The acceptance bar: >=2x per-delivery, measured back to back in
    one process so host speed cancels out."""
    # a handful of flap cycles leaves ~500 retained deliveries with real
    # LSA payloads, enough to amortize the per-node combine overhead out
    # of the per-delivery number
    net, beacons = settled_defined_network("flap-storm@40", 1, warm_events=12)
    beacons.stop()
    entries = {
        node_id: list(node.stack.history.entries)
        for node_id, node in net.nodes.items()
    }
    deliveries = sum(len(node_entries) for node_entries in entries.values())

    def cached_pass() -> str:
        logs = {}
        for node_id, node_entries in entries.items():
            log = DeliveryLog()
            for entry in node_entries:
                log.append(entry.tag())
            logs[node_id] = log
        return execution_fingerprint(logs)

    def rebuild_pass() -> str:
        return execution_fingerprint({
            node_id: [rebuilt_tag(entry) for entry in node_entries]
            for node_id, node_entries in entries.items()
        })

    cached_pass()  # warm every cached tag before timing
    fingerprints, per_delivery_us = {}, {}
    for label, passer in (("cached", cached_pass), ("rebuild", rebuild_pass)):
        samples = []
        for _ in range(20):
            t0 = time.perf_counter_ns()
            fingerprints[label] = passer()
            samples.append(time.perf_counter_ns() - t0)
        per_delivery_us[label] = statistics.median(samples) / 1000 / max(deliveries, 1)
    speedup = per_delivery_us["rebuild"] / per_delivery_us["cached"]
    emit(
        f"fingerprint on flap-storm@40 ({deliveries} deliveries): "
        f"cached {per_delivery_us['cached']:.3f} us/delivery, "
        f"rebuild {per_delivery_us['rebuild']:.3f} us/delivery, "
        f"speedup {speedup:.1f}x"
    )
    assert fingerprints["cached"] == fingerprints["rebuild"], (
        "cached and rebuild passes disagree on the fingerprint"
    )
    assert speedup >= 2.0, (
        f"cached tags only {speedup:.1f}x faster than repr rebuild"
    )
