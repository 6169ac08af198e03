"""Checkpoint-mechanism benchmarks: COW store vs the deepcopy oracle.

The tentpole claim of the snapshot store is that ``_take_checkpoint`` on
the per-delivery hot path costs O(dirty-since-last-snapshot) instead of
a full state copy.  These benches measure it where it matters -- a
settled flap-storm@40 DEFINED-RB network with populated LSDBs, pending
acks and timer tables -- and pin the acceptance bar: the COW path must
be at least 5x faster than a store that deep-copies the whole state per
checkpoint (the test oracle ``_oracles.DeepcopyStore``; in practice the
gap is 30-100x, and the bar leaves room for slow CI hosts).
"""

import statistics
import time
from contextlib import nullcontext

import pytest

from _bench import emit, settled_defined_network
from _oracles import deepcopy_stores


def _busiest_shim(net):
    return max(
        (node.stack for node in net.nodes.values()),
        key=lambda stack: len(stack.delivery_log),
    )


@pytest.fixture(scope="module")
def settled_networks():
    """One settled flap-storm@40 network per checkpoint store."""
    nets = {}
    for label, stores in (("cow", nullcontext), ("deepcopy", deepcopy_stores)):
        with stores():
            nets[label] = settled_defined_network("flap-storm@40", 1)
    yield nets
    for net, beacons in nets.values():
        beacons.stop()


def test_checkpoint_cow(benchmark, settled_networks):
    shim = _busiest_shim(settled_networks["cow"][0])
    benchmark(shim._take_checkpoint)


def test_checkpoint_deepcopy(benchmark, settled_networks):
    shim = _busiest_shim(settled_networks["deepcopy"][0])
    benchmark(shim._take_checkpoint)


def test_checkpoint_speedup_at_least_5x(settled_networks):
    """The acceptance bar: >=5x on flap-storm@40, measured back to back
    in one process so host speed cancels out."""
    medians = {}
    for label in ("cow", "deepcopy"):
        shim = _busiest_shim(settled_networks[label][0])
        samples = []
        for _ in range(300):
            t0 = time.perf_counter_ns()
            shim._take_checkpoint()
            samples.append(time.perf_counter_ns() - t0)
        medians[label] = statistics.median(samples)
    speedup = medians["deepcopy"] / medians["cow"]
    emit(
        f"_take_checkpoint on flap-storm@40: "
        f"cow {medians['cow'] / 1000:.2f} us, "
        f"deepcopy {medians['deepcopy'] / 1000:.2f} us, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"COW checkpoint only {speedup:.1f}x faster than deepcopy"
    )
