"""Tests for route-flap damping under virtual time (paper Section 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.routing.damping import (
    DampedRouteMonitor,
    FlapDampener,
)


class TestDampenerBasics:
    def test_single_flap_not_suppressed(self):
        dampener = FlapDampener()
        assert not dampener.flap("p", vt=0)

    def test_burst_suppresses(self):
        dampener = FlapDampener()
        suppressed = [dampener.flap("p", vt=i) for i in range(4)]
        assert suppressed[-1]
        assert dampener.poll("p", vt=4)

    def test_penalty_decays_to_reuse(self):
        dampener = FlapDampener()
        for i in range(4):
            dampener.flap("p", vt=i)
        assert dampener.poll("p", vt=5)
        eta = dampener.reuse_eta_units("p", vt=5)
        assert eta is not None and eta > 0
        assert not dampener.poll("p", vt=5 + eta + 1)

    def test_penalty_capped(self):
        dampener = FlapDampener()
        for i in range(50):
            dampener.flap("p", vt=0)
        assert dampener.penalty("p", vt=0) <= dampener.max_penalty

    def test_unknown_prefix_unsuppressed(self):
        assert not FlapDampener().poll("zz", vt=100)
        assert FlapDampener().penalty("zz", vt=100) == 0
        assert FlapDampener().reuse_eta_units("zz", vt=0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FlapDampener(suppress_threshold=10, reuse_threshold=10)
        with pytest.raises(ValueError):
            FlapDampener(half_life_units=0)

    @given(st.lists(st.integers(0, 200), min_size=1, max_size=40))
    def test_property_determinism(self, vts):
        vts = sorted(vts)
        a, b = FlapDampener(), FlapDampener()
        for vt in vts:
            assert a.flap("p", vt) == b.flap("p", vt)
        assert a.penalty("p", vts[-1]) == b.penalty("p", vts[-1])

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=30))
    def test_property_penalty_never_negative(self, vts):
        dampener = FlapDampener()
        for vt in sorted(vts):
            dampener.flap("p", vt)
            assert dampener.penalty("p", vt) >= 0


class TestHoldDownDuration:
    """The Section 3 property: virtual time progresses at a wall-clock-
    like rate, so hold-down durations are preserved under DEFINED."""

    def drive(self, flap_vts, horizon_vt):
        monitor = DampedRouteMonitor()
        for vt in flap_vts:
            monitor.on_flap("p", vt)
        for vt in range(max(flap_vts) + 1, horizon_vt):
            monitor.check("p", vt)
        return monitor

    def test_hold_down_span_recorded(self):
        monitor = self.drive([0, 1, 2, 3], horizon_vt=120)
        spans = monitor.suppression_spans("p")
        assert len(spans) == 1
        start, end = spans[0]
        assert start == 2  # the third flap crosses the suppress threshold
        assert end - start > 10  # held down for a meaningful period

    def test_hold_down_duration_is_reproducible(self):
        a = self.drive([0, 1, 2, 3], horizon_vt=150)
        b = self.drive([0, 1, 2, 3], horizon_vt=150)
        assert a.suppression_spans("p") == b.suppression_spans("p")

    def test_faster_flapping_holds_longer(self):
        short = self.drive([0, 1, 2, 3], horizon_vt=300)
        long = self.drive([0, 1, 2, 3, 4, 5, 6, 7], horizon_vt=300)
        s_span = short.suppression_spans("p")[0]
        l_span = long.suppression_spans("p")[0]
        assert (l_span[1] - l_span[0]) > (s_span[1] - s_span[0])
