"""Unit tests for link delay/jitter/loss models."""

import random

import pytest
from hypothesis import given, strategies as st

from _fixtures import graph_of

from repro.simnet.link import DelayModel, Link
from repro.topology import to_network


class TestDelayModel:
    def test_avg_includes_half_jitter(self):
        assert DelayModel(base_us=1000, jitter_us=400).avg_us == 1200

    def test_zero_jitter_sampling_is_exact(self):
        model = DelayModel(base_us=777, jitter_us=0)
        assert model.sample_us(random.Random(1)) == 777

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**5))
    def test_property_samples_within_bounds(self, base, jitter):
        model = DelayModel(base_us=base, jitter_us=jitter)
        rng = random.Random(42)
        for _ in range(20):
            s = model.sample_us(rng)
            assert base <= s <= base + jitter

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayModel(base_us=-1)
        with pytest.raises(ValueError):
            DelayModel(jitter_us=-1)

    def test_loss_bounds(self):
        with pytest.raises(ValueError):
            DelayModel(loss=1.0)
        with pytest.raises(ValueError):
            DelayModel(loss=-0.1)

    def test_zero_loss_never_drops(self):
        model = DelayModel(loss=0.0)
        rng = random.Random(7)
        assert not any(model.sample_loss(rng) for _ in range(100))

    def test_loss_rate_roughly_matches(self):
        model = DelayModel(loss=0.3)
        rng = random.Random(7)
        drops = sum(model.sample_loss(rng) for _ in range(5000))
        assert 0.25 < drops / 5000 < 0.35


class TestLink:
    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a")

    def test_other_endpoint(self):
        link = Link("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(ValueError):
            link.other("c")

    def test_link_id_is_order_independent(self):
        assert Link("b", "a").link_id == Link("a", "b").link_id

    def test_one_model_serves_both_directions(self):
        model = DelayModel(base_us=300, jitter_us=0)
        net = to_network(graph_of([("a", "b", 300)]), jitter_us=0)
        assert Link("a", "b", model).model is model
        assert net.route("a", "b").model is net.route("b", "a").model

    def test_route_between_non_neighbours_is_refused(self):
        net = to_network(graph_of([("a", "b", 300), ("b", "c", 300)]))
        with pytest.raises(ValueError):
            net.route("a", "c")

    def test_starts_up(self):
        assert Link("a", "b").up
