"""Unit tests for checkpoint strategies and their cost models."""

import random

import pytest

from repro.analysis.metrics import median
from repro.core.checkpoint import (
    DEFAULT_PROCESS_BYTES,
    ForkOnReceive,
    MemoryIntercept,
    PreFork,
    PreForkTouch,
    baseline_processing_model,
    strategy_by_name,
)


def draws(fn, n=500, seed=0):
    rng = random.Random(seed)
    return [fn(rng) for _ in range(n)]


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("TF", ForkOnReceive),
            ("FK", ForkOnReceive),
            ("PF", PreFork),
            ("TM", PreForkTouch),
            ("MI", MemoryIntercept),
            ("mi", MemoryIntercept),
        ],
    )
    def test_names(self, name, cls):
        assert isinstance(strategy_by_name(name), cls)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            strategy_by_name("ZZ")


class TestCostOrdering:
    """Figure 7b's ordering: XORP < TM < PF < TF on the fast path."""

    def test_delivery_cost_ordering_matches_figure_7b(self):
        tf = median(draws(ForkOnReceive().delivery_cost_us))
        pf = median(draws(PreFork().delivery_cost_us))
        tm = median(draws(PreForkTouch().delivery_cost_us))
        mi = median(draws(MemoryIntercept().delivery_cost_us))
        assert mi < tm < pf < tf

    def test_total_fast_path_cost_exceeds_baseline(self):
        """What Figure 7b actually plots is baseline + checkpoint delta;
        every instrumented variant must sit right of the XORP line."""
        rng = random.Random(2)
        baseline = median(draws(baseline_processing_model))
        for strategy in (ForkOnReceive(), PreFork(), PreForkTouch(), MemoryIntercept()):
            totals = [
                baseline_processing_model(rng) + strategy.delivery_cost_us(rng)
                for _ in range(300)
            ]
            assert median(totals) > baseline

    def test_rollback_cost_ordering_matches_figure_7a(self):
        """MI rollback ~0.6 ms median; FK in the multi-millisecond range."""
        fk = median(draws(ForkOnReceive().restore_cost_us))
        mi = median(draws(MemoryIntercept().restore_cost_us))
        assert mi < 1_000 < fk
        assert fk / mi > 5

    def test_mi_rollback_median_near_paper_value(self):
        mi = MemoryIntercept()
        rng = random.Random(1)
        # one restore + one replayed entry, as in a depth-1 rollback
        totals = [
            mi.restore_cost_us(rng) + mi.replay_cost_us(rng) for _ in range(500)
        ]
        assert 300 < median(totals) < 1_200  # ~0.6 ms

    def test_costs_are_floored(self):
        rng = random.Random(0)
        for strategy in (ForkOnReceive(), MemoryIntercept()):
            for _ in range(200):
                assert strategy.delivery_cost_us(rng) >= strategy.delivery_floor
                assert strategy.restore_cost_us(rng) >= strategy.restore_floor

    def test_draws_reproducible_per_seed(self):
        assert draws(ForkOnReceive().delivery_cost_us, seed=7) == draws(
            ForkOnReceive().delivery_cost_us, seed=7
        )


class TestMemoryModel:
    def test_virtual_grows_linearly_with_checkpoints(self):
        strategy = ForkOnReceive()
        v1, _ = strategy.memory_bytes(live_checkpoints=1, private_bytes=1000)
        v5, _ = strategy.memory_bytes(live_checkpoints=5, private_bytes=1000)
        assert v5 - v1 == 4 * DEFAULT_PROCESS_BYTES

    def test_physical_inflation_is_small(self):
        """Section 5.2: physical memory inflation under 2% for the run --
        physical pays the measured private bytes only, however many
        checkpoints are live."""
        private = 8 * 200 * 1024  # eight checkpoints' worth of dirty state
        _, physical = ForkOnReceive().memory_bytes(8, private_bytes=private)
        assert physical == DEFAULT_PROCESS_BYTES + private
        assert physical < DEFAULT_PROCESS_BYTES * 1.02

    def test_physical_at_least_process_size(self):
        _, physical = MemoryIntercept().memory_bytes(0, 0)
        assert physical == DEFAULT_PROCESS_BYTES

    def test_vm_exceeds_pm(self):
        strategy = PreFork()
        virtual, physical = strategy.memory_bytes(3, private_bytes=10_000)
        assert virtual > physical
