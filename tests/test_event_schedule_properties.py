"""Property tests pinning the :class:`EventSchedule` ordering invariants.

Scenario composition leans entirely on two algebraic properties of
schedules -- merge must not care about operand order, and merging must
never reorder any single source's events -- plus the boundary-jitter
transform's guarantees.  These are checked across a seed sweep of
randomized schedules rather than on hand-picked examples: the
composition subsystem feeds *generated* schedules through these
operations, so the invariants must hold on arbitrary inputs, not just
tidy ones.
"""

import random

import pytest

from repro.simnet.events import (
    ANNOUNCE,
    LINK_DOWN,
    LINK_UP,
    NODE_DOWN,
    NODE_UP,
    EventSchedule,
    ExternalEvent,
)

SEEDS = range(16)

#: Distinct per-source node namespaces so events from different random
#: schedules can never be equal (frozen-dataclass equality would make
#: subsequence extraction ambiguous).
NAMESPACES = ("alpha", "beta", "gamma")


def random_schedule(seed: int, namespace: str = "alpha", n: int = 12) -> EventSchedule:
    """A randomized schedule over nodes/links private to ``namespace``."""
    rng = random.Random(f"schedule|{namespace}|{seed}")
    nodes = [f"{namespace}{i}" for i in range(4)]
    links = [(nodes[i], nodes[(i + 1) % 4]) for i in range(4)]
    schedule = EventSchedule()
    for _ in range(n):
        t = rng.randrange(0, 20_000_000)
        kind = rng.choice([LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP, ANNOUNCE])
        if kind in (LINK_DOWN, LINK_UP):
            target = links[rng.randrange(len(links))]
        else:
            target = nodes[rng.randrange(len(nodes))]
        schedule.add(ExternalEvent(time_us=t, kind=kind, target=target))
    return schedule


class TestMergeOrderInsensitivity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_binary_merge_commutes_on_delivery_order(self, seed):
        a = random_schedule(seed, "alpha")
        b = random_schedule(seed, "beta")
        assert a.merged(b).sorted() == b.merged(a).sorted()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_associates_and_flattens(self, seed):
        a = random_schedule(seed, "alpha")
        b = random_schedule(seed, "beta")
        c = random_schedule(seed, "gamma")
        assert (
            a.merged(b).merged(c).sorted()
            == a.merged(b, c).sorted()
            == c.merged(a).merged(b).sorted()
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_is_the_union(self, seed):
        a = random_schedule(seed, "alpha")
        b = random_schedule(seed, "beta")
        merged = a.merged(b)
        assert len(merged) == len(a) + len(b)
        assert sorted(merged.events, key=repr) == sorted(
            a.events + b.events, key=repr
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_merge_does_not_alias_operands(self, seed):
        a = random_schedule(seed, "alpha")
        before = list(a.events)
        merged = a.merged(random_schedule(seed, "beta"))
        merged.add(ExternalEvent(time_us=1, kind=NODE_DOWN, target="alpha0"))
        assert a.events == before


class TestMergePreservesPerSourceFifo:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_source_subsequence_survives_merging(self, seed):
        sources = [random_schedule(seed, ns) for ns in NAMESPACES]
        merged = sources[0].merged(*sources[1:])
        delivery = merged.sorted()
        for source in sources:
            owned = set(map(repr, source.events))
            subsequence = [e for e in delivery if repr(e) in owned]
            assert subsequence == source.sorted()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delivery_order_is_time_monotone(self, seed):
        merged = random_schedule(seed, "alpha").merged(
            random_schedule(seed, "beta")
        )
        times = [e.time_us for e in merged.sorted()]
        assert times == sorted(times)


class TestBoundaryJitter:
    BOUNDARY = 250_000

    def spaced_schedule(self, seed: int, n: int = 8) -> EventSchedule:
        """Per-target events at least two boundaries apart, so the
        per-target anti-inversion clamp never engages and the pure
        snap+jitter property can be asserted exactly."""
        rng = random.Random(f"spaced|{seed}")
        schedule = EventSchedule()
        t = 1_000_000
        for i in range(n):
            schedule.add(ExternalEvent(
                time_us=t, kind=NODE_DOWN, target=f"n{i}"
            ))
            t += 2 * self.BOUNDARY + rng.randrange(0, self.BOUNDARY)
        return schedule

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_per_seed(self, seed):
        schedule = random_schedule(seed)
        a = schedule.boundary_jittered(self.BOUNDARY, seed=seed, jitter_us=2)
        b = schedule.boundary_jittered(self.BOUNDARY, seed=seed, jitter_us=2)
        assert a.sorted() == b.sorted()
        c = schedule.boundary_jittered(self.BOUNDARY, seed=seed + 1, jitter_us=2)
        # a different seed produces different jitter (overwhelmingly)
        assert len(a.sorted()) == len(c.sorted())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("jitter_us", [0, 1, 3])
    def test_events_land_within_jitter_of_a_boundary(self, seed, jitter_us):
        jittered = self.spaced_schedule(seed).boundary_jittered(
            self.BOUNDARY, seed=seed, jitter_us=jitter_us
        )
        for event in jittered:
            phase = event.time_us % self.BOUNDARY
            distance = min(phase, self.BOUNDARY - phase)
            assert distance <= jitter_us

    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_target_order_preserved(self, seed):
        schedule = random_schedule(seed, "alpha", n=20)
        jittered = schedule.boundary_jittered(
            self.BOUNDARY, seed=seed, jitter_us=2
        )
        assert len(jittered) == len(schedule)

        def per_target(sched):
            order = {}
            for e in sched.sorted():
                order.setdefault(repr(e.target), []).append((e.kind, repr(e.target)))
            return order

        assert per_target(jittered) == per_target(schedule)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_target_times_stay_strictly_increasing(self, seed):
        # adversarial input: many events on one target inside one group
        schedule = EventSchedule()
        for i in range(6):
            schedule.add(ExternalEvent(
                time_us=4_000_000 + i * 10, kind=LINK_DOWN if i % 2 == 0 else LINK_UP,
                target=("a", "b"),
            ))
        jittered = schedule.boundary_jittered(self.BOUNDARY, seed=seed, jitter_us=1)
        times = [e.time_us for e in jittered]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        kinds = [e.kind for e in jittered]
        assert kinds == [e.kind for e in schedule]

    def test_never_goes_negative(self):
        schedule = EventSchedule()
        schedule.add(ExternalEvent(time_us=5, kind=NODE_DOWN, target="a"))
        jittered = schedule.boundary_jittered(self.BOUNDARY, seed=1, jitter_us=3)
        assert all(e.time_us >= 0 for e in jittered)

    def test_invalid_arguments_rejected(self):
        schedule = EventSchedule()
        with pytest.raises(ValueError):
            schedule.boundary_jittered(0, seed=1)
        with pytest.raises(ValueError):
            schedule.boundary_jittered(self.BOUNDARY, seed=1, jitter_us=-1)
