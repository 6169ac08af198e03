"""Differential tests: cached interned identity tags vs repr rebuild.

Event identity is a computed-once value: payload reprs are canonicalized
and interned at origination, the full ``m|``/``e|``/``t|`` tag is cached
on the history entry, and the per-node delivery logs fold into rolling
digests.  The cached path must be *observably indistinguishable* from
re-rendering every tag from ``repr(payload)`` (:func:`_oracles.rebuilt_tag`,
test code only): same fingerprints (production and replay), same
invariant verdicts, same rollback counts, across the default sweep grid
under both the COW store and the deepcopy oracle.  The fast subset pins
the rollback-heavy fault families in tier-1; the full default grid runs
under the ``slow`` marker (nightly).

Also covered here: adversarial payload reprs (pipes, newlines, nested
tuples, non-ASCII) must round-trip through the tag grammar
(``repro.diff.tags``) identically on the cached and rebuild paths.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import deepcopy_stores, rebuilt_tag, rebuilt_tags

from repro.core.history import HistoryEntry
from repro.diff.tags import parse_tag
from repro.simnet.messages import Annotation, Message
from repro.sweep import SweepCell, default_grid, run_cell


def _run_pair(scenario: str, seed: int, mode: str, stores=nullcontext):
    """The same cell with cached interned tags (the product path) and
    with every tag re-rendered from the live payload (the oracle)."""
    with stores():
        cached = run_cell(SweepCell(scenario, seed, mode))
        with rebuilt_tags():
            rebuild = run_cell(SweepCell(scenario, seed, mode))
    return cached, rebuild


def _assert_identical(cached, rebuild):
    assert cached.error is None, f"cached cell failed: {cached.error}"
    assert rebuild.error is None, f"rebuild cell failed: {rebuild.error}"
    label = (cached.scenario, cached.seed, cached.mode)
    assert cached.fingerprint == rebuild.fingerprint, (
        f"fingerprint split at {label}"
    )
    assert cached.replay_fingerprint == rebuild.replay_fingerprint, (
        f"replay fingerprint split at {label}"
    )
    assert cached.invariant_ok == rebuild.invariant_ok, (
        f"invariant split at {label}"
    )
    assert cached.rollbacks == rebuild.rollbacks, f"rollback split at {label}"
    assert cached.deliveries == rebuild.deliveries, (
        f"delivery-count split at {label}"
    )


class TestFastDifferential:
    """Rollback-heavy representatives, tier-1 speed."""

    @pytest.mark.parametrize(
        "scenario",
        ["flap-storm", "partition", "crash-restart", "latency-jitter"],
    )
    def test_fault_families_identical(self, scenario):
        cached, rebuild = _run_pair(scenario, seed=1, mode="defined")
        _assert_identical(cached, rebuild)
        assert cached.invariant_ok is True  # Theorem 1 held, both paths

    def test_composition_identical(self):
        cached, rebuild = _run_pair(
            "flap-storm+partition", seed=1, mode="defined"
        )
        _assert_identical(cached, rebuild)

    def test_deepcopy_strategy_identical(self):
        cached, rebuild = _run_pair(
            "flap-storm", seed=1, mode="defined", stores=deepcopy_stores
        )
        _assert_identical(cached, rebuild)


@pytest.mark.slow
class TestFullGridDifferential:
    """The whole default sweep grid, under both stores."""

    def test_default_grid_identical(self):
        from repro.sweep import get_scenario

        failures = []
        for scenario in default_grid():
            for mode in get_scenario(scenario).modes:
                if mode == "vanilla":
                    continue  # timing-dependent by design; nothing to pin
                for stores in (nullcontext, deepcopy_stores):
                    cached, rebuild = _run_pair(
                        scenario, seed=1, mode=mode, stores=stores
                    )
                    try:
                        _assert_identical(cached, rebuild)
                    except AssertionError as exc:
                        failures.append(str(exc))
        assert not failures, "\n".join(failures)


# ----------------------------------------------------------------------
# adversarial payload reprs through the tag grammar
# ----------------------------------------------------------------------

#: Payloads whose reprs exercise every delimiter the grammar must
#: survive: field pipes, newlines, the late: prefix, tag-kind prefixes,
#: nesting, non-ASCII.
_adversarial_scalars = st.one_of(
    st.text(min_size=0, max_size=12),
    st.sampled_from([
        "a|b|c", "late:", "m|", "e|", "t|", "\n", "\t", "|", "日本語",
        "naïve", "a\nb|c", "'", '"', "\\", "",
    ]),
    st.integers(-1_000_000, 1_000_000),
    st.booleans(),
    st.none(),
)
_adversarial_payloads = st.recursive(
    _adversarial_scalars,
    lambda children: st.one_of(
        st.tuples(children),
        st.tuples(children, children),
        st.tuples(children, children, children),
        st.frozensets(st.integers(0, 8), max_size=3),
    ),
    max_leaves=8,
)


def _msg_entry(payload) -> HistoryEntry:
    annotation = Annotation(
        origin="r1", seq=7, delay_us=1500, group=3, sub=1, sender="r1"
    )
    msg = Message(
        src="r1", dst="r2", protocol="ospf.lsa", payload=payload,
        annotation=annotation,
    )
    key = (annotation.group, annotation.delay_us, annotation.origin,
           annotation.seq, annotation.sub, 0, annotation.sender)
    return HistoryEntry(kind="msg", key=key, msg=msg, group=annotation.group)


class TestAdversarialPayloadTags:
    @given(payload=_adversarial_payloads)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_cache_agreement(self, payload):
        entry = _msg_entry(payload)
        rebuilt = rebuilt_tag(entry)
        # byte-identical render regardless of interning
        assert rebuilt == entry.render_tag()
        # the cached path serves exactly the rendered tag
        assert entry.tag() == rebuilt
        assert entry.tag() is entry.tag()  # served from cache
        # and the grammar recovers the payload repr exactly, pipes,
        # newlines, non-ASCII and all
        parsed = parse_tag(rebuilt)
        assert parsed.kind == "msg"
        assert parsed.fields["payload"] == repr(payload)
        assert parsed.fields["protocol"] == "ospf.lsa"
        assert parsed.fields["origin"] == "r1"
        assert parsed.fields["seq"] == "7"

    @given(payload=_adversarial_payloads)
    @settings(max_examples=50, deadline=None)
    def test_interned_repr_is_shared_across_messages(self, payload):
        a = _msg_entry(payload).msg
        b = _msg_entry(payload).msg
        assert a.canonical_payload_repr() == b.canonical_payload_repr()
        # sys.intern guarantees one shared string per distinct spelling
        assert a.canonical_payload_repr() is b.canonical_payload_repr()
