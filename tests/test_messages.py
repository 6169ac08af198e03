"""Unit tests for messages and causal annotations."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.simnet.messages import Annotation, Message, Unsend


def ann(**kw):
    defaults = dict(origin="w", seq=1, delay_us=100, group=0, chain=0, sub=0)
    defaults.update(kw)
    return Annotation(**defaults)


class TestAnnotation:
    def test_sort_key_orders_by_group_first(self):
        early = ann(group=0, delay_us=10**9)
        late = ann(group=1, delay_us=1)
        assert early.sort_key() < late.sort_key()

    def test_sort_key_orders_by_delay_within_group(self):
        assert ann(delay_us=100).sort_key() < ann(delay_us=200).sort_key()

    def test_sort_key_orders_by_origin_then_seq(self):
        assert ann(origin="a", seq=9).sort_key() < ann(origin="b", seq=1).sort_key()
        assert ann(seq=1).sort_key() < ann(seq=2).sort_key()

    def test_extended_accumulates_delay(self):
        parent = ann(delay_us=100)
        child = parent.extended(link_delay_us=50, sub=3, over_chain_bound=False)
        assert child.delay_us == 150
        assert child.origin == parent.origin
        assert child.seq == parent.seq
        assert child.sub == 3
        assert child.chain == parent.chain + 1
        assert child.group == parent.group

    def test_extended_over_chain_bound_moves_to_next_group(self):
        parent = ann(group=5, chain=8)
        child = parent.extended(link_delay_us=50, sub=1, over_chain_bound=True)
        assert child.group == 6
        assert child.chain == 0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ann().origin = "x"  # type: ignore[misc]

    def test_repr_names_every_field(self):
        assert repr(ann(sender="v")) == (
            "Annotation(origin='w', seq=1, delay_us=100, group=0, chain=0, "
            "sub=0, sender='v')"
        )

    def test_equality_and_hash_go_by_field_values(self):
        assert ann(seq=4) == ann(seq=4)
        assert hash(ann(seq=4)) == hash(ann(seq=4))
        assert ann(seq=4) != ann(seq=5)
        assert ann(sender="a") != ann(sender="b")
        assert len({ann(), ann(), ann(sub=1)}) == 2

    def test_survives_pickle(self):
        """Sweep workers send back results built from annotations."""
        a = ann(chain=3, sub=2, sender="v")
        b = pickle.loads(pickle.dumps(a))
        assert b == a and type(b) is Annotation and b.sort_key() == a.sort_key()

    @given(
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=20),
    )
    def test_property_chain_extension_is_monotone_in_delay(self, chain, link, steps):
        a = ann(chain=chain)
        for i in range(steps):
            b = a.extended(link_delay_us=link, sub=i, over_chain_bound=False)
            assert b.delay_us > a.delay_us
            assert b.sort_key() > a.sort_key()  # same group, larger d
            a = b


class TestMessage:
    def test_control_detection(self):
        assert Message(src="a", dst="b", protocol="_beacon", payload=1).is_control
        assert Message(src="a", dst="b", protocol="_unsend", payload=1).is_control
        assert not Message(src="a", dst="b", protocol="ospf_lsa", payload=1).is_control

    def test_with_annotation_returns_copy(self):
        msg = Message(src="a", dst="b", protocol="p", payload=1)
        tagged = msg.with_annotation(ann())
        assert tagged.annotation is not None
        assert msg.annotation is None

    def test_describe_mentions_annotation_fields(self):
        msg = Message(src="a", dst="b", protocol="p", payload=1, annotation=ann())
        text = msg.describe()
        assert "g=0" in text and "n=w" in text


class TestUnsend:
    def test_of_sorts_and_deduplicates(self):
        u = Unsend.of((5, 3, 5, 1))
        assert u.uids == (1, 3, 5)

    def test_constructor_trusts_canonical_input(self):
        # canonicalization happens once at origination (the rollback
        # planners emit sorted, unique uids); the constructor itself is
        # hot-path cheap and does not re-sort
        u = Unsend(uids=(1, 3, 5))
        assert u.uids == (1, 3, 5)

    def test_empty_allowed(self):
        assert Unsend().uids == ()
        assert Unsend.of(()).uids == ()
