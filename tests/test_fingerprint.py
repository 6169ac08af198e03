"""Unit tests for execution fingerprints."""

from hypothesis import given, settings, strategies as st

from repro.core.fingerprint import DeliveryLog, _node_digest, execution_fingerprint
from repro.diff import diff_logs

logs_strategy = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.tuples(st.text(max_size=5), st.text(max_size=5)).map(tuple),
    max_size=3,
)


class TestFingerprint:
    def test_equal_logs_equal_fingerprint(self):
        logs = {"a": ("x", "y"), "b": ("z",)}
        assert execution_fingerprint(logs) == execution_fingerprint(dict(logs))

    def test_node_order_does_not_matter(self):
        a = {"a": ("x",), "b": ("y",)}
        b = {"b": ("y",), "a": ("x",)}
        assert execution_fingerprint(a) == execution_fingerprint(b)

    def test_entry_order_matters(self):
        assert execution_fingerprint({"a": ("x", "y")}) != execution_fingerprint(
            {"a": ("y", "x")}
        )

    def test_entries_cannot_be_confused_across_nodes(self):
        a = {"a": ("x",), "b": ()}
        b = {"a": (), "b": ("x",)}
        assert execution_fingerprint(a) != execution_fingerprint(b)

    def test_concatenation_ambiguity_avoided(self):
        assert execution_fingerprint({"a": ("xy",)}) != execution_fingerprint(
            {"a": ("x", "y")}
        )

    @given(logs_strategy, logs_strategy)
    def test_property_fingerprint_equality_iff_logs_equal(self, a, b):
        # normalize: missing node vs empty log are the same execution
        na = {k: v for k, v in a.items() if v}
        nb = {k: v for k, v in b.items() if v}
        assert (execution_fingerprint(na) == execution_fingerprint(nb)) == (na == nb)


class TestDivergence:
    def test_identical_logs_no_divergence(self):
        logs = {"a": ("x",)}
        assert diff_logs(logs, dict(logs)) is None

    def test_reports_first_differing_entry(self):
        a = {"n": ("x", "y", "z")}
        b = {"n": ("x", "q", "z")}
        d = diff_logs(a, b)
        assert (d.node, d.step, d.a_tag, d.b_tag) == ("n", 1, "y", "q")

    def test_prefix_divergence_uses_none(self):
        a = {"n": ("x",)}
        b = {"n": ("x", "y")}
        d = diff_logs(a, b)
        assert (d.node, d.step, d.a_tag, d.b_tag) == ("n", 1, None, "y")

    def test_missing_node_treated_as_empty(self):
        a = {"n": ("x",)}
        d = diff_logs(a, {})
        assert (d.node, d.step, d.a_tag, d.b_tag) == ("n", 0, "x", None)

    def test_scans_nodes_in_sorted_order(self):
        a = {"b": ("x",), "a": ("y",)}
        b = {"b": ("q",), "a": ("z",)}
        assert diff_logs(a, b).node == "a"


# tags with multi-byte UTF-8 and with the entry separator inside them
tag_strategy = st.text(
    alphabet=st.sampled_from(["a", "z", "|", "\x01", "\x00", "é", "路", "\U0001f600"]),
    max_size=6,
)

log_ops = st.one_of(
    st.tuples(st.just("append"), tag_strategy),
    # bulk appends that land the log on the fold-chunk boundary
    st.tuples(st.just("fill"), st.sampled_from([4_095, 4_096, 4_097])),
    st.tuples(st.just("truncate"), st.integers(min_value=-5, max_value=4_200)),
    st.tuples(st.just("delete"), st.integers(min_value=-4_200, max_value=4_200)),
    st.tuples(
        st.just("slice"),
        st.tuples(
            st.none() | st.integers(-50, 4_200),
            st.none() | st.integers(-50, 4_200),
            st.sampled_from([None, 1, 2, 3, -1, -2, -7]),
        ),
    ),
    st.tuples(st.just("digest"), st.none()),
)


class TestDeliveryLog:
    """The rolling log against a plain list: entries and digests agree
    after every mutation the shims perform, across fold-chunk boundaries
    and rebases below the fold watermark."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(log_ops, max_size=12))
    def test_matches_a_plain_list_model(self, ops):
        # ``log`` folds after every operation, so every truncation lands
        # below its watermark; ``lazy`` folds only on "digest", so
        # truncations of its unfolded tail are exercised too
        log, lazy, model = DeliveryLog(), DeliveryLog(), []
        for op, arg in ops:
            if op == "append":
                for target in (log, lazy, model):
                    target.append(arg)
            elif op == "fill":
                for i in range(len(model), arg):
                    for target in (log, lazy, model):
                        target.append(f"t{i}\x01é")
            elif op == "truncate":
                for target in (log, lazy, model):
                    del target[arg:]
            elif op == "delete":
                if not -len(model) <= arg < len(model):
                    continue
                for target in (log, lazy, model):
                    del target[arg]
            elif op == "slice":
                for target in (log, lazy, model):
                    del target[slice(*arg)]
            else:
                assert lazy.node_digest() == _node_digest(list(model))
            assert list(log) == list(lazy) == model
            assert log.node_digest() == _node_digest(list(model))
        assert lazy.node_digest() == _node_digest(list(model))

    def test_chunked_fold_feeds_the_per_entry_bytes(self):
        tags = [f"n{i}\x01路" for i in range(4_097)]
        for n in (0, 1, 4_095, 4_096, 4_097):
            log = DeliveryLog(tags[:n])
            assert log.node_digest() == _node_digest(tags[:n])

    def test_a_rebase_refolds_from_the_tags(self):
        log = DeliveryLog(f"t{i}" for i in range(5_000))
        log.node_digest()
        del log[4_096:]
        log.append("late")
        assert log.node_digest() == _node_digest([f"t{i}" for i in range(4_096)] + ["late"])

    def test_a_reversed_slice_rebases_from_its_lowest_index(self):
        tags = [f"t{i}" for i in range(20)]
        log = DeliveryLog(tags[:10])
        log.node_digest()
        for tag in tags[10:]:
            log.append(tag)
        del log[15:5:-1]  # entries 15 .. 6: starts above the watermark, ends below
        del tags[15:5:-1]
        assert log.node_digest() == _node_digest(tags)
