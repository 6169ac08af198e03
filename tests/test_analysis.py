"""Unit tests for metrics and report rendering."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.metrics import Cdf, dominates, mean, median, percentile
from repro.analysis.report import ascii_cdf, render_series, render_table

samples = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=100,
)


class TestScalars:
    def test_mean(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0

    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_percentile_bounds(self):
        assert percentile([5, 10], 0) == 5
        assert percentile([5, 10], 100) == 10
        assert percentile([5, 10], 50) == 7.5

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(samples, st.floats(min_value=0, max_value=100))
    def test_property_percentile_within_range(self, xs, q):
        p = percentile(xs, q)
        assert min(xs) <= p <= max(xs)

    @given(samples)
    @example([0.0, 1.0, 1.0, 5.701364072292907e-309, 5.701364072292907e-309,
              5.701364072292907e-309])
    def test_property_percentiles_monotone(self, xs):
        ps = [percentile(xs, q) for q in (0, 25, 50, 75, 100)]
        assert ps == sorted(ps)


class TestCdf:
    def test_requires_samples(self):
        with pytest.raises(ValueError):
            Cdf.of([])

    def test_at_fraction(self):
        cdf = Cdf.of([1, 2, 3, 4])
        assert cdf.at(0) == 0.0
        assert cdf.at(2) == 0.5
        assert cdf.at(10) == 1.0

    def test_quantiles(self):
        cdf = Cdf.of(range(101))
        assert cdf.quantile(0.5) == 50
        assert cdf.median() == 50

    def test_points_are_monotone(self):
        cdf = Cdf.of([5, 1, 9, 3, 7])
        pts = cdf.points(n=8)
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        assert xs == sorted(xs) and ys == sorted(ys)
        with pytest.raises(ValueError):
            cdf.points(n=1)

    def test_tail_beyond(self):
        cdf = Cdf.of([1, 2, 3, 4])
        assert cdf.tail_beyond(3) == pytest.approx(0.25)

    def test_summary_mentions_stats(self):
        text = Cdf.of([1, 2, 3]).summary()
        assert "p50=2" in text and "n=3" in text

    @given(samples)
    def test_property_at_is_a_cdf(self, xs):
        cdf = Cdf.of(xs)
        probes = sorted([min(xs) - 1, max(xs) + 1] + xs[:10])
        values = [cdf.at(p) for p in probes]
        assert values == sorted(values)
        assert values[0] == 0.0 or min(xs) - 1 >= min(xs)
        assert values[-1] == 1.0

    def test_dominates(self):
        fast = Cdf.of([1, 2, 3])
        slow = Cdf.of([10, 20, 30])
        assert dominates(fast, slow)
        assert not dominates(slow, fast)


class TestRendering:
    def test_table_alignment_and_content(self):
        text = render_table("T", ["col", "value"], [["a", 1.5], ["bb", 2]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2] and "a" in text and "1.5" in text

    def test_series_layout(self):
        text = render_series(
            "S", "n", [10, 20], {"OO": [1.0, 2.0], "RO": [3.0, 4.0]}
        )
        assert "OO" in text and "RO" in text
        assert text.splitlines()[-1].startswith("20")

    def test_ascii_cdf_contains_markers_and_summaries(self):
        art = ascii_cdf("Fig", {"x": Cdf.of([1, 2, 3]), "y": Cdf.of([2, 4, 8])})
        assert "Fig" in art
        assert "[*] x" in art and "[o] y" in art
        assert "p50" in art

    def test_ascii_cdf_handles_constant_distribution(self):
        art = ascii_cdf("Fig", {"x": Cdf.of([5, 5, 5])})
        assert "p50=5" in art
