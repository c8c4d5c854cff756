"""QuantileDigest edge semantics and its merge.

The quantile clamp must test ``is not None``, never truthiness: an
observed extreme of exactly 0.0 is a real bound (latency digests start
at 0), and the empty digest returns a defined sentinel instead of
raising mid-sweep.  Merging two digests equals folding their values
into one, the law every accumulator promises.
"""

import pytest

from repro.engine.aggregate import QuantileDigest


class TestQuantileEdges:
    def test_empty_digest_returns_sentinel(self):
        digest = QuantileDigest(0.0, 10.0, 8)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert digest.quantile(q) == 0.0

    def test_all_values_at_lower_bound_clamp_to_zero(self):
        # the regression the is-not-None clamp fixes: min == 0.0 is
        # falsy, but it is still the observed maximum — interpolation
        # inside the first bin must not leak past it
        digest = QuantileDigest(0.0, 10.0, 4)
        for _ in range(5):
            digest.add(0.0)
        assert digest.min == 0.0 and digest.max == 0.0
        for q in (0.01, 0.5, 0.999):
            assert digest.quantile(q) == 0.0

    def test_saturated_single_bin_reports_observed_extremes(self):
        digest = QuantileDigest(0.0, 100.0, 2)  # 50-wide bins
        digest.add(3.0)
        digest.add(4.0)
        # everything landed in bin 0; estimates clamp to [3, 4], not to
        # interpolated points across the 50-wide bin
        assert 3.0 <= digest.quantile(0.5) <= 4.0
        assert digest.quantile(0.999) <= 4.0

    def test_out_of_range_values_clamp_into_edge_bins(self):
        digest = QuantileDigest(0.0, 10.0, 4)
        digest.add(-5.0)
        digest.add(25.0)
        assert sum(digest.counts) == 2
        assert digest.counts[0] == 1 and digest.counts[-1] == 1
        assert digest.min == -5.0 and digest.max == 25.0
        # estimates stay inside the exact observed range (the clamp
        # narrows interpolated points; it never extends past [lo, hi))
        for q in (0.001, 0.5, 0.999):
            assert digest.min <= digest.quantile(q) <= digest.max

    def test_quantile_monotone_in_q(self):
        digest = QuantileDigest(0.0, 60.0)
        for value in (0.5, 1.0, 2.0, 4.5, 9.0, 30.0, 59.0):
            digest.add(value)
        estimates = [digest.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 0.999)]
        assert estimates == sorted(estimates)
        assert estimates[-1] <= 59.0


class TestDigestMerge:
    def test_merged_digests_equal_direct_fold(self):
        left, right = QuantileDigest(0.0, 10.0), QuantileDigest(0.0, 10.0)
        serial = QuantileDigest(0.0, 10.0)
        for i, value in enumerate((1.0, 2.0, 3.0, 7.0, 8.5, 0.0)):
            (left if i % 2 else right).add(value)
            serial.add(value)
        combined = QuantileDigest(0.0, 10.0)
        combined.merge(left)
        combined.merge(right)
        assert (combined.counts, combined.n, combined.min, combined.max) == (
            serial.counts,
            serial.n,
            serial.min,
            serial.max,
        )
        assert combined.summary() == serial.summary()

    def test_merge_rejects_mismatched_layout(self):
        with pytest.raises(ValueError):
            QuantileDigest(0.0, 10.0, 8).merge(QuantileDigest(0.0, 10.0, 16))
