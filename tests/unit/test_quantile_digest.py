"""QuantileDigest edge semantics and the mergeable digest state.

The quantile clamp must test ``is not None``, never truthiness: an
observed extreme of exactly 0.0 is a real bound (latency digests start
at 0), and the empty digest returns a defined sentinel instead of
raising mid-sweep.  The state/from_state surface ships digests inside
result rows; :class:`DigestMergeAcc` folds those states with the exact
merge law every accumulator promises.
"""

import pytest

from repro.engine.aggregate import DigestMergeAcc, QuantileDigest


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


class TestDigestState:
    def test_state_round_trip(self):
        digest = QuantileDigest(0.0, 10.0, 8)
        for value in (0.0, 1.5, 9.9, 3.2):
            digest.add(value)
        rebuilt = QuantileDigest.from_state(digest.state())
        assert rebuilt.state() == digest.state()
        assert rebuilt.quantile(0.99) == digest.quantile(0.99)

    def test_empty_state_round_trip(self):
        digest = QuantileDigest(0.0, 10.0, 8)
        rebuilt = QuantileDigest.from_state(digest.state())
        assert rebuilt.n == 0 and rebuilt.min is None and rebuilt.max is None

    def test_from_state_rejects_wrong_bin_count(self):
        state = QuantileDigest(0.0, 10.0, 8).state()
        state["counts"] = [0] * 4
        with pytest.raises(ValueError):
            QuantileDigest.from_state(state)

    def test_merged_states_equal_direct_fold(self):
        left, right = QuantileDigest(0.0, 10.0), QuantileDigest(0.0, 10.0)
        serial = QuantileDigest(0.0, 10.0)
        for i, value in enumerate((1.0, 2.0, 3.0, 7.0, 8.5, 0.0)):
            (left if i % 2 else right).add(value)
            serial.add(value)
        combined = QuantileDigest(0.0, 10.0)
        combined.merge(QuantileDigest.from_state(left.state()))
        combined.merge(QuantileDigest.from_state(right.state()))
        assert combined.state() == serial.state()

    def test_merge_rejects_mismatched_layout(self):
        with pytest.raises(ValueError):
            QuantileDigest(0.0, 10.0, 8).merge(QuantileDigest(0.0, 10.0, 16))


class TestDigestMergeAcc:
    def _state(self, values, lo=0.0, hi=10.0, bins=8):
        digest = QuantileDigest(lo, hi, bins)
        for value in values:
            digest.add(value)
        return digest.state()

    def test_summary_carries_p999(self):
        acc = DigestMergeAcc(0.0, 10.0, 8)
        acc.add(self._state([1.0, 2.0, 9.0]))
        summary = acc.summary()
        assert summary["kind"] == "digest_merge"
        assert summary["n"] == 3
        assert set(summary) == {"kind", "n", "min", "max", "p50", "p99", "p999"}

    def test_merge_order_invariant(self):
        states = [self._state([float(i), float(i) * 1.5]) for i in range(6)]
        serial = DigestMergeAcc(0.0, 10.0, 8)
        for state in states:
            serial.add(state)
        left, right = DigestMergeAcc(0.0, 10.0, 8), DigestMergeAcc(0.0, 10.0, 8)
        for i, state in enumerate(states):
            (left if i < 3 else right).add(state)
        left.merge(right)
        assert left.summary() == serial.summary()

    def test_fresh_preserves_layout(self):
        acc = DigestMergeAcc(0.0, 60.0, 32)
        acc.add(self._state([5.0], lo=0.0, hi=60.0, bins=32))
        clone = acc.fresh()
        assert clone.summary()["n"] == 0
        assert (clone.digest.lo, clone.digest.hi, clone.digest.bins) == (0.0, 60.0, 32)
