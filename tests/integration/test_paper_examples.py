"""Integration tests: the paper's Examples 1-4, asserted end to end.

Each test replays the exact scenario from the paper's text (via the
shared scenario runners) and asserts the claims the paper makes about
it.  These are the reproduction's anchor tests.
"""

import pytest

from repro.experiments.examples import (
    run_example1,
    run_example2,
    run_example3,
    run_example4,
)
from repro.experiments.examples import run_example1_scenario


class TestExample1:
    """Skeen's protocol [16] blocks TR in all three partitions."""

    @pytest.fixture(scope="class")
    def verdict(self):
        return run_example1()

    def test_matches_paper(self, verdict):
        assert verdict.matches_paper

    def test_transaction_blocked(self, verdict):
        assert verdict.outcome == "blocked"

    def test_all_partitions_blocked(self, verdict):
        assert verdict.blocked_in_all_partitions

    def test_x_inaccessible_even_with_read_votes_in_g1(self, verdict):
        """G1 holds r(x)=2 unlocked-able votes, yet x stays locked."""
        assert not verdict.x_readable_in_g1

    def test_y_inaccessible_even_with_write_votes_in_g3(self, verdict):
        assert not verdict.y_writable_in_g3


class TestExample2:
    """3PC's termination protocol terminates TR inconsistently."""

    @pytest.fixture(scope="class")
    def verdict(self):
        return run_example2()

    def test_matches_paper(self, verdict):
        assert verdict.matches_paper

    def test_g2_commits(self, verdict):
        assert verdict.committed_sites == [4, 5]

    def test_g1_and_g3_abort(self, verdict):
        assert verdict.aborted_sites == [2, 3, 6, 7, 8]

    def test_atomicity_violated(self, verdict):
        assert verdict.outcome == "mixed"


class TestExample3:
    """Two coordinators: the PC/PA ignore rules are load-bearing."""

    def test_broken_variant_is_inconsistent(self):
        verdict = run_example3(enforce_ignore_rules=False)
        assert verdict.matches_paper
        assert verdict.outcome == "mixed"

    def test_enforced_variant_is_consistent(self):
        verdict = run_example3(enforce_ignore_rules=True)
        assert verdict.matches_paper
        assert verdict.atomic

    def test_enforced_variant_actually_ignored_something(self):
        """The consistency is *because* a prepare was ignored, not
        because the race never happened."""
        verdict = run_example3(enforce_ignore_rules=True)
        assert verdict.ignored_messages >= 1


class TestExample4:
    """Termination protocol 1 restores availability in G1 and G3."""

    @pytest.fixture(scope="class")
    def verdict(self):
        return run_example4()

    def test_matches_paper(self, verdict):
        assert verdict.matches_paper

    def test_g1_and_g3_aborted(self, verdict):
        assert verdict.g1_aborted and verdict.g3_aborted

    def test_g2_remains_blocked(self, verdict):
        """G2 = {4, 5} has site 5 in PC and no quorum either way."""
        assert verdict.g2_blocked

    def test_x_now_readable_in_g1(self, verdict):
        assert verdict.x_readable_in_g1

    def test_x_still_not_writable_in_g1(self, verdict):
        """Site 1 (one x vote) is down: only 3 of 4 votes exist, but 2
        are in G1 — enough for r(x)=2, short of w(x)=3."""
        assert not verdict.x_writable_in_g1

    def test_y_updatable_in_g3(self, verdict):
        assert verdict.y_writable_in_g3

    def test_scenario_is_atomic(self, verdict):
        assert verdict.outcome in ("abort", "blocked")


class TestScenarioDeterminism:
    def test_same_seed_same_trace_length(self):
        a = run_example1_scenario("qtp1", seed=3)
        b = run_example1_scenario("qtp1", seed=3)
        assert len(a.cluster.tracer) == len(b.cluster.tracer)
        assert a.states() == b.states()

    def test_examples_stable_across_seeds(self):
        """The paper scenarios are failure-deterministic: the seed only
        affects random delays, which FixedDelay does not use."""
        for seed in (0, 1, 99):
            assert run_example4(seed=seed).matches_paper
