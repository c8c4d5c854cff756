"""Unit tests for the five termination rules (pure decision tables).

The rules are pure functions over (writeset items, polled states), so
every branch of Fig. 5, Fig. 8, Skeen's rule [16], 3PC's rule [15] and
2PC's cooperative rule is pinned here directly against the paper's
text, using the Fig. 3 database (x at sites 1-4, y at 5-8, one vote
per copy, r=2, w=3).
"""

import pytest

from repro.protocols.base import Decision
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2, votes_by_state
from repro.protocols.skeen import SkeenQuorumRule
from repro.protocols.states import TxnState
from repro.protocols.threepc import ThreePCTerminationRule
from repro.protocols.twopc import CooperativeTerminationRule
from repro.replication.catalog import CatalogBuilder
from repro.common.errors import ConfigurationError

Q, W, PA, PC, A, C = (
    TxnState.Q,
    TxnState.W,
    TxnState.PA,
    TxnState.PC,
    TxnState.A,
    TxnState.C,
)

ITEMS = ["x", "y"]

#: the Fig. 3 database (the ``paper_catalog`` fixture): the QTP rules
#: count votes in the catalog they are handed with each call
FIG3 = (
    CatalogBuilder()
    .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3)
    .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3)
    .build()
)


@pytest.fixture
def rule1():
    return TerminationRule1()


@pytest.fixture
def rule2():
    return TerminationRule2()


class TestVotesByState:
    def test_groups(self):
        groups = votes_by_state({1: W, 2: W, 3: PC})
        assert groups == {W: {1, 2}, PC: {3}}


class TestRule1:
    """Fig. 5, branch by branch."""

    def test_empty_states_block(self, rule1):
        assert rule1.evaluate(ITEMS, {}, catalog=FIG3) is Decision.BLOCK

    def test_commit_on_any_commit_state(self, rule1):
        assert rule1.evaluate(ITEMS, {1: C, 2: W}, catalog=FIG3) is Decision.COMMIT

    def test_commit_on_w_votes_in_pc_for_every_item(self, rule1):
        # w(x)=3 from {1,2,3}, w(y)=3 from {5,6,7} — all in PC
        states = {1: PC, 2: PC, 3: PC, 5: PC, 6: PC, 7: PC}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is Decision.COMMIT

    def test_no_commit_if_only_one_item_covered(self, rule1):
        # w(x) in PC but y has no PC votes: "every data item" fails
        states = {1: PC, 2: PC, 3: PC, 5: W, 6: W, 7: W}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is not Decision.COMMIT

    def test_abort_on_any_abort_state(self, rule1):
        assert rule1.evaluate(ITEMS, {1: A, 2: PC}, catalog=FIG3) is Decision.ABORT

    def test_abort_on_any_initial_state(self, rule1):
        assert rule1.evaluate(ITEMS, {1: Q, 2: W}, catalog=FIG3) is Decision.ABORT

    def test_abort_on_r_votes_in_pa_for_some_item(self, rule1):
        # r(x)=2 from PA sites {1,2}
        states = {1: PA, 2: PA, 3: W}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is Decision.ABORT

    def test_try_commit_needs_pc_witness(self, rule1):
        # votes suffice but nobody is in PC -> not try-commit
        states = {1: W, 2: W, 3: W, 5: W, 6: W, 7: W}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is Decision.TRY_ABORT

    def test_try_commit_on_w_votes_from_non_pa(self, rule1):
        states = {1: PC, 2: W, 3: W, 5: W, 6: W, 7: W}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is Decision.TRY_COMMIT

    def test_pa_votes_do_not_count_toward_commit(self, rule1):
        # site 3 in PA: non-PA x votes = {1,2} = 2 < w(x)=3
        states = {1: PC, 2: W, 3: PA, 5: W, 6: W, 7: W}
        result = rule1.evaluate(ITEMS, states, catalog=FIG3)
        assert result is not Decision.TRY_COMMIT
        # ...but those W sites still allow an abort try via r(x) from non-PC
        assert result is Decision.ABORT or result is Decision.TRY_ABORT

    def test_try_abort_on_r_votes_from_non_pc(self, rule1):
        # G1 of Example 1: sites 2,3 hold r(x)=2 votes, both W
        assert rule1.evaluate(ITEMS, {2: W, 3: W}, catalog=FIG3) is Decision.TRY_ABORT

    def test_g2_of_example1_blocks(self, rule1):
        # site4 (1 x-vote, not in PC) + site5 in PC: no branch fires
        assert rule1.evaluate(ITEMS, {4: W, 5: PC}, catalog=FIG3) is Decision.BLOCK

    def test_commit_round_requires_w_every_item(self, rule1):
        assert rule1.commits(ITEMS, {1, 2, 3, 5, 6, 7}, None, FIG3)
        assert not rule1.commits(ITEMS, {1, 2, 3, 5, 6}, None, FIG3)
        assert not rule1.commits(ITEMS, {1, 2, 5, 6, 7}, None, FIG3)

    def test_abort_round_requires_r_some_item(self, rule1):
        assert rule1.aborts(ITEMS, {2, 3}, None, FIG3)     # r(x)
        assert rule1.aborts(ITEMS, {6, 7}, None, FIG3)     # r(y)
        assert not rule1.aborts(ITEMS, {3, 6}, None, FIG3)  # 1 vote each


class TestRule2:
    """Fig. 8: thresholds swapped relative to Fig. 5."""

    def test_commit_on_r_votes_in_pc_for_some_item(self, rule2):
        states = {1: PC, 2: PC, 3: W}  # r(x)=2 in PC
        assert rule2.evaluate(ITEMS, states, catalog=FIG3) is Decision.COMMIT

    def test_rule1_would_not_commit_there(self, rule1):
        states = {1: PC, 2: PC, 3: W}
        assert rule1.evaluate(ITEMS, states, catalog=FIG3) is not Decision.COMMIT

    def test_abort_needs_w_votes_in_pa_for_every_item(self, rule2):
        # w(x) and w(y) both fully in PA
        states = {1: PA, 2: PA, 3: PA, 5: PA, 6: PA, 7: PA}
        assert rule2.evaluate(ITEMS, states, catalog=FIG3) is Decision.ABORT

    def test_partial_pa_does_not_abort(self, rule2):
        # r(x) votes in PA is enough for rule 1 but not rule 2
        states = {1: PA, 2: PA, 3: W}
        result = rule2.evaluate(ITEMS, states, catalog=FIG3)
        assert result is not Decision.ABORT

    def test_g1_of_example1_blocks_under_rule2(self, rule2):
        # sites 2,3 in W: try-abort needs w votes of EVERY item from
        # non-PC -> x has only 2 < 3 -> block (Example 1 under TP2)
        assert rule2.evaluate(ITEMS, {2: W, 3: W}, catalog=FIG3) is Decision.BLOCK

    def test_try_commit_on_r_votes_from_non_pa(self, rule2):
        states = {1: PC, 2: W}  # r(x)=2 votes from non-PA, PC witness
        assert rule2.evaluate(ITEMS, states, catalog=FIG3) is Decision.TRY_COMMIT

    def test_try_abort_needs_w_every_item(self, rule2):
        states = {1: W, 2: W, 3: W, 5: W, 6: W, 7: W}
        assert rule2.evaluate(ITEMS, states, catalog=FIG3) is Decision.TRY_ABORT

    def test_commit_round_r_some(self, rule2):
        assert rule2.commits(ITEMS, {1, 2}, None, FIG3)
        assert not rule2.commits(ITEMS, {1, 5}, None, FIG3)

    def test_abort_round_w_every(self, rule2):
        assert rule2.aborts(ITEMS, {1, 2, 3, 5, 6, 7}, None, FIG3)
        assert not rule2.aborts(ITEMS, {1, 2, 3}, None, FIG3)

    def test_immediate_abort_on_q(self, rule2):
        assert rule2.evaluate(ITEMS, {1: Q, 2: PC}, catalog=FIG3) is Decision.ABORT

    def test_immediate_commit_on_c(self, rule2):
        assert rule2.evaluate(ITEMS, {1: C}, catalog=FIG3) is Decision.COMMIT


class TestSkeenRule:
    @pytest.fixture
    def rule(self):
        return SkeenQuorumRule(vc=5, va=4, sites=8)

    def test_quorum_constraint_enforced(self):
        with pytest.raises(ConfigurationError, match="must exceed"):
            SkeenQuorumRule(vc=2, va=1, sites=3)

    def test_nonpositive_quorum_rejected(self):
        with pytest.raises(ConfigurationError):
            SkeenQuorumRule(vc=0, va=3, sites=2)

    def test_unattainable_quorum_rejected(self):
        with pytest.raises(ConfigurationError):
            SkeenQuorumRule(vc=5, va=1, sites=2)

    def test_example1_partitions_all_block(self, rule):
        assert rule.evaluate(ITEMS, {2: W, 3: W}) is Decision.BLOCK
        assert rule.evaluate(ITEMS, {4: W, 5: PC}) is Decision.BLOCK
        assert rule.evaluate(ITEMS, {6: W, 7: W, 8: W}) is Decision.BLOCK

    def test_commit_with_vc_in_pc(self, rule):
        states = {s: PC for s in range(1, 6)}  # 5 votes = Vc
        assert rule.evaluate(ITEMS, states) is Decision.COMMIT

    def test_try_abort_with_va_non_pc(self, rule):
        states = {s: W for s in range(1, 5)}  # 4 votes = Va
        assert rule.evaluate(ITEMS, states) is Decision.TRY_ABORT

    def test_try_commit_with_pc_and_vc_potential(self, rule):
        states = {1: PC, 2: W, 3: W, 4: W, 5: W}
        assert rule.evaluate(ITEMS, states) is Decision.TRY_COMMIT

    def test_immediate_abort_paths(self, rule):
        assert rule.evaluate(ITEMS, {1: A, 2: PC}) is Decision.ABORT
        assert rule.evaluate(ITEMS, {1: Q, 2: W}) is Decision.ABORT
        states = {s: PA for s in range(1, 5)}  # Va votes in PA
        assert rule.evaluate(ITEMS, states) is Decision.ABORT

    def test_adaptive_quorums_size_against_the_participants(self):
        rule = SkeenQuorumRule()
        assert rule.quorums([1, 2, 3], None) == (2, 2)
        assert rule.quorums([1, 2, 3, 4], None) == (3, 2)
        assert not rule.aborts(ITEMS, {1}, [1, 2, 3], None)
        assert rule.aborts(ITEMS, {1, 2}, [1, 2, 3], None)
        # no participant set: the hosts of the catalog handed in
        assert rule.quorums(None, FIG3) == (5, 4)

    def test_pinned_quorums_check_a_grown_total(self, rule):
        rule.check_total(8)
        with pytest.raises(ConfigurationError, match="must exceed"):
            rule.check_total(9)
        SkeenQuorumRule().check_total(100)  # adaptive quorums always pass

    def test_rounds_check_site_weights(self, rule):
        assert rule.commits(ITEMS, {1, 2, 3, 4, 5}, None, None)
        assert not rule.commits(ITEMS, {1, 2, 3, 4}, None, None)
        assert rule.aborts(ITEMS, {1, 2, 3, 4}, None, None)
        assert not rule.aborts(ITEMS, {1, 2, 3}, None, None)


class TestThreePCRule:
    @pytest.fixture
    def rule(self):
        return ThreePCTerminationRule()

    def test_commit_on_c(self, rule):
        assert rule.evaluate(ITEMS, {1: C, 2: W}) is Decision.COMMIT

    def test_try_commit_on_pc(self, rule):
        assert rule.evaluate(ITEMS, {1: PC, 2: W}) is Decision.TRY_COMMIT

    def test_abort_when_no_committable(self, rule):
        """The rule the paper's Example 2 exploits: all-W partitions
        abort while a PC partition commits."""
        assert rule.evaluate(ITEMS, {1: W, 2: W}) is Decision.ABORT
        assert rule.evaluate(ITEMS, {1: Q, 2: W}) is Decision.ABORT

    def test_abort_on_a(self, rule):
        assert rule.evaluate(ITEMS, {1: A, 2: W}) is Decision.ABORT

    def test_commit_round_never_blocks(self, rule):
        assert rule.commits(ITEMS, set(), None, None)

    def test_empty_blocks(self, rule):
        assert rule.evaluate(ITEMS, {}) is Decision.BLOCK


class TestCooperativeRule:
    @pytest.fixture
    def rule(self):
        return CooperativeTerminationRule()

    def test_adopts_commit(self, rule):
        assert rule.evaluate(ITEMS, {1: C, 2: W}) is Decision.COMMIT

    def test_adopts_abort(self, rule):
        assert rule.evaluate(ITEMS, {1: A, 2: W}) is Decision.ABORT

    def test_initial_state_aborts(self, rule):
        assert rule.evaluate(ITEMS, {1: Q, 2: W}) is Decision.ABORT

    def test_all_w_blocks(self, rule):
        """2PC's defining weakness (paper §1)."""
        assert rule.evaluate(ITEMS, {1: W, 2: W, 3: W}) is Decision.BLOCK

    def test_empty_blocks(self, rule):
        assert rule.evaluate(ITEMS, {}) is Decision.BLOCK


ALL_RULES = [
    TerminationRule1,
    TerminationRule2,
    PrimaryTerminationRule,
    SkeenQuorumRule,
    ThreePCTerminationRule,
    CooperativeTerminationRule,
]


#: z at sites 1-3 (its primary is site 1) with r(z) = 3 > w(z) = 2: a
#: write quorum need not hold a read quorum
R_OVER_W = CatalogBuilder().replicated_item("z", sites=[1, 2, 3], r=3, w=2).build()


@pytest.mark.parametrize(
    "rule", [TerminationRule1(), TerminationRule2(), PrimaryTerminationRule()], ids=lambda r: r.name
)
def test_admission_is_the_rules_own_commit_predicate(rule):
    for participants in ([1, 2], [2, 3], [1, 2, 3]):
        admitted = rule.admits(["z"], participants, R_OVER_W)
        assert admitted is rule.commits(["z"], set(participants), participants, R_OVER_W)


def test_which_write_quorums_each_rule_admits():
    assert TerminationRule1().admits(["z"], [2, 3], R_OVER_W)  # w(z) is all CP1 needs
    assert not TerminationRule2().admits(["z"], [2, 3], R_OVER_W)  # CP2 needs r(z)
    assert not PrimaryTerminationRule().admits(["z"], [2, 3], R_OVER_W)  # §5: z's primary
    assert PrimaryTerminationRule().admits(["z"], [1, 2], R_OVER_W)


@pytest.mark.parametrize(
    "rule",
    [SkeenQuorumRule(vc=5, va=4), ThreePCTerminationRule(), CooperativeTerminationRule()],
    ids=lambda r: r.name,
)
def test_a_rule_without_data_quorums_admits_every_transaction(rule):
    """Pinned Skeen quorums admit two participants short of ``Vc``:
    the paper's Example 1 is that such a transaction blocks."""
    assert rule.admits(["z"], [2, 3], R_OVER_W)


@pytest.mark.parametrize(
    "rule_class",
    [r for r in ALL_RULES if r is not SkeenQuorumRule],
    ids=lambda c: c.__name__,
)
def test_a_rule_without_a_pinned_total_accepts_any_join(rule_class):
    """Every join calls ``check_total``; only pinned Skeen quorums refuse."""
    assert rule_class().check_total(10**6) is None
