"""Property-based tests of the termination rules' safety invariants.

The central theorem (the paper's Lemmas 1-2 in decision-table form):
for any Gifford-legal vote assignment and any two *disjoint* sets of
polled sites (two partitions), the decisions the rules can reach are
never contradictory — one partition able to (try-)commit excludes the
other from (try-)aborting, given the cross-partition invariants the
protocols maintain.
"""

from hypothesis import given, settings, strategies as st

from repro.protocols.base import Decision
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.protocols.states import TxnState
from repro.replication.catalog import CatalogBuilder


@st.composite
def vote_assignments(draw):
    """A single item over n sites with a legal (r, w) pair."""
    n = draw(st.integers(min_value=2, max_value=7))
    votes = {s: draw(st.integers(min_value=1, max_value=3)) for s in range(1, n + 1)}
    v = sum(votes.values())
    w = draw(st.integers(min_value=v // 2 + 1, max_value=v))
    r = draw(st.integers(min_value=v - w + 1, max_value=v))
    catalog = CatalogBuilder().item("x", votes, r=r, w=w).build()
    return catalog


@st.composite
def split_states(draw, catalog):
    """Partition the item's sites into two disjoint groups with states.

    Group A gets states from {W, PC}; group B from {W, PA} — the
    states a run can be in after an interrupted prepare phase plus a
    partial termination round (no decided states, which trigger the
    adopt branches trivially).
    """
    sites = catalog.sites_of("x")
    assignment = draw(st.lists(st.booleans(), min_size=len(sites), max_size=len(sites)))
    group_a = {s for s, in_a in zip(sites, assignment) if in_a}
    group_b = set(sites) - group_a
    states_a = {
        s: draw(st.sampled_from([TxnState.W, TxnState.PC])) for s in group_a
    }
    states_b = {
        s: draw(st.sampled_from([TxnState.W, TxnState.PA])) for s in group_b
    }
    return states_a, states_b


@st.composite
def catalog_and_split(draw):
    catalog = draw(vote_assignments())
    states_a, states_b = draw(split_states(catalog))
    return catalog, states_a, states_b


COMMITTING = (Decision.COMMIT, Decision.TRY_COMMIT)
ABORTING = (Decision.ABORT, Decision.TRY_ABORT)


class TestRule1CrossPartitionSafety:
    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_immediate_commit_excludes_remote_abort_completion(self, data):
        """If one partition can *immediately* commit (w(x) votes already
        in PC), no disjoint partition can complete an abort round: the
        r(x) votes it would need from non-PC sites cannot exist."""
        catalog, states_a, states_b = data
        rule = TerminationRule1()
        if rule.evaluate(["x"], states_a, catalog=catalog) is Decision.COMMIT and states_b:
            # every site of B is outside A's PC set; B's abort round
            # needs r(x) votes from B sites (all non-PC w.r.t. A's quorum)
            assert not rule.abort_round_ok(["x"], set(states_b), catalog=catalog)

    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_abort_completion_excludes_remote_immediate_commit(self, data):
        catalog, states_a, states_b = data
        rule = TerminationRule1()
        if states_b and rule.abort_round_ok(["x"], set(states_b), catalog=catalog):
            # B holds >= r votes, so A holds <= v - r < w votes: A can
            # never have w(x) votes in PC
            pc_a = {s for s, state in states_a.items() if state is TxnState.PC}
            assert catalog.votes("x", pc_a) < catalog.w("x")
            assert rule.evaluate(["x"], states_a, catalog=catalog) is not Decision.COMMIT

    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_two_commit_rounds_cannot_both_complete_disjointly(self, data):
        """w + w > v: two disjoint site sets can never both hold w votes."""
        catalog, states_a, states_b = data
        rule = TerminationRule1()
        both = rule.commit_round_ok(["x"], set(states_a), catalog=catalog) and rule.commit_round_ok(
            ["x"], set(states_b), catalog=catalog
        )
        assert not both


class TestRule2CrossPartitionSafety:
    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_commit_round_excludes_remote_abort_round(self, data):
        """Rule 2: commit round secures r(x) votes; abort round needs
        w(x) votes from the disjoint remainder; r + w > v forbids both."""
        catalog, states_a, states_b = data
        rule = TerminationRule2()
        both = rule.commit_round_ok(["x"], set(states_a), catalog=catalog) and rule.abort_round_ok(
            ["x"], set(states_b), catalog=catalog
        )
        assert not both

    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_immediate_branches_disjoint_partitions_agree(self, data):
        catalog, states_a, states_b = data
        rule = TerminationRule2()
        d_a = rule.evaluate(["x"], states_a, catalog=catalog)
        d_b = rule.evaluate(["x"], states_b, catalog=catalog)
        # immediate decisions (not TRY) in disjoint partitions never conflict
        if d_a is Decision.COMMIT and states_b:
            assert d_b is not Decision.ABORT
        if d_a is Decision.ABORT and states_b:
            assert d_b is not Decision.COMMIT


class TestRuleTotality:
    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_rules_always_return_a_decision(self, data):
        catalog, states_a, __ = data
        for rule in (TerminationRule1(), TerminationRule2()):
            decision = rule.evaluate(["x"], states_a, catalog=catalog)
            assert isinstance(decision, Decision)

    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_rules_are_pure(self, data):
        """Evaluating twice gives the same answer (no hidden state)."""
        catalog, states_a, __ = data
        rule = TerminationRule1()
        first = rule.evaluate(["x"], states_a, catalog=catalog)
        assert first is rule.evaluate(["x"], states_a, catalog=catalog)

    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_commit_state_dominates(self, data):
        """Adding a C site forces COMMIT under both rules (Rule 1 of §2)."""
        catalog, states_a, __ = data
        sites = catalog.sites_of("x")
        states = dict(states_a)
        states[sites[0]] = TxnState.C
        for rule in (TerminationRule1(), TerminationRule2()):
            assert rule.evaluate(["x"], states, catalog=catalog) is Decision.COMMIT
