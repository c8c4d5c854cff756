"""Property-based tests of the termination rules' safety invariants.

The central theorem (the paper's Lemmas 1-2 in decision-table form):
for any Gifford-legal vote assignment and any two *disjoint* sets of
polled sites (two partitions), the decisions the rules can reach are
never contradictory — one partition able to (try-)commit excludes the
other from (try-)aborting, given the cross-partition invariants the
protocols maintain.  The same holds for the §5 primary-copy rule and
Skeen's site-quorum rule: Fig. 5's one table over their predicate
pairs, whose only premise is that two disjoint site sets never hold
the commit and the abort access right at once.
"""

from hypothesis import given, settings, strategies as st

from repro.protocols.base import Decision
from repro.protocols.qtp.generalized import PrimaryTerminationRule
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.protocols.skeen import SkeenQuorumRule
from repro.protocols.states import TxnState
from repro.replication.catalog import CatalogBuilder


@st.composite
def vote_assignments(draw):
    """A single item over n sites with a legal (r, w) pair and a primary."""
    n = draw(st.integers(min_value=2, max_value=7))
    votes = {s: draw(st.integers(min_value=1, max_value=3)) for s in range(1, n + 1)}
    v = sum(votes.values())
    w = draw(st.integers(min_value=v // 2 + 1, max_value=v))
    r = draw(st.integers(min_value=v - w + 1, max_value=v))
    primary = draw(st.sampled_from(sorted(votes)))
    catalog = CatalogBuilder().item("x", votes, r=r, w=w, primary=primary).build()
    return catalog


@st.composite
def split_states(draw, sites):
    """Partition ``sites`` into two disjoint groups with states.

    Group A gets states from {W, PC}; group B from {W, PA} — the
    states a run can be in after an interrupted prepare phase plus a
    partial termination round (no decided states, which trigger the
    adopt branches trivially).
    """
    sites = list(sites)
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
    states_a, states_b = draw(split_states(catalog.sites_of("x")))
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
            assert not rule.aborts(["x"], set(states_b), None, catalog)

    @given(catalog_and_split())
    @settings(max_examples=300, deadline=None)
    def test_abort_completion_excludes_remote_immediate_commit(self, data):
        catalog, states_a, states_b = data
        rule = TerminationRule1()
        if states_b and rule.aborts(["x"], set(states_b), None, catalog):
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
        both = rule.commits(["x"], set(states_a), None, catalog) and rule.commits(
            ["x"], set(states_b), None, catalog
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
        both = rule.commits(["x"], set(states_a), None, catalog) and rule.aborts(
            ["x"], set(states_b), None, catalog
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


@st.composite
def primary_split(draw):
    """1-3 items over sites 1..n, each with its own hosts and primary,
    and the sites split into two disjoint groups with states as in
    :func:`split_states`."""
    n = draw(st.integers(min_value=2, max_value=7))
    builder = CatalogBuilder()
    items = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        hosts = draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1))
        builder.replicated_item(f"i{index}", hosts, primary=draw(st.sampled_from(sorted(hosts))))
        items.append(f"i{index}")
    return (builder.build(), items, *draw(split_states(range(1, n + 1))))


@st.composite
def skeen_split(draw):
    """Skeen's rule over participants 1..n — adaptive, or pinned at a
    legal (Vc, Va) — and the participants split as in
    :func:`split_states`."""
    n = draw(st.integers(min_value=1, max_value=8))
    if draw(st.booleans()):
        rule = SkeenQuorumRule()
    else:
        vc = draw(st.integers(min_value=1, max_value=n))
        va = draw(st.integers(min_value=max(1, n + 1 - vc), max_value=n))
        rule = SkeenQuorumRule(vc, va, sites=n)
    return (rule, list(range(1, n + 1)), *draw(split_states(range(1, n + 1))))


def assert_disjoint_sets_never_both_decide(
    rule, items, states_a, states_b, participants=None, catalog=None
):
    """Neither side can hold the commit right while the other holds
    the abort right, and immediate decisions never conflict."""
    a, b = set(states_a), set(states_b)
    for one, other in ((a, b), (b, a)):
        assert not (
            rule.commits(items, one, participants, catalog)
            and rule.aborts(items, other, participants, catalog)
        )
    d_a = rule.evaluate(items, states_a, participants, catalog)
    d_b = rule.evaluate(items, states_b, participants, catalog)
    if d_a is Decision.COMMIT and states_b:
        assert d_b is not Decision.ABORT
        assert not rule.aborts(items, b, participants, catalog)
    if d_b is Decision.ABORT and states_a:
        assert d_a is not Decision.COMMIT


class TestPrimaryCrossPartitionSafety:
    @given(primary_split())
    @settings(max_examples=300, deadline=None)
    def test_disjoint_partitions_never_commit_and_abort(self, data):
        """A primary sits in at most one of two disjoint partitions."""
        catalog, items, states_a, states_b = data
        assert_disjoint_sets_never_both_decide(
            PrimaryTerminationRule(), items, states_a, states_b, catalog=catalog
        )


class TestSkeenCrossPartitionSafety:
    @given(skeen_split())
    @settings(max_examples=300, deadline=None)
    def test_disjoint_partitions_never_commit_and_abort(self, data):
        """Vc + Va > V: two disjoint partitions cannot hold Vc and Va sites."""
        rule, participants, states_a, states_b = data
        assert_disjoint_sets_never_both_decide(
            rule, ["x"], states_a, states_b, participants=participants
        )


#: every quorum termination rule: Fig. 5's table over its predicate pair
RULES = (TerminationRule1(), TerminationRule2(), PrimaryTerminationRule(), SkeenQuorumRule())


def context(catalog):
    return {"participants": catalog.sites_of("x"), "catalog": catalog}


class TestRuleTotality:
    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_rules_always_return_a_decision(self, data):
        catalog, states_a, __ = data
        for rule in RULES:
            decision = rule.evaluate(["x"], states_a, **context(catalog))
            assert isinstance(decision, Decision)

    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_rules_are_pure(self, data):
        """Evaluating twice gives the same answer (no hidden state)."""
        catalog, states_a, states_b = data
        for rule in RULES:
            first = rule.evaluate(["x"], states_a, **context(catalog))
            rule.evaluate(["x"], states_b, **context(catalog))
            assert first is rule.evaluate(["x"], states_a, **context(catalog))

    @given(catalog_and_split())
    @settings(max_examples=200, deadline=None)
    def test_commit_state_dominates(self, data):
        """Adding a C site forces COMMIT under every rule (Rule 1 of §2)."""
        catalog, states_a, __ = data
        sites = catalog.sites_of("x")
        states = dict(states_a)
        states[sites[0]] = TxnState.C
        for rule in RULES:
            assert rule.evaluate(["x"], states, **context(catalog)) is Decision.COMMIT
