"""Liveness under eventually-good networks.

Safety holds under *any* schedule (test_prop_runs); liveness needs the
network to eventually behave.  Property: for any generated fault
schedule that ends with a permanent heal and every site recovered, the
transaction fully terminates — no live participant is left undecided
or blocked once the dust settles.  This is the operational content of
the paper's "blocked ... wait for the failures to recover".
"""

from hypothesis import given, settings, strategies as st

from repro import CatalogBuilder, Cluster, FailurePlan


@st.composite
def eventually_good_plans(draw):
    """Arbitrary chaos in [0.5, 20], then a permanent heal + recovery."""
    plan = FailurePlan()
    sites = [1, 2, 3, 4]
    n_events = draw(st.integers(min_value=1, max_value=5))
    for __ in range(n_events):
        t = draw(st.floats(min_value=0.5, max_value=20.0))
        kind = draw(st.sampled_from(["crash", "partition", "heal", "recover"]))
        if kind == "crash":
            plan.crash(t, draw(st.sampled_from(sites)))
        elif kind == "recover":
            plan.recover(t, draw(st.sampled_from(sites)))
        elif kind == "heal":
            plan.heal(t)
        else:
            split = draw(st.integers(min_value=1, max_value=3))
            plan.partition(t, sites[:split], sites[split:])
    plan.heal(50.0)
    for site in sites:
        plan.recover(draw(st.floats(min_value=51.0, max_value=55.0)), site)
    return plan


@given(eventually_good_plans(), st.sampled_from(["qtp1", "qtp2", "3pc", "skq", "qtpp"]))
@settings(max_examples=80, deadline=None)
def test_eventual_heal_terminates_everyone(plan, protocol):
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    cluster = Cluster(catalog, protocol=protocol)
    cluster.update(origin=1, writes={"x": 1}, txn_id="T-live")
    cluster.arm_failures(plan)
    cluster.run()
    assert cluster.live_undecided("T-live") == [], plan.actions


@given(eventually_good_plans())
@settings(max_examples=40, deadline=None)
def test_terminated_runs_agree_with_wal(plan):
    """After full termination, every site's WAL decision matches the
    collective outcome (durability of the group decision)."""
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    cluster = Cluster(catalog, protocol="qtp1")
    cluster.update(origin=1, writes={"x": 1}, txn_id="T-live")
    cluster.arm_failures(plan)
    cluster.run()
    decisions = {
        cluster.sites[s].wal.decision("T-live")
        for s in (1, 2, 3, 4)
        if cluster.sites[s].wal.decision("T-live") is not None
    }
    assert len(decisions) <= 1, plan.actions
