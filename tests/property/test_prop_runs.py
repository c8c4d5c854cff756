"""Hypothesis-driven whole-run properties: atomicity and Fig. 6
conformance under arbitrary generated fault schedules.

Unlike the seed-indexed model-check (which replays a fixed generator),
hypothesis searches the fault-schedule space adversarially and shrinks
any counterexample it finds to a minimal schedule — the strongest
safety net in the suite.
"""

from hypothesis import given, settings, strategies as st

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.analysis.transitions import audit_transitions


@st.composite
def fault_plans(draw):
    """An arbitrary schedule of crashes, recoveries, partitions, heals."""
    plan = FailurePlan()
    n_events = draw(st.integers(min_value=1, max_value=6))
    sites = [1, 2, 3, 4]
    for __ in range(n_events):
        t = draw(st.floats(min_value=0.5, max_value=25.0))
        kind = draw(st.sampled_from(["crash", "recover", "partition", "heal"]))
        if kind == "crash":
            plan.crash(t, draw(st.sampled_from(sites)))
        elif kind == "recover":
            plan.recover(t, draw(st.sampled_from(sites)))
        elif kind == "heal":
            plan.heal(t)
        else:
            split = draw(st.integers(min_value=1, max_value=3))
            plan.partition(t, sites[:split], sites[split:])
    # always heal and recover at the end so liveness can be checked too
    plan.heal(60.0)
    for site in sites:
        plan.recover(draw(st.floats(min_value=61.0, max_value=70.0)), site)
    return plan


def run_with_plan(protocol: str, plan: FailurePlan) -> Cluster:
    catalog = CatalogBuilder().replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3).build()
    cluster = Cluster(catalog, protocol=protocol)
    cluster.update(origin=1, writes={"x": 42}, txn_id="T-prop")
    cluster.arm_failures(plan)
    cluster.run()
    return cluster


class TestWholeRunSafety:
    @given(fault_plans())
    @settings(max_examples=60, deadline=None)
    def test_qtp1_atomic_under_any_schedule(self, plan):
        cluster = run_with_plan("qtp1", plan)
        report = cluster.outcome("T-prop")
        assert report.atomic, plan.actions
        assert report.illegal_transitions == 0

    @given(fault_plans())
    @settings(max_examples=60, deadline=None)
    def test_qtp2_atomic_under_any_schedule(self, plan):
        cluster = run_with_plan("qtp2", plan)
        report = cluster.outcome("T-prop")
        assert report.atomic, plan.actions

    @given(fault_plans())
    @settings(max_examples=40, deadline=None)
    def test_transitions_conform_to_fig6(self, plan):
        cluster = run_with_plan("qtp1", plan)
        audit = audit_transitions([cluster.tracer])
        assert audit.conforms, audit.format_table()

    @given(fault_plans())
    @settings(max_examples=30, deadline=None)
    def test_committed_value_durable(self, plan):
        """If the run ends with the transaction committed anywhere, the
        value must be readable after the final heal + recoveries."""
        cluster = run_with_plan("qtp1", plan)
        report = cluster.outcome("T-prop")
        if report.outcome == "commit" and report.fully_terminated:
            assert cluster.read(2, "x").value == 42
