"""Unit tests for the failure plan and injector."""

import pytest

from repro.net.network import Network
from repro.net.node import Node
from repro.sim.failures import (
    DegradeSite,
    FailureInjector,
    FailurePlan,
    FlapLink,
    JoinSite,
    LeaveSite,
    RestoreSite,
    SetLinkLoss,
)
from repro.sim.rng import RngRegistry
from repro.sim.scheduler import Scheduler
from repro.sim.trace import Tracer


def make_net():
    scheduler = Scheduler()
    network = Network(scheduler, Tracer(), RngRegistry(0))
    for i in (1, 2, 3, 4):
        Node(i, network)
    return scheduler, network


class TestPlanBuilding:
    def test_chaining(self):
        plan = FailurePlan().crash(1.0, 2).recover(5.0, 2).heal(9.0)
        assert len(plan.actions) == 3

    def test_sever_both_adds_two_actions(self):
        plan = FailurePlan().sever_both(1.0, 2, 3)
        assert len(plan.actions) == 2

    def test_join_freezes_copies_sorted(self):
        plan = FailurePlan().join(2.0, 9, copies={"y": 2, "x": 1}, near=3)
        action = plan.actions[0]
        assert isinstance(action, JoinSite)
        # mapping frozen to a sorted tuple: hashable, deterministic
        # regardless of dict insertion order
        assert action.copies == (("x", 1), ("y", 2))
        assert action.near == 3

    def test_join_without_copies_is_pure_coordinator(self):
        plan = FailurePlan().join(2.0, 9)
        assert plan.actions[0].copies == ()
        assert plan.actions[0].near is None

    def test_builders_append_join_and_link_loss(self):
        plan = FailurePlan().sever(1.0, 2, 3, p=0.25).join(4.0, 9, copies={"x": 1}, near=2)
        assert plan.actions == [SetLinkLoss(1.0, 2, 3, 0.25), JoinSite(4.0, 9, (("x", 1),), 2)]

    def test_builders_append_gray_and_leave_actions(self):
        plan = (
            FailurePlan()
            .degrade(1.0, 4, 6.0)
            .flap(2.0, 2, 3, 6.0)
            .restore(5.0, 4)
            .leave(7.5, 4)
        )
        assert plan.actions == [
            DegradeSite(1.0, 4, 6.0),
            FlapLink(2.0, 2, 3, 6.0, 0.5, 3),
            RestoreSite(5.0, 4),
            LeaveSite(7.5, 4),
        ]

    def test_flap_and_leave_builders(self):
        plan = FailurePlan().flap(1.0, 2, 3, 4.0, duty=0.25, cycles=5).leave(9.0, 2)
        flap, leave = plan.actions
        assert flap == FlapLink(1.0, 2, 3, 4.0, 0.25, 5)
        assert leave == LeaveSite(9.0, 2)


class TestInjection:
    def test_crash_and_recover_applied_at_times(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().crash(2.0, 1).recover(5.0, 1))
        scheduler.run_until(3.0)
        assert 1 not in network.reachable_from(2)
        scheduler.run()
        assert 1 in network.reachable_from(2)
        assert len(injector.applied) == 2

    def test_partition_and_heal(self):
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(
            FailurePlan().partition(1.0, [1, 2], [3, 4]).heal(4.0)
        )
        scheduler.run_until(2.0)
        assert not network.partition.reachable(1, 3)
        scheduler.run()
        assert network.partition.reachable(1, 3)

    def test_sever_applied(self):
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(FailurePlan().sever(1.0, 1, 2))
        scheduler.run()
        # directed loss installed: 1 -> 2 drops, 2 -> 1 passes
        assert network._link_loss == {(1, 2): 1.0}

    def test_link_loss_zero_restores_the_link(self):
        # p=0.0 is "heal this link": the entry is removed outright, not
        # kept as a pointless never-drops record
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(
            FailurePlan().sever(1.0, 1, 2, p=0.7).sever(2.0, 1, 2, p=0.0)
        )
        scheduler.run()
        assert network._link_loss == {}

    def test_link_loss_probability_validated(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().sever(1.0, 1, 2, p=1.5))
        with pytest.raises(ValueError, match="outside"):
            scheduler.run()
        # the invalid action must not be recorded as applied
        assert injector.applied == []

    def test_join_without_membership_handler_raises(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)  # no membership=
        injector.arm(FailurePlan().join(1.0, 9))
        with pytest.raises(TypeError, match="membership handler"):
            scheduler.run()
        assert injector.applied == []

    def test_join_delegates_to_membership_handler(self):
        scheduler, network = make_net()
        seen: list[JoinSite] = []
        injector = FailureInjector(scheduler, network, membership=seen.append)
        injector.arm(FailurePlan().join(3.0, 9, copies={"x": 1}, near=2))
        scheduler.run()
        assert [a.site for a in seen] == [9]
        assert seen[0].copies == (("x", 1),)
        # applied only after the handler succeeded
        assert injector.applied == seen

    def test_degrade_and_restore_applied_at_times(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().degrade(2.0, 1, 6.0).restore(5.0, 1))
        scheduler.run_until(3.0)
        assert network._degraded == {1: 6.0}
        scheduler.run()
        assert network._degraded == {}
        assert len(injector.applied) == 2
        assert network.tracer.count("degrade") == 1
        assert network.tracer.count("restore") == 1

    def test_degrade_factor_one_is_an_exact_noop(self):
        # factor=1.0 removes the overlay entry outright so the delivery
        # hot path never multiplies by 1.0
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(
            FailurePlan().degrade(1.0, 2, 3.0).degrade(2.0, 2, 1.0)
        )
        scheduler.run()
        assert network._degraded == {}

    def test_degrade_unknown_site_not_recorded_applied(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().degrade(1.0, 99, 2.0))
        with pytest.raises(ValueError, match="unknown site"):
            scheduler.run()
        assert injector.applied == []

    def test_degrade_factor_must_be_positive(self):
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(FailurePlan().degrade(1.0, 1, 0.0))
        with pytest.raises(ValueError, match="positive"):
            scheduler.run()

    def test_flap_oscillates_then_heals_for_good(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().flap(1.0, 1, 2, period=2.0, duty=0.5, cycles=2))
        scheduler.run_until(1.5)  # first sever edge at t=1
        assert network._link_loss == {(1, 2): 1.0}
        scheduler.run_until(2.5)  # healed at t=2 (duty * period after)
        assert network._link_loss == {}
        scheduler.run_until(3.5)  # second cycle severs at t=3
        assert network._link_loss == {(1, 2): 1.0}
        scheduler.run()  # bounded: healed at t=4 and stays healed
        assert network._link_loss == {}
        # the plan action is recorded once; its sever/heal sub-events are
        # implementation detail, not part of the applied history
        assert injector.applied == [FlapLink(1.0, 1, 2, 2.0, 0.5, 2)]

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(period=0.0), "period"),
            (dict(period=2.0, duty=0.0), "duty"),
            (dict(period=2.0, duty=1.5), "duty"),
            (dict(period=2.0, cycles=0), "cycles"),
        ],
    )
    def test_flap_parameters_validated(self, kwargs, match):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)
        injector.arm(FailurePlan().flap(1.0, 1, 2, **kwargs))
        with pytest.raises(ValueError, match=match):
            scheduler.run()
        assert injector.applied == []

    def test_leave_without_membership_handler_raises(self):
        scheduler, network = make_net()
        injector = FailureInjector(scheduler, network)  # no membership=
        injector.arm(FailurePlan().leave(1.0, 2))
        with pytest.raises(TypeError, match="membership handler"):
            scheduler.run()
        assert injector.applied == []

    def test_leave_delegates_to_membership_handler(self):
        scheduler, network = make_net()
        seen: list[LeaveSite] = []
        injector = FailureInjector(scheduler, network, membership=seen.append)
        injector.arm(FailurePlan().leave(3.0, 2))
        scheduler.run()
        assert [a.site for a in seen] == [2]
        assert injector.applied == seen

    def test_deregister_cleans_overlays_touching_the_site(self):
        scheduler, network = make_net()
        network.degrade_site(2, 4.0)
        network.set_link_loss(1, 2, 1.0)
        network.set_link_loss(3, 4, 0.5)
        network.deregister(2)
        assert 2 not in network._degraded
        assert network._link_loss == {(3, 4): 0.5}
        with pytest.raises(ValueError, match="unknown site"):
            network.deregister(2)

    def test_events_are_traced(self):
        scheduler, network = make_net()
        FailureInjector(scheduler, network).arm(
            FailurePlan().crash(1.0, 1).partition(2.0, [1, 2], [3, 4])
        )
        scheduler.run()
        assert network.tracer.count("crash") == 1
        assert network.tracer.count("partition") == 1
