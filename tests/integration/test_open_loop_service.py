"""Integration tests for the E26 open-loop service and its SLO ramp."""

import pytest

from repro.experiments.service_study import discover_ceiling, open_loop_scenario
from repro.traffic import run_scenario

PROTOCOLS = ("2pc", "qtp1", "qtp2")


class TestOpenLoopService:
    def test_accounting_holds_through_a_partition_episode(self):
        result = run_scenario(open_loop_scenario(rate=1.5, duration=60.0), "qtp1", 0).result
        assert result.offered == (
            result.admitted + result.shed_backpressure + result.shed_unreachable
        )
        assert result.admitted == (
            result.committed
            + result.reads_committed
            + result.client_aborted
            + result.protocol_aborted
            + result.unresolved
        )

    def test_ramp_sanity_at_short_duration(self):
        result = discover_ceiling("qtp1", seed=0, rates=(0.5, 1.5), duration=20.0)
        assert 1 <= len(result.steps) <= 2
        if result.tripped is None:
            assert result.ceiling == 1.5
        else:
            assert result.tripped in ("latency_knee", "abort_rate")
            # the ceiling is the last untripped rate, or None if even
            # the first step tripped
            assert result.ceiling in (None, 0.5)


@pytest.mark.slow
class TestDeepRampDiscovery:
    """Weekly deep run: open-loop SLO ramps across seeds × protocols at
    full service duration — every discovered ceiling must be a pure
    function of the seed, and the ramp trajectory must stay coherent
    (monotone rate schedule, trip only at the final step)."""

    RATES = (0.5, 1.0, 2.0, 4.0, 8.0)

    def test_ceilings_deterministic_across_seeds_and_protocols(self):
        for seed in range(4):
            for protocol in PROTOCOLS:
                first = discover_ceiling(protocol, seed=seed, rates=self.RATES)
                again = discover_ceiling(protocol, seed=seed, rates=self.RATES)
                assert first.counters() == again.counters(), (protocol, seed)

                # structural coherence of the trajectory itself
                assert 1 <= len(first.steps) <= len(self.RATES), (protocol, seed)
                if first.tripped is None:
                    assert first.ceiling == self.RATES[-1], (protocol, seed)
                    assert len(first.steps) == len(self.RATES)
                else:
                    assert first.tripped in ("latency_knee", "abort_rate")
                    tripped_at = len(first.steps) - 1
                    expected = self.RATES[tripped_at - 1] if tripped_at else None
                    assert first.ceiling == expected, (protocol, seed)
                for step, rate in zip(first.steps, self.RATES):
                    assert step.rate == rate, (protocol, seed)

    def test_offered_stream_is_protocol_independent_per_step(self):
        """Paired comparison: at one seed every protocol's ramp must see
        the identical offered arrival stream step for step — admission
        outcomes may differ, the load may not."""
        for seed in range(2):
            ramps = [discover_ceiling(p, seed=seed, rates=self.RATES) for p in PROTOCOLS]
            common = min(len(r.steps) for r in ramps)
            for i in range(common):
                offered = {r.steps[i].offered for r in ramps}
                assert len(offered) == 1, (seed, i)
