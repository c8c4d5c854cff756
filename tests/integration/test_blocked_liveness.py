"""Named regressions for three ways a blocked transaction stayed blocked
after its fault was repaired.

Judging every ``run_scenario`` run with the whole-run oracle (healed
and up means decided) found each in tier-1's random-seed property
runs:

* a ``t.blocked`` notice sent before a heal and delivered after it
  re-blocked a participant the heal had just kicked, and nothing kicked
  it again (about one open-loop 2PC run in five at the shape below);
* a termination attempt that heard a slow site's state too late blocked
  every participant, and restoring the site's latency retried nothing
  (about one gray-failure run in a hundred);
* an attempt that blocked while a flapping link was cut stayed blocked
  when the link healed: lowering a link's loss retried nothing (three
  in three hundred qtp2 runs at the record → replay property's shape).
"""

from repro.analysis import healed_and_up, judge
from repro.experiments.resilience_study import gray_failure_scenario
from repro.experiments.service_study import open_loop_scenario
from repro.traffic import run_scenario


def test_a_notice_from_before_the_heal_does_not_block_again():
    scenario = open_loop_scenario(rate=0.8, duration=25.0, n_sites=6, episode_window=(8.0, 6.0))
    cluster = run_scenario(scenario, "2pc", 0, message_rows=True).cluster
    tracer = cluster.tracer
    [heal] = [time for time, _, _ in tracer.entries("heal")]
    # blocked notices sent inside the partition still land after the heal
    late = [rec for rec in tracer.where(category="deliver") if rec.detail["mtype"] == "2pc.t.blocked"]
    assert any(rec.time >= heal for rec in late)
    assert healed_and_up(cluster) and judge(cluster).violations == []
    for txn in ("T6.3", "T5.4"):  # in doubt at site 2 for good before
        assert cluster.live_undecided(txn) == [] and cluster.outcome(txn).outcome == "abort"


def test_restoring_a_slow_site_retries_what_its_slowness_blocked():
    scenario = gray_failure_scenario(duration=60.0, episode_start=10.0)
    cluster = run_scenario(scenario, "qtp1", 413).cluster
    tracer = cluster.tracer
    [restore] = [time for time, _, _ in tracer.entries("restore")]
    blocked = {site for time, site, _ in tracer.entries("blocked", "T3.10") if time < restore}
    assert blocked == {1, 2, 3}  # every participant blocked while site 1 was slow
    assert healed_and_up(cluster) and judge(cluster).violations == []
    assert cluster.live_undecided("T3.10") == []
    assert cluster.outcome("T3.10").outcome in ("commit", "abort")


def test_a_healed_lossy_link_retries_what_its_cut_blocked(gray_service):
    # a slow site restored at t=16 and a link cut for 3 of every 6 seconds from t=6
    service, plan = gray_service(23290)
    cluster = run_scenario(service, "qtp2", 23290, failures=plan).cluster
    assert [time for time, _, _ in cluster.tracer.entries("restore")] == [16.0]
    # blocked again during the last cut (18-21), after the site was restored
    assert any(time > 18.0 for time, _, _ in cluster.tracer.entries("blocked", "T3.4"))
    assert healed_and_up(cluster) and judge(cluster).violations == []
    assert cluster.live_undecided("T3.4") == []
    assert cluster.outcome("T3.4").outcome in ("commit", "abort")
