"""Experiment harness (system S21) — one runner per paper artifact.

Experiment ids follow DESIGN.md §4; E15 onward extend the paper.  A
runner module is ``repro.experiments.<module>``, except E21's
``repro.workload.scenarios`` and the pytest ``benchmarks/`` of E15
(``test_missing_writes``), E16 (``test_termination_latency``) and E20
(``test_generalization``).  A macro experiment (E17, E18, E21 on) is
the :class:`~repro.traffic.Scenario` constructor ``<key>_scenario`` of
its module, registered in :data:`SCENARIOS` under ``key`` — run it with
``run_scenario(SCENARIOS[key](**shape), protocol, seed)``, record it
with :func:`repro.replay.record` — and the bench case beside it pins
its counters in ``BENCH_<case>.json`` (E26's ramp is ``ramp_ceiling``,
:func:`~repro.experiments.service_study.discover_ceiling`):

========  =============================  ======================  =====================  =====================
id        paper artifact / extension     runner module           ``SCENARIOS`` key      bench case
========  =============================  ======================  =====================  =====================
E1, E2    Fig. 1 / Fig. 2 message flows  ``flows``
E3, E4    Examples 1 and 4 (Fig. 3)      ``examples``
E5        Fig. 4 concurrency sets        ``figures``
E6, E9    Fig. 5 / Fig. 8 decisions      ``figures``
E7        Example 3 (Fig. 7)             ``examples``
E8        Example 2 (3PC inconsistency)  ``examples``
E10, E12  Fig. 9 early commit, latency   ``flows``
E11       availability sweep (§5)        ``sweeps``
E13       reenterability storms          ``sweeps``
E14       Theorem 1 model-check          ``sweeps``
E15       missing-writes fast path       ``benchmarks/``
E16       termination latency            ``benchmarks/``
E17       workload across a partition    ``workload_study``      ``workload``
E18       heavy traffic                  ``workload_study``      ``heavy_workload``     ``heavy_workload``
E19       vote assignment policies       ``vote_study``
E20       the §5 generalization          ``benchmarks/``
E21       WAN region storm (32 sites)    ``workload.scenarios``  ``wan_storm``          ``wan_storm``
E22       Zipf-skewed contention         ``workload_scenarios``  ``skewed_contention``  ``skewed_contention``
E23       read-mostly mix                ``workload_scenarios``  ``read_mostly``        ``read_mostly``
E24       cross-region transactions      ``workload_scenarios``  ``cross_region``       ``cross_region_txn``
E25       elastic join under a storm     ``workload_scenarios``  ``elastic_join``       ``elastic_join``
E26       open-loop service + SLO ramp   ``service_study``       ``open_loop``          ``open_loop_service``
E27       rolling upgrade                ``resilience_study``    ``rolling_upgrade``    ``rolling_upgrade``
E28       flash crowd                    ``resilience_study``    ``flash_crowd``        ``flash_crowd``
gray      slow site + flapping link      ``resilience_study``    ``gray_failure``       ``gray_failure``
========  =============================  ======================  =====================  =====================

Every runner is deterministic in its seed; the paper-artifact runners
and the studies return a dataclass with a ``format_table()`` (or
equivalent) rendering — EXPERIMENTS.md is generated from these outputs
by ``examples/regenerate_experiments.py``.
"""

from repro.experiments.ablations import pairing_ablation, timeout_ablation
from repro.experiments.flows import CommitMetrics, latency_sweep, measure_commit
from repro.experiments.resilience_study import (
    flash_crowd_scenario,
    gray_failure_scenario,
    rolling_upgrade_scenario,
)
from repro.experiments.service_study import open_loop_scenario
from repro.experiments.stats import mean_ci, paired_comparison
from repro.experiments.sweeps import (
    availability_sweep,
    modelcheck,
    reenterability_storm,
)
from repro.experiments.vote_study import vote_assignment_study
from repro.experiments.workload_scenarios import (
    cross_region_scenario,
    elastic_join_scenario,
    read_mostly_scenario,
    skewed_contention_scenario,
)
from repro.experiments.workload_study import (
    heavy_workload_scenario,
    workload_scenario,
    workload_study,
)
from repro.workload.scenarios import wan_storm_scenario

#: every :class:`~repro.traffic.Scenario` constructor by name (E17, E18,
#: E21–E28 and the gray-failure run; E22/E23 are E18 and E28/gray are
#: E26 with another spec or plan, on the same RNG stream): what
#: ``repro.replay`` can record and replay — a trace's ``driver`` is a key
#: here — and what the CI record → replay step iterates.  Adding a
#: scenario is one constructor and one line here.
SCENARIOS = {
    "workload": workload_scenario,
    "heavy_workload": heavy_workload_scenario,
    "wan_storm": wan_storm_scenario,
    "skewed_contention": skewed_contention_scenario,
    "read_mostly": read_mostly_scenario,
    "cross_region": cross_region_scenario,
    "elastic_join": elastic_join_scenario,
    "open_loop": open_loop_scenario,
    "rolling_upgrade": rolling_upgrade_scenario,
    "flash_crowd": flash_crowd_scenario,
    "gray_failure": gray_failure_scenario,
}

__all__ = [
    "SCENARIOS",
    "CommitMetrics",
    "availability_sweep",
    "latency_sweep",
    "mean_ci",
    "measure_commit",
    "modelcheck",
    "paired_comparison",
    "pairing_ablation",
    "reenterability_storm",
    "timeout_ablation",
    "vote_assignment_study",
    "workload_study",
]
