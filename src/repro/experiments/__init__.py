"""Experiment harness (system S21) — one runner per paper artifact.

Experiment ids follow DESIGN.md §4:

========  ==========================================  ====================
id        paper artifact                              runner
========  ==========================================  ====================
E1, E2    Fig. 1 / Fig. 2 message flows               :mod:`repro.experiments.flows`
E3, E4    Example 1 / Example 4 (Fig. 3)              :mod:`repro.experiments.examples`
E5        Fig. 4 concurrency sets + impossibility     :mod:`repro.experiments.figures`
E6, E9    Fig. 5 / Fig. 8 decision matrices           :mod:`repro.experiments.figures`
E7        Example 3 (Fig. 7) two coordinators         :mod:`repro.experiments.examples`
E8        Example 2 (3PC inconsistency)               :mod:`repro.experiments.examples`
E10, E12  Fig. 9 early commit + latency sweep         :mod:`repro.experiments.flows`
E11       availability sweep (the §5 claim)           :mod:`repro.experiments.sweeps`
E13       reenterability under failure storms         :mod:`repro.experiments.sweeps`
E14       Theorem 1 randomized model-check            :mod:`repro.experiments.sweeps`
========  ==========================================  ====================

Every runner is deterministic in its seed and returns a dataclass with
a ``format_table()`` (or equivalent) rendering — EXPERIMENTS.md is
generated from these outputs by ``examples/regenerate_experiments.py``.
"""

from repro.experiments.ablations import pairing_ablation, timeout_ablation
from repro.experiments.flows import CommitMetrics, latency_sweep, measure_commit
from repro.experiments.resilience_study import (
    rolling_upgrade_scenario,
    run_flash_crowd,
    run_gray_failure,
    run_rolling_upgrade,
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
    run_cross_region,
    run_elastic_join,
    run_read_mostly,
    run_skewed_contention,
)
from repro.experiments.workload_study import (
    heavy_workload_scenario,
    run_workload,
    workload_scenario,
    workload_study,
)
from repro.workload.scenarios import wan_storm_scenario

#: every :class:`~repro.traffic.Scenario` constructor by name (E17, E18,
#: E21, E24–E27; E22, E23, E28 and the gray-failure run are E18 / E26 with
#: another spec or plan): what ``repro.replay`` can record and replay — a
#: trace's ``driver`` is a key here — and what the CI record → replay step
#: iterates.  Adding a scenario is one constructor and one line here.
SCENARIOS = {
    "workload": workload_scenario,
    "heavy_workload": heavy_workload_scenario,
    "wan_storm": wan_storm_scenario,
    "cross_region": cross_region_scenario,
    "elastic_join": elastic_join_scenario,
    "open_loop": open_loop_scenario,
    "rolling_upgrade": rolling_upgrade_scenario,
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
    "run_cross_region",
    "run_elastic_join",
    "run_flash_crowd",
    "run_gray_failure",
    "run_read_mostly",
    "run_rolling_upgrade",
    "run_skewed_contention",
    "run_workload",
    "timeout_ablation",
    "vote_assignment_study",
    "workload_study",
]
