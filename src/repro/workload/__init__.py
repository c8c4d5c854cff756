"""Workload generation (system S20): a spec and its generators.

* :mod:`repro.workload.spec` — declarative :class:`WorkloadSpec`
  (item popularity, read:write mix, footprint, arrivals, cross-region
  pattern) compiling to the generator callables the drivers consume.
* :mod:`repro.workload.generators` — random transaction workloads,
  random replica placements and random fault schedules for the sweeps
  and the randomized model-checking experiments.
"""

from repro.workload.generators import (
    random_catalog,
    random_fault_plan,
    random_partition_groups,
    random_update,
)
from repro.workload.spec import CompiledWorkload, WorkloadOp, WorkloadSpec

__all__ = [
    "CompiledWorkload",
    "WorkloadOp",
    "WorkloadSpec",
    "random_catalog",
    "random_fault_plan",
    "random_partition_groups",
    "random_update",
]
