"""Determinism properties of the WorkloadSpec scenario sweeps.

Same bar the engine properties set: a sweep over the new scenario
drivers is a function of its spec — serial and parallel executions must
produce byte-identical artifacts, and every driver must be a pure
function of its seed (two runs agree exactly).
"""

import json

from hypothesis import given, settings, strategies as st

from repro.engine import SweepSpec, run_sweep
from repro.bench.cases import (
    cross_region_trial,
    elastic_join_trial,
    read_mostly_trial,
    skewed_contention_trial,
)

#: (task, grid, fixed) per scenario — sizes kept tier-1 small.
SCENARIO_SWEEPS = [
    (skewed_contention_trial, {"protocol": ["2pc", "qtp1"]}, {"n_txns": 12}),
    (read_mostly_trial, {"protocol": ["qtp1"]}, {"n_txns": 16}),
    (cross_region_trial, {"protocol": ["qtp1"]}, {"n_txns": 8}),
    (elastic_join_trial, {"protocol": ["qtp1"]}, {"n_txns": 16}),
]


def _artifact(task, grid, fixed, base_seed, workers):
    """Canonical bytes of the sweep: exactly what ``bench diff`` gates on."""
    spec = SweepSpec(
        "workload-equiv",
        task,
        grid=grid,
        runs=2,
        base_seed=base_seed,
        seeding="offset",
        fixed=fixed,
    )
    outcome = run_sweep(spec, workers=workers)
    rows = [
        {
            "index": r.index,
            "params": r.params,
            "run": r.run,
            "seed": r.seed,
            "counters": r.value,
        }
        for r in outcome.results
    ]
    return json.dumps(rows, sort_keys=True)


class TestScenarioSweepDeterminism:
    @given(st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_serial_equals_parallel_byte_identical(self, base_seed):
        for task, grid, fixed in SCENARIO_SWEEPS:
            serial = _artifact(task, grid, fixed, base_seed, workers=1)
            parallel = _artifact(task, grid, fixed, base_seed, workers=2)
            assert serial == parallel, f"{task.__name__} differs across worker counts"

    def test_drivers_are_pure_in_their_seed(self):
        for task, grid, fixed in SCENARIO_SWEEPS:
            protocol = grid["protocol"][0]
            first = task(7, protocol=protocol, **fixed)
            second = task(7, protocol=protocol, **fixed)
            assert first == second, task.__name__


class TestZipfLaw:
    """The cumulative scan samples the exact Zipf law.

    On a fixed seed and a small catalog, per-item frequencies must sit
    within a tolerance of the pmf ``rank**-s`` (normalised) far tighter
    than the gap between adjacent Zipf ranks.
    """

    ZIPF_S = 1.3

    @staticmethod
    def _catalog():
        import random

        from repro.workload.generators import random_catalog

        return random_catalog(random.Random(4), n_sites=6, n_items=6, replication=3)

    @classmethod
    def _law(cls, catalog):
        weights = [rank**-cls.ZIPF_S for rank in range(1, len(catalog.item_names) + 1)]
        total = sum(weights)
        return {name: w / total for name, w in zip(catalog.item_names, weights)}

    @staticmethod
    def _tvd(freqs, law):
        return sum(abs(freqs[k] - law[k]) for k in law) / 2

    @given(st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_single_pick_frequencies_follow_the_law(self, seed):
        import random

        from repro.workload.spec import WorkloadSpec

        catalog = self._catalog()
        compiled = WorkloadSpec(popularity="zipf", zipf_s=self.ZIPF_S).compile(catalog)
        rng = random.Random(seed)
        draws = 6000
        counts = {name: 0 for name in catalog.item_names}
        for __ in range(draws):
            counts[compiled.pick_item(rng)] += 1
        # a 6k-draw empirical distribution stays well within 0.05 of its law
        tvd = self._tvd({name: c / draws for name, c in counts.items()}, self._law(catalog))
        assert tvd < 0.05, f"scan diverges from the Zipf law: TVD {tvd:.3f}"

    @given(st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None)
    def test_footprint_first_pick_follows_the_law(self, seed):
        import random

        from repro.workload.spec import WorkloadSpec

        catalog = self._catalog()
        compiled = WorkloadSpec(
            popularity="zipf", zipf_s=self.ZIPF_S, footprint=(2, 3)
        ).compile(catalog)
        rng = random.Random(seed)
        draws = 3000
        counts = {name: 0 for name in catalog.item_names}
        for __ in range(draws):
            picked = compiled.pick_items(rng)
            assert len(set(picked)) == len(picked)  # without replacement
            counts[picked[0]] += 1
        tvd = self._tvd({name: c / draws for name, c in counts.items()}, self._law(catalog))
        assert tvd < 0.06, f"footprint first pick diverges from the Zipf law: TVD {tvd:.3f}"
