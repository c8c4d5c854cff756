"""Unit tests of the sweep spec, task expansion and seed derivation."""

import pytest

from repro.engine import RunTask, SweepSpec, derive_seed


def trial(seed, protocol, waves=1):
    return (seed, protocol, waves)


class TestSweepSpec:
    def test_cells_cartesian_in_declaration_order(self):
        spec = SweepSpec("s", trial, grid={"protocol": ["a", "b"], "waves": [1, 2]})
        assert spec.cells() == [
            {"protocol": "a", "waves": 1},
            {"protocol": "a", "waves": 2},
            {"protocol": "b", "waves": 1},
            {"protocol": "b", "waves": 2},
        ]

    def test_empty_grid_is_one_cell(self):
        spec = SweepSpec("s", trial, grid={}, runs=3)
        assert spec.cells() == [{}]
        assert spec.n_tasks == 3

    def test_fixed_params_flow_into_tasks_but_not_seeds(self):
        with_fixed = SweepSpec("s", trial, grid={"protocol": ["a"]}, fixed={"waves": 7})
        without = SweepSpec("s", trial, grid={"protocol": ["a"]})
        assert list(with_fixed.iter_tasks())[0].params == {"protocol": "a", "waves": 7}
        assert list(with_fixed.iter_tasks())[0].seed == list(without.iter_tasks())[0].seed

    def test_overlapping_fixed_and_grid_rejected(self):
        with pytest.raises(ValueError, match="both in grid and fixed"):
            SweepSpec("s", trial, grid={"waves": [1]}, fixed={"waves": 2})

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            SweepSpec("s", trial, grid={}, runs=0)

    def test_unknown_seeding_rejected(self):
        with pytest.raises(ValueError, match="seeding"):
            SweepSpec("s", trial, grid={}, seeding="wallclock")

    def test_offset_seeding(self):
        spec = SweepSpec(
            "s", trial, grid={"protocol": ["a", "b"]}, runs=3, base_seed=100, seeding="offset"
        )
        assert [t.seed for t in spec.iter_tasks()] == [100, 101, 102, 100, 101, 102]

    def test_derived_seeding_differs_per_cell(self):
        spec = SweepSpec("s", trial, grid={"protocol": ["a", "b"]}, runs=2)
        seeds = [t.seed for t in spec.iter_tasks()]
        assert len(set(seeds)) == 4

    def test_base_seed_shifts_derived_seeds(self):
        a = SweepSpec("s", trial, grid={"protocol": ["a"]}, base_seed=0)
        b = SweepSpec("s", trial, grid={"protocol": ["a"]}, base_seed=1)
        assert list(a.iter_tasks())[0].seed != list(b.iter_tasks())[0].seed

    def test_sweep_name_shifts_derived_seeds(self):
        a = SweepSpec("alpha", trial, grid={"protocol": ["a"]})
        b = SweepSpec("beta", trial, grid={"protocol": ["a"]})
        assert list(a.iter_tasks())[0].seed != list(b.iter_tasks())[0].seed

    def test_summary_is_json_safe(self):
        import json

        spec = SweepSpec("s", trial, grid={"protocol": ("a", "b")}, fixed={"waves": 2})
        payload = json.loads(json.dumps(spec.summary()))
        assert payload["grid"] == {"protocol": ["a", "b"]}
        assert payload["task"].endswith("trial")
        assert payload["fixed"] == {"waves": 2}


class TestRunTask:
    def test_execute_binds_seed_and_params_by_keyword(self):
        task = RunTask(index=0, sweep="s", task=trial, params={"protocol": "x"}, run=0, seed=42)
        result = task.execute()
        assert result.value == (42, "x", 1)
        assert result.seed == 42
        assert result.index == 0


class TestDeriveSeed:
    def test_positive_63_bit(self):
        for run in range(50):
            seed = derive_seed(0, "s", {}, run)
            assert 0 <= seed < 2**63

    def test_string_coercion_for_exotic_values(self):
        # non-JSON-native param values fall back to str() rather than crash
        assert derive_seed(0, "s", {"p": frozenset([1])}, 0) == derive_seed(
            0, "s", {"p": frozenset([1])}, 0
        )
