"""E6 + E9 — Fig. 5 / Fig. 8: the termination protocols' decision
matrices, plus engine-level runs of each decision branch.

The matrix evaluates rule 1, rule 2 and Skeen's rule over
representative partition states of the Fig. 3 database; the paper's
availability argument appears as the BLOCK (Skeen, rule 2) vs
TRY_ABORT (rule 1) entries on the Example-1 partitions.
"""

import pytest

from repro.experiments.figures import run_decision_matrix
from repro.experiments.examples import run_example1_scenario


def test_decision_matrix(benchmark):
    matrix = benchmark(run_decision_matrix)
    print("\n" + matrix.format())
    rows = dict(matrix.rows)
    # Example 1's G1 row: rule 1 frees it, rule 2 and Skeen block
    assert rows["G1 of Example 1: sites 2,3 in W"] == ["try-abort", "block", "block"]
    # G2 blocks under all three (the paper: TR remains blocked in G2)
    assert rows["G2 of Example 1: 4 in W, 5 in PC"] == ["block", "block", "block"]
    # one committed participant forces commit everywhere (Rule 1 of §2)
    assert rows["one participant committed"] == ["commit"] * 3
    # an initial-state participant forces abort everywhere
    assert rows["one participant still initial"] == ["abort"] * 3


@pytest.mark.parametrize("protocol,expected_g1", [("qtp1", "A"), ("qtp2", "W")])
def test_termination_engine_runs_fig3(benchmark, protocol, expected_g1):
    """Engine-level: TP1 aborts G1; TP2 (stricter abort) leaves it
    blocked in W — the Fig. 5 vs Fig. 8 trade-off, live."""
    result = benchmark.pedantic(
        run_example1_scenario, args=(protocol,), rounds=3, iterations=1
    )
    states = result.states()
    assert states[2] == expected_g1
    assert result.report.atomic
