"""Experiments E5, E6, E9 — the analytic figures.

* E5 re-derives Fig. 4 (partition states, concurrency sets) and runs
  the §2 impossibility argument.
* E6 / E9 tabulate the Fig. 5 / Fig. 8 decision matrices: for a family
  of representative partition states over the Fig. 3 database, which
  decision does each termination rule reach?  The matrix makes the two
  rules' trade-off visible: rule 1 aborts more readily (r-some), rule 2
  commits more readily (r-some on the commit side).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.partition_states import (
    concurrency_sets,
    format_concurrency_table,
    impossibility_argument,
)
from repro.experiments.examples import example1_catalog
from repro.protocols.base import TerminationRule
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.protocols.skeen import SkeenQuorumRule
from repro.protocols.states import TxnState


@dataclass
class Fig4Result:
    """E5 output: the derived table plus the verified argument chain."""

    table: str
    argument: list[str]

    def format(self) -> str:
        """Render the derived table plus the verified argument."""
        lines = [self.table, "", "impossibility argument (each step verified):"]
        lines += [f"  {i + 1}. {step}" for i, step in enumerate(self.argument)]
        return "\n".join(lines)


def run_fig4(n_sites: int = 5) -> Fig4Result:
    """E5: derive the concurrency sets and verify the impossibility chain."""
    sets = concurrency_sets(n_sites)
    steps = impossibility_argument(sets)
    return Fig4Result(
        table=format_concurrency_table(sets),
        argument=[f"{s.claim} — because {s.because}" for s in steps],
    )


#: representative partition states over the Fig. 3 database (sites 1-8;
#: x at 1-4, y at 5-8; r=2, w=3).  Each row: (label, {site: state}).
DECISION_MATRIX_CASES: list[tuple[str, dict[int, TxnState]]] = [
    ("G1 of Example 1: sites 2,3 in W", {2: TxnState.W, 3: TxnState.W}),
    ("G2 of Example 1: 4 in W, 5 in PC", {4: TxnState.W, 5: TxnState.PC}),
    ("G3 of Example 1: 6,7,8 in W", {6: TxnState.W, 7: TxnState.W, 8: TxnState.W}),
    (
        "write quorum of x in PC",
        {1: TxnState.PC, 2: TxnState.PC, 3: TxnState.PC, 5: TxnState.PC,
         6: TxnState.PC, 7: TxnState.PC},
    ),
    (
        "one participant committed",
        {2: TxnState.C, 3: TxnState.W},
    ),
    (
        "one participant still initial",
        {2: TxnState.Q, 3: TxnState.W, 4: TxnState.W},
    ),
    (
        "abort quorum of x already in PA",
        {1: TxnState.PA, 2: TxnState.PA, 3: TxnState.W},
    ),
    (
        "full partition, all in W",
        {s: TxnState.W for s in range(1, 9)},
    ),
    (
        "full partition, all in PC",
        {s: TxnState.PC for s in range(1, 9)},
    ),
    (
        "PC present but x-votes exhausted by PA",
        {1: TxnState.PA, 2: TxnState.PA, 3: TxnState.PA, 5: TxnState.PC,
         6: TxnState.W, 7: TxnState.W},
    ),
]


@dataclass
class DecisionMatrix:
    """E6/E9 output: decision of each rule on each representative state."""

    rules: list[str]
    rows: list[tuple[str, list[str]]]

    def format(self) -> str:
        """Render the decision matrix as an aligned text table."""
        width = max(len(label) for label, _ in self.rows) + 2
        header = " " * width + "  ".join(f"{r:<16}" for r in self.rules)
        lines = [header]
        for label, decisions in self.rows:
            lines.append(
                f"{label:<{width}}" + "  ".join(f"{d:<16}" for d in decisions)
            )
        return "\n".join(lines)


def run_decision_matrix(rules: list[TerminationRule] | None = None) -> DecisionMatrix:
    """E6/E9: evaluate termination rules over the representative states.

    Defaults to rule 1, rule 2, and Skeen's site-quorum rule with the
    Example 1 parameters (1 vote per site, Vc = 5, Va = 4), so the
    availability difference the paper argues in Examples 1/4 shows up
    as BLOCK vs TRY_ABORT entries in the first and third rows.
    """
    catalog = example1_catalog()
    if rules is None:
        rules = [
            TerminationRule1(),
            TerminationRule2(),
            SkeenQuorumRule(vc=5, va=4, sites=8),
        ]
    items = ["x", "y"]
    rows = []
    for label, states in DECISION_MATRIX_CASES:
        rows.append(
            (label, [rule.evaluate(items, states, catalog=catalog).value for rule in rules])
        )
    return DecisionMatrix(rules=[rule.name for rule in rules], rows=rows)
