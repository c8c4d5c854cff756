"""Positive controls of the whole-run oracle, through the one run path.

A judge that never convicts proves nothing, so the designed
counterexamples run here through :func:`~repro.traffic.run_scenario`
and must be caught: the paper's Example 3 without its ignore rules and
commit protocol 2 behind termination rule 1 each break atomicity, and
nothing else.  ``expect`` names what a run must break — exactly: a
predicate that does not fire raises, and so does one that fires
unnamed.

The gray split (ROADMAP item 12) has two named witnesses: seeds whose
gray-failure service leaves one transaction PC, PC, PA on a 3-copy
item, healed and up, where the paper's own rule (Fig. 5 / Fig. 8)
returns BLOCK on the full-participant poll.  They pin today's
behaviour; a mend of item 12 flips them.
"""

import pytest

from repro.common.errors import InvariantViolationError
from repro.experiments.ablations import pairing_scenario
from repro.experiments.examples import example3_scenario
from repro.protocols.base import Decision
from repro.protocols.qtp.quorums import TerminationRule1, TerminationRule2
from repro.protocols.states import TxnState
from repro.traffic import run_scenario

ATOMICITY = frozenset({"atomicity"})


def test_example3_without_the_ignore_rules_breaks_exactly_atomicity():
    with pytest.raises(InvariantViolationError) as caught:
        run_scenario(example3_scenario(enforce_ignore_rules=False), "qtp1", 0)
    [(predicate, detail)] = caught.value.violations
    assert predicate == "atomicity"
    assert "decision-conflict row(s)" in detail and "illegal-transition row(s)" in detail
    run = run_scenario(example3_scenario(enforce_ignore_rules=False), "qtp1", 0, expect=ATOMICITY)
    assert run.cluster.outcome(run.txn.txn).outcome == "mixed"


def test_cp2_behind_rule_1_breaks_exactly_atomicity():
    with pytest.raises(InvariantViolationError) as caught:
        run_scenario(pairing_scenario(cross_pair=True), "qtp2", 0)
    assert [predicate for predicate, _ in caught.value.violations] == ["atomicity"]
    run = run_scenario(pairing_scenario(cross_pair=True), "qtp2", 0, expect=ATOMICITY)
    assert not run.cluster.outcome(run.txn.txn).atomic


@pytest.mark.parametrize(
    "scenario, protocol",
    [(example3_scenario(enforce_ignore_rules=True), "qtp1"), (pairing_scenario(cross_pair=False), "qtp2")],
    ids=["example3-enforced", "cp2-rule2"],
)
def test_an_expected_predicate_that_does_not_fire_raises(scenario, protocol):
    with pytest.raises(InvariantViolationError, match=r"expected to break exactly \['atomicity'\]\) broke 0"):
        run_scenario(scenario, protocol, 0, expect=ATOMICITY)


def test_a_violation_outside_expect_raises():
    with pytest.raises(InvariantViolationError, match=r"expected to break exactly \['liveness'\]") as caught:
        run_scenario(example3_scenario(enforce_ignore_rules=False), "qtp1", 0, expect=frozenset({"liveness"}))
    assert [predicate for predicate, _ in caught.value.violations] == ["atomicity"]
    with pytest.raises(InvariantViolationError, match="broke 1 claim"):
        run_scenario(
            example3_scenario(enforce_ignore_rules=False),
            "qtp1",
            0,
            expect=frozenset({"atomicity", "liveness"}),
        )


#: (protocol, seed, rule, stuck transaction, item, its r and w, final states)
GRAY_WITNESSES = [
    ("qtp1", 137, TerminationRule1, "T1.10", "i3", (2, 3), {1: "PC", 2: "PC", 3: "PA"}),
    ("qtp2", 2641, TerminationRule2, "T1.4", "i2", (3, 2), {1: "PC", 2: "PC", 4: "PA"}),
]


@pytest.mark.parametrize(
    "protocol, seed, rule, txn, item, quorums, states",
    GRAY_WITNESSES,
    ids=[f"{protocol}-{seed}" for protocol, seed, *_ in GRAY_WITNESSES],
)
def test_the_gray_split_blocks_healed_and_up(gray_service, protocol, seed, rule, txn, item, quorums, states):
    scenario, plan = gray_service(seed)
    with pytest.raises(InvariantViolationError, match=f"liveness: healed and up, still in doubt: {{'{txn}'"):
        run_scenario(scenario, protocol, seed, failures=plan)
    run = run_scenario(scenario, protocol, seed, failures=plan, expect=frozenset({"liveness"}))
    cluster = run.cluster
    handle = cluster.submitted[txn]
    catalog = cluster.catalog
    assert list(handle.writes) == [item]
    assert handle.participants == tuple(catalog.sites_of(item)) == tuple(states)
    assert (catalog.r(item), catalog.w(item)) == quorums
    assert cluster.states(txn) == states
    assert cluster.live_undecided(txn) == list(states)
    # the poll of every participant, by the rule the run's engines use
    polled = {site: TxnState[name] for site, name in states.items()}
    for engine_rule in (cluster.sites[site].engine.rule for site in states):
        assert type(engine_rule) is rule
        assert engine_rule.evaluate([item], polled, handle.participants, catalog) is Decision.BLOCK
