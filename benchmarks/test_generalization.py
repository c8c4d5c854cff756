"""E20 (extension) — the §5 generalization, demonstrated and measured.

"The idea can be generalized to work with other partition-processing
strategies."  Here the Fig. 5 skeleton runs over the primary-copy
strategy ([1], [12]) instead of Gifford voting, on the same Fig. 3
failure and on the randomized model-check corpus: same consistency
guarantee, availability shaped by where the primaries sit instead of
where the vote mass sits.
"""

from repro import CatalogBuilder, Cluster, FailurePlan
from repro.experiments.sweeps import modelcheck
from repro.experiments.examples import EXAMPLE1_GROUPS


def run_fig3_with_primaries(primaries):
    # the Fig. 3 database with the given primaries
    catalog = (
        CatalogBuilder()
        .replicated_item("x", sites=[1, 2, 3, 4], r=2, w=3, primary=primaries["x"])
        .replicated_item("y", sites=[5, 6, 7, 8], r=2, w=3, primary=primaries["y"])
        .build()
    )
    cluster = Cluster(catalog, protocol="qtpp")
    cluster.network.add_filter(lambda m: m.mtype.endswith(".prepare") and m.dst != 5)
    txn = cluster.update(origin=1, writes={"x": 1, "y": 2})
    cluster.arm_failures(
        FailurePlan().crash(3.5, 1).partition(3.5, *EXAMPLE1_GROUPS)
    )
    cluster.run()
    return cluster, txn


def test_generalized_rule_frees_primary_partitions(benchmark):
    cluster, txn = benchmark.pedantic(
        run_fig3_with_primaries, args=({"x": 2, "y": 6},), rounds=3, iterations=1
    )
    report = cluster.outcome(txn.txn)
    availability = cluster.availability()
    print(f"\nprimaries x->2, y->6: outcome={report.outcome} atomic={report.atomic}")
    print(availability.describe())
    assert report.atomic
    # G1 (holds x's primary) and G3 (holds y's primary) terminate
    states = cluster.states(txn.txn)
    assert states[2] == "A" and states[6] == "A"
    # ... restoring exactly the access the strategy would grant anyway
    assert availability.row(frozenset(EXAMPLE1_GROUPS[0]), "x").readable


def test_primary_placement_shapes_availability():
    """Placement is the whole ballgame: the same Fig. 3 failure
    commits, aborts or blocks depending only on where the primaries
    sit.  Both primaries beside the PC site let G2 run the commit
    round; y's primary in an all-W partition lets G3 abort; x's
    primary on the crashed coordinator (with y's pinned in PC) kills
    every branch of the rule — nothing can terminate anywhere."""
    expected = {
        ("commit",): {"x": 4, "y": 5},
        ("abort",): {"x": 4, "y": 6},
        ("blocked",): {"x": 1, "y": 5},
    }
    for (outcome,), primaries in expected.items():
        cluster, txn = run_fig3_with_primaries(primaries)
        report = cluster.outcome(txn.txn)
        assert report.atomic
        assert report.outcome == outcome, (primaries, report.outcome)


def test_generalization_is_safe(benchmark):
    result = benchmark.pedantic(
        modelcheck,
        kwargs={"protocol": "qtpp", "runs": 50, "base_seed": 2000},
        rounds=1,
        iterations=1,
    )
    print("\n" + result.format_row())
    assert result.theorem_holds
