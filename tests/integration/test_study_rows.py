"""Every sweep study's rows, pinned byte for byte.

One SHA-256 of ``repr(rows)`` per study at a small shape: a change to
how a study aggregates its sweep (the order of float additions, a
dropped or renamed field, a row per cell instead of per protocol) moves
the digest.  Float totals add left to right: ``sum()`` over floats is
compensated from Python 3.12 on, so a study that switched to it would
keep these digests on 3.10/3.11 and move them on 3.12/3.13 — which is
why the set runs on every interpreter the suite runs on.
"""

import hashlib

import pytest

from repro.experiments.sweeps import (
    availability_sweep,
    modelcheck,
    reenterability_storm,
    wan_partition_storm,
)
from repro.experiments.vote_study import vote_assignment_study
from repro.experiments.workload_study import heavy_traffic_study, workload_study

STUDIES = {
    "e11-availability": lambda: availability_sweep(runs=12),
    "e21-wan-storm": lambda: wan_partition_storm(runs=2),
    "e13-qtp1": lambda: reenterability_storm("qtp1", runs=4),
    "e13-qtp2": lambda: reenterability_storm("qtp2", runs=4),
    # 3PC keeps its violating seeds in the row
    "e14-3pc": lambda: modelcheck("3pc", runs=25),
    "e14-qtp1": lambda: modelcheck("qtp1", runs=25),
    "e19-vote-policies": lambda: vote_assignment_study(runs=12),
    "e17-workload": lambda: workload_study(runs=2),
    "e18-heavy-traffic": lambda: heavy_traffic_study(runs=1, n_txns=40),
}

ROWS_SHA256 = {
    "e11-availability": "9d7f10e36d0e40e13044997b061b856529af21e304340a5a1e6be2bed4cde852",
    "e21-wan-storm": "e401ddc57570a3051ad99fb2a4171f42a846b307f0ea9cf50692f28ca9436237",
    "e13-qtp1": "adff9ffbe7fd2f1186e8a6de8e0e0562de2e8242f013f1e1a23e3e7add7a61d9",
    "e13-qtp2": "e51d831f3b692d1e8dd0c1b4bd3b8bb07f3b7c1721477927d879d6740f018891",
    "e14-3pc": "24c65f4cb5fc6d089e640d14ef4740163837183ce1fda8e4894b94281fa9eddc",
    "e14-qtp1": "c3dd1eb4ac96e29ce1aa38ea4f26e0199aaf0791c23c62b418dc8de4a3df1edf",
    "e19-vote-policies": "bf86053ed933c4004e5733c4c10031654e7e8375ee9e7e62946ef84e57133759",
    "e17-workload": "dc168967dc13062cc5e5e0f4b22db913aa12a986bfb0026eb6518a7716dafdf0",
    "e18-heavy-traffic": "4062212aca4bcc2247b686a52320755b0463f1a1328de40f79b713af707cbfeb",
}


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_rows_are_pinned(study):
    assert _digest(STUDIES[study]()) == ROWS_SHA256[study]


def test_rows_do_not_depend_on_the_worker_count():
    serial = availability_sweep(("skq", "qtp1"), runs=6)
    assert repr(availability_sweep(("skq", "qtp1"), runs=6, workers=2)) == repr(serial)
