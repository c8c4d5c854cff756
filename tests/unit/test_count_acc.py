"""``CountAcc.summary`` stringifies each key once and keeps its bytes.

Keys are tallied as themselves and reported under ``str(key)``, sorted
by that string.  Two keys can share a string form (``1`` / ``"1"``,
``True`` / ``"True"``); the sort is stable, so the later-inserted key's
count wins and the entry keeps the earlier key's place.
"""

import random

import pytest

from repro.engine import CountAcc


def two_pass_summary(acc: CountAcc) -> dict:
    """The reference: sort by ``str``, then stringify each key again."""
    counts = {str(k): acc.counts[k] for k in sorted(acc.counts, key=str)}
    return {"kind": "count", "n": acc.n, "counts": counts}


@pytest.mark.parametrize(
    "values",
    [
        [1, "1", 1, "1", "1"],
        ["1", 1, 1],
        [True, "True", "True", None, "None"],
        ["None", None, None, 2.5, "2.5", (1, 2), "(1, 2)", frozenset({3}), "frozenset({3})"],
        [3, "b", 1.5, "a", -1, None, False, "", (0,), 10, "10", "9", 9],
        [],
    ],
)
def test_summary_equals_the_two_pass_formula(values):
    acc = CountAcc()
    for value in values:
        acc.add(value)
    summary, expected = acc.summary(), two_pass_summary(acc)
    assert summary == expected
    assert list(summary["counts"].items()) == list(expected["counts"].items())  # order too


def test_colliding_keys_resolve_to_the_later_key():
    acc = CountAcc()
    for value in ["1", "1", 1]:
        acc.add(value)
    assert acc.summary()["counts"] == {"1": 1}


def test_shuffled_mixed_keys_match_in_every_insertion_order():
    pool = [1, "1", 1.5, "1.5", None, "None", True, "True", "a", (2,), "(2,)"]
    rng = random.Random(7)
    for _ in range(50):
        acc = CountAcc()
        for _ in range(30):
            acc.add(rng.choice(pool))
        summary, expected = acc.summary(), two_pass_summary(acc)
        assert list(summary["counts"].items()) == list(expected["counts"].items())
