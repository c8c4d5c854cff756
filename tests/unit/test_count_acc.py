"""``CountAcc.summary`` stringifies each key once and keeps its bytes.

Keys are tallied as themselves and reported under ``str(key)``, sorted
by that string.  Two keys that share a string form (``1`` / ``"1"``,
``True`` / ``"True"``) would report one count under that string and
drop the other, so the summary raises ``TypeError`` naming both — at
summary time, so ``add`` pays nothing for the check.  The summary is
built once per state: a second call copies the first, and ``add`` or
``merge`` drops it.
"""

import random

import pytest

from repro.engine import CountAcc


def two_pass_summary(acc: CountAcc) -> dict:
    """The reference: sort by ``str``, then stringify each key again."""
    counts = {str(k): acc.counts[k] for k in sorted(acc.counts, key=str)}
    return {"kind": "count", "n": acc.n, "counts": counts}


def tally(values) -> CountAcc:
    acc = CountAcc()
    for value in values:
        acc.add(value)
    return acc


@pytest.mark.parametrize(
    "values",
    [
        [1, "a", 1, "a", "a"],
        ["1", 2, 2],
        [True, "yes", "yes", None, "none"],
        ["x", None, None, 2.5, "2.50", (1, 2), "(1,2)", frozenset({3}), "frozenset()"],
        [3, "b", 1.5, "a", -1, None, False, "", (0,), 10, "010", "9.0", 9],
        [],
    ],
)
def test_summary_equals_the_two_pass_formula(values):
    acc = tally(values)
    summary, expected = acc.summary(), two_pass_summary(acc)
    assert summary == expected
    assert list(summary["counts"].items()) == list(expected["counts"].items())  # order too


@pytest.mark.parametrize(
    "values, first, later",
    [
        ([1, 1, "1", True, 1.0], 1, "1"),  # True and 1.0 tally as 1: n is 5, two keys
        (["1", "1", 1], "1", 1),
        ([True, "True", "True"], True, "True"),
        (["None", None], "None", None),
        ([(1, 2), "x", "(1, 2)"], (1, 2), "(1, 2)"),
        ([3, "b", 10, "10", 9], 10, "10"),
    ],
)
def test_keys_that_stringify_alike_raise_naming_both(values, first, later):
    acc = tally(values)  # add does not check
    assert acc.n == len(values)
    message = f"mapping keys {first!r} and {later!r} both encode as {str(first)!r} in a CountAcc summary"
    for _ in range(2):  # nothing is cached from a failed summary
        with pytest.raises(TypeError) as err:
            acc.summary()
        assert str(err.value) == message


def test_a_merge_that_brings_two_alike_keys_together_raises():
    left, right = tally([1, 2]), tally(["1"])
    assert left.summary()["counts"] == {"1": 1, "2": 1} and right.summary()["counts"] == {"1": 1}
    left.merge(right)
    with pytest.raises(TypeError, match="mapping keys 1 and '1'"):
        left.summary()


def test_shuffled_mixed_keys_match_in_every_insertion_order():
    pool = [1, "one", 1.5, "1.50", None, "none", True, "true", "a", (2,), "(2, )"]
    rng = random.Random(7)
    for _ in range(50):
        acc = tally(rng.choice(pool) for _ in range(30))
        summary, expected = acc.summary(), two_pass_summary(acc)
        assert list(summary["counts"].items()) == list(expected["counts"].items())


def test_shuffled_alike_keys_raise_in_every_insertion_order():
    pool = [1, "1", 1.5, "1.5", None, "None", "a", (2,), "(2,)"]
    rng = random.Random(7)
    for _ in range(50):
        acc = tally(rng.choice(pool) for _ in range(30))
        names = [str(key) for key in acc.counts]
        if len(set(names)) == len(names):
            assert acc.summary() == two_pass_summary(acc)
        else:
            with pytest.raises(TypeError, match="both encode as"):
                acc.summary()


class Key:
    """A key that counts how often it is stringified."""

    calls = 0

    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        Key.calls += 1
        return self.name


def test_a_second_summary_of_an_unchanged_tally_stringifies_nothing():
    keys = [Key(f"k{i:03d}") for i in range(100)]
    acc = tally(keys)
    Key.calls = 0
    first = acc.summary()
    assert Key.calls == 100
    second = acc.summary()
    assert Key.calls == 100 and second == first
    # each call hands out its own dicts: a caller's edit reaches no later summary
    second["counts"]["k000"] = 99
    second["n"] = -1
    assert acc.summary() == first


@pytest.mark.parametrize("change", ["add", "merge"])
def test_add_and_merge_drop_the_cached_summary(change):
    acc = tally(["a", "b"])
    assert acc.summary()["counts"] == {"a": 1, "b": 1}
    if change == "add":
        acc.add("a")
    else:
        acc.merge(tally(["a"]))
    assert acc.summary() == {"kind": "count", "n": 3, "counts": {"a": 2, "b": 1}}
