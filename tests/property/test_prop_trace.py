"""Properties of the trace store: every query is a filter of ``records``.

A random interleaving of the five append kinds — the generic
``record(...)`` and the ``send`` / ``deliver`` / ``drop`` / ``state``
fast paths — is fed to a tracer, with queries at random points.
Whatever the indexes hold (generic rows indexed as they land, fast-path
categories indexed when a query names them, the per-txn index built
for txn-only queries), every answer must equal a test-local filter of
``tracer.records``.  Separately, the store itself must hold every row
appended, in order, and render exactly like a tracer fed only through
``record(...)``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.sim.trace import Tracer

SITES = st.integers(0, 3)
TXNS = st.sampled_from(["", "T1", "T2"])
MTYPES = st.sampled_from(["a.x", "a.y"])
STATES = st.sampled_from(["Q", "W", "PC", "C"])
#: generic rows may name a fast-path category too (a test or a caller
#: that writes ``record(t, s, "send", ...)``)
CATEGORIES = ["decision", "blocked", "election", "crash", "send", "deliver", "drop", "state"]
CATEGORY = st.sampled_from(CATEGORIES)
MAYBE = lambda values: st.none() | values  # noqa: E731

APPENDS = st.one_of(
    st.tuples(st.just("send"), SITES, TXNS, MTYPES, SITES),
    st.tuples(st.just("deliver"), SITES, TXNS, MTYPES, SITES),
    st.tuples(st.just("drop"), SITES, TXNS, MTYPES, SITES, st.sampled_from(["down", "lossy"])),
    st.tuples(st.just("state"), SITES, TXNS, STATES, STATES, st.sampled_from(["vote", "prepare"])),
    st.tuples(st.just("record"), SITES, CATEGORY, TXNS, st.sampled_from(["commit", "abort"])),
)
QUERIES = st.one_of(
    st.tuples(st.just("where"), MAYBE(CATEGORY), MAYBE(SITES), MAYBE(TXNS), MAYBE(st.integers(0, 40))),
    st.tuples(st.just("count"), CATEGORY, MAYBE(SITES), MAYBE(TXNS)),
    st.tuples(st.just("decisions"), TXNS),
    st.tuples(st.just("message_counts")),
    st.tuples(st.just("txn_scope"), TXNS),
    st.tuples(st.just("since"), CATEGORY),
    st.tuples(st.just("entries"), CATEGORY, MAYBE(TXNS)),
)
STEPS = st.lists(st.one_of(APPENDS, APPENDS, APPENDS, QUERIES), max_size=80)


def append(tracer, time, step, generic_only=False):
    """One append step, through its fast path unless ``generic_only``."""
    kind, site, *rest = step
    if kind == "record":
        category, txn, outcome = rest
        detail = {"outcome": outcome} if category == "decision" else {"k": outcome}
        tracer.record(time, site, category, txn, **detail)
    elif generic_only:
        txn, a, b, *more = rest
        keys = {
            "send": ("mtype", "dst"),
            "deliver": ("mtype", "src"),
            "drop": ("mtype", "dst", "reason"),
            "state": ("src", "dst", "via"),
        }[kind]
        tracer.record(time, site, kind, txn, **dict(zip(keys, (a, b, *more))))
    else:
        getattr(tracer, f"record_{kind}")(time, site, *rest)


def ask(tracer, query, cursors):
    """The tracer's answer to ``query``."""
    kind, *args = query
    if kind == "where":
        category, site, txn, after = args
        pred = None if after is None else (lambda r: r.time >= after)
        return tracer.where(category=category, site=site, txn=txn, pred=pred)
    if kind == "count":
        category, site, txn = args
        kwargs = {k: v for k, v in (("site", site), ("txn", txn)) if v is not None}
        return tracer.count(category, **kwargs)
    if kind == "since":
        return tracer.since(cursors.get(args[0], 0), args[0])
    return getattr(tracer, kind)(*args)


def reference(records, query, cursors):
    """The same answer, filtered from ``records``."""
    kind, *args = query
    if kind == "where":
        category, site, txn, after = args
        return [
            r
            for r in records
            if (category is None or r.category == category)
            and (site is None or r.site == site)
            and (txn is None or r.txn == txn)
            and (after is None or r.time >= after)
        ]
    if kind == "count":
        category, site, txn = args
        return sum(
            r.category == category and site in (None, r.site) and txn in (None, r.txn) for r in records
        )
    if kind == "decisions":
        (txn,) = args
        return {r.site: r.detail["outcome"] for r in records if r.category == "decision" and r.txn == txn}
    if kind == "message_counts":
        return dict(Counter(r.detail.get("mtype", "?") for r in records if r.category == "send"))
    if kind == "txn_scope":
        (txn,) = args
        return [r for r in records if r.txn in ("", txn)]
    if kind == "since":
        (category,) = args
        start = cursors.get(category, 0)
        found = [
            (r.time, r.site, r.txn)
            for pos, r in enumerate(records)
            if pos >= start and r.category == category
        ]
        return len(records), found
    category, txn = args
    return [(r.time, r.site, r.detail) for r in records if r.category == category and txn in (None, r.txn)]


def check_query(tracer, query, cursors):
    """Answer ``query``, then compare it with a filter of ``records``
    (read afterwards, so the query meets views it has not memoized)."""
    answer = ask(tracer, query, cursors)
    assert answer == reference(tracer.records, query, cursors)
    if query[0] == "since":
        cursors[query[1]] = answer[0]


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_every_query_is_a_filter_of_the_records(steps):
    tracer = Tracer()
    cursors = {}
    for time, step in enumerate(steps):
        if step[0] in ("send", "deliver", "drop", "state", "record"):
            append(tracer, float(time), step)
        else:
            check_query(tracer, step, cursors)
    # one more round after the last append: every index catches up
    for category in CATEGORIES:
        check_query(tracer, ("entries", category, None), cursors)
        check_query(tracer, ("since", category), cursors)
    check_query(tracer, ("txn_scope", "T1"), cursors)


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_fast_paths_store_what_the_generic_append_stores(steps):
    fast, generic = Tracer(), Tracer()
    kept = []  # the time of every row appended
    for time, step in enumerate(steps):
        if step[0] not in ("send", "deliver", "drop", "state", "record"):
            check_query(fast, step, {})  # queries in between change nothing
            continue
        append(fast, float(time), step)
        append(generic, float(time), step, generic_only=True)
        kept.append(float(time))
    assert fast.records == generic.records
    assert fast.dump() == generic.dump()
    assert [r.time for r in fast.records] == kept
    assert len(fast) == len(generic) == len(kept)
