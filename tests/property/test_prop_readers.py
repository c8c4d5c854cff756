"""Properties of the one artifact reader and the one action table.

* **Readers fail loudly.**  Take a valid row stream, a valid trace (one
  per ``TRACE_DRIVERS`` name) and a ``ResultStore`` / ``BENCH_*``
  document; truncate it, flip a byte, delete a line or
  replace a line with some other valid JSON value.  The load then
  either returns exactly what the untouched artifact holds or raises
  ``StoreError`` — never another exception, never a partial load.
* **An action kind is declared once.**  ``decode_action(encode_action(a))
  == a`` over all ten kinds, the wire form of each kind is the one
  committed traces already hold, and ``within(sites)`` agrees with a
  test-local copy of the ``project_plan`` it replaced.
* **Bytes do not move.**  The SHA-256 of every default-shape recording
  equals the value computed before the framing was shared.
"""

import gzip
import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import load as load_baseline
from repro.common.errors import StoreError
from repro.engine import JsonlSink, ResultStore, SweepSpec, load_stream, run_sweep
from repro.engine.store import write_document
from repro.replay import (
    TRACE_DRIVERS,
    RecordedTrace,
    decode_action,
    encode_action,
    record,
)
from repro.replay.tournament import project_plan
from repro.sim.failures import (
    ACTIONS,
    CrashSite,
    DegradeSite,
    FailurePlan,
    FlapLink,
    HealNetwork,
    JoinSite,
    LeaveSite,
    PartitionNetwork,
    RecoverSite,
    RestoreSite,
    SetLinkLoss,
)


def cell(seed: int, scale: int = 1) -> dict:
    return {"seed": seed, "scaled": seed * scale, "label": f"s{scale}"}


SPEC = SweepSpec("fuzzed", cell, grid={"scale": [1, 2, 3]}, runs=4, seeding="offset")


# ----------------------------------------------------------------------
# the artifacts under test: (bytes, loader(path) -> comparable content)
# ----------------------------------------------------------------------


def _trace_content(path):
    return RecordedTrace.load(path).to_lines()


def _store_content(path):
    return ResultStore(path.parent).load(path.stem)


_ARTIFACTS: dict[str, tuple[str, bytes, object]] = {}


def artifacts() -> dict[str, tuple[str, bytes, object]]:
    """name -> (file name, pristine bytes, loader), built once."""
    if _ARTIFACTS:
        return _ARTIFACTS
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = tmp / "rows.jsonl.gz"
        run_sweep(SPEC, sink=JsonlSink(rows))
        _ARTIFACTS["rows"] = ("rows.jsonl.gz", rows.read_bytes(), load_stream)
        for name in TRACE_DRIVERS:
            data = record(name, "qtp1", 0).encode()
            _ARTIFACTS[f"trace-{name}"] = ("trace.jsonl.gz", data, _trace_content)
        stored = ResultStore(tmp).save(run_sweep(SPEC))
        _ARTIFACTS["store"] = (stored.name, stored.read_bytes(), _store_content)
        baseline = write_document(
            tmp / "BENCH_toy.json",
            {"case": "toy", "schema": 1, "spec": SPEC.summary(), "rows": [{"run": 0, "counters": {"n": 3}}]},
        )
        _ARTIFACTS["baseline"] = (baseline.name, baseline.read_bytes(), load_baseline)
    return _ARTIFACTS


ARTIFACT_NAMES = ["rows", *(f"trace-{name}" for name in TRACE_DRIVERS), "store", "baseline"]

#: valid JSON that is no record of any artifact: scalars, arrays, objects
#: of no known type, and failure records only a type check can refuse.
STRAYS = [
    "7",
    "null",
    "[1]",
    '"end"',
    "{}",
    '{"type":"mystery"}',
    '{"type":"failure","action":[1]}',
    '{"type":"failure","action":"crash","time":"soon","site":1}',
    '{"type":"failure","action":"crash","time":1.0,"site":1.5}',
    '{"type":"failure","action":"partition","time":1.0,"groups":[[1],2]}',
    '{"type":"failure","action":"join","time":1.0,"site":9,"copies":[["x"]]}',
    '{"type":"failure","action":"heal","time":1.0,"sites":[1]}',
]


def mutate(data: bytes, compressed: bool, how: str, where: float, stray: str) -> bytes:
    """One mutation of an artifact's bytes; line mutations are made on
    the logical (decompressed) text and framed again."""
    if how == "truncate":
        return data[: int(where * len(data))]
    if how == "flip":
        at = int(where * len(data))
        return data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1 :]
    lines = (gzip.decompress(data) if compressed else data).splitlines(keepends=True)
    at = int(where * len(lines))
    lines[at : at + 1] = [] if how == "delete" else [stray.encode() + b"\n"]
    text = b"".join(lines)
    return gzip.compress(text, mtime=0) if compressed else text


class TestReadersFailLoudly:
    @pytest.mark.parametrize("name", ARTIFACT_NAMES)
    def test_the_pristine_artifact_loads(self, name, tmp_path):
        file_name, data, load = artifacts()[name]
        (tmp_path / file_name).write_bytes(data)
        assert load(tmp_path / file_name)

    @given(
        name=st.sampled_from(ARTIFACT_NAMES),
        how=st.sampled_from(["truncate", "flip", "delete", "replace"]),
        where=st.floats(0.0, 1.0, exclude_max=True),
        stray=st.sampled_from(STRAYS),
    )
    @settings(max_examples=400, deadline=None)
    def test_a_mutated_artifact_loads_whole_or_raises_store_error(self, name, how, where, stray):
        file_name, data, load = artifacts()[name]
        compressed = file_name.endswith(".gz")
        mutated = mutate(data, compressed, how, where, stray)
        with tempfile.TemporaryDirectory() as tmp:
            pristine, bent = Path(tmp) / "a" / file_name, Path(tmp) / "b" / file_name
            for path, content in ((pristine, data), (bent, mutated)):
                path.parent.mkdir()
                path.write_bytes(content)
            try:
                loaded = load(bent)
            except StoreError as exc:
                assert str(bent) in str(exc)
                return
            if compressed:
                # framed artifacts carry a CRC and an end count: what
                # loads is what was written
                assert loaded == load(pristine)
            else:
                # a document has no checksum: a mutation that leaves a
                # well-formed document of the right schema (a digit
                # inside a value) loads as what the bytes now say —
                # whole, never partial
                assert loaded == json.loads(mutated)


class TestDocumentsNameThePath:
    """The three document defects the shared reader closes."""

    BENT = {"corrupt": "{not json", "not-an-object": "[1, 2]", "no-body": '{"schema": 1}'}

    @pytest.mark.parametrize("text", BENT.values(), ids=BENT.keys())
    def test_result_store(self, tmp_path, text):
        store = ResultStore(tmp_path)
        store.path_for("demo").write_text(text)
        for read in (store.load, store.results):
            with pytest.raises(StoreError) as err:
                read("demo")
            assert str(store.path_for("demo")) in str(err.value)

    @pytest.mark.parametrize("text", BENT.values(), ids=BENT.keys())
    def test_bench_baseline(self, tmp_path, text):
        path = tmp_path / "BENCH_toy.json"
        path.write_text(text)
        with pytest.raises(StoreError) as err:
            load_baseline(path)
        assert str(path) in str(err.value)

    def test_an_absent_file_is_still_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ResultStore(tmp_path).load("demo")
        with pytest.raises(FileNotFoundError):
            load_baseline(tmp_path / "BENCH_toy.json")


class TestMalformedTraceRecords:
    """A failure record the injector could not apply is refused at load,
    by path and line — not at replay, inside ``heapq``."""

    @pytest.mark.parametrize("stray", [s for s in STRAYS if '"failure"' in s])
    def test_bad_failure_record_names_path_and_line(self, tmp_path, stray):
        lines = record("workload", "qtp1", 0).to_lines()
        at = next(i for i, line in enumerate(lines) if line["type"] == "failure")
        text = [json.dumps(line) for line in lines]
        text[at] = stray
        path = tmp_path / "bent.jsonl.gz"
        path.write_bytes(gzip.compress(("\n".join(text) + "\n").encode()))
        with pytest.raises(StoreError, match="malformed trace record") as err:
            RecordedTrace.load(path)
        assert f"{path}: line {at + 1} " in str(err.value)

    def test_in_memory_lines_name_the_line_too(self):
        lines = record("workload", "qtp1", 0).to_lines()
        lines[3] = {"type": "op", "kind": "update"}
        with pytest.raises(StoreError, match=r"line 4 is a malformed trace record"):
            RecordedTrace.from_lines(lines)


# ----------------------------------------------------------------------
# the action table
# ----------------------------------------------------------------------

#: one action of every kind with its wire form, as committed traces hold it.
WIRE_FORMS = [
    (CrashSite(1.5, 2), {"action": "crash", "time": 1.5, "site": 2}),
    (RecoverSite(2.0, 2), {"action": "recover", "time": 2.0, "site": 2}),
    (
        PartitionNetwork(3.0, ((1, 2), (3,))),
        {"action": "partition", "time": 3.0, "groups": [[1, 2], [3]]},
    ),
    (HealNetwork(4.0), {"action": "heal", "time": 4.0}),
    (SetLinkLoss(5.0, 1, 2, 0.25), {"action": "sever", "time": 5.0, "src": 1, "dst": 2, "p": 0.25}),
    (
        JoinSite(6.0, 9, (("x", 1), ("y", 2)), 3),
        {"action": "join", "time": 6.0, "site": 9, "copies": [["x", 1], ["y", 2]], "near": 3},
    ),
    (DegradeSite(7.0, 4, 6.0), {"action": "degrade", "time": 7.0, "site": 4, "factor": 6.0}),
    (RestoreSite(8.0, 4), {"action": "restore", "time": 8.0, "site": 4}),
    (
        FlapLink(9.0, 2, 3, 6.0, 0.25, 5),
        {"action": "flap", "time": 9.0, "src": 2, "dst": 3, "period": 6.0, "duty": 0.25, "cycles": 5},
    ),
    (LeaveSite(10.0, 4), {"action": "leave", "time": 10.0, "site": 4}),
]

TIMES = st.floats(0.0, 1e6, allow_nan=False) | st.integers(0, 10**6)
SITES = st.integers(1, 12)
RATIOS = st.floats(0.0, 1.0)
ACTION_STRATEGIES = st.one_of(
    st.builds(CrashSite, TIMES, SITES),
    st.builds(RecoverSite, TIMES, SITES),
    st.builds(
        PartitionNetwork,
        TIMES,
        st.lists(st.lists(SITES, max_size=4).map(tuple), max_size=4).map(tuple),
    ),
    st.builds(HealNetwork, TIMES),
    st.builds(SetLinkLoss, TIMES, SITES, SITES, RATIOS),
    st.builds(
        JoinSite,
        TIMES,
        SITES,
        st.lists(st.tuples(st.text(max_size=3), st.integers(1, 5)), max_size=3).map(tuple),
        st.none() | SITES,
    ),
    st.builds(DegradeSite, TIMES, SITES, st.floats(0.5, 50.0)),
    st.builds(RestoreSite, TIMES, SITES),
    st.builds(FlapLink, TIMES, SITES, SITES, st.floats(0.1, 100.0), RATIOS, st.integers(1, 9)),
    st.builds(LeaveSite, TIMES, SITES),
)


def reference_project_plan(actions, sites):
    """``replay.tournament.project_plan`` as it stood before each action
    class declared its own ``within`` — the reference the table is held to."""
    plan = FailurePlan()
    for action in actions:
        if isinstance(action, (CrashSite, RecoverSite, DegradeSite, RestoreSite, LeaveSite)):
            if action.site in sites:
                plan.actions.append(action)
        elif isinstance(action, PartitionNetwork):
            groups = tuple(
                kept for group in action.groups if (kept := tuple(s for s in group if s in sites))
            )
            if groups:
                plan.actions.append(PartitionNetwork(action.time, groups))
        elif isinstance(action, (SetLinkLoss, FlapLink)):
            if action.src in sites and action.dst in sites:
                plan.actions.append(action)
        elif isinstance(action, JoinSite):
            if action.near is not None and action.near not in sites:
                action = JoinSite(action.time, action.site, action.copies, None)
            plan.actions.append(action)
        else:
            plan.actions.append(action)
    return plan


class TestActionTable:
    def test_each_wire_name_is_bound_to_its_class_once(self):
        assert {wire: cls.__name__ for wire, cls in ACTIONS.items()} == {
            form["action"]: type(action).__name__ for action, form in WIRE_FORMS
        }
        assert len(ACTIONS) == 10

    @pytest.mark.parametrize("action, form", WIRE_FORMS, ids=[f["action"] for _, f in WIRE_FORMS])
    def test_wire_form_is_the_committed_one(self, action, form):
        assert encode_action(action) == form
        assert decode_action(form) == action

    def test_every_kind_has_a_builder_named_after_its_wire_name(self):
        plan = (
            FailurePlan()
            .crash(1, 2)
            .recover(2, 2)
            .partition(3, [1, 2], [3])
            .heal(4)
            .sever(5, 1, 2)
            .join(6, 9)
            .degrade(7, 4, 6.0)
            .restore(8, 4)
            .flap(9, 2, 3, 6.0)
            .leave(10, 4)
        )
        assert [type(a) for a in plan.actions] == [
            ACTIONS[w] for w in "crash recover partition heal sever join degrade restore flap leave".split()
        ]

    def test_defaulted_fields_may_be_absent(self):
        assert decode_action({"action": "join", "time": 1.0, "site": 9}) == JoinSite(1.0, 9)
        assert decode_action(
            {"action": "flap", "time": 1.0, "src": 1, "dst": 2, "period": 4.0}
        ) == FlapLink(1.0, 1, 2, 4.0)

    @pytest.mark.parametrize(
        "payload",
        [
            [1],
            {"time": 1.0},
            {"action": "crash", "time": "soon", "site": 1},
            {"action": "crash", "time": True, "site": 1},
            {"action": "crash", "time": 1.0, "site": "1"},
            {"action": "crash", "time": 1.0},
            {"action": "sever", "time": 1.0, "src": 1, "dst": 2.0, "p": 1.0},
            {"action": "partition", "time": 1.0, "groups": [1, 2]},
            {"action": "join", "time": 1.0, "site": 9, "copies": {"x": 1}},
            {"action": "join", "time": 1.0, "site": 9, "near": "3"},
            {"action": "flap", "time": 1.0, "src": 1, "dst": 2, "period": 4.0, "cycles": 2.5},
            {"action": "heal", "time": 1.0, "site": 3},
        ],
        ids=repr,
    )
    def test_a_record_the_injector_could_not_apply_is_a_store_error(self, payload):
        with pytest.raises(StoreError):
            decode_action(payload)

    @given(ACTION_STRATEGIES)
    @settings(max_examples=300, deadline=None)
    def test_codec_round_trip(self, action):
        wire = json.loads(json.dumps(encode_action(action)))
        assert decode_action(wire) == action

    @given(st.lists(ACTION_STRATEGIES, max_size=12), st.sets(SITES))
    @settings(max_examples=300, deadline=None)
    def test_within_agrees_with_the_projection_it_replaced(self, actions, sites):
        assert project_plan(actions, sites) == reference_project_plan(actions, sites)


# ----------------------------------------------------------------------
# bytes do not move
# ----------------------------------------------------------------------

#: SHA-256 of ``record(name, "qtp1", 0).encode()``, computed at the
#: commit before the trace and the row stream shared one framing (the
#: four scenarios registered later — E22, E23, E28, gray failure — when
#: they joined the registry, with every bench baseline unmoved).  The
#: gray-failure run's moved once since: a flapping link's heal retries
#: what its cut blocked.
TRACE_SHA256 = {
    "workload": "cede7fa2fb63400c63ebf2ae50a5bfc06338931dcf64890334e5af843baa1b12",
    "heavy_workload": "2356f065f883d24d5b83a7baf8435e58765da3968b41b833bb02416b1fafd4b2",
    "wan_storm": "c3c562efdbd7d2abd89df9442242a51dd87a70e332aadc7ceca72984b9be6978",
    "skewed_contention": "5faef7ab7f87cab6b93f9bf15a1863c44c894074a5e7428ef7a28ed7eb9b6211",
    "read_mostly": "afeb22bef01ae926a2c75c8e2438c8fd78b00e96ab8f59a7fe80c6763e3a2b1b",
    "cross_region": "393f063a5afb1b6749bc4e83dfa9042098a8d4b06eec77fbbc75e77a38db1c30",
    "elastic_join": "6957dbebbb0a588218cf2ae2fcc150485f7dfe4ec4492d4802c73b1457c6278f",
    "open_loop": "0a9b131f18807a7e3df77b70151056f80d49ef3fc209d34d159def7a502ca579",
    "rolling_upgrade": "f00bb337978d5de390df7615f8339c4f4e65bf388c5980442aad8e6e44c55297",
    "flash_crowd": "03e667f0109c6f1ed9bb3c97a2d728e1af47d668460998c09270242c8c08c368",
    "gray_failure": "84ada24762c3db0aa1366da9b68514924a0eee2f9e3b0fac673681459f0cf8ca",
}


def test_every_driver_has_a_pinned_hash():
    assert set(TRACE_SHA256) == set(TRACE_DRIVERS)


@pytest.mark.parametrize("name", TRACE_DRIVERS)
def test_trace_bytes_do_not_move(name, tmp_path):
    data = artifacts()[f"trace-{name}"][1]
    assert hashlib.sha256(data).hexdigest() == TRACE_SHA256[name]
    # and the round trip through the shared reader reproduces them
    path = tmp_path / "trace.jsonl.gz"
    path.write_bytes(data)
    assert RecordedTrace.load(path).encode() == data
