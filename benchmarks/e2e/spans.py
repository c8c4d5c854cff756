"""Layer-boundary spans, recorded from the benchmark's side.

:func:`install` puts class-level wrappers around the public functions
through which one layer of ``repro`` calls another, and hooks at
``Node.on``, ``Node.set_timer`` and ``Scheduler.call_at/call_fixed``
that attribute each message handler or scheduled callback to the layer
whose module defines it.  Nothing inside ``src/`` knows about spans;
:func:`uninstall` restores every original.

A span has a layer, a function name, a start, an end and a parent.  Its
*self time* is its duration minus the part its child spans cover; per
layer the recorder folds self time and a call count.  During a
*retaining* pass the full spans of the first :data:`KEEP_TXNS`
transactions (at most :data:`KEEP_SPANS` spans) are also kept in memory
(a span inherits the transaction id of the span that caused it) for
``run.py --out``.

What the numbers include: the wrapper's own cost before its first and
after its second clock read lands in the *parent's* self time, so a
layer that makes many boundary calls reads a little high.  The traced
run reports ``trace_overhead_ratio`` so the distortion has a size.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns as clock
from typing import Any, Callable

#: this repo's modules, as the layers of the budget.
LAYERS = (
    "sim.scheduler",
    "net",
    "protocols",
    "election",
    "storage",
    "concurrency.locks",
    "concurrency.serializability",
    "sim.trace.append",
    "sim.trace.query",
    "sim.failures",
    "traffic",
    "db.build",
    "db.txn",
    "replication",
    "workload",
    "analysis",
    "engine.sink",
    "engine.aggregate",
    "engine.executor",
)
#: pseudo-layer for the pass root and callbacks defined outside ``repro``.
HARNESS = len(LAYERS)
_INDEX = {name: i for i, name in enumerate(LAYERS)}

#: full spans are retained for this many distinct transactions, and for
#: no more than this many spans (a 32-site storm alone is ~2000 spans).
KEEP_TXNS = 200
KEEP_SPANS = 100_000

#: longest module prefix wins; scheduled callbacks and message handlers
#: are attributed through this table by their defining module.
MODULE_LAYERS = (
    ("repro.sim.scheduler", "sim.scheduler"),
    ("repro.sim.failures", "sim.failures"),
    ("repro.sim.trace", "sim.trace.append"),
    ("repro.net", "net"),
    ("repro.protocols", "protocols"),
    ("repro.election", "election"),
    ("repro.storage", "storage"),
    ("repro.concurrency.locks", "concurrency.locks"),
    ("repro.concurrency.serializability", "concurrency.serializability"),
    ("repro.traffic", "traffic"),
    ("repro.db.cluster", "db.build"),
    ("repro.db", "db.txn"),
    ("repro.replication", "replication"),
    ("repro.workload", "workload"),
    ("repro.analysis", "analysis"),
    ("repro.engine.sink", "engine.sink"),
    ("repro.engine.aggregate", "engine.aggregate"),
    ("repro.engine", "engine.executor"),
)

#: layer -> (module, class or None, attribute names): the boundaries.
BOUNDARIES: dict[str, tuple[tuple[str, str | None, tuple[str, ...]], ...]] = {
    "sim.scheduler": (
        (
            "repro.sim.scheduler",
            "Scheduler",
            ("step", "run", "run_until", "call_after", "call_fixed_after", "call_fixed_until"),
        ),
    ),
    "net": (
        (
            "repro.net.network",
            "Network",
            (
                "send",
                "set_partition",
                "heal",
                "crash_site",
                "recover_site",
                "degrade_site",
                "restore_site",
                "set_link_loss",
                "reachable_from",
            ),
        ),
        ("repro.net.node", "Node", ("send", "multicast", "broadcast", "deliver")),
    ),
    "protocols": (
        (
            "repro.protocols.base",
            "CommitProtocolEngine",
            ("begin_commit", "kick", "on_crash", "rebuild_from_wal"),
        ),
    ),
    "storage": (
        (
            "repro.storage.wal",
            "WriteAheadLog",
            ("force", "flush", "decision", "for_txn", "last_protocol_record", "open_txns"),
        ),
        ("repro.storage.store", "ReplicaStore", ("read", "write", "host", "hosts")),
        ("repro.storage.recovery", None, ("replay_data", "recover_protocol_states")),
    ),
    "concurrency.locks": (
        ("repro.concurrency.locks", "LockManager", ("acquire", "release_all", "is_locked")),
    ),
    "concurrency.serializability": (
        ("repro.concurrency.serializability", "ConflictGraph", ("__init__", "is_serializable")),
    ),
    "sim.trace.append": (
        (
            "repro.sim.trace",
            "Tracer",
            ("record", "record_send", "record_deliver", "record_drop"),
        ),
    ),
    "sim.trace.query": (
        (
            "repro.sim.trace",
            "Tracer",
            ("where", "count", "decisions", "message_counts", "txn_scope"),
        ),
    ),
    "sim.failures": (("repro.sim.failures", "FailureInjector", ("arm",)),),
    "traffic": (
        (
            "repro.traffic.engine",
            "TrafficEngine",
            (
                "run_closed",
                "submit_interactive",
                "submit_now",
                "run_to_quiescence",
                "tally",
                "run_open",
            ),
        ),
    ),
    "db.build": (
        ("repro.db.cluster", "Cluster", ("arm_failures", "join_site", "leave_site")),
    ),
    "db.txn": (
        (
            "repro.db.cluster",
            "Cluster",
            (
                "transaction",
                "update",
                "read",
                "outcome",
                "committed_history",
                "availability",
                "live_undecided",
            ),
        ),
        (
            "repro.db.transactions",
            "InteractiveTransaction",
            ("read", "write", "submit", "abort"),
        ),
        ("repro.db.site", "SiteHooks", ("vote", "apply_commit", "apply_abort")),
    ),
    "replication": (
        (
            "repro.replication.catalog",
            "ReplicaCatalog",
            (
                "item",
                "sites_of",
                "sites_of_any",
                "all_sites",
                "r",
                "w",
                "v",
                "votes",
                "has_read_quorum",
                "has_write_quorum",
            ),
        ),
        (
            "repro.replication.accessor",
            "QuorumPlanner",
            ("plan_read", "plan_write", "resolve_read", "next_version"),
        ),
    ),
    "workload": (
        ("repro.workload.spec", "WorkloadSpec", ("compile",)),
        (
            "repro.workload.spec",
            "CompiledWorkload",
            ("arrivals", "next_op", "next_gap", "next_update"),
        ),
    ),
    "analysis": (
        ("repro.analysis.consistency", None, ("check_atomicity",)),
        ("repro.analysis.availability", None, ("availability_snapshot",)),
    ),
    "engine.sink": (
        ("repro.engine.sink", "ResultSink", ("open", "emit")),
        ("repro.engine.sink", "TeeSink", ("open", "emit", "close")),
        ("repro.engine.sink", "JsonlSink", ("open", "emit", "close")),
        ("repro.engine.sink", "ReducerSink", ("emit", "summary")),
    ),
    "engine.aggregate": (
        ("repro.engine.aggregate", "RowReducer", ("fold", "summary")),
        ("repro.engine.aggregate", None, ("row_digest", "merge_digests")),
    ),
    "engine.executor": (("repro.engine.executor", None, ("run_sweep",)),),
}


class Recorder:
    """Folded per-layer self time and counts, plus retained spans.

    The lists are mutated in place and never rebound: every wrapper
    closes over them once, at :func:`install`.
    """

    def __init__(self) -> None:
        self.on = False
        self.self_ns = [0] * (HARNESS + 1)
        self.calls = [0] * (HARNESS + 1)
        self.handled = [0] * (HARNESS + 1)
        #: one frame per open span: [child ns, span id, txn]
        self.stack: list[list[Any]] = []
        #: inclusive [ns, calls] of the few functions reported by name
        self.named: dict[str, list[int]] = {}
        self.fanouts = 0
        self.fanout_dsts = 0
        self.lock_probes = 0
        self.lock_denied = 0
        #: retained spans (None = folding only)
        self.spans: list[tuple[int, int, str, str, int, int, str]] | None = None
        self.kept_txns: set[str] = set()
        self._next_id = 0
        self._pass_t0 = 0
        self.pass_ns = 0

    def begin_pass(self, retain: bool = False) -> None:
        """Zero the folds and open the root span."""
        for counts in (self.self_ns, self.calls, self.handled):
            counts[:] = [0] * len(counts)
        self.named.clear()
        self.fanouts = self.fanout_dsts = self.lock_probes = self.lock_denied = 0
        self.stack[:] = [[0, 0, ""]]
        self.spans = [] if retain else None
        self.kept_txns.clear()
        self._next_id = 0
        self.on = True
        self._pass_t0 = clock()

    def end_pass(self) -> None:
        """Close the root span; its self time is the harness residual."""
        self.pass_ns = clock() - self._pass_t0
        self.on = False
        root = self.stack.pop()
        self.self_ns[HARNESS] += self.pass_ns - root[0]
        self.calls[HARNESS] += 1

    def snapshot(self) -> dict[str, Any]:
        """The folded state of the pass just ended, as plain data."""
        return {
            "pass_ns": self.pass_ns,
            "self_ns": list(self.self_ns),
            "calls": list(self.calls),
            "handled": list(self.handled),
            "named": {key: list(value) for key, value in self.named.items()},
            "fanouts": self.fanouts,
            "fanout_dsts": self.fanout_dsts,
            "lock_probes": self.lock_probes,
            "lock_denied": self.lock_denied,
        }

    # retained-span helpers (cold path: only while ``spans`` is a list)

    def _enter(self, frame: list[Any], txn: str | None) -> None:
        self._next_id += 1
        frame[1] = self._next_id
        if txn:
            # every cluster numbers its transactions from 1: the ordinal
            # of the cluster tells one storm's T5.1 from the next one's
            frame[2] = f"c{self.named.get('cluster_init', (0, 0))[1]}/{txn}"
        else:
            frame[2] = self.stack[-2][2]

    def _exit(self, frame: list[Any], layer: int, name: str, t0: int, t1: int) -> None:
        txn = frame[2]
        if not txn or len(self.spans) >= KEEP_SPANS:
            return
        if txn not in self.kept_txns:
            if len(self.kept_txns) >= KEEP_TXNS:
                return
            self.kept_txns.add(txn)
        layer_name = LAYERS[layer] if layer < HARNESS else "harness"
        start = self._pass_t0
        self.spans.append((frame[1], self.stack[-1][1], layer_name, name, t0 - start, t1 - start, txn))


REC = Recorder()
_installed: list[tuple[Any, str, Any]] = []
_layer_cache: dict[Any, tuple[int, str, bool]] = {}


def _txn_of(args: tuple[Any, ...]) -> str | None:
    """The transaction a call is about, if its leading arguments say:
    something carrying ``.txn`` (a message, a client transaction) or a
    transaction id string (``"T<site>.<n>"``)."""
    for arg in args[:4]:
        txn = getattr(arg, "txn", None)
        if isinstance(txn, str) and txn:
            return txn
        if isinstance(arg, str) and arg[:1] == "T" and "." in arg:
            return arg
    return None


def _span(layer: int, name: str, fn: Callable[..., Any], tally: str | None = None):
    """``fn`` wrapped in a span of ``layer``."""
    rec = REC
    stack, self_ns, calls, named = rec.stack, rec.self_ns, rec.calls, rec.named

    @functools.wraps(fn)
    def span(*args: Any, **kwargs: Any) -> Any:
        if not rec.on:
            return fn(*args, **kwargs)
        frame = [0, 0, ""]
        stack.append(frame)
        if rec.spans is not None:
            rec._enter(frame, _txn_of(args))
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            stack.pop()
            duration = t1 - t0
            calls[layer] += 1
            self_ns[layer] += duration - frame[0]
            stack[-1][0] += duration
            if tally is not None:
                slot = named.get(tally)
                if slot is None:
                    slot = named[tally] = [0, 0]
                slot[0] += duration
                slot[1] += 1
            if rec.spans is not None:
                rec._exit(frame, layer, name, t0, t1)

    span._e2e_span = True
    return span


def _layer_of(fn: Callable[..., Any]) -> tuple[int, str, bool]:
    """(layer, name, already-a-span) of a handler or callback."""
    func = getattr(fn, "__func__", fn)
    func = getattr(func, "func", func)  # functools.partial
    if getattr(func, "_e2e_span", False):
        return HARNESS, "", True
    # keyed by code object, never by function: a closure scheduled by a
    # cluster (an arrival chain, a drain poll) would pin that cluster
    # and its whole trace in the cache for the rest of the process
    key = getattr(func, "__code__", func)
    hit = _layer_cache.get(key)
    if hit is None:
        module = getattr(func, "__module__", "") or ""
        layer = HARNESS
        for prefix, layer_name in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                layer = _INDEX[layer_name]
                break
        hit = _layer_cache[key] = (layer, getattr(func, "__qualname__", repr(func)), False)
    return hit


def _run_callback(fn: Callable[..., Any], *args: Any) -> None:
    """A scheduled callback, run inside a span of its defining layer."""
    rec = REC
    if not rec.on:
        fn(*args)
        return
    layer, name, is_span = _layer_of(fn)
    if is_span:  # a wrapped boundary function: it opens its own span
        fn(*args)
        return
    stack = rec.stack
    frame = [0, 0, ""]
    stack.append(frame)
    if rec.spans is not None:
        rec._enter(frame, _txn_of(args))
    t0 = clock()
    try:
        fn(*args)
    finally:
        t1 = clock()
        stack.pop()
        duration = t1 - t0
        rec.calls[layer] += 1
        rec.self_ns[layer] += duration - frame[0]
        stack[-1][0] += duration
        if rec.spans is not None:
            rec._exit(frame, layer, name, t0, t1)


def _run_handler(fn: Callable[..., Any], msg: Any) -> None:
    """A message handler, counted and run as a callback."""
    if REC.on:
        REC.handled[_layer_of(fn)[0]] += 1
    _run_callback(fn, msg)


def _set(owner: Any, attr: str, value: Any) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _wrap_attr(layer: int, module_name: str, cls_name: str | None, attr: str, tally=None) -> None:
    """Wrap one boundary; a missing name is an error, not a skipped
    span — a refactor that renames a boundary must say so."""
    module = importlib.import_module(module_name)
    if cls_name is None:
        original = getattr(module, attr)
        wrapped = _span(layer, attr, original, tally)
        # rebind every ``from module import attr`` alias already made
        for other in list(sys.modules.values()):
            names = getattr(other, "__dict__", None)
            if names is not None and names.get(attr) is original:
                _set(other, attr, wrapped)
        return
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    name = f"{cls_name}.{attr}"
    if isinstance(raw, staticmethod):
        wrapped: Any = staticmethod(_span(layer, name, raw.__func__, tally))
    else:
        wrapped = _span(layer, name, raw, tally)
    _set(cls, attr, wrapped)


def _replace(cls: type, attr: str, layer: str | None, build: Callable[[Any], Any]) -> None:
    """Swap ``cls.attr`` for ``build(original)``, run in a span of
    ``layer`` (``None``: the replacement only re-routes, no span)."""
    original = cls.__dict__[attr]
    replacement = functools.wraps(original)(build(original))
    if layer is not None:
        replacement = _span(_INDEX[layer], f"{cls.__name__}.{attr}", replacement)
    _set(cls, attr, replacement)


def install() -> None:
    """Wrap every boundary.  Idempotent; undone by :func:`uninstall`."""
    if _installed:
        return
    for layer_name, groups in BOUNDARIES.items():
        for module_name, cls_name, attrs in groups:
            for attr in attrs:
                _wrap_attr(_INDEX[layer_name], module_name, cls_name, attr)
    _wrap_attr(_INDEX["db.build"], "repro.db.cluster", "Cluster", "__init__", tally="cluster_init")

    from repro.concurrency.locks import LockManager
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.sim.scheduler import Scheduler

    rec = REC

    # scheduled callbacks run inside a span of their defining layer

    def call_at(original):
        def traced(self, time, fn, *args, label=""):
            return original(self, time, _run_callback, fn, *args, label=label)

        return traced

    def call_fixed(original):
        def traced(self, time, fn, *args):
            original(self, time, _run_callback, fn, *args)

        return traced

    _replace(Scheduler, "call_at", "sim.scheduler", call_at)
    _replace(Scheduler, "call_fixed", "sim.scheduler", call_fixed)

    # handlers and timers are attributed to the layer that defines them

    def node_on(original):
        def traced(self, mtype, handler):
            original(self, mtype, functools.partial(_run_handler, handler))

        return traced

    def set_timer(original):
        def traced(self, delay, fn, *args, label=""):
            return original(self, delay, _run_callback, fn, *args, label=label)

        return traced

    _replace(Node, "on", None, node_on)
    _replace(Node, "set_timer", "net", set_timer)

    # two boundaries also count what crosses them

    def fanout(original):
        def traced(self, src, dsts, *args, **kwargs):
            dsts = list(dsts)
            if rec.on:
                rec.fanouts += 1
                rec.fanout_dsts += len(dsts)
            return original(self, src, dsts, *args, **kwargs)

        return traced

    def try_acquire(original):
        def traced(self, *args, **kwargs):
            granted = original(self, *args, **kwargs)
            if rec.on:
                rec.lock_probes += 1
                rec.lock_denied += not granted
            return granted

        return traced

    _replace(Network, "fanout", "net", fanout)
    _replace(LockManager, "try_acquire", "concurrency.locks", try_acquire)


def uninstall() -> None:
    """Restore every original, newest first."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)
    _layer_cache.clear()
