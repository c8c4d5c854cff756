"""Streaming aggregates: fold result rows without keeping them.

A sweep of 10^5–10^6 cells cannot hold its raw rows in RAM, yet its
aggregates must stay **byte-identical at every worker count** — the
engine's core contract.  Plain float folds break that promise the
moment rows are folded per worker and partials merged: ``(a+b)+(c+d)``
rounds differently from ``((a+b)+c)+d``.  The accumulators here are
therefore *exact*:

* :class:`CountAcc` — integer tallies (trivially associative).
* :class:`MeanAcc` — mean / min / max / sd over exact sums.  Every
  float is a dyadic rational, so the running sums are kept as integers
  over one shared power-of-two denominator and merging partials in any
  grouping yields the same value; floats only reappear at
  :meth:`~MeanAcc.summary` time, via one deterministic conversion.
* :class:`QuantileDigest` — a fixed-size histogram digest (integer bin
  counts, exact min/max) whose percentile estimates depend only on the
  folded multiset, never on fold order.

:class:`RowReducer` bundles named accumulators with the per-row digest
(:func:`row_digest`), so a worker can fold its chunk of results into a
small partial and ship *that* back instead of the raw row list; the
parent merges partials in chunk order and gets the same bytes a serial
fold produces.  A worker folds a row as plain fields
(:meth:`RowReducer.fold`: task index, digest, value), never as a
:class:`~repro.engine.spec.RunResult`; each reducer splits its metric
paths once, when it is built — once per chunk — and a plain ``dict``
row value is indexed without the ABC checks.
:class:`CountAcc` builds its summary once per state, so a sweep's
aggregate and a later ``summary()`` of the same reducer stringify and
sort its keys once.  ``MeanAcc`` and ``QuantileDigest`` refuse a
non-finite value before they change any state, and a reducer names the
metric and the task of a row it cannot fold.  The digest itself is an
order-independent sum of per-row SHA-256 hashes — each row's canonical
encoding already embeds its task index, so content *and* position are
pinned while partials stay mergeable.

A live row is encoded once, by :func:`encode_fields` (what
``fold_chunk`` calls: the row's ``(index, params, run, seed, value)``
with no object built around it): its ``value`` goes through
``jsonable`` and the canonical encoder, its header (``index``,
``params``, ``run``, ``seed``) is formatted into a prefix, and both the
digest input and the artifact line are spliced from those two pieces —
the keys sort, so ``"type"`` falls between ``"seed"`` and ``"value"``.
The cell's ``params`` encoding (:func:`encode_params`) is the caller's
to reuse: ``fold_chunk`` makes it once per cell, not once per row.
:func:`row_digest` over :meth:`ResultStore.row_payload` stays the
reference definition, and the digest of a row read back from an
artifact.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import isfinite
from operator import itemgetter
from typing import Any

from repro.engine.store import canonical_line, jsonable, raise_key_collision

#: digests are reduced into this modulus (63-bit, like derived seeds,
#: so they survive any JSON round trip losslessly).
DIGEST_MOD = 1 << 63


def _digest_of(data: bytes) -> int:
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") % DIGEST_MOD


def row_digest(row: Mapping[str, Any]) -> int:
    """A 63-bit digest of one canonical result row (the reference
    definition: :func:`encode_fields` gives the same digest of a live
    row)."""
    return _digest_of(canonical_line(row).encode("utf-8"))


def encode_params(params: Mapping[str, Any]) -> str:
    """A cell's ``params`` as they appear in its rows' canonical lines."""
    return canonical_line(jsonable(params))


def encode_fields(index: int, params: str, run: int, seed: int, value: Any) -> tuple[int, str]:
    """One live row's ``(digest, artifact line)``, from one encode.

    The row is a task's plain fields, ``params`` already encoded by
    :func:`encode_params`.  The digest equals
    ``row_digest(ResultStore.row_payload(result))`` and the line
    ``canonical_line({"type": "row", **that row})``, byte for byte.
    """
    if type(index) is int and type(run) is int and type(seed) is int:
        head = '{"index":%d,"params":%s,"run":%d,"seed":%d,' % (index, params, run, seed)
    else:  # a bool or an int subclass: JSON spells it its own way, not "%d"
        head = '{"index":%s,"params":%s,"run":%s,"seed":%s,' % (
            canonical_line(index), params, canonical_line(run), canonical_line(seed)
        )
    value = canonical_line(jsonable(value))
    digest = _digest_of(f'{head}"value":{value}}}'.encode())
    return digest, f'{head}"type":"row","value":{value}}}'


def merge_digests(a: int, b: int) -> int:
    """Combine two digest sums (order-independent, associative)."""
    return (a + b) % DIGEST_MOD


class Accumulator:
    """One streaming statistic: fold values, merge partials, summarize.

    Implementations must be **exactly mergeable**: folding a value
    sequence serially and folding it as partials merged in any grouping
    must produce byte-identical summaries.  They must also pickle (a
    fresh template travels to pool workers) and expose :meth:`fresh`
    returning an empty clone with the same shape parameters.
    """

    kind = "?"

    def add(self, value: Any) -> None:
        raise NotImplementedError

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def summary(self) -> dict[str, Any]:
        raise NotImplementedError

    def fresh(self) -> "Accumulator":
        raise NotImplementedError


class CountAcc(Accumulator):
    """Tally of distinct (hashable) values — commits, outcomes, flags.

    The summary reports each key under ``str(key)``, sorted by that
    string.  It is built once per state: a second :meth:`summary` of an
    unchanged tally copies the first instead of stringifying and
    sorting every key again, and :meth:`add` / :meth:`merge` drop it.
    """

    kind = "count"

    def __init__(self) -> None:
        self.n = 0
        self.counts: dict[Any, int] = {}
        self._summary: dict[str, Any] | None = None

    def add(self, value: Any) -> None:
        self.n += 1
        self.counts[value] = self.counts.get(value, 0) + 1
        self._summary = None

    def merge(self, other: "CountAcc") -> None:
        self.n += other.n
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count
        self._summary = None

    def summary(self) -> dict[str, Any]:
        """``{"kind", "n", "counts"}``, a fresh dict on every call.

        Raises:
            TypeError: two tallied keys that stringify alike (``1`` and
                ``"1"``): one count would silently overwrite the other.
        """
        if self._summary is None:
            named = [(str(k), n) for k, n in self.counts.items()]  # each key stringified once
            counts = dict(sorted(named, key=itemgetter(0)))
            if len(counts) != len(named):
                raise_key_collision(self.counts, "a CountAcc summary")
            self._summary = {"kind": self.kind, "n": self.n, "counts": counts}
        return {**self._summary, "counts": dict(self._summary["counts"])}

    def fresh(self) -> "CountAcc":
        return CountAcc()


class MeanAcc(Accumulator):
    """Exact streaming mean / min / max / sd.

    A row value is JSON data: an ``int``, ``bool`` or ``float``, each a
    dyadic rational.  The sums are two integers over one shared
    power-of-two denominator (``total == _num / 2**_exp``,
    ``total_sq == _sq / 4**_exp``), so an :meth:`add` is shifts and
    integer adds, and the merge of any partial grouping equals the
    serial fold bit-for-bit; ``mean``/``sd`` go through one
    :class:`~fractions.Fraction` division to float, at summary time.
    """

    kind = "mean"

    def __init__(self) -> None:
        self.n = 0
        self._num = 0
        self._sq = 0
        self._exp = 0
        self.lo: float | None = None
        self.hi: float | None = None

    @property
    def total(self) -> Fraction:
        """The exact sum of the values."""
        return Fraction(self._num, 1 << self._exp)

    @property
    def total_sq(self) -> Fraction:
        """The exact sum of the squared values."""
        return Fraction(self._sq, 1 << 2 * self._exp)

    def _rescale(self, exp: int) -> None:
        """Raise the shared denominator to ``2**exp``."""
        shift = exp - self._exp
        self._num <<= shift
        self._sq <<= 2 * shift
        self._exp = exp

    def add(self, value: Any) -> None:
        if not isinstance(value, (int, float)):  # bool is an int
            raise TypeError(f"MeanAcc folds int, bool or float values, got {type(value).__name__}")
        try:
            num, den = value.as_integer_ratio()  # den is a power of two
        except (OverflowError, ValueError):  # an infinity, a NaN
            raise ValueError(f"MeanAcc folds finite values, got {value!r}") from None
        exp = den.bit_length() - 1
        if exp > self._exp:
            self._rescale(exp)
        else:
            num <<= self._exp - exp
        self.n += 1
        self._num += num
        self._sq += num * num
        value = float(value)
        if self.lo is None or value < self.lo:
            self.lo = value
        if self.hi is None or value > self.hi:
            self.hi = value

    def merge(self, other: "MeanAcc") -> None:
        if other._exp > self._exp:
            self._rescale(other._exp)
        shift = self._exp - other._exp
        self.n += other.n
        self._num += other._num << shift
        self._sq += other._sq << 2 * shift
        if other.lo is not None:
            self.lo = other.lo if self.lo is None else min(self.lo, other.lo)
        if other.hi is not None:
            self.hi = other.hi if self.hi is None else max(self.hi, other.hi)

    def mean(self) -> float:
        return float(self.total / self.n) if self.n else 0.0

    def variance(self) -> float:
        """Unbiased sample variance, computed exactly before conversion."""
        if self.n < 2:
            return 0.0
        total = self.total
        exact = (self.total_sq - total * total / self.n) / (self.n - 1)
        return max(0.0, float(exact))

    def sd(self) -> float:
        return self.variance() ** 0.5

    def summary(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "mean": self.mean(),
            "min": self.lo if self.lo is not None else 0.0,
            "max": self.hi if self.hi is not None else 0.0,
            "sd": self.sd(),
        }

    def fresh(self) -> "MeanAcc":
        return MeanAcc()


class QuantileDigest(Accumulator):
    """Fixed-size percentile digest over a known value range.

    ``bins`` integer counters over ``[lo, hi)`` (out-of-range values
    clamp into the edge bins; exact min/max are tracked separately), so
    memory is constant in row count and the percentile estimates are a
    pure function of the folded multiset — merge order cannot change a
    single bit.  Estimates interpolate linearly inside the target bin,
    clamped to the observed range.
    """

    kind = "digest"

    def __init__(self, lo: float, hi: float, bins: int = 64) -> None:
        if not hi > lo:
            raise ValueError(f"digest range must satisfy hi > lo, got [{lo}, {hi}]")
        if bins < 1:
            raise ValueError(f"digest needs >= 1 bin, got {bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = bins
        self.counts = [0] * bins
        self.n = 0
        self.min: float | None = None
        self.max: float | None = None

    def add(self, value: Any) -> None:
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"QuantileDigest folds finite values, got {value!r}")
        # the bin first: a huge finite value scales to an infinity
        scaled = (value - self.lo) / (self.hi - self.lo) * self.bins
        if scaled < 0:
            index = 0
        elif scaled < self.bins:
            index = int(scaled)
        else:
            index = self.bins - 1
        self.n += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.counts[index] += 1

    def merge(self, other: "QuantileDigest") -> None:
        if (other.lo, other.hi, other.bins) != (self.lo, self.hi, self.bins):
            raise ValueError("cannot merge digests with different bin layouts")
        self.n += other.n
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (0 <= q <= 1).

        An empty digest returns the defined sentinel 0.0 (there is no
        observed range to clamp to).  Non-empty estimates interpolate
        linearly inside the target bin and are clamped to the exact
        observed ``[min, max]`` — the clamp tests ``is not None``, never
        truthiness, so an observed extreme of exactly 0.0 still clamps
        (a digest saturated into one bin reports that bin's observed
        extreme, not an interpolated point beyond it).
        """
        if not self.n:
            return 0.0
        rank = max(1, -(-int(q * self.n * 1000000) // 1000000))  # ceil, float-safe
        rank = min(rank, self.n)
        cumulative = 0
        width = (self.hi - self.lo) / self.bins
        for index, count in enumerate(self.counts):
            if cumulative + count >= rank:
                inside = (rank - cumulative) / count
                estimate = self.lo + width * (index + inside)
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
            cumulative += count
        return self.max if self.max is not None else 0.0

    def summary(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "n": self.n,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def fresh(self) -> "QuantileDigest":
        return QuantileDigest(self.lo, self.hi, self.bins)


def _resolve(value: Any, parts: Sequence[str]) -> Any:
    """Pull a metric out of a row value by a dotted path already split
    into segments.

    Each segment indexes a mapping, indexes a sequence (numeric
    segments, e.g. ``"latencies.0"``), or reads an attribute — so live
    dataclass results and rows loaded from a JSON artifact resolve
    identically; a plain ``dict`` is indexed without the ABC checks.
    """
    for part in parts:
        if type(value) is dict:
            value = value[part]
        elif isinstance(value, Mapping):
            value = value[part]
        elif isinstance(value, Sequence) and not isinstance(value, str):
            value = value[int(part)]
        else:
            value = getattr(value, part)
    return value


class RowReducer:
    """Named accumulators plus the row digest: a sweep's streaming fold.

    ``metrics`` is a tuple of ``(name, path, accumulator_template)``
    triples; folding a result resolves each path inside the row's
    ``value`` and feeds the matching accumulator.  The paths are split
    into segments once, when the reducer is built — and a sweep builds
    one per chunk (:meth:`fresh`) — not once per row.  Reducers pickle
    into pool workers (:meth:`fresh` gives each worker chunk a clean
    one), partials merge exactly, and :meth:`summary` is byte-identical
    between a serial fold and any chunked layout.

    A row whose metric cannot be folded (an accumulator's plain
    ``TypeError`` or ``ValueError``: a NaN, a string where a number
    belongs) raises that error type again, naming the metric and the
    row's task index.  The row is then not counted; the metrics before
    the failing one in ``metrics`` order already hold it — the sweep
    has failed, so its reducer's state is a record of how far it got,
    not a result.
    """

    def __init__(self, metrics: tuple[tuple[str, str, Accumulator], ...] = ()) -> None:
        names = [name for name, _path, _acc in metrics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate reducer metric names in {names}")
        self.metrics = tuple(metrics)
        self.rows = 0
        self.digest = 0
        self._folds = tuple(
            (name, tuple(path.split(".")) if path else (), acc) for name, path, acc in self.metrics
        )

    def fold(self, index: Any, digest: int, value: Any) -> None:
        """Fold one row given as fields: its task index, its digest
        (:func:`encode_fields`, or :func:`row_digest` of a row read
        back) and its ``value``."""
        for name, parts, acc in self._folds:
            try:
                acc.add(_resolve(value, parts))
            except (TypeError, ValueError) as exc:
                if type(exc) not in (TypeError, ValueError):  # a subclass may take other arguments
                    raise
                raise type(exc)(f"metric {name!r} of task {index}: {exc}") from exc
        self.rows += 1
        self.digest = (self.digest + digest) % DIGEST_MOD

    def merge(self, other: "RowReducer") -> None:
        """Fold another partial in (chunk order = task order)."""
        self.rows += other.rows
        self.digest = merge_digests(self.digest, other.digest)
        for (_n, _p, acc), (_on, _op, other_acc) in zip(self.metrics, other.metrics):
            acc.merge(other_acc)

    def summary(self) -> dict[str, Any]:
        """JSON-able aggregate: row count, digest, one entry per metric."""
        return {
            "rows": self.rows,
            "digest": self.digest,
            "metrics": {name: acc.summary() for name, _path, acc in self.metrics},
        }

    def fresh(self) -> "RowReducer":
        """An empty reducer with the same metric layout."""
        return RowReducer(
            tuple((name, path, acc.fresh()) for name, path, acc in self.metrics)
        )
