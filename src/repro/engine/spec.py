"""Declarative sweep specifications and per-run tasks.

A :class:`SweepSpec` names a task function, a parameter grid and a run
count; expanding it yields one :class:`RunTask` per (cell, run) pair.
Each task carries its own seed, derived deterministically from the spec
— never from execution order — so a sweep produces bit-identical
results whether the tasks run serially, fanned out over a process pool,
or in any interleaving in between.

Expansion happens where the tasks run.  A sweep cuts its spec into
:class:`TaskChunk`s — the spec's name, task, ``fixed``, ``base_seed``
and ``seeding`` plus one ``(first_index, cell_params, run_lo, run_hi)``
entry per cell — so the process that plans a sweep walks cells, never
runs; a chunk expands into its tasks' plain ``(index, params, run,
seed)`` fields (:meth:`TaskChunk.fields`) in a pool worker or here, and
a :class:`RunTask` is built from them only where one is asked for.
Seeds come from a per-cell seeder (:func:`cell_seeder`): the canonical
JSON key :func:`derive_seed` hashes for run ``r`` of a cell is the
cell's prefix ``[base_seed, sweep, sorted(params), `` followed by
``r]``, so the seeder hashes the prefix once per cell and each run
copies that SHA-256 state and feeds it its own few bytes — the same
bytes, hence the same seed, as :func:`derive_seed`, which stays the
reference.  :meth:`SweepSpec.iter_tasks` is the same expansion.

Task functions must be module-level callables (so they pickle by
reference into worker processes) and must accept their seed as a
``seed=`` keyword argument alongside the cell parameters::

    def trial(seed: int, protocol: str) -> float: ...

    spec = SweepSpec("demo", trial, grid={"protocol": ["2pc", "qtp1"]}, runs=20)
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

#: seed strategies a spec may choose from.
SEED_MODES = ("derived", "offset")


def derive_seed(base_seed: int, sweep: str, params: Mapping[str, Any], run: int) -> int:
    """A 63-bit seed from (base_seed, sweep name, cell params, run index).

    SHA-256 over a canonical JSON encoding — ``hash()`` is salted per
    process and would break cross-process reproducibility.  Distinct
    cells get statistically independent streams even for adjacent base
    seeds.  The reference definition: sweeps derive the same values
    through :func:`cell_seeder`.
    """
    key = json.dumps(
        [base_seed, sweep, sorted(params.items(), key=lambda kv: kv[0]), run],
        sort_keys=True,
        default=str,
    )
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def cell_seeder(
    base_seed: int, sweep: str, params: Mapping[str, Any], seeding: str = "derived"
) -> Callable[[int], int]:
    """The seeds of one cell's runs, as a function of the run index.

    Under ``"derived"`` seeding it returns ``derive_seed(base_seed,
    sweep, params, run)``: the cell's share of the canonical key — every
    byte before the run index — is hashed once, here, and each call
    copies that SHA-256 state and adds ``b"%d]" % run``.  Under
    ``"offset"`` it returns ``base_seed + run``.
    """
    if seeding == "offset":
        return functools.partial(operator.add, base_seed)
    key = json.dumps(
        [base_seed, sweep, sorted(params.items(), key=operator.itemgetter(0))],
        sort_keys=True,
        default=str,
    )
    prefix = hashlib.sha256(key[:-1].encode() + b", ")  # the list stays open for the run

    def seed(run: int) -> int:
        digest = prefix.copy()
        digest.update(b"%d]" % run)
        return int.from_bytes(digest.digest()[:8], "big") >> 1

    return seed


@dataclass(frozen=True)
class RunTask:
    """One unit of sweep work: a cell's parameters plus a run seed.

    ``index`` is the task's position in the spec's expansion order;
    executors must report results in index order so output never
    depends on completion order.
    """

    index: int
    sweep: str
    task: Callable[..., Any]
    params: dict[str, Any]
    run: int
    seed: int

    def execute(self) -> "RunResult":
        """Run the task function; bind the seed and cell by keyword."""
        value = self.task(seed=self.seed, **self.params)
        return RunResult(
            index=self.index,
            params=self.params,
            run=self.run,
            seed=self.seed,
            value=value,
        )


@dataclass(frozen=True)
class RunResult:
    """The outcome of one :class:`RunTask`."""

    index: int
    params: dict[str, Any]
    run: int
    seed: int
    value: Any


@dataclass(frozen=True)
class SweepSpec:
    """Protocol × parameter grid × run count, with deterministic seeds.

    Args:
        name: sweep identifier (also the artifact name in a store).
        task: module-level callable ``task(seed=..., **cell_params)``.
        grid: parameter name -> candidate values; cells are the
            cartesian product, expanded with the *first* grid key
            varying slowest (insertion order).
        runs: randomized runs per cell.
        base_seed: root of every per-run seed.
        seeding: ``"derived"`` (default) hashes (base_seed, name, cell,
            run) so every cell draws an independent stream;
            ``"offset"`` uses ``base_seed + run`` so every cell replays
            the *same* scenario sequence — the paired-comparison design
            the paper's studies use (the seed drives the scenario, the
            cell only drives the response).
        fixed: extra keyword arguments passed to every cell unchanged
            (not part of the grid, not part of the seed derivation).
    """

    name: str
    task: Callable[..., Any]
    grid: Mapping[str, Sequence[Any]]
    runs: int = 1
    base_seed: int = 0
    seeding: str = "derived"
    fixed: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.seeding not in SEED_MODES:
            raise ValueError(f"seeding must be one of {SEED_MODES}, got {self.seeding!r}")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ValueError(f"parameters both in grid and fixed: {sorted(overlap)}")

    def iter_cells(self) -> Iterator[dict[str, Any]]:
        """Grid cells in deterministic expansion order, generated lazily.

        The streaming executor paths walk this so a 10^6-cell grid
        never materializes as a list; :meth:`cells` is the eager form.
        """
        keys = list(self.grid)
        if not keys:
            yield {}
            return
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            yield dict(zip(keys, combo))

    def cells(self) -> list[dict[str, Any]]:
        """All grid cells, in deterministic expansion order."""
        return list(self.iter_cells())

    def iter_chunks(self, size: int) -> Iterator["TaskChunk"]:
        """The tasks in index order, cut into :class:`TaskChunk`s of at
        most ``size`` consecutive tasks.

        Walks cells, never runs: a cell whose runs straddle a chunk
        boundary becomes one entry in each chunk it reaches.  A ``size``
        below 1 raises ``ValueError``: such a chunk would never advance.
        """
        if size < 1:
            raise ValueError(f"sweep {self.name!r}: chunk size must be >= 1, got {size}")
        runs = self.runs
        entries: list[tuple[int, dict[str, Any], int, int]] = []
        index, room = 0, size
        for cell in self.iter_cells():
            lo = 0
            while lo < runs:
                hi = min(runs, lo + room)
                entries.append((index, cell, lo, hi))
                index += hi - lo
                room -= hi - lo
                lo = hi
                if room == 0:
                    yield TaskChunk(self, entries)
                    entries, room = [], size
        if entries:
            yield TaskChunk(self, entries)

    def iter_tasks(self) -> Iterator[RunTask]:
        """Expand lazily into tasks (cells × runs), in index order.

        Identical content to :meth:`tasks`, and the same expansion a
        sweep's chunks go through — here one chunk per cell.
        """
        return itertools.chain.from_iterable(self.iter_chunks(self.runs))

    def tasks(self) -> list[RunTask]:
        """Expand into the full task list (cells × runs)."""
        return list(self.iter_tasks())

    @property
    def n_tasks(self) -> int:
        """Total task count without expanding."""
        n_cells = 1
        for values in self.grid.values():
            n_cells *= len(values)
        return n_cells * self.runs

    def summary(self) -> dict[str, Any]:
        """JSON-safe description of the spec (for artifact headers)."""
        return {
            "name": self.name,
            "task": f"{self.task.__module__}.{self.task.__qualname__}",
            "grid": {k: list(v) for k, v in self.grid.items()},
            "fixed": dict(self.fixed),
            "runs": self.runs,
            "base_seed": self.base_seed,
            "seeding": self.seeding,
        }


class TaskChunk:
    """Consecutive tasks of one spec, described rather than built: what
    a sweep hands the pool per chunk.

    ``entries`` holds one ``(first_index, cell_params, run_lo, run_hi)``
    tuple per grid cell the chunk reaches.  :meth:`fields` expands it
    into its tasks' plain fields, seeds included — one
    :func:`cell_seeder` per entry — wherever it is walked: in the pool
    worker that folds it, or in this process when there is no pool.
    Iterating the chunk builds a :class:`RunTask` from each; the sweep
    itself never does.  An entry's tasks share one ``params`` dict (the
    cell merged with ``fixed`` once), so a consumer can tell a cell's
    rows apart by identity and encode the cell once.  (A plain class: a
    dataclass would cost every ``import repro`` its generated code.)
    """

    def __init__(self, spec: SweepSpec, entries: list[tuple[int, dict[str, Any], int, int]]) -> None:
        self.sweep = spec.name
        self.task = spec.task
        self.fixed = dict(spec.fixed)
        self.base_seed = spec.base_seed
        self.seeding = spec.seeding
        self.entries = entries

    def fields(self) -> Iterator[tuple[int, dict[str, Any], int, int]]:
        """The chunk's tasks as plain ``(index, params, run, seed)``
        tuples, in index order — the one expansion of a chunk: what
        :func:`~repro.engine.sink.fold_chunk` runs, and what iterating
        the chunk builds each :class:`RunTask` from."""
        sweep, fixed = self.sweep, self.fixed
        for first, cell, lo, hi in self.entries:
            seed = cell_seeder(self.base_seed, sweep, cell, self.seeding)
            params = {**cell, **fixed}
            for run in range(lo, hi):
                yield first + run - lo, params, run, seed(run)

    def __iter__(self) -> Iterator[RunTask]:
        sweep, task = self.sweep, self.task
        for index, params, run, seed in self.fields():
            yield RunTask(index, sweep, task, params, run, seed)
