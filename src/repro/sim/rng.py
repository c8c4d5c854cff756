"""Named, independently seeded random streams.

Every stochastic component (network delay, message loss, workload
generation, failure schedules) draws from its *own* ``random.Random``
derived from the run seed plus the component name.  This gives the two
properties large simulation studies need:

* **Reproducibility** — the same seed replays the same run bit-for-bit.
* **Insensitivity** — adding a draw to one component (say, jitter on one
  link) does not shift the sequence seen by any other component, so
  counterexample scenarios stay stable as the library evolves.
"""

from __future__ import annotations

import hashlib
import random


def _derive(seed: int, name: str) -> int:
    """Derive a 64-bit child seed from (seed, name) via SHA-256.

    ``hash()`` is avoided on purpose: it is salted per process for
    strings, which would destroy cross-run reproducibility.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory and cache of named random streams for one simulation run."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive(self._seed, name))
            self._streams[name] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self._seed} streams={sorted(self._streams)}>"
