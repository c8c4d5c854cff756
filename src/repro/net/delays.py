"""Message delay models.

Every model is bounded above by ``max_delay`` — the paper's ``T``.  The
protocol engines read ``network.T`` to derive their ``2T`` / ``3T``
timeout windows, so the bound is load-bearing: if a delay model could
exceed ``T``, a correct protocol could be driven into spurious timeouts
that the paper's analysis excludes.  (Timeout *sensitivity* — what
happens if the bound is misestimated — is explored by a dedicated
ablation benchmark; safety never depends on it, only liveness.)
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Mapping


class DelayModel(ABC):
    """Interface: per-message latency, bounded by :attr:`max_delay`."""

    @property
    @abstractmethod
    def max_delay(self) -> float:
        """Upper bound on any sampled delay (the paper's ``T``)."""

    @abstractmethod
    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Latency for one message ``src -> dst``."""


class FixedDelay(DelayModel):
    """Constant latency on every link — the default for unit tests.

    With a fixed delay the event order of a run is a pure function of
    the scenario, which makes protocol traces easy to reason about.
    """

    def __init__(self, delay: float = 1.0) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        self._delay = delay

    @property
    def max_delay(self) -> float:
        """The constant delay is its own bound."""
        return self._delay

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Constant, regardless of endpoints."""
        return self._delay

    def __repr__(self) -> str:
        return f"FixedDelay({self._delay})"


class GroupedDelay(DelayModel):
    """Two-tier latency: fast inside a site group, slow across groups.

    Models the classic WAN deployment (sites grouped into datacenters):
    intra-group messages take ``intra`` time units, cross-group messages
    ``inter``, each with optional multiplicative jitter drawn from
    ``[1, 1 + jitter]``.  ``T`` (``max_delay``) is the worst case —
    ``inter * (1 + jitter)`` — so the protocols' timeout windows stay
    sound, at the price the paper's model implies: timeouts sized for
    the WAN worst case even for LAN-local exchanges.
    """

    def __init__(
        self,
        groups: Mapping[int, int],
        intra: float = 0.1,
        inter: float = 1.0,
        jitter: float = 0.0,
    ) -> None:
        if not 0 < intra <= inter:
            raise ValueError("need 0 < intra <= inter")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._groups = dict(groups)
        self._intra = intra
        self._inter = inter
        self._jitter = jitter

    @property
    def max_delay(self) -> float:
        """Worst case: a cross-group message with full jitter."""
        return self._inter * (1 + self._jitter)

    def group_of(self, site: int) -> int | None:
        """The group a site belongs to (None when unassigned)."""
        return self._groups.get(site)

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """Intra- or inter-group base delay, with multiplicative jitter."""
        same = (
            src in self._groups
            and dst in self._groups
            and self._groups[src] == self._groups[dst]
        )
        base = self._intra if same else self._inter
        if self._jitter:
            base *= 1 + rng.uniform(0, self._jitter)
        return base

    def __repr__(self) -> str:
        return f"GroupedDelay(intra={self._intra}, inter={self._inter}, jitter={self._jitter})"


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]`` per message.

    Used by the randomized model-checking experiments: varying delivery
    order explores interleavings that a fixed delay cannot reach (e.g.
    a PREPARE-TO-COMMIT racing a state-request).
    """

    def __init__(self, low: float, high: float) -> None:
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self._low = low
        self._high = high
        self._width = high - low

    @property
    def max_delay(self) -> float:
        """The distribution's upper bound."""
        return self._high

    def sample(self, rng: random.Random, src: int, dst: int) -> float:
        """One uniform draw per message: the body of ``random.uniform``
        (``a + (b - a) * random()``) without its Python-level call, so
        the same floats from the same draws."""
        return self._low + self._width * rng.random()

    def __repr__(self) -> str:
        return f"UniformDelay({self._low}, {self._high})"
