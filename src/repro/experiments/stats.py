"""Small statistics helpers for the experiment tables.

Sweep rows report means; for the claims EXPERIMENTS.md makes
("protocol A keeps more data readable than protocol B") the benches
can additionally attach a confidence interval and a paired comparison,
so a reader knows the gap is not seed noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# numpy / scipy (the ``stats`` extra) are imported inside the two
# functions that need them: the package ``__init__`` imports this
# module, and the sweep engine's warm-up imports the package.


@dataclass(frozen=True)
class MeanCI:
    """A sample mean with a two-sided t confidence interval."""

    mean: float
    low: float
    high: float
    n: int
    confidence: float

    def __str__(self) -> str:
        return f"{self.mean:.4f} [{self.low:.4f}, {self.high:.4f}] (n={self.n})"


def mean_ci(samples: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Mean and t-interval of a sample.

    A single observation gets a degenerate interval (the point itself);
    an empty sample is a caller bug.
    """
    if not samples:
        raise ValueError("no samples")
    import numpy as np
    from scipy import stats

    data = np.asarray(samples, dtype=float)
    mean = float(data.mean())
    n = len(data)
    if n == 1 or float(data.std(ddof=1)) == 0.0:
        return MeanCI(mean, mean, mean, n, confidence)
    sem = stats.sem(data)
    low, high = stats.t.interval(confidence, df=n - 1, loc=mean, scale=sem)
    return MeanCI(mean, float(low), float(high), n, confidence)


@dataclass(frozen=True)
class PairedComparison:
    """Paired-sample comparison of two protocols on identical scenarios."""

    mean_difference: float
    p_value: float
    n: int

    @property
    def significant(self) -> bool:
        """Conventional 5% threshold."""
        return self.p_value < 0.05

    def __str__(self) -> str:
        return (
            f"mean diff {self.mean_difference:+.4f}, "
            f"p={self.p_value:.4g} (n={self.n})"
        )


def paired_comparison(a: Sequence[float], b: Sequence[float]) -> PairedComparison:
    """Paired t-test of per-scenario samples ``a`` vs ``b``.

    The experiment sweeps run every protocol on the *same* seed-indexed
    scenarios, which is exactly the paired design; the difference
    distribution removes the (large) scenario-to-scenario variance.
    Identical samples return p = 1 (no evidence of any difference).
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    if len(a) < 2:
        raise ValueError("need at least two pairs")
    import numpy as np
    from scipy import stats

    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if float(np.abs(diffs).sum()) == 0.0:
        return PairedComparison(0.0, 1.0, len(a))
    t_stat, p_value = stats.ttest_rel(a, b)
    if math.isnan(p_value):  # zero-variance differences
        p_value = 0.0 if diffs.mean() != 0 else 1.0
    return PairedComparison(float(diffs.mean()), float(p_value), len(a))
