"""Zipf sampler hot-path performance.

``BENCH_zipf_sampling`` pins the counters of the Walker alias table
and of the O(n) cumulative scan at a ~10^5-item catalog (the scale the
workload subsystem was built for; the scan is what made those catalogs
sampling-bound).

Here the assertions are deliberately loose (the alias arm must never
*lose*) so a loaded CI machine cannot flake the suite; the committed
baseline records no time.  The large-catalog sweep is
``slow``-marked — the weekly scheduled suite runs it at full 10^5-item
scale.
"""

import time

import pytest

from repro.bench.cases import zipf_sampling_trial


@pytest.mark.perf
def test_alias_sampler_not_slower_than_scan():
    sizes = {"n_items": 5_000, "draws": 120, "fp_draws": 20}
    scan = []
    alias = []
    for _ in range(3):
        t0 = time.perf_counter()
        zipf_sampling_trial(2, alias=False, **sizes)
        scan.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        zipf_sampling_trial(2, alias=True, **sizes)
        alias.append(time.perf_counter() - t0)
    assert min(alias) < min(scan) * 1.25, (
        f"alias sampler lost its edge: alias {min(alias):.3f}s "
        f"vs scan {min(scan):.3f}s"
    )


@pytest.mark.slow
@pytest.mark.perf
def test_alias_sampler_wins_big_at_large_catalogs():
    """The weekly deep run: full 10^5-item scale, hard 1.5x bar.

    At this catalog size the O(n) scan pays ~10^5 additions per draw
    (plus two full list copies per footprint), so the alias table must
    win by a wide margin even on a noisy machine.
    """
    sizes = {"n_items": 100_000, "draws": 240, "fp_draws": 40}
    t0 = time.perf_counter()
    zipf_sampling_trial(3, alias=False, **sizes)
    scan = time.perf_counter() - t0
    t0 = time.perf_counter()
    zipf_sampling_trial(3, alias=True, **sizes)
    alias = time.perf_counter() - t0
    assert alias * 1.5 < scan, (
        f"large-catalog alias speedup below 1.5x: alias {alias:.3f}s vs scan {scan:.3f}s"
    )
