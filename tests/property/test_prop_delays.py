"""A uniform delay draws what ``random.uniform`` draws.

:meth:`UniformDelay.sample <repro.net.delays.UniformDelay.sample>`
computes ``low + (high - low) * rng.random()`` — the body of CPython's
``random.uniform`` — instead of calling it, once per message.  Every
message delay, and so every event time of every run with a uniform
delay, rests on the two giving the same float from the same draw and
leaving the generator in the same state.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.net.delays import UniformDelay

BOUNDS = st.tuples(
    st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
).map(lambda pair: (pair[0], pair[0] + pair[1]))


@given(seed=st.integers(0, 2**64), bounds=BOUNDS, draws=st.integers(1, 200))
@settings(max_examples=300, deadline=None)
def test_sample_equals_random_uniform(seed, bounds, draws):
    low, high = bounds
    model = UniformDelay(low, high)
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        got = model.sample(ours, 1, 2)
        want = reference.uniform(low, high)
        assert got == want and got.hex() == want.hex()
    assert ours.getstate() == reference.getstate()


def test_the_benchmark_bounds_over_many_seeds():
    model = UniformDelay(0.2, 1.0)  # the closed- and open-loop workloads' delay
    for seed in range(200):
        ours, reference = random.Random(seed), random.Random(seed)
        sampled = [model.sample(ours, 0, 1) for _ in range(50)]
        assert sampled == [reference.uniform(0.2, 1.0) for _ in range(50)]
