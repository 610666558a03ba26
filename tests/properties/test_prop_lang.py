"""Property test: the compiled §2.4.1 listing is observationally equivalent
to the hand-written ``BoundedBuffer``, tick for tick and counter for
counter, under generated producers and schedules."""

from hypothesis import given, settings, strategies as st

from repro.kernel.costs import FREE
from tests.paper_listings import buffer_twin, run_twins


@given(
    size=st.integers(min_value=1, max_value=6),
    producers=st.lists(st.lists(st.integers(), max_size=8), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_compiled_equals_native(size, producers, seed):
    tagged = [[(p, m) for m in messages] for p, messages in enumerate(producers)]
    run = run_twins(buffer_twin(size, tagged), "random" if seed else "ordered", seed, FREE)
    removed = run.outcomes[-1]
    for p, messages in enumerate(producers):  # every message, FIFO per producer
        assert [m for q, m in removed if q == p] == messages
