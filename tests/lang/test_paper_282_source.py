"""The §2.8.2 parallel bounded buffer, compiled from ALPS source.

This is the paper's most intricate program: Deposit/Remove as hidden
procedure arrays, a hidden ``Place`` parameter supplied by the manager at
``start``, the slot index returned as a hidden result at ``await``, and
the manager's Free/Full index lists.  The listing is
``examples/paper/parallel_buffer_282.alps``.
"""

from repro.kernel import Kernel
from repro.kernel.costs import FREE
from tests.paper_listings import drive, instantiate


def run(workload, **config):
    kernel = Kernel(costs=FREE)
    return drive(kernel, instantiate(kernel, "parallel_buffer_282", **config), workload)


def round_trips(n):
    """One caller that deposits ``i`` and removes it again, ``n`` times."""
    return [[call for i in range(n) for call in (("Deposit", i), ("Remove",))]]


def three_and_three(n):
    """Three producers of ``n`` messages each, three consumers of ``n``."""
    return [[("Deposit", (b, i)) for i in range(n)] for b in range(3)] + [[("Remove",)] * n] * 3


class TestPaper282Source:
    def test_single_stream_roundtrip(self):
        assert run(round_trips(6)).outcomes == [[x for i in range(6) for x in (None, i)]]

    def test_parallel_producers_consumers_conserve(self):
        removed = sum(run(three_and_three(4)).outcomes[3:], [])
        assert sorted(removed) == [(b, i) for b in range(3) for i in range(4)]

    def test_copies_overlap(self):
        # 3 deposits overlap, then 3 removes overlap: far below the
        # 6 x 100 serial bound — the §2.8.2 parallelism claim, from source.
        assert run(three_and_three(1), CopyWork=100).now < 350

    def test_hidden_results_recycle_slots(self):
        # 10 messages through 4 slots forces slot recycling through the
        # Free/Full lists driven purely by hidden results.
        assert run(round_trips(10)).outcomes == [[x for i in range(10) for x in (None, i)]]
