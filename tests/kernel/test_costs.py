"""Unit tests for the cost model."""

import pytest

from repro.kernel import Kernel
from repro.kernel.costs import DEFAULT, FREE, HEAVY_PROCESSES, CostModel


class TestCostModel:
    def test_defaults_validate(self):
        DEFAULT.validate()
        FREE.validate()
        HEAVY_PROCESSES.validate()

    def test_free_is_all_zero(self):
        assert all(v == 0 for v in FREE.__dict__.values())

    def test_with_overrides_one_field(self):
        model = DEFAULT.with_(process_create=500)
        assert model.process_create == 500
        assert model.send == DEFAULT.send

    def test_with_does_not_mutate_original(self):
        DEFAULT.with_(send=99)
        assert DEFAULT.send == 1

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostModel(send=-1).validate()

    def test_kernel_rejects_a_negative_cost(self):
        with pytest.raises(ValueError, match="'send' must be >= 0"):
            Kernel(costs=CostModel(send=-1))

    def test_heavy_processes_regime(self):
        # §3: dynamic (conventional) process creation much more expensive
        # than lightweight creation.
        assert HEAVY_PROCESSES.process_create > 10 * HEAVY_PROCESSES.lwp_create

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT.send = 5
