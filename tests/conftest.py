"""Pytest fixtures shared across the suite."""

from __future__ import annotations

import pytest

from repro.kernel import Kernel
from repro.kernel.costs import FREE


@pytest.fixture
def kernel() -> Kernel:
    """A default kernel (unit costs, infinite CPUs, seed 0)."""
    return Kernel()


@pytest.fixture
def free_kernel() -> Kernel:
    """A kernel where nothing costs time (pure ordering semantics)."""
    return Kernel(costs=FREE)
