"""Compiled = native: each §2 listing against its stdlib twin, under
``ordered`` and random seeds 1–5, with free and default costs."""

import pytest

from repro.kernel import DEFAULT, FREE
from tests.paper_listings import ARBITRATIONS, TWINS, run_twins


@pytest.mark.parametrize("costs", [FREE, DEFAULT], ids=["free", "default"])
@pytest.mark.parametrize("arbitration, seed", ARBITRATIONS, ids=[f"{a}{s}" for a, s in ARBITRATIONS])
@pytest.mark.parametrize("twin", TWINS, ids=[t.stem for t in TWINS])
def test_listing_matches_its_twin(twin, arbitration, seed, costs):
    run_twins(twin, arbitration, seed, costs)
