"""Suite-wide fixtures."""
from __future__ import annotations

import numpy as np
import pytest

import tiebreak.designer as designer_mod
from tiebreak.equilibrium import solve_lanes


@pytest.fixture(autouse=True)
def empty_grid_memo():
    """Start each test with no grid batch held by the designer, so a test that
    counts batches does not depend on which test ran before it."""
    designer_mod._grid_lanes.cache_clear()


@pytest.fixture
def batches(monkeypatch):
    """Tie-rule arrays of every batch the designer solves."""
    calls = []

    def counting(spec, qs, **kwargs):
        calls.append(np.asarray(qs))
        return solve_lanes(spec, qs, **kwargs)

    monkeypatch.setattr(designer_mod, "solve_lanes", counting)
    return calls
