"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.rtp.clock import SimulatedClock

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# ``--hypothesis-profile=thorough``: a real budget for the differential
# tests (CI runs tests/surface, tests/rtp and tests/codecs under it);
# tier-1 keeps the default.
settings.register_profile(
    "thorough", settings.get_profile("repro"), max_examples=2000
)
settings.load_profile("repro")


@pytest.fixture
def clock() -> SimulatedClock:
    return SimulatedClock()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def noise_image(rng: np.random.Generator) -> np.ndarray:
    """A small random RGBA image (incompressible content)."""
    return rng.integers(0, 256, size=(24, 31, 4)).astype(np.uint8)


@pytest.fixture
def flat_image() -> np.ndarray:
    """A small solid-colour RGBA image (maximally compressible)."""
    img = np.empty((40, 50, 4), dtype=np.uint8)
    img[:, :] = (10, 200, 30, 255)
    return img
