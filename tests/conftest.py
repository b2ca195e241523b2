"""Shared fixtures: small geometries and prebuilt scan data.

Session-scoped so the (comparatively) expensive system-matrix builds and
golden reconstructions are amortised across the whole suite.  Tests that
mutate state must copy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import icd_reconstruct
from repro.ct import (
    build_system_matrix,
    scaled_geometry,
    shepp_logan,
    simulate_scan,
)


@pytest.fixture(scope="session")
def geom16():
    """Tiny geometry for structural tests."""
    return scaled_geometry(16)


@pytest.fixture(scope="session")
def geom32():
    """Small geometry for numeric tests."""
    return scaled_geometry(32)


@pytest.fixture(scope="session")
def system16(geom16):
    """System matrix at 16^2."""
    return build_system_matrix(geom16)


@pytest.fixture(scope="session")
def system32(geom32):
    """System matrix at 32^2."""
    return build_system_matrix(geom32)


@pytest.fixture(scope="session")
def system64():
    """System matrix at 64^2 (1.0 M stored entries)."""
    return build_system_matrix(scaled_geometry(64))


@pytest.fixture(scope="session")
def phantom16():
    """Shepp-Logan at 16^2."""
    return shepp_logan(16)


@pytest.fixture(scope="session")
def phantom32():
    """Shepp-Logan at 32^2."""
    return shepp_logan(32)


@pytest.fixture(scope="session")
def scan16(system16, phantom16):
    """Noisy scan of the 16^2 phantom (fast service/CLI tests)."""
    return simulate_scan(phantom16, system16, dose=1e5, seed=7)


@pytest.fixture(scope="session")
def scan32(system32, phantom32):
    """Noisy scan of the 32^2 phantom."""
    return simulate_scan(phantom32, system32, dose=1e5, seed=7)


@pytest.fixture(scope="session")
def golden32(scan32, system32):
    """A well-converged reference image for convergence tests."""
    return icd_reconstruct(
        scan32, system32, max_equits=25, seed=0, track_cost=False
    ).image


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
