"""Fixtures shared across test modules."""
import pytest

from procurelab.experiments import run_battery


@pytest.fixture(scope="session")
def battery():
    """One default-config battery run (seed 42), shared by every module.

    The reports are frozen and the list is only read.  A test that needs a
    second, independent run (the determinism check) makes its own.
    """
    return run_battery(seed=42)
