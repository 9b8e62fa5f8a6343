"""Shared fixtures for the test suite."""

import os

import pytest

from repro.models import Parameters


@pytest.fixture
def baseline() -> Parameters:
    """The paper's Section 6 baseline."""
    return Parameters.baseline()


@pytest.fixture
def usable_cpus(monkeypatch):
    """Pin how many CPUs this process may run on, as the runtime's
    ``default_jobs()`` sees them: ``usable_cpus(4)`` forces the pool gate
    open on any host, ``usable_cpus(1)`` forces it shut."""

    def pin(count: int) -> None:
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
        )

    return pin


@pytest.fixture
def small_params() -> Parameters:
    """A small cluster for combinatorial / byte-level tests."""
    return Parameters.baseline().replace(node_set_size=10, redundancy_set_size=5)


@pytest.fixture
def gentle_params() -> Parameters:
    """Parameters in the regime where the paper's approximations are tight:
    mu >> N * lambda and all h-probabilities << 1."""
    return Parameters.baseline().replace(
        node_mttf_hours=2_000_000.0,
        drive_mttf_hours=1_500_000.0,
        hard_error_rate_per_bit=1e-16,
        node_set_size=32,
        redundancy_set_size=8,
    )
