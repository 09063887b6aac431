"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.pipeline import analyze_nest
from repro.workloads.kernels import (
    banded_update,
    constant_partitioning_recurrence,
    strided_scatter,
    wavefront_recurrence,
)
from repro.workloads.paper_examples import example_4_1, example_4_2, figure1_example
from repro.workloads.suite import workload_suite
from repro.workloads.synthetic import (
    no_dependence_loop,
    uniform_distance_loop,
    variable_distance_loop,
)


@pytest.fixture
def no_driver_floor(monkeypatch):
    """Let the in-kernel driver cut a plan of any size into ranges.

    A plan below ``DRIVER_MIN_ITERATIONS`` runs serially.  The tests of the
    driver's ranges, widths and engine labels run small plans, so they
    lower that floor to 0 and keep exercising the driver itself.
    """
    from repro.runtime import executor

    monkeypatch.setattr(executor, "DRIVER_MIN_ITERATIONS", 0)


@pytest.fixture(scope="session")
def ex41_small():
    """Paper example 4.1 with a small iteration space (fast exact enumeration)."""
    return example_4_1(6)


@pytest.fixture(scope="session")
def ex42_small():
    """Paper example 4.2 with a small iteration space."""
    return example_4_2(6)


@pytest.fixture(scope="session")
def ex41_report(ex41_small):
    return analyze_nest(ex41_small)


@pytest.fixture(scope="session")
def ex42_report(ex42_small):
    return analyze_nest(ex42_small)


@pytest.fixture(scope="session")
def wavefront_small():
    return wavefront_recurrence(6)


@pytest.fixture(scope="session")
def independent_small():
    return no_dependence_loop(5)


@pytest.fixture(scope="session")
def small_suite():
    """The workload suite at a size small enough for exact enumeration everywhere."""
    return workload_suite(5)


@pytest.fixture(scope="session")
def kernel_nests():
    """A handful of realistic kernels at small sizes."""
    return [
        wavefront_recurrence(5),
        constant_partitioning_recurrence(6, stride=2),
        banded_update(6, band=3),
        strided_scatter(6, stride=3),
        uniform_distance_loop([(1, -1), (2, 0)], 6),
        variable_distance_loop(scale=3, n=5),
    ]
