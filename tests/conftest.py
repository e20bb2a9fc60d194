"""Shared fixtures; the expensive pipeline runs once per session."""

import numpy as np
import pytest

import philap as ph


@pytest.fixture(scope="session")
def pathological():
    return ph.build_pathological(ph.PathologicalParams.make(3.0, 2.0, 1.9))


@pytest.fixture(scope="session")
def a5_spec():
    return ph.builtin_example("A5")


@pytest.fixture(scope="session")
def a5_report(a5_spec):
    return ph.run_all_checks(a5_spec)


@pytest.fixture(scope="session")
def a5_pipeline(a5_spec):
    return ph.two_solution_pipeline(a5_spec)


@pytest.fixture(scope="session")
def a5_truncation(a5_pipeline):
    return a5_pipeline.trunc
