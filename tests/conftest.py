"""Shared fixtures and the model builder of the tests, and the acceptance report."""

import sys

import pytest

from stefansim import AmbientGrid, CoefficientSet, Grid, gaussian_kernel
from stefansim.coefficients import mu_zero, rho_zero, sigma_zero


@pytest.fixture
def grid():
    return Grid(1.0, 127)


@pytest.fixture
def ambient():
    return AmbientGrid(-3.0, 3.0, 121)


def make_model(ambient, mu=None, sigma=None, rho=None, bounded=False):
    """Coefficient set with the same mu and sigma in both phases (zero by default) and a Gaussian kernel of scale 0.5."""
    mu = mu_zero() if mu is None else mu
    sigma = sigma_zero() if sigma is None else sigma
    r, lip = rho_zero() if rho is None else rho
    return CoefficientSet(
        mu_plus=mu,
        mu_minus=mu,
        sigma_plus=sigma,
        sigma_minus=sigma,
        rho=r,
        rho_lipschitz=lip,
        kernel=gaussian_kernel(0.5, ambient),
        bounded=bounded,
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the acceptance and order PASS/FAIL lines after the run (capture-proof)."""
    lines = [line for name in ("test_acceptance", "test_solver")
             for line in getattr(sys.modules.get(name), "REPORT_LINES", [])]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
