"""Shared fixtures. The benchmark runs are session-scoped because the 1D
reference takes a couple of minutes; they are only built when a test
requests them."""

import pytest
from hypothesis import settings

from hemoflow.netio import aortic_bifurcation, synthetic_inflow

# a longer, reproducible search, selected with --hypothesis-profile=ci
settings.register_profile("ci", max_examples=2000, derandomize=True)


def _per_value_csv(columns) -> bytes:
    """The series file write_series must produce, with each value through
    "{:.9e}" on its own, row by row."""
    lines = ["t,P,Q,A\n"]
    lines.extend(",".join("{:.9e}".format(c[i]) for c in columns) + "\n"
                 for i in range(len(columns[0])))
    return "".join(lines).encode()


@pytest.fixture(scope="session")
def per_value_csv():
    return _per_value_csv


@pytest.fixture(scope="session")
def bifurcation():
    return aortic_bifurcation()


@pytest.fixture(scope="session")
def inflow():
    return synthetic_inflow()


@pytest.fixture(scope="session")
def benchmark_1d(bifurcation, inflow):
    from hemoflow.solver1d import run_1d

    return run_1d(bifurcation, inflow, t_end=29.7, dx_max=0.2, CFL=0.9, T0=1.1)


@pytest.fixture(scope="session")
def benchmark_0d_nonlinear(bifurcation, inflow):
    from hemoflow.solver0d import ModelMode, run_0d

    return run_0d(bifurcation, inflow, ModelMode.nonlinear(), dt=1e-3,
                  t_end=29.7, T0=1.1)


@pytest.fixture(scope="session")
def benchmark_0d_linear(bifurcation, inflow):
    from hemoflow.solver0d import ModelMode, run_0d

    return run_0d(bifurcation, inflow, ModelMode.linear(), dt=1e-3,
                  t_end=29.7, T0=1.1)
