import numpy as np
import pytest

import incsub as isb


@pytest.fixture(scope="session")
def quad_m2_line():
    # two quadratics with centers 0 and 2 on [0, 10]; optimum x* = 1, f* = 2
    return isb.make_quadratic_suite(2, 1, 0.0, isb.Box([0.0], [10.0]),
                                    centers=[[0.0], [2.0]])


@pytest.fixture(scope="session")
def quad_m5_box():
    # the five-agent planar fixture used throughout the convergence tests
    return isb.make_quadratic_suite(5, 2, 1.0, isb.Box([-1.0, -1.0], [1.0, 1.0]),
                                    seed=42)


@pytest.fixture(scope="session")
def regr_m5_box():
    # five sensors fitting three coefficients: the regression counterpart
    # of quad_m5_box for batching and determinism tests
    gen = np.random.default_rng(7)
    feats = gen.normal(size=(5, 3))
    samples = feats @ np.array([0.5, -0.3, 0.8]) + 0.1 * gen.normal(size=(4, 5))
    return isb.make_regression(feats, list(samples.T),
                               isb.Box(np.full(3, -2.0), np.full(3, 2.0)))


@pytest.fixture(scope="session")
def ring5():
    return isb.PeriodicTopology(5, [isb.ring_edges(5)], 1)


def rng(seed=0):
    return np.random.default_rng(seed)
