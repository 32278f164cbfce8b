import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incsub import Constant, PowerLaw


def test_constant_schedule():
    assert Constant(0.01).step(7) == 0.01
    assert not Constant(0.01).is_square_summable
    assert not Constant(0.01).is_markov_diminishing


def test_harmonic_schedule():
    assert PowerLaw(1.0, 1.0).step(4) == 0.25


def test_power_law_value():
    # 2 / 16^0.75 = 2 / 8
    assert PowerLaw(2.0, 0.75).step(16) == pytest.approx(0.25)


def test_index_zero_rejected():
    with pytest.raises(ValueError):
        Constant(0.1).step(0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 1.0).step(0)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Constant(0.0)
    with pytest.raises(ValueError):
        PowerLaw(0.0, 1.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 1.5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_step_sizes_rejected(value):
    with pytest.raises(ValueError, match="positive and finite"):
        Constant(value)
    with pytest.raises(ValueError, match="positive and finite"):
        PowerLaw(value, 1.0)


@given(p=st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_validity_flags(p):
    sched = PowerLaw(1.0, p)
    assert sched.is_square_summable == (p > 0.5)
    assert sched.is_markov_diminishing == (2.0 / 3.0 < p <= 1.0)


@given(a=st.floats(min_value=0.01, max_value=10.0),
       p=st.floats(min_value=0.01, max_value=1.0),
       start=st.integers(min_value=1, max_value=1000))
@settings(max_examples=100, deadline=None)
def test_vectorized_steps_match_scalar(a, p, start):
    sched = PowerLaw(a, p)
    block = sched.steps(start, 8)
    for off in range(8):
        assert block[off] == sched.step(start + off)
