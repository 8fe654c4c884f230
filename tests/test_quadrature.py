"""Quadrature primitives: log-midpoint tiling and the power-law segment model.

The segment model is exact on pure powers, so most tests compare against the
antiderivative evaluated directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ineqkit.quadrature import (log_midpoint_nodes, powerlaw_exponent,
                                segment_integral)


def power_integral(t0, t1, expo):
    # adaptive quadrature, not the antiderivative: (t1^e - t0^e) / e cancels
    # catastrophically for exponents e = expo + 1 near 0
    return quad(lambda t: t ** expo, t0, t1, epsabs=0.0, epsrel=1e-13)[0]


def test_log_midpoint_weights_tile_the_window():
    nodes, weights = log_midpoint_nodes(0.5, 32.0, 2.0 ** 0.125)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.5 and nodes[-1] < 32.0
    assert weights.sum() == pytest.approx(np.log(64.0), rel=1e-12)


def test_log_midpoint_integrates_smooth_powers():
    lo, hi = 0.25, 8.0
    nodes, weights = log_midpoint_nodes(lo, hi, 2.0 ** 0.125)
    # int t^2 dt/t over [lo, hi]
    exact = (hi ** 2 - lo ** 2) / 2.0
    assert float(np.sum(nodes ** 2 * weights)) == pytest.approx(exact, rel=2e-3)
    # the constant integrand is exact
    assert float(np.sum(np.ones_like(nodes) * weights)) == pytest.approx(
        np.log(hi / lo), rel=1e-12)


def test_log_midpoint_degenerate_and_invalid_windows():
    nodes, weights = log_midpoint_nodes(2.0, 2.0, 1.5)
    assert nodes.size == 0 and weights.size == 0
    with pytest.raises(ValueError):
        log_midpoint_nodes(-1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        log_midpoint_nodes(1.0, 2.0, 1.0)


def test_powerlaw_exponent_basic():
    assert powerlaw_exponent(2.0, 4.0, 4.0, 16.0) == pytest.approx(2.0)
    assert powerlaw_exponent(1.0, 0.0, 2.0, 1.0) is None
    assert powerlaw_exponent(1.0, 1.0, 2.0, 0.0) is None


# kappa = -1 is the logarithmic case, where the textbook antiderivative
# divides by kappa + 1 = 0
@given(kappa=st.just(-1.0) | st.floats(min_value=-3.0, max_value=3.0),
       t0=st.floats(min_value=0.05, max_value=20.0),
       ratio=st.floats(min_value=1.05, max_value=8.0))
@settings(max_examples=80)
def test_segment_integral_exact_on_pure_powers(kappa, t0, ratio):
    t1 = t0 * ratio
    v0, v1 = t0 ** kappa, t1 ** kappa
    exact = power_integral(t0, t1, kappa)
    got = segment_integral(t0, t1, v0, v1)
    assert got == pytest.approx(exact, rel=1e-9, abs=1e-300)


def test_segment_integral_log_branch():
    # kappa = -1 lands on the logarithmic antiderivative
    got = segment_integral(1.0, 4.0, 1.0, 0.25)
    assert got == pytest.approx(np.log(4.0), rel=1e-12)


def test_segment_integral_linear_fallback_at_zero_endpoint():
    # v0 = 0 has no log-log chord; the linear model integrates v = 2(t-1)
    assert segment_integral(1.0, 3.0, 0.0, 4.0) == pytest.approx(4.0, rel=1e-12)
    assert segment_integral(1.0, 3.0, 4.0, 0.0) == pytest.approx(4.0, rel=1e-12)
    assert segment_integral(1.0, 3.0, 0.0, 0.0) == 0.0


def test_segment_integral_steep_chord_stays_finite():
    # chord between a tiny and an O(1) sample has a huge fitted exponent; the
    # naive v0 * t0**(-kappa) evaluation overflows t0**kappa
    val = segment_integral(1e-3, 2e-3, 1e-200, 1.0)
    assert np.isfinite(val)
    # mass concentrates at the right endpoint: v1 * t1 / (kappa + 1)
    kappa = np.log(1e200) / np.log(2.0)
    assert val == pytest.approx(2e-3 / (kappa + 1.0), rel=1e-6)
    # descending chord: mass sits at the left endpoint, exponent -kappa
    assert segment_integral(1e-3, 2e-3, 1.0, 1e-200) == pytest.approx(
        1e-3 / (kappa - 1.0), rel=1e-6)


def test_segment_integral_empty_interval():
    assert segment_integral(2.0, 2.0, 1.0, 1.0) == 0.0
