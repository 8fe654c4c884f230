"""Ray integrals and the one-dimensional Hardy-type checks.

Fixtures are functions whose both sides integrate in closed form; the
hand-derived values are written out next to each assertion.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ineqkit.hardyops import (RaySamples, cumulative_integral,
                              doublestar_bound_check, hardy_check,
                              ray_integral)

from conftest import two_level_function


def padded_ray(fn, support, t_max=64.0, nodes=1500):
    """Dense ray sampling fn on (0, t_max], zero beyond its support."""
    ts = np.geomspace(1e-3, t_max, nodes)
    vals = np.where(ts <= support, fn(ts), 0.0)
    return RaySamples(ts, vals)


def test_ray_samples_validation():
    with pytest.raises(ValueError):
        RaySamples(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        RaySamples(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        RaySamples(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        RaySamples(np.array([1.0, 2.0]), np.array([-1.0, 1.0]))
    ray = RaySamples(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ray.values[0] = 3.0
    # both tails always extend: there is no flag to turn one off
    for flag in ("extrapolate_low", "extrapolate_high"):
        with pytest.raises(TypeError):
            RaySamples(ray.ts, ray.values, **{flag: True})


def test_ray_integral_pure_power_with_tails():
    # t^-2 on [1, 4]: segments give 3/4 exactly.  A zero edge value ends a
    # tail: a 0 at t = 1/2 adds the linear chord's 1/4 below and no low tail
    ts = np.geomspace(1.0, 4.0, 16)
    vals = ts ** -2.0
    lo_ts, lo_vals = np.concatenate(([0.5], ts)), np.concatenate(([0.0], vals))
    # a 0 at t = 8 adds the chord's 1/8 above and no high tail
    no_tail = RaySamples(np.append(lo_ts, 8.0), np.append(lo_vals, 0.0))
    assert ray_integral(no_tail) == pytest.approx(0.25 + 0.75 + 0.125, rel=1e-12)
    # the high tail adds int_4^inf t^-2 = 1/4
    with_tail = RaySamples(lo_ts, lo_vals)
    assert ray_integral(with_tail) == pytest.approx(0.25 + 0.75 + 0.25, rel=1e-12)
    # extending t^-2 to zero diverges
    diverging = RaySamples(ts, vals)
    assert ray_integral(diverging) == math.inf


def test_ray_integral_growing_power():
    ts = np.geomspace(1.0, 4.0, 16)
    # int_0^4 t dt = 8, and the chord from 4 down to a 0 at t = 8 adds 8
    low = RaySamples(np.append(ts, 8.0), np.append(ts, 0.0))
    assert ray_integral(low) == pytest.approx(16.0, rel=1e-12)
    both = RaySamples(ts, ts)
    assert ray_integral(both) == math.inf


def test_cumulative_integral_monotone():
    ts = np.geomspace(0.5, 8.0, 32)
    vals = np.exp(-ts)
    ray = RaySamples(ts, vals)
    cum = cumulative_integral(ray)
    assert cum.shape == ts.shape
    assert np.all(np.diff(cum) >= 0)
    # ray_integral adds the high tail of the last segment's power law v t^e
    e = math.log(vals[-1] / vals[-2]) / math.log(ts[-1] / ts[-2])
    high = vals[-1] * ts[-1] / (-e - 1.0)
    assert high > 0
    assert cum[-1] + high == pytest.approx(ray_integral(ray), rel=1e-12)


def test_hardy_equality_case():
    # phi(t) = t on (0, 1]: with lam = 0, p = 1 both sides equal 1
    ray = padded_ray(lambda t: t, support=1.0)
    lhs, rhs = hardy_check(ray, 0.0, 1.0)
    assert lhs == pytest.approx(1.0, rel=2e-2)
    assert rhs == pytest.approx(1.0, rel=2e-2)


def test_hardy_indicator_oracle():
    # phi = indicator of (1, 2], lam = 1/2, p = 2:
    #   rhs integral: int_1^2 (t^(1/2))^2 dt/t = 1, so rhs = 2 * 1
    #   lhs^2: int_1^2 ((t-1)/t)^2 dt + int_2^inf 1/t^2 dt = 2 - 2 ln 2
    ray = padded_ray(lambda t: (t > 1.0).astype(float), support=2.0, t_max=400.0)
    lhs, rhs = hardy_check(ray, 0.5, 2.0)
    assert lhs == pytest.approx(math.sqrt(2.0 - 2.0 * math.log(2.0)), rel=2e-2)
    assert rhs == pytest.approx(2.0, rel=2e-2)
    assert lhs <= rhs


def test_hardy_check_validation():
    ray = RaySamples(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        hardy_check(ray, 1.0, 2.0)
    with pytest.raises(ValueError):
        hardy_check(ray, 0.5, 0.5)


def test_hardy_divergent_cumulative_reports_inf():
    # phi ~ t^-2 near zero is not integrable at the origin
    ts = np.geomspace(0.01, 1.0, 64)
    ray = RaySamples(ts, ts ** -2.0)
    assert hardy_check(ray, 0.0, 1.0) == (math.inf, math.inf)


def test_doublestar_indicator_exact(unit_indicator):
    # f = indicator of measure 1: f** = min(1, 1/t), so ||f**||_2 = sqrt(2)
    lhs, rhs = doublestar_bound_check(unit_indicator, 2.0)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    assert lhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert lhs <= 2.0 * rhs


def test_doublestar_gauss_path_vs_dense_quadrature(grid1):
    # two-level profile, p = 2.5 exercises the Gauss-Legendre piece integrals;
    # f** = 3 on (0, 1/2], (1 + t)/t on (1/2, 3/2], 2.5/t beyond
    f = two_level_function(grid1)
    p = 2.5
    lhs, rhs = doublestar_bound_check(f, p)
    dense = (3.0 ** p * 0.5
             + quad(lambda t: ((1.0 + t) / t) ** p, 0.5, 1.5)[0]
             + quad(lambda t: (2.5 / t) ** p, 1.5, np.inf)[0]) ** (1.0 / p)
    assert lhs == pytest.approx(dense, rel=1e-8)
    assert rhs == pytest.approx((0.5 * 3 ** p + 1.0) ** (1 / p), rel=1e-12)
    assert lhs <= rhs * p / (p - 1.0)


def test_doublestar_zero_function(grid1):
    from ineqkit.gridfn import GridFunction
    z = GridFunction(grid1, np.zeros(grid1.shape))
    assert doublestar_bound_check(z, 2.0) == (0.0, 0.0)
