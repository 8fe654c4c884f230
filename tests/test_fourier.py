"""Fourier transforms, Riesz multipliers, cone maxima, slab sups, shell sums.

The standard gaussian exp(-pi |x|^2) is its own transform and anchors most
exactness tests; shell functionals are checked against dense analytic sweeps
on synthetic radial spectra.  fourier keeps only the half spectrum; the
oracles here read the full, centered spectrum (FullSpectrum), from the
complex FFT or as the conjugate completion of a half (_full).
"""

import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
import scipy.fft
from scipy.ndimage import map_coordinates

from ineqkit import fourier, verify
from ineqkit.fourier import (SpectralFunction, cone_derivative_check,
                             cube_shell_sum, dual_grid, dyadic_shell_sum,
                             dyadic_shell_terms, frequency_radii, h1_norm,
                             riesz, sup_integral_functional, transform,
                             weighted_fourier_integral)
from ineqkit.gridfn import FamilySpec, GridFunction, GridSpec, sample_member
from ineqkit.norms import Lebesgue, lp_norm, norm_of_values
from ineqkit.quadrature import segment_integral
from ineqkit.rearrange import decreasing_rearrangement, double_star


def standard_gaussian(grid):
    mesh = grid.meshgrid()
    r2 = sum(x ** 2 for x in mesh)
    return GridFunction(grid, np.exp(-np.pi * r2))


class FullSpectrum(NamedTuple):
    """A spectrum on every node of its dual grid, centered like the samples: the oracles' layout."""

    spec: GridSpec
    values: np.ndarray


def _half(values):
    """The half spectrum (FFT order, last axis k = 0..N/2) of a centered full-grid array."""
    return np.fft.ifftshift(values)[..., :values.shape[-1] // 2 + 1]


def _full(F):
    """The centered full spectrum of F: its half, and the conjugate point reflection of the half."""
    shape = F.spec.shape
    m = shape[-1] // 2
    vals = np.empty(shape, dtype=complex)
    vals[..., :m + 1] = F.values
    mirror = F.values[np.ix_(*[(-np.arange(n)) % n for n in shape[:-1]], np.arange(m + 1))]
    np.conjugate(mirror[..., m - 1:0:-1], out=vals[..., m + 1:])
    return FullSpectrum(F.spec, np.fft.fftshift(vals))


def _full_radii(spec):
    """|xi| on every node of the centered grid spec."""
    return np.sqrt(sum(x ** 2 for x in spec.meshgrid()))


def test_spectral_function_takes_only_the_half_spectrum():
    spec = dual_grid(GridSpec(2, (3.0, 2.0), (24, 16)))
    with pytest.raises(ValueError, match=r"half spectrum \(24, 9\) of grid \(24, 16\)"):
        SpectralFunction(spec, np.ones(spec.shape))
    F = SpectralFunction(spec, np.ones((24, 9)))
    assert F.values.dtype == np.complex128 and not F.values.flags.writeable
    assert F.values.shape == frequency_radii(spec).shape


@pytest.mark.parametrize("dim,points,tol", [(1, 512, 1e-8), (2, 256, 1e-6)])
def test_gaussian_self_duality(dim, points, tol):
    grid = GridSpec.box(dim, 8.0, points)
    F = transform(standard_gaussian(grid))
    expected = np.exp(-np.pi * frequency_radii(F.spec) ** 2)
    assert np.max(np.abs(F.values - expected)) <= tol


def test_dual_grid_involution(grid2):
    dual = dual_grid(grid2)
    assert dual_grid(dual) == grid2
    # N nodes at spacing 1/(2L) span the Nyquist window
    assert dual.spacing[0] == pytest.approx(1.0 / 8.0)


def test_transform_roundtrip(corpus2):
    f = corpus2[0].f
    back = fourier._inverse(transform(f).values.copy(), f.spec)
    assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))


def test_parseval(corpus1, corpus2):
    for member in corpus1[:4] + corpus2[:2]:
        F = transform(member.f)
        lhs = np.sqrt(np.sum(np.abs(_full(F).values) ** 2) * F.spec.cell_volume)
        assert lhs == pytest.approx(lp_norm(member.f, 2), rel=1e-12)


def test_shift_modulation(grid1):
    fam = FamilySpec("gaussian", 1, 1.0, (0.0,), (1.0,))
    a = 0.75
    shifted = FamilySpec("gaussian", 1, 1.0, (a,), (1.0,))
    F = transform(sample_member(fam, grid1).f)
    G = transform(sample_member(shifted, grid1).f)
    xi = dual_grid(grid1).axis_nodes(0)
    expected = _half(np.exp(-2j * np.pi * xi * a)) * F.values
    assert np.max(np.abs(G.values - expected)) <= 1e-10


def test_riesz_squares_sum_to_minus_identity():
    # needs a mean-zero input the grid fully resolves: band-edge content
    # breaks the conjugate symmetry of the odd multiplier
    grid = GridSpec.box(2, 8.0, 128)
    fam = FamilySpec("gaussian", 2, 1.0, (0.0, 0.0), (1.0, 1.0))
    f = sample_member(fam, grid).derivs[0]
    total = np.zeros(grid.shape)
    for j in range(2):
        total += riesz(riesz(f, j), j).values
    assert np.max(np.abs(total + f.values)) <= 1e-8 * np.max(np.abs(f.values))


def test_riesz_warns_on_nonzero_mean(grid1):
    f = sample_member(FamilySpec("gaussian", 1, 1.0, (0.0,), (1.0,)), grid1).f
    with pytest.warns(RuntimeWarning):
        riesz(f, 0)


def test_riesz_warns_on_every_call_with_the_same_text(grid2):
    f = sample_member(FamilySpec("gaussian", 2, 1.0, (0.5, -0.3), (1.0, 1.2)), grid2).f
    F = _uncached_transform(f)
    scale = float(np.max(np.abs(F.values)))
    weight = abs(F.values[16, 16]) / scale
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):
            riesz(f, 1)
    assert [w.category for w in caught] == [RuntimeWarning] * 3
    assert all(str(w.message) == str(caught[0].message) for w in caught)
    assert f"(relative weight {weight:.2e})" in str(caught[0].message)


def test_h1_norm_dominates_l1(corpus2):
    member = corpus2[0]
    g = GridFunction(member.grid, member.derivs[0].values)
    assert h1_norm(g) >= lp_norm(g, 1) * (1.0 - 1e-12)


def _uncached_transform(f):
    """The naive transform: rolls around the complex DFT, then a separate scaling pass; never reads a cache."""
    vals = np.fft.fftshift(scipy.fft.fftn(np.fft.ifftshift(f.values.copy())))
    return FullSpectrum(dual_grid(f.spec), vals * f.spec.cell_volume)


def _rolled_inverse(values, spec):
    """The naive inverse: rolls around the complex inverse DFT, then a separate scaling pass."""
    vals = np.fft.fftshift(scipy.fft.ifftn(np.fft.ifftshift(values), overwrite_x=True))
    return vals.real / spec.cell_volume


def _division_riesz_multiplier(spec, j):
    """The complex Riesz symbol -1j xi_j / |xi| on the full grid, one complex division, 0 at |xi| = 0."""
    mesh = spec.meshgrid()
    r = _full_radii(spec)
    origin = r == 0
    r[origin] = 1.0
    m = -1j * mesh[j] / r
    m[origin] = 0.0
    return m


def _uncached_riesz(f, j):
    """The full-spectrum Riesz transform: the complex product and the complex inverse."""
    F = _uncached_transform(f)
    m = _division_riesz_multiplier(F.spec, j)
    m *= F.values
    return _rolled_inverse(m, f.spec)


def _half_riesz(full, j, spec):
    """The Riesz transform read off the half of a full spectrum with irfftn.

    q is the imaginary part of the complex symbol, 0 on the Nyquist plane of
    axis j (its centered index 0); the half of q F is multiplied by 1j and
    the centering sign (-1)^(k_0 + ... + k_(n-1)), inverted with irfftn and
    divided by the cell volume of spec.
    """
    q = _division_riesz_multiplier(full.spec, j).imag
    q[(slice(None),) * j + (0,)] = 0.0
    half = _half(full.values * q)
    return scipy.fft.irfftn(half * (1j * _centering_signs(half.shape)), s=spec.shape) / spec.cell_volume


def _centering_signs(shape):
    """(-1)^(k_0 + ... + k_(n-1)) over the indices k of an array of the given shape."""
    return (-1.0) ** sum(np.meshgrid(*map(np.arange, shape), indexing="ij", sparse=True))


def _riesz_symbol(spec, j):
    """The real Riesz symbol q = (-xi_j) * (1 / |xi|) on the half spectrum, 0 at the origin and on the Nyquist plane of axis j."""
    origin = (0,) * spec.dim
    r = frequency_radii(spec)
    r[origin] = 1.0
    q = np.divide(1.0, r, out=r)
    np.multiply(-fourier._half_mesh(spec)[j], q, out=q)
    q[origin] = 0.0
    q[(slice(None),) * j + (spec.points[j] // 2,)] = 0.0
    return q


def _two_pass_riesz(f, j):
    """The Riesz transform as F q, then _alternate(., 1j), irfftn and the division by the cell volume."""
    F = transform(f)
    half = fourier._alternate(F.values * _riesz_symbol(F.spec, j), 1j)
    return scipy.fft.irfftn(half, s=f.spec.shape) / f.spec.cell_volume


def _where_weighted_integral(F, gamma):
    """The full-grid rule: |xi| and |xi|^gamma on every node, masked by np.where."""
    r = _full_radii(F.spec)
    mask = r > 0
    with np.errstate(divide="ignore"):
        integrand = np.where(mask, np.abs(F.values) * np.where(mask, r, 1.0) ** gamma, 0.0)
    cell = F.spec.cell_volume
    near = mask & (r <= math.hypot(*F.spec.spacing) + 1e-12)
    return float(integrand.sum() * cell), float(integrand[near].sum() * cell)


def _oracle_inputs(corpus1, corpus2, corpus3):
    """Members of every dimension, and a partial of each, without a cached spectrum."""
    for corpus in (corpus1, corpus2, corpus3):
        for member in corpus[:2]:
            for f in (member.derivs[0], member.f):
                yield GridFunction(f.spec, f.values)


EPS = np.finfo(float).eps
# pointwise bounds, in units of eps * max|oracle|: rfftn, irfftn and the
# Riesz transform on the half spectrum round differently from the complex
# full-spectrum routes (at most 1.7 and 2.6 measured for the transform and
# the Riesz transform on random and corpus samples up to 64^3)
TRANSFORM_ULPS = 4
RIESZ_ULPS = 8


def _assert_within(got, oracle, ulps):
    assert got.shape == oracle.shape
    assert np.max(np.abs(got - oracle)) <= ulps * EPS * np.max(np.abs(oracle))


def _check_transform(f, F):
    """F, and its conjugate completion, lie within TRANSFORM_ULPS of the rolled complex oracle."""
    oracle = _uncached_transform(f)
    assert F.spec == oracle.spec
    _assert_within(F.values, _half(oracle.values), TRANSFORM_ULPS)
    _assert_within(_full(F).values, oracle.values, TRANSFORM_ULPS)


def _check_riesz_and_h1(f):
    """riesz and h1_norm against the full-spectrum oracle _uncached_riesz, and riesz against _half_riesz.

    riesz equals _half_riesz of the completed spectrum bit for bit and lies
    within RIESZ_ULPS of the complex route.  |sum |a| - sum |b|| <= sum
    |a - b|, so each Riesz term of h1_norm moves by at most its pointwise
    bound times the number of cells, times the cell volume; summation order
    adds a few eps of the total.
    """
    expected, slack = lp_norm(f, 1), 0.0
    full = _full(transform(f))
    for j in range(f.spec.dim):
        naive = _uncached_riesz(f, j)
        got = riesz(f, j)
        assert not got.values.flags.writeable
        assert np.array_equal(got.values, _half_riesz(full, j, f.spec))
        _assert_within(got.values, naive, RIESZ_ULPS)
        bound = RIESZ_ULPS * EPS * np.max(np.abs(naive))
        slack += bound * naive.size * f.spec.cell_volume
        expected += lp_norm(GridFunction(f.spec, naive), 1)
    assert abs(h1_norm(f) - float(expected)) <= slack + 8 * EPS * float(expected)


def test_transform_inverse_riesz_and_h1_norm_match_rolled_oracles(corpus1, corpus2, corpus3):
    for f in _oracle_inputs(corpus1, corpus2, corpus3):
        F = transform(f)
        _check_transform(f, F)
        got = fourier._inverse(F.values.copy(), f.spec)
        _assert_within(got, _rolled_inverse(_full(F).values, f.spec), TRANSFORM_ULPS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _check_riesz_and_h1(f)


def test_transform_is_cached_on_the_instance(corpus2):
    f = corpus2[1].derivs[0]
    F = transform(f)
    assert transform(f) is F
    assert not F.values.flags.writeable
    _check_transform(f, F)
    twin = GridFunction(f.spec, f.values)
    assert "_spectrum" not in vars(twin)
    assert transform(twin) is not F
    assert np.array_equal(transform(twin).values, F.values)


def test_riesz_and_h1_norm_match_uncached_oracle(corpus2, corpus3):
    for member in (corpus2[2], corpus3[1]):
        for g in member.derivs:
            g = GridFunction(g.spec, g.values)  # no cache yet
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                _check_riesz_and_h1(g)
                first = h1_norm(g)
                assert h1_norm(g) == first  # now from the cache


# anisotropic boxes, unequal axis lengths, N/2 odd on some axes
UNEVEN_GRIDS = [
    ((8.0,), (256,)),
    ((3.0,), (10,)),
    ((3.0, 2.0), (24, 16)),
    ((2.0, 1.5, 3.0), (16, 8, 12)),
]


def _uneven_sample(half_extents, points):
    spec = GridSpec(len(points), half_extents, points)
    return GridFunction(spec, np.random.default_rng(len(points)).standard_normal(spec.shape))


@pytest.mark.parametrize("half_extents,points", UNEVEN_GRIDS)
def test_uneven_grids_match_oracles(half_extents, points):
    f = _uneven_sample(half_extents, points)
    _check_transform(f, transform(f))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _check_riesz_and_h1(f)


def test_riesz_equals_the_two_pass_route_bit_for_bit(corpus1, corpus2, corpus3):
    # the one-pass multiplier against F q, _alternate(., 1j), irfftn and the
    # division, on default members of every dimension and on the uneven grids
    fs = list(_oracle_inputs(corpus1, corpus2, corpus3))
    fs += [_uneven_sample(*grid) for grid in UNEVEN_GRIDS]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for f in fs:
            for j in range(f.spec.dim):
                assert np.array_equal(riesz(f, j).values, _two_pass_riesz(f, j))


def test_hilbert_transform_in_one_dimension():
    grid = GridSpec.box(1, 8.0, 256)
    f = sample_member(FamilySpec("gaussian", 1, 1.0, (0.3,), (1.0,)), grid).derivs[0]  # mean zero
    _check_riesz_and_h1(f)
    h = riesz(f, 0)
    # the symbol is -i sign(xi): H maps f' to a function orthogonal to it, and H^2 = -1
    assert abs(np.sum(h.values * f.values)) <= 1e-12 * np.sum(f.values ** 2)
    assert np.max(np.abs(riesz(h, 0).values + f.values)) <= 1e-8 * np.max(np.abs(f.values))


def _sphere_measure(n):
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


# Closed forms for the isotropic gaussian f = A exp(-pi |x - c|^2 / w^2) of
# the default corpora: F(xi) = A w^n exp(-pi w^2 |xi|^2 - 2 pi i c.xi), and
# d_k f has the spectrum 2 pi i xi_k F.  The bands give today's relative
# error of each quadrature on the default grid, as (low, high); the Fourier
# side errors come from the box (ROADMAP item 1), not from the sampling.
GAUSSIAN_BANDS = {
    2: {"transform": 7e-3, "derivative": 4e-2, "sphere": 1.5e-2,
        "pelcz_lhs": (-0.134, -0.097), "pelcz_rhs": (-0.001, 0.006),
        "deriv_1-n": (-0.026, -0.013), "deriv_-n": (-0.162, -0.119)},
    3: {"transform": 5e-4, "derivative": 3e-3, "sphere": 2e-2,
        "pelcz_lhs": (-0.156, -0.137), "pelcz_rhs": (-0.001, 0.001),
        "deriv_1-n": (-0.043, -0.033), "deriv_-n": (-0.205, -0.181)},
}


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_closed_forms_state_the_box_gap(n):
    band = GAUSSIAN_BANDS[n]
    grid = verify.default_grid(n)
    fams = [fam for fam in verify.default_families(n) if fam.family == "gaussian"]
    assert len(fams) == 4
    S = _sphere_measure(n)
    # the integral of |xi_k| over the unit sphere
    omega = 2.0 * math.pi ** ((n - 1) / 2) / math.gamma((n + 1) / 2)
    for fam in fams:
        member = sample_member(fam, grid)
        A, w, c = fam.amplitude, fam.width[0], fam.center
        assert fam.width == (w,) * n
        F = transform(member.f)
        xi = fourier._half_mesh(F.spec)
        r2 = sum(x ** 2 for x in xi)
        phase = sum(x * ci for x, ci in zip(xi, c))
        exact = A * w ** n * np.exp(-np.pi * w * w * r2 - 2j * np.pi * phase)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(F.values - exact)) <= band["transform"] * scale
        for k in range(n):
            dk = 2j * np.pi * xi[k] * exact
            got = transform(member.derivs[k]).values
            assert np.max(np.abs(got - dk)) <= band["derivative"] * np.max(np.abs(dk))
        for r in (0.25, 0.5, 1.0):
            radial = S * r ** (n - 1) * A * w ** n * math.exp(-math.pi * w * w * r * r)
            assert sphere_integral(F, r) == pytest.approx(radial, rel=band["sphere"])
        # pelcz: |xi|^(1 - n) |F| against ||grad f||_1; the continuum ratio is
        # 1 in 2-D and pi/2 in 3-D
        lhs = weighted_fourier_integral(F, 1 - n).value / (A * w ** (n - 1) * S / 2) - 1
        grad = np.sqrt(sum(d.values ** 2 for d in member.derivs))
        rhs_exact = A * math.pi * w if n == 2 else 4.0 * A * w * w
        rhs = norm_of_values(grad, grid, Lebesgue(1.0)) / rhs_exact - 1
        assert band["pelcz_lhs"][0] <= lhs <= band["pelcz_lhs"][1]
        assert band["pelcz_rhs"][0] <= rhs <= band["pelcz_rhs"][1]
        for k in range(n):
            Fk = transform(member.derivs[k])
            low = weighted_fourier_integral(Fk, 1 - n).value / (A * w ** (n - 2) * omega) - 1
            high = (weighted_fourier_integral(Fk, -n).value
                    / (math.pi * A * w ** (n - 1) * omega) - 1)
            assert band["deriv_1-n"][0] <= low <= band["deriv_1-n"][1]
            assert band["deriv_-n"][0] <= high <= band["deriv_-n"][1]


def _numpy_transform(f):
    """The numpy.fft transform on the full grid: the naive oracle."""
    vals = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    return FullSpectrum(dual_grid(f.spec), vals * f.spec.cell_volume)


def _numpy_inverse_complex(values, spec):
    """The numpy.fft inverse on the full grid, to samples on spec, before the real part is taken."""
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(values))) / spec.cell_volume


def _numpy_inverse(F):
    return _numpy_inverse_complex(F.values, dual_grid(F.spec)).real


def _where_riesz_multiplier(spec, j):
    """The full-grid Riesz symbol as one masked np.where."""
    mesh = spec.meshgrid()
    r = _full_radii(spec)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0, -1j * mesh[j] / np.where(r > 0, r, 1.0), 0.0)


def _numpy_riesz(f, j):
    F = _numpy_transform(f)
    return _numpy_inverse(FullSpectrum(F.spec, F.values * _where_riesz_multiplier(F.spec, j)))


def _assert_close(a, b):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_spectral_layer_matches_numpy_fft_oracle(corpus1, corpus2, corpus3):
    for corpus in (corpus1, corpus2, corpus3):
        for member in corpus[:3]:
            for g in (member.derivs[0], member.f):
                f = GridFunction(g.spec, g.values)  # no cache yet
                F = transform(f)
                _assert_close(F.values, _half(_numpy_transform(f).values))
                _assert_close(fourier._inverse(F.values.copy(), f.spec), _numpy_inverse(_full(F)))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    expected = lp_norm(f, 1)
                    for j in range(f.spec.dim):
                        naive = _numpy_riesz(f, j)
                        _assert_close(riesz(f, j).values, naive)
                        expected += lp_norm(GridFunction(f.spec, naive), 1)
                    assert h1_norm(f) == pytest.approx(float(expected), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("half_extents,points", [
    ((8.0,), (256,)),
    ((3.0,), (10,)),
    ((3.0, 2.0), (10, 8)),
    ((4.0, 4.0, 1.5), (16, 6, 10)),
])
def test_riesz_multiplier_matches_masked_where(half_extents, points):
    # N/2 odd or even; the dual of a 10-point axis with L = 3 used to have
    # its middle node at 1.1e-16 instead of 0
    spec = dual_grid(GridSpec(len(points), half_extents, points))
    signs = _centering_signs(fourier._half_shape(spec.shape))
    for j in range(spec.dim):
        new = fourier._riesz_multiplier(spec, j)
        assert np.array_equal(new, _riesz_symbol(spec, j) * signs)
        for old in (_where_riesz_multiplier(spec, j), _division_riesz_multiplier(spec, j)):
            # the real symbol q is the imaginary part i q of the complex one,
            # on the half spectrum and 0 on the Nyquist plane of axis j, here
            # times the sign of _alternate
            assert not np.any(old.real)
            want = _half(old.imag) * signs
            want[(slice(None),) * j + (spec.points[j] // 2,)] = 0.0
            assert new.dtype == np.float64 and new.shape == want.shape
            assert new.tobytes() == want.tobytes()


def _brute_ball_maximum(vals, grid, radius):
    """Max of vals over the nodes within radius of each node, all pairs at once."""
    nodes = np.stack([x.ravel() for x in np.meshgrid(
        *(grid.axis_nodes(ax) for ax in range(grid.dim)), indexing="ij")], axis=-1)
    d2 = ((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=-1)
    inside = d2 <= radius ** 2 * (1 + 1e-12)
    assert inside.sum(axis=1).max() > 1  # the ball holds more than its center
    return np.where(inside, vals.ravel(), -np.inf).max(axis=1).reshape(grid.shape)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_maximum_matches_brute_force(dim):
    # (half extent, points, radius): the 1-d route has no transverse offset,
    # the 3-d one offsets along two axes
    L, n, radius = {1: (2.0, 32, 0.7), 2: (2.0, 16, 0.7), 3: (2.0, 8, 1.3)}[dim]
    rng = np.random.default_rng(2)
    grid = GridSpec.box(dim, L, n)
    vals = rng.uniform(0.0, 1.0, grid.shape)
    assert np.array_equal(fourier._ball_maximum(vals, grid, radius),
                          _brute_ball_maximum(vals, grid, radius))


def test_ball_maximum_small_and_huge_radius(grid2):
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, grid2.shape)
    assert np.array_equal(fourier._ball_maximum(vals, grid2, 0.01), vals)
    big = fourier._ball_maximum(vals, grid2, 100.0)
    assert np.all(big == vals.max())


def test_ball_maximum_radius_past_grid_width():
    # transverse offsets reaching the full axis length must drop out, not
    # wrap, and the largest in-box offset, N - 1 cells, must count: a lone
    # peak in the last row reaches the first
    rng = np.random.default_rng(4)
    grid = GridSpec.box(2, 1.0, 8)
    radius = 2.2
    peak = np.zeros(grid.shape)
    peak[-1, 0] = 1.0
    for vals in (rng.uniform(0.0, 1.0, grid.shape), peak):
        assert np.array_equal(fourier._ball_maximum(vals, grid, radius),
                              _brute_ball_maximum(vals, grid, radius))


def test_cone_derivative_check_holds(grid2):
    f = sample_member(FamilySpec("gaussian", 2, 1.0, (0.5, -0.3), (1.0, 1.2)), grid2).f
    lhs, rhs = cone_derivative_check(f)
    scale = float(np.max(np.abs(f.values)))
    assert np.all(lhs <= rhs + 1e-6 * scale)


def _full_cone_derivative_check(f, t_grid):
    """The numpy full-grid route: complex products on every node, complex inverses and their moduli."""
    F = _uncached_transform(f)
    r = _full_radii(F.spec)
    lhs = np.zeros(f.spec.shape)
    rhs = [np.zeros(f.spec.shape) for _ in range(f.spec.dim)]
    for t in t_grid:
        pt = np.exp(-2.0 * np.pi * r * t)
        u_t = np.abs(_numpy_inverse_complex(F.values * (-2.0 * np.pi * r * pt), f.spec))
        np.maximum(lhs, fourier._ball_maximum(u_t, f.spec, t), out=lhs)
        for j, x in enumerate(F.spec.meshgrid()):
            with np.errstate(divide="ignore", invalid="ignore"):
                sym = np.where(r > 0, 2.0 * np.pi * x ** 2 / np.where(r > 0, r, 1.0), 0.0)
            v = np.abs(_numpy_inverse_complex(F.values * (sym * pt), f.spec))
            np.maximum(rhs[j], fourier._ball_maximum(v, f.spec, t), out=rhs[j])
    return lhs, sum(rhs)


def test_cone_derivative_check_matches_full_grid_route(corpus1, corpus2):
    for f in (corpus1[3].f, corpus2[1].f, corpus2[4].derivs[1]):
        got = cone_derivative_check(f)
        want = _full_cone_derivative_check(f, fourier._default_time_grid(f.spec))
        for a, b in zip(got, want):
            _assert_close(a, b)


def test_sup_integral_functional_is_homogeneous(corpus2):
    member = corpus2[2]
    base = sup_integral_functional(transform(member.f), 0)
    scaled = sup_integral_functional(
        transform(GridFunction(member.grid, 3.0 * member.f.values)), 0)
    assert np.isfinite(base) and base > 0
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def slab_sup(F, axis, t):
    """Per-slab sup of |F| over the frequencies with |xi_axis| >= t, on a full spectrum."""
    spec = F.spec
    mask = np.abs(spec.axis_nodes(axis)) >= t
    reduced = spec.drop_axis(axis)
    if not mask.any():
        warnings.warn(f"threshold {t} exceeds the frequency extent; sup is empty",
                      RuntimeWarning, stacklevel=2)
        return GridFunction(reduced, np.zeros(reduced.shape))
    sub = np.compress(mask, np.abs(F.values), axis=axis)
    return GridFunction(reduced, sub.max(axis=axis))


def _naive_slab_double_stars(F, axis, ts, measures):
    """One slab_sup, rearrangement and double_star per threshold, on a full spectrum."""
    vals = np.empty(len(ts))
    for i, (t, m) in enumerate(zip(ts, measures)):
        prof = decreasing_rearrangement(slab_sup(F, axis, t))
        vals[i] = double_star(prof, m) if prof.values.size else 0.0
    return vals


def _naive_sup_integral_functional(F, axis):
    """The per-threshold loop that sup_integral_functional replaces, at 64 thresholds, on a full spectrum."""
    n = F.spec.dim
    t_lo = F.spec.spacing[axis] / 256.0
    ts = np.geomspace(t_lo, F.spec.half_extents[axis], 64)
    vals = _naive_slab_double_stars(F, axis, ts, [t ** (n - 1) for t in ts])
    total = vals[0] * t_lo
    for i in range(63):
        total += segment_integral(ts[i], ts[i + 1], vals[i], vals[i + 1])
    return float(total)


def test_sup_integral_functional_matches_naive_loop(corpus2, corpus3):
    for member in corpus2[:3] + corpus3[:2]:
        F = transform(member.f)
        for axis in range(F.spec.dim):
            assert sup_integral_functional(F, axis) == pytest.approx(
                _naive_sup_integral_functional(_full(F), axis), rel=1e-12, abs=0.0)


def test_slab_double_stars_repeated_thresholds():
    # ties in |F|, zero outer planes (nonempty slabs with an empty profile),
    # and thresholds that repeat or select the same planes; the half's
    # columns 0 and N/2 are not Hermitian, so no real sample has this spectrum
    spec = dual_grid(GridSpec.box(2, 2.0, 8))
    vals = np.zeros((8, 5), dtype=complex)
    low = [0, 1, 2, 6, 7]  # FFT indices k = 0, 1, 2, -2, -1
    vals[np.ix_(low, [0, 1, 2])] = np.array([1.0, 2.0, 1j])
    vals[1, 1] = 3.0 - 4.0j
    vals[6, 2] = 2.0
    F = SpectralFunction(spec, vals)
    full = _full(F)
    h = spec.spacing[0]
    ts = np.array([h / 256, h / 4, h / 4, h, 1.5 * h, 2 * h, 3 * h, 3 * h, 4 * h])
    measures = np.geomspace(0.01, 3.0, len(ts))
    for axis in (0, 1):
        got = fourier._slab_double_stars(F, axis, ts, measures)
        assert np.array_equal(got, _naive_slab_double_stars(full, axis, ts, measures))
        assert got[-1] == 0.0 and got[0] > 0.0
        assert sup_integral_functional(F, axis) == _naive_sup_integral_functional(full, axis)


def test_running_means_match_the_rearrangement_at_the_edges():
    # the top-k sums against decreasing_rearrangement and double_star: one
    # measure at a time moves the partition to each k, all at once shares it
    grid = GridSpec.box(1, 2.0, 8)
    cell = grid.cell_volume  # 0.5
    samples = [
        [5.0, 2.0, 1.0, 2.0, 0.0, 2.0, 0.0, 0.0],  # ties, zeros past 4 cells
        [0.0] * 8,                                   # an all-zero slab gives 0
        [0.3, 7.0, 1.5, 0.25, 4.0, 4.0, 0.5, 2.0],   # positive on every cell
    ]
    measures = [
        0.2, 0.49,       # below one cell: k = 0
        0.5, 1.0, 1.5,   # exact multiples of the cell
        0.75, 1.25,      # k inside the run of ties, at the partition boundary
        2.2, 2.6,        # past the support of the first sample
        4.0, 100.0,      # k covers the whole slab, and far past it
    ]
    # every sample is one row of a single call, as _slab_double_stars makes it
    rows = np.repeat(np.arange(len(samples)), len(measures))
    together = fourier._running_means(np.array(samples), cell, rows, np.tile(measures, len(samples)))
    for i, vals in enumerate(samples):
        want = double_star(decreasing_rearrangement(GridFunction(grid, np.array(vals))), measures)
        for s, w, t in zip(measures, want, together[rows == i]):
            (alone,) = fourier._running_means(np.array([vals]), cell, np.zeros(1, dtype=int),
                                              np.array([s]))
            assert alone == pytest.approx(w, rel=1e-12, abs=0.0)
            assert t == alone
    assert not together[rows == 1].any()


def test_slab_double_stars_empty_slab_warns_like_slab_sup(corpus2):
    F = transform(corpus2[1].f)
    far = 100.0
    with warnings.catch_warnings(record=True) as direct:
        warnings.simplefilter("always")
        slab_sup(_full(F), 0, far)
    with warnings.catch_warnings(record=True) as nested:
        warnings.simplefilter("always")
        got = fourier._slab_double_stars(F, 0, np.array([0.5, far]), np.array([1.0, 1.0]))
    assert [w.category for w in nested] == [RuntimeWarning]
    assert str(nested[0].message) == str(direct[0].message)
    assert got[1] == 0.0
    assert got[0] == pytest.approx(_naive_slab_double_stars(_full(F), 0, [0.5], [1.0])[0],
                                   rel=1e-12, abs=0.0)


def test_slab_functionals_reject_bad_axis(corpus2):
    F = transform(corpus2[1].f)
    for axis in (-1, 2, 1.0):
        with pytest.raises(ValueError, match="axis"):
            riesz(corpus2[1].f, axis)
        with pytest.raises(ValueError, match="axis"):
            sup_integral_functional(F, axis)
    assert sup_integral_functional(F, np.int64(1)) == _naive_sup_integral_functional(_full(F), 1)


def sphere_integral(F, r):
    """The surface integral of |F| over the sphere of radius r: one row of _sphere_rows."""
    rows = fourier._sphere_rows(F.spec, np.array([r], dtype=float))
    return float(fourier._shell_values(F, rows)[0])


def radial_spectrum(dim, profile):
    grid = GridSpec.box(dim, 4.0, 32)
    dual = dual_grid(grid)
    return SpectralFunction(dual, profile(frequency_radii(dual)))


def test_sphere_integral_radial_oracle():
    # radial F: the surface integral is |S^1| r * profile(r)
    F = radial_spectrum(2, lambda r: np.exp(-r ** 2))
    for r in (0.3, 0.7, 1.4):
        exact = 2.0 * np.pi * r * math.exp(-r ** 2)
        assert sphere_integral(F, r) == pytest.approx(exact, rel=5e-3)


def test_sphere_integral_radial_oracle_3d():
    F = radial_spectrum(3, lambda r: np.exp(-r ** 2))
    exact = 4.0 * np.pi * 0.8 ** 2 * math.exp(-0.64)
    assert sphere_integral(F, 0.8) == pytest.approx(exact, rel=5e-3)


def test_dyadic_shell_sum_vs_dense_sweep():
    # dense analytic (k, r)-sweep on a radial synthetic spectrum
    F = radial_spectrum(2, lambda r: np.exp(-r ** 2))
    ks, sups = dyadic_shell_terms(F)
    weight = -1.0
    got = dyadic_shell_sum(F, weight)
    dense = 0.0
    for k in ks:
        radii = np.geomspace(2.0 ** k, 2.0 ** (k + 1), 400)
        dense += 2.0 ** (k * weight) * np.max(
            2.0 * np.pi * radii * np.exp(-radii ** 2))
    assert got == pytest.approx(dense, rel=2e-2)
    assert np.array_equal(ks, np.arange(-3, 1))


def _naive_sphere_integral(F, r):
    """One fresh rule, one |F| of the full spectrum and one interpolation per radius."""
    full = _full(F)
    dirs, w = fourier._sphere_rule.__wrapped__(F.spec.dim)
    points = r * dirs
    coords = np.empty((F.spec.dim, points.shape[0]))
    for ax in range(F.spec.dim):
        coords[ax] = (points[:, ax] + F.spec.half_extents[ax]) / F.spec.spacing[ax]
    vals = map_coordinates(np.abs(full.values), coords, order=1, mode="constant", cval=0.0)
    return float(np.dot(w, vals) * r ** (F.spec.dim - 1))


def _naive_dyadic_shell_terms(F):
    """The per-radius sweep that dyadic_shell_terms replaces, at 16 radii per shell."""
    ks = list(fourier._shell_range(F.spec))
    sups = np.zeros(len(ks))
    for i, k in enumerate(ks):
        radii = np.geomspace(2.0 ** k, 2.0 ** (k + 1), 16)
        sups[i] = max(_naive_sphere_integral(F, r) for r in radii)
    return np.array(ks), sups


SHELL_RTOL = 1e-13  # the operator merges the corners of one cell: last bits only


def _assert_shell_terms_match(F):
    ks, sups = dyadic_shell_terms(F)
    naive_ks, naive_sups = _naive_dyadic_shell_terms(F)
    assert len(ks) > 0 and np.array_equal(ks, naive_ks)
    np.testing.assert_allclose(sups, naive_sups, rtol=SHELL_RTOL, atol=0.0)
    for r in np.geomspace(2.0 ** ks[0], 2.0 ** (ks[-1] + 1), 5):
        assert sphere_integral(F, r) == pytest.approx(
            _naive_sphere_integral(F, r), rel=SHELL_RTOL, abs=0.0)


def test_dyadic_shell_terms_match_naive_sweep(corpus2, corpus3):
    for member in corpus2[:3] + corpus3[:2]:
        _assert_shell_terms_match(transform(member.f))


def _random_spectrum(spec, seed):
    """A complex half spectrum whose columns 0 and N/2 are not Hermitian: no real sample has it."""
    rng = np.random.default_rng(seed)
    real, imag = rng.standard_normal((2,) + frequency_radii(spec).shape)
    return SpectralFunction(spec, real + 1j * imag)


@pytest.mark.parametrize("half_extents,points", [
    ((4.0, 4.0), (32, 32)),
    ((3.0, 2.0), (24, 16)),
    ((4.0, 4.0, 4.0), (16, 16, 16)),
    ((2.0, 1.5, 3.0), (16, 8, 12)),
])
def test_shell_operator_on_non_hermitian_spectra(half_extents, points):
    spec = dual_grid(GridSpec(len(points), half_extents, points))
    _assert_shell_terms_match(_random_spectrum(spec, len(points)))


@pytest.mark.parametrize("dim", [2, 3])
def test_sphere_rule_pairs_antipodes_and_is_cached_read_only(dim):
    dirs, w = fourier._sphere_rule(dim)
    count = len(w)
    assert count == (64 if dim == 2 else 24 * 48) and dirs.shape == (count, dim)
    # every direction has its antipode, at equal weight
    anti = np.argmin(np.abs(dirs[:, None, :] + dirs[None, :, :]).sum(axis=2), axis=1)
    assert np.array_equal(anti[anti], np.arange(count)) and np.all(anti != np.arange(count))
    assert np.array_equal(w[anti], w)
    np.testing.assert_allclose(dirs[anti], -dirs, rtol=0.0, atol=4 * EPS)
    assert w.sum() == pytest.approx(_sphere_measure(dim), rel=1e-14)  # 2 pi, 4 pi
    for arr, fresh in zip((dirs, w), fourier._sphere_rule.__wrapped__(dim)):
        assert np.array_equal(arr, fresh)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    again = fourier._sphere_rule(dim)
    assert all(a is b for a, b in zip(again, (dirs, w)))
    with pytest.raises(ValueError, match="dim must be 2 or 3"):
        fourier._sphere_rule(1)


def test_top_shell_points_past_the_last_positive_node_count_zero():
    # |F| = 1: a sphere inside the grid integrates to 2 pi r.  The top
    # shell's radii reach N/2 h, past the last positive node (N/2 - 1) h, and
    # mode="constant" counts the points beyond it as 0
    spec = dual_grid(GridSpec.box(2, 4.0, 32))
    F = SpectralFunction(spec, np.ones_like(frequency_radii(spec)))
    top = min(spec.half_extents)
    last = top - spec.spacing[0]
    ks, _ = dyadic_shell_terms(F)
    assert 2.0 ** (ks[-1] + 1) == top
    inner = 0.99 * last
    assert sphere_integral(F, inner) == pytest.approx(2 * np.pi * inner, rel=1e-13)
    for r in (0.5 * (last + top), top):
        got = sphere_integral(F, r)
        assert got == pytest.approx(_naive_sphere_integral(F, r), rel=SHELL_RTOL, abs=0.0)
        assert got < 0.95 * 2 * np.pi * r
    _assert_shell_terms_match(F)


def test_shell_operator_is_cached_read_only_and_bounded():
    cache = fourier._shell_operator
    assert cache.cache_info().maxsize is not None
    spec = dual_grid(GridSpec(3, (4.0, 3.0, 2.0), (16, 14, 8)))
    op = cache(spec)
    assert cache(dual_grid(GridSpec(3, (4.0, 3.0, 2.0), (16, 14, 8)))) is op
    for arr in op:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert op.cells.dtype == np.int32 and np.all(op.weights > 0)
    assert len(op.starts) == len(op.radii) == 16 * len(fourier._shell_range(spec))
    assert np.all(np.diff(op.starts) > 0)
    assert np.all(op.cells < frequency_radii(spec).size)
    for k in range(cache.cache_info().maxsize + 4):
        cache(dual_grid(GridSpec(3, (4.0, 3.0, 2.0), (16, 14, 8 + 2 * k))))
    assert cache.cache_info().currsize == cache.cache_info().maxsize
    default = cache.__wrapped__(dual_grid(GridSpec.box(3, 4.0, 32)))
    assert sum(a.nbytes for a in default) < 0.6e6


def test_sphere_integral_rejects_bad_radius_and_dim():
    F = radial_spectrum(2, lambda r: np.exp(-r ** 2))
    edge = min(F.spec.half_extents)
    assert sphere_integral(F, edge) >= 0.0
    for r in (0.0, -0.5, edge * (1.0 + 1e-12), 2.0 * edge):
        with pytest.raises(ValueError, match="outside the frequency extent"):
            sphere_integral(F, r)
    dual = dual_grid(GridSpec.box(1, 4.0, 32))
    line = SpectralFunction(dual, np.ones_like(frequency_radii(dual)))
    for call in (lambda: sphere_integral(line, 0.5), lambda: dyadic_shell_terms(line)):
        with pytest.raises(ValueError, match="dim must be 2 or 3"):
            call()


def test_cube_shell_sum_finite_and_homogeneous(corpus2):
    F = transform(corpus2[0].f)
    val = cube_shell_sum(F)
    assert np.isfinite(val) and val > 0
    scaled = SpectralFunction(F.spec, 2.0 * F.values)
    assert cube_shell_sum(scaled) == pytest.approx(2.0 * val, rel=1e-12)


def _full_cube_shell_sum(F):
    """The cube-face sum on the full spectrum: every node, both signs of xi_j."""
    spec = F.spec
    av = np.abs(F.values)
    total = 0.0
    for j in range(spec.dim):
        nodes = np.abs(spec.axis_nodes(j))
        for k in fourier._shell_range(spec):
            mask = (nodes >= 2.0 ** k) & (nodes <= 2.0 ** (k + 1))
            if not mask.any():
                continue
            face, area = av, 1.0
            for m in range(spec.dim):
                if m != j:
                    face = np.compress(np.abs(spec.axis_nodes(m)) <= 2.0 ** k + 1e-12, face, axis=m)
                    area *= spec.spacing[m]
            faces = face.sum(axis=tuple(m for m in range(spec.dim) if m != j)) * area
            total += 2.0 ** (k * (2 - spec.dim)) * float(faces[mask].max())
    return total


@pytest.mark.parametrize("half_extents,points", [
    ((8.0,), (256,)),
    ((3.0,), (10,)),
    ((4.0, 3.0), (32, 14)),
    ((4.0, 4.0, 1.5), (16, 6, 10)),
])
def test_weighted_fourier_integral_matches_full_grid_rule(half_extents, points):
    # N/2 even and odd; each gaussian has a nonzero mean, its derivative not
    grid = GridSpec(len(points), half_extents, points)
    n = grid.dim
    fam = FamilySpec("gaussian", n, 1.0, tuple(L / 10 for L in half_extents),
                     tuple(L / 5 for L in half_extents))
    member = sample_member(fam, grid)
    for f in (member.f, member.derivs[0]):
        F = transform(f)
        for gamma in (1 - n, -n, 0, 0.5):
            got = weighted_fourier_integral(F, gamma)
            value, near = _where_weighted_integral(_full(F), gamma)
            assert got.value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert got.near_origin == pytest.approx(near, rel=1e-12, abs=0.0)
            assert near > 0.0


# N/2 odd on some axes, unequal axes, and the default 2-D and fine 3-D grids,
# whose top shells reach the Nyquist node -N/2 h
@pytest.mark.parametrize("half_extents,points", [
    ((3.0,), (10,)),
    ((3.0, 2.0), (24, 16)),
    ((2.0, 1.5, 3.0), (16, 8, 12)),
    ((4.0, 4.0), (32, 32)),
    ((4.0, 4.0, 4.0), (64, 64, 64)),
])
def test_spectral_functionals_match_full_spectrum_oracles(half_extents, points, monkeypatch):
    spec = GridSpec(len(points), half_extents, points)
    n = spec.dim
    fs = [GridFunction(spec, np.random.default_rng(n).standard_normal(spec.shape))]
    if n > 1 and len(set(points)) == 1:  # the default grids: a corpus member too
        fs.append(sample_member(verify.default_families(n)[4], spec).derivs[0])
    h = min(spec.spacing)
    ts = [h / 4, h, 2 * h]
    # three heights instead of the 64 of the default grid keep the 64^3 case short
    monkeypatch.setattr(fourier, "_default_time_grid", lambda _: ts)
    for f in fs:
        F = transform(f)
        full = _full(F)
        _assert_within(full.values, _uncached_transform(f).values, TRANSFORM_ULPS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _check_riesz_and_h1(f)
        for gamma in (1 - n, -n):
            got = weighted_fourier_integral(F, gamma)
            value, near = _where_weighted_integral(full, gamma)
            assert got.value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert got.near_origin == pytest.approx(near, rel=1e-12, abs=0.0)
        for a, b in zip(cone_derivative_check(f), _full_cone_derivative_check(f, ts)):
            _assert_close(a, b)
        if n == 1:
            continue
        for axis in range(n):
            assert sup_integral_functional(F, axis) == pytest.approx(
                _naive_sup_integral_functional(full, axis), rel=1e-12, abs=0.0)
        assert cube_shell_sum(F) == pytest.approx(_full_cube_shell_sum(full), rel=1e-12, abs=0.0)
        ks, sups = dyadic_shell_terms(F)
        naive_ks, naive_sups = _naive_dyadic_shell_terms(F)
        assert np.array_equal(ks, naive_ks)
        np.testing.assert_allclose(sups, naive_sups, rtol=1e-12, atol=0.0)


def test_radial_weights_are_cached_read_only_and_bounded():
    cache = fourier._radial_weights
    assert cache.cache_info().maxsize is not None
    spec = dual_grid(GridSpec(3, (4.0, 3.0, 2.0), (16, 14, 8)))
    w, near = cache(spec, -3)
    assert w.shape == (9, 8, 5)
    assert cache(spec, -3.0)[0] is w
    for arr in (w, near):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1
    assert w[0, 0, 0] == 0.0 and np.all(w.ravel()[1:] > 0)
    for k in range(cache.cache_info().maxsize + 4):
        cache(spec, float(k))
    assert cache.cache_info().currsize == cache.cache_info().maxsize


def test_weighted_fourier_integral_diagnostic():
    F = radial_spectrum(2, lambda r: np.exp(-r ** 2))
    out = weighted_fourier_integral(F, -1.0)
    assert out.value > 0 and 0 <= out.near_origin < out.value
    # gamma = 0 over the punctured grid is just the L1 sum minus the origin
    flat = weighted_fourier_integral(F, 0.0)
    total = float(np.sum(np.abs(_full(F).values)) * F.spec.cell_volume)
    origin = float(np.abs(F.values[0, 0]) * F.spec.cell_volume)
    assert flat.value == pytest.approx(total - origin, rel=1e-12)


@pytest.mark.parametrize("name, args", [("dyadic_shell_sum", (-1.0,)), ("cube_shell_sum", ()),
                                        ("weighted_fourier_integral", (-1.0,)),
                                        ("sup_integral_functional", (0,))])
def test_spectral_functionals_reject_real_samples(corpus2, name, args):
    # real samples must go through transform first: read as a half spectrum,
    # they gave dyadic_shell_sum a finite, wrong value
    functional = getattr(fourier, name)
    f = corpus2[0].f
    with pytest.raises(TypeError, match="expected a SpectralFunction"):
        functional(f, *args)
    assert np.all(np.isfinite(functional(transform(f), *args)))
