"""Model tests: tail masses, envelopes, moments against blind quadrature.

The quadrature oracles here are deliberately naive (direct scipy.quad on
the defining integrand, no substitutions, no closed forms) so they share
no code with the implementations they check.
"""

import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate

from levytails import models as m
from levytails.errors import (
    Divergent,
    EmptySpectrum,
    OutOfRange,
    PreconditionViolated,
)


# ----------------------------------------------------------------------
# tail_mass
# ----------------------------------------------------------------------

def test_stable_tail_mass_closed_form_and_oracle():
    mod = m.Stable(alpha=1.0, sigma_total=1.0)
    assert m.tail_mass(mod, 10.0) == pytest.approx(0.1, rel=1e-12)
    oracle, _ = integrate.quad(lambda r: r ** -2, 10.0, np.inf)
    assert m.tail_mass(mod, 10.0) == pytest.approx(oracle, rel=1e-9)


def test_tail_mass_vanishes_at_infinity():
    for mod in (m.Stable(0.7, 2.0), m.LogKernel(1.0), m.GaussKernel(1.0),
                m.QuadraticSpectral((1.0, -0.5)), m.LevyArea(math.pi)):
        assert m.tail_mass(mod, 1e12) < 1e-6


@pytest.mark.parametrize("mod", [
    m.Stable(0.7, 2.0), m.LogKernel(1.0), m.GaussKernel(1.0),
    m.QuadraticSpectral((1.0, -0.5)), m.LevyArea(math.pi), m.LevyArea(0.7)],
    ids=lambda mod: type(mod).__name__)
def test_tail_mass_and_envelope_zero_at_infinite_radius(mod):
    assert m.tail_mass(mod, math.inf) == 0.0
    assert m.gamma_envelope(mod, math.inf) == 0.0


def test_levy_area_tail_mass_against_blind_quadrature():
    mod = m.LevyArea(T=math.pi)
    oracle, err = integrate.quad(
        lambda y: 1.0 / (y * math.sinh(y)), 5.0, 700.0, epsabs=1e-14)
    assert err < 1e-10
    assert m.tail_mass(mod, 5.0) == pytest.approx(oracle, rel=1e-8)


def test_log_kernel_tail_mass_both_branches():
    mod = m.LogKernel(sigma_total=1.0)
    for R in (0.3, 0.9, 1.0, 2.0, 7.5):
        oracle, _ = integrate.quad(
            lambda r: abs(math.log(r)) / r ** 2, R, np.inf, limit=200)
        assert m.tail_mass(mod, R) == pytest.approx(oracle, rel=1e-8)


def test_gauss_kernel_tail_mass_oracle():
    mod = m.GaussKernel(sigma_total=2.0)
    for R in (0.5, 1.0, 4.0):
        oracle, _ = integrate.quad(
            lambda r: 2.0 * math.exp(-0.5 / r ** 2)
            / (r ** 2 * math.sqrt(2 * math.pi)), R, np.inf, limit=200)
        assert m.tail_mass(mod, R) == pytest.approx(oracle, rel=1e-8)


def test_quadratic_spectral_tail_mass_oracle():
    mod = m.QuadraticSpectral((1.0, -0.5, 0.25))
    R = 0.8
    oracle = 0.0
    for a in (1.0, 0.5, 0.25):
        v, _ = integrate.quad(lambda y: math.exp(-y / a) / (2 * y), R, np.inf)
        oracle += v
    assert m.tail_mass(mod, R) == pytest.approx(oracle, rel=1e-8)


def test_tail_mass_monotone():
    rng = np.random.default_rng(5)
    mod = m.Stable(1.3, 0.7)
    Rs = np.sort(rng.uniform(0.1, 20.0, size=30))
    vals = [m.tail_mass(mod, float(R)) for R in Rs]
    assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# gamma_envelope / inverse_gamma
# ----------------------------------------------------------------------

def test_stable_envelope_value():
    assert m.gamma_envelope(m.Stable(1.0, 1.0), 10.0) == pytest.approx(0.1)


def test_log_kernel_envelope_value_and_dominance():
    mod = m.LogKernel(1.0)
    assert m.gamma_envelope(mod, math.e ** 2) == pytest.approx(
        4.0 / math.e ** 2, rel=1e-12)
    for R in (0.2, 0.9, 1.5, math.e, 10.0, 1e3):
        env = m.gamma_envelope(mod, R)
        exact = -math.expm1(-m.tail_mass(mod, R))
        assert exact <= env + 1e-12


def test_gauss_kernel_envelope_dominates_exact():
    mod = m.GaussKernel(1.0)
    for R in (0.05, 0.5, 1.0, 10.0):
        env = m.gamma_envelope(mod, R)
        assert env == pytest.approx(1.0 / (math.sqrt(2 * math.pi) * R))
        assert -math.expm1(-m.tail_mass(mod, R)) <= env + 1e-12


def test_envelope_monotone_on_grid():
    for mod in (m.Stable(0.8, 1.5), m.LogKernel(0.4), m.GaussKernel(2.0),
                m.LevyArea(1.0), m.QuadraticSpectral((0.9, 0.3))):
        Rs = np.geomspace(0.05, 50.0, 100)
        vals = [m.gamma_envelope(mod, float(R)) for R in Rs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_inverse_gamma_stable_values():
    assert m.inverse_gamma(m.Stable(1.0, 1.0), 0.1) == pytest.approx(
        10.0, rel=1e-9)
    assert m.inverse_gamma(m.Stable(0.5, 1.0), 0.5) == pytest.approx(
        16.0, rel=1e-9)


def test_inverse_gamma_round_trip():
    rng = np.random.default_rng(17)
    for mod in (m.Stable(1.2, 0.5), m.LogKernel(1.0), m.LevyArea(2.0)):
        for _ in range(5):
            p = float(rng.uniform(0.01, 0.6))
            R = m.inverse_gamma(mod, p)
            assert m.gamma_envelope(mod, R) <= p * (1 + 1e-8)


def test_inverse_gamma_out_of_range():
    with pytest.raises(OutOfRange):
        m.inverse_gamma(m.Stable(1.0, 1.0), 1.5)


def test_bracket_root_rules():
    for start in (1e-300, 1.0, 1e300):
        for root in (1e-300, 3.0, 1e300):
            def solve(g):
                return m._bracket_root(g, start,
                                       failure=OutOfRange("no bracket"))

            # A root up to 1e600 away on either side is bracketed and solved
            # to 1e-13 relative, on a linear g, on one that saturates away
            # from the root, and on x - root, whose Brent products
            # underflow at root = 1e-300 unless rescaled.
            for g in (lambda x: x / root - 1.0,
                      lambda x: math.tanh(math.log(x) - math.log(root)),
                      lambda x: x - root):
                assert abs(solve(g) / root - 1.0) <= 1e-13
            # A level passed down to the smallest positive float: the
            # generalized inverse 0.0.
            assert solve(lambda x: 1.0) == 0.0
            assert solve(lambda x: x) == 0.0
            # No root up to the largest float: the caller's error.
            with pytest.raises(OutOfRange, match="no bracket"):
                solve(lambda x: -1.0)
            if start > root:
                continue
            # From below, a root just short of where g overflows is still
            # bracketed: a step that overflows is retried with the square
            # root of its factor. No root up to there: the caller's error.
            assert solve(lambda x: math.expm1(x / root) - 1e300) == (
                pytest.approx(math.log1p(1e300) * root, rel=1e-13))
            with pytest.raises(OutOfRange, match="no bracket"):
                solve(lambda x: math.exp(x / root) - math.inf)


# ----------------------------------------------------------------------
# truncated_abs_moment
# ----------------------------------------------------------------------

def test_stable_truncated_moments():
    mod = m.Stable(1.0, 1.0)
    assert m.truncated_abs_moment(mod, 2, 1.0) == pytest.approx(1.0)
    assert m.truncated_abs_moment(mod, 3, 2.0) == pytest.approx(2.0)
    oracle, _ = integrate.quad(lambda r: r ** 3 * r ** -2, 0, 2.0)
    assert m.truncated_abs_moment(mod, 3, 2.0) == pytest.approx(oracle, rel=1e-9)
    # int_{r <= 1} r^2 nu(dr), the one integral the infinite-variance
    # bounds need finite, for every radial density: in closed form (phi(1)
    # - Q(1) for the Gauss kernel, Q the standard normal upper tail) and by
    # blind quadrature of r^2 rho(r).
    sigma = 2.0
    for mod, closed in ((m.Stable(0.3, sigma), sigma / 1.7),
                        (m.Stable(1.0, sigma), sigma),
                        (m.Stable(1.9, sigma), sigma / 0.1),
                        (m.LogKernel(sigma), sigma),
                        (m.GaussKernel(sigma), sigma * 0.0833154706)):
        got = m.truncated_abs_moment(mod, 2, 1.0)
        assert got == pytest.approx(closed, rel=1e-9), mod
        oracle, _ = integrate.quad(lambda r: r * r * mod.radial_density(r),
                                   0.0, 1.0, limit=200)
        assert got == pytest.approx(sigma * oracle, rel=1e-7), mod


def test_divergent_moments():
    with pytest.raises(Divergent):
        m.truncated_abs_moment(m.GaussKernel(1.0), 2, math.inf)
    with pytest.raises(Divergent):
        m.truncated_abs_moment(m.Stable(1.5, 1.0), 1, 1.0)     # k <= alpha
    with pytest.raises(Divergent):
        m.truncated_abs_moment(m.Stable(1.5, 1.0), 2, math.inf)
    with pytest.raises(Divergent):
        m.truncated_abs_moment(m.LogKernel(1.0), 1, 1.0)
    with pytest.raises(Divergent):
        m.truncated_abs_moment(m.LevyArea(1.0), 1, 1.0)


def test_levy_area_second_moment_total():
    # int_R y^2 nu(dy) = T^2/4: the variance of the stochastic area ...
    assert m.truncated_abs_moment(m.LevyArea(2.0), 2) == pytest.approx(1.0)
    # ... cross-checked by blind quadrature at T = pi
    oracle, _ = integrate.quad(lambda y: y / math.sinh(y), 0, 60.0)
    assert m.truncated_abs_moment(m.LevyArea(math.pi), 2) == pytest.approx(
        oracle, rel=1e-9)


def test_quadratic_spectral_second_moment_is_half_sum_sq():
    mod = m.QuadraticSpectral((1.0, -2.0, 0.5))
    want = 0.5 * (1.0 + 4.0 + 0.25)
    assert m.truncated_abs_moment(mod, 2) == pytest.approx(want, rel=1e-12)
    oracle = sum(
        integrate.quad(lambda y: y * math.exp(-y / a) / 2.0, 0, 200.0)[0]
        for a in (1.0, 2.0, 0.5))
    assert m.truncated_abs_moment(mod, 2) == pytest.approx(oracle, rel=1e-8)


def test_quadratic_spectral_truncated_moment_oracle():
    mod = m.QuadraticSpectral((0.7,))
    oracle, _ = integrate.quad(
        lambda y: y ** 2 * math.exp(-y / 0.7) / 2.0, 0, 1.5)
    assert m.truncated_abs_moment(mod, 3, 1.5) == pytest.approx(oracle, rel=1e-8)


# ----------------------------------------------------------------------
# exp_weighted_moment
# ----------------------------------------------------------------------

def test_quadratic_spectral_exp_moment_closed_form():
    mod = m.QuadraticSpectral((1.0,))
    assert m.exp_weighted_moment(mod, 1, 0.5) == pytest.approx(0.5, rel=1e-12)
    oracle, _ = integrate.quad(
        lambda y: y * math.expm1(0.5 * y) * math.exp(-y) / (2 * y), 0, 300.0)
    assert m.exp_weighted_moment(mod, 1, 0.5) == pytest.approx(oracle, rel=1e-8)


def test_quadratic_spectral_exp_moment_k3():
    a, t = 0.8, 0.6
    mod = m.QuadraticSpectral((a, -a))
    want = 2 * a ** 3 * ((1 - t * a) ** -3 - 1.0)
    assert m.exp_weighted_moment(mod, 3, t) == pytest.approx(want, rel=1e-10)


def test_exp_moment_side_pos():
    mod = m.QuadraticSpectral((1.0, -1.0))
    full = m.exp_weighted_moment(mod, 1, 0.4)
    pos = m.exp_weighted_moment(mod, 1, 0.4, side="pos")
    assert pos == pytest.approx(0.5 * full, rel=1e-10)
    # symmetric continuous model: positive side is half as well
    area = m.LevyArea(math.pi)
    assert m.exp_weighted_moment(area, 1, 0.3, side="pos") == pytest.approx(
        0.5 * m.exp_weighted_moment(area, 1, 0.3), rel=1e-10)


def test_exp_moment_vanishes_as_t_to_zero():
    for mod in (m.QuadraticSpectral((1.0,)), m.LevyArea(1.0)):
        assert m.exp_weighted_moment(mod, 1, 1e-9) < 1e-6


def test_levy_area_exp_moment_matches_mpmath():
    # Oracle in 40 digits: (psi(1/2) - psi(a))/c and
    # (zeta(3, a) - zeta(3, 1/2))/(2 c^3), a = (c - t)/(2c), at the same
    # double c = pi/T the model uses (near the abscissa the moments'
    # condition number in c is ~1/a, so rounding c would dominate).
    for T in (math.pi, 1.0, 2.7):
        c = math.pi / T
        for r in np.geomspace(1e-9, 0.9999, 25):
            t = float(r) * c
            with mpmath.workdps(40):
                a = (mpmath.mpf(c) - t) / (2 * mpmath.mpf(c))
                m1 = (mpmath.digamma(0.5) - mpmath.digamma(a)) / c
                m3 = (mpmath.zeta(3, a) - mpmath.zeta(3, 0.5)) / (2 * c ** 3)
            for k, want in ((1, m1), (3, m3)):
                got = m.exp_weighted_moment(m.LevyArea(T), k, t)
                assert got == pytest.approx(float(want), rel=1e-12), (T, r, k)
                pos = m.exp_weighted_moment(m.LevyArea(T), k, t, side="pos")
                assert pos == 0.5 * got


def test_levy_area_exp_moment_near_abscissa():
    # Direct quadrature of int (e^{ty} - 1)/sinh(y) dy at T = pi: the
    # integrand decays like e^{-0.001 y}, which a truncated double
    # quadrature overestimated as 2000.0.
    with mpmath.workdps(20):
        t = mpmath.mpf(0.999)
        want = mpmath.quad(lambda y: mpmath.expm1(t * y) / mpmath.sinh(y),
                           [0, 1, 10, 100, 1e3, 1e4, 1e5, mpmath.inf])
    assert float(want) == pytest.approx(1998.6128834722239, rel=1e-15)
    assert m.exp_weighted_moment(m.LevyArea(math.pi), 1, 0.999) == \
        pytest.approx(float(want), rel=1e-12)


# The Euler-Maclaurin kernel: a geometric grid over [1e-12, 1e3], and points
# just below a power of two, where a + n loses a bit of a.
_KERNEL_A = sorted({float(a) for a in np.geomspace(1e-12, 1e3, 61)}
                   | {7.999999999, 31.622776601683793, 511.891014872216})


def _zeta_oracle(s, a):
    # zeta(s, a) = (-1)^s psi^(s-1)(a)/(s-1)!: mpmath's own zeta(s, a) loses
    # up to 1e-9 relative at 40 digits (s = 27, a = 316); its polygamma
    # agrees with zeta at 150 digits.
    return (-1) ** s * mpmath.psi(s - 1, a) / mpmath.factorial(s - 1)


def _rel_err(got, want):
    return abs(mpmath.mpf(got) / want - 1)


@pytest.mark.parametrize("s", range(2, 28))
def test_hurwitz_zeta_matches_mpmath(s):
    with mpmath.workdps(40):
        for a in _KERNEL_A:
            want = _zeta_oracle(s, a)
            if want > sys.float_info.max:       # a^(-s) beyond the floats
                continue
            assert _rel_err(m._hurwitz_zeta(s, a), want) <= 1e-15, a


def test_levy_area_exp_moment_within_1e_15():
    # Oracle in 40 digits at the moment's own doubles t and c, from t/c =
    # 1e-12 up to 1e-12 below the abscissa: the head terms and the series
    # about 5/2 leave nothing to cancel at either end.
    rs = [float(r) for r in np.geomspace(1e-12, 0.999, 40)]
    rs += [1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
    for T in (math.pi, 1.0, 2.7):
        c = math.pi / T
        for r in rs:
            t = r * c
            with mpmath.workdps(40):
                a = (mpmath.mpf(c) - t) / (2 * mpmath.mpf(c))
                m1 = (mpmath.digamma(0.5) - mpmath.digamma(a)) / c
                m3 = (mpmath.zeta(3, a) - mpmath.zeta(3, 0.5)) / (2 * c ** 3)
                for k, want in ((1, m1), (3, m3)):
                    got = m._levy_area_exp_moment(k, t, c)
                    assert _rel_err(got, want) <= 1e-15, (T, r, k)


def test_area_series_matches_mpmath():
    with mpmath.workdps(40):
        for k in (1, 3):
            series = m._AREA_SERIES[k]
            assert len(series) == 24
            for j, got in enumerate(series, 1):
                want = math.comb(j + k - 1, k - 1) * _zeta_oracle(j + k, 2.5)
                assert _rel_err(got, want) <= 1e-15, (k, j)


@pytest.mark.parametrize("mod, k, t", [
    (m.QuadraticSpectral((1.0, 0.5, -0.3)), 1, 0.5),
    (m.QuadraticSpectral((1.0, 0.5, -0.3)), 3, 0.5),
    (m.LevyArea(math.pi), 1, 0.05),
    (m.LevyArea(math.pi), 3, 0.05),
    (m.LevyArea(math.pi), 1, 0.9),
    (m.LevyArea(math.pi), 3, 0.9),
], ids=lambda v: type(v).__name__ if isinstance(v, m._LevyMeasure) else v)
def test_finite_r_exp_moment_grows_to_the_closed_form(mod, k, t):
    # Quadrature at finite R shares no code with the closed forms at
    # R = inf, whose area series comes from _hurwitz_zeta. At R = 400 the
    # area's integrand takes _expm1_over_sinh's branch for sinh(c y) beyond
    # e^350.
    for side in ("abs", "pos"):
        vals = [m.exp_weighted_moment(mod, k, t, R, side=side)
                for R in (0.5, 2.0, 10.0, 400.0)]
        assert all(a < b for a, b in zip(vals, vals[1:])), side
        full = m.exp_weighted_moment(mod, k, t, side=side)
        assert vals[-1] == pytest.approx(full, rel=1e-8), side


def test_exp_moment_divergence_guards():
    with pytest.raises(Divergent):
        m.exp_weighted_moment(m.QuadraticSpectral((2.0,)), 1, 0.5)
    with pytest.raises(Divergent):
        m.exp_weighted_moment(m.LevyArea(math.pi), 1, 1.0)
    with pytest.raises(Divergent):
        m.exp_weighted_moment(m.Stable(1.0, 1.0), 1, 0.5)      # R = inf


def test_exp_moment_monotone_in_t_and_R():
    mod = m.Stable(1.2, 1.0)
    ts = [0.2, 0.5, 1.0, 2.0]
    vals = [m.exp_weighted_moment(mod, 1, t, R=3.0) for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    Rs = [0.5, 1.0, 2.0, 5.0]
    vals = [m.exp_weighted_moment(mod, 1, 0.7, R=R) for R in Rs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# spectral generators
# ----------------------------------------------------------------------

def test_energy_spectrum_sums():
    T = 1.0
    mod = m.chaos_eigenvalues("energy", T, 200)
    # full sums: sum lam = T^2/2, sum lam^2 = T^4/6
    a = np.asarray(mod.eigs)
    assert float(np.sum(a)) == pytest.approx(T ** 2 / 2, rel=2e-3)
    assert float(np.sum(a ** 2)) + mod.remainder_sq == \
        pytest.approx(T ** 4 / 6, rel=1e-12)
    assert mod.remainder_sq < 1e-8
    assert mod.eigs[0] == pytest.approx(4 * T ** 2 / math.pi ** 2)


def test_centered_spectrum_sums():
    T = 2.0
    mod = m.chaos_eigenvalues("centered", T, 300)
    a = np.asarray(mod.eigs)
    assert float(np.sum(a)) == pytest.approx(T ** 2 / 6, rel=3e-3)
    assert float(np.sum(a ** 2)) + mod.remainder_sq == \
        pytest.approx(T ** 4 / 90, rel=1e-12)
    assert mod.eigs[0] == pytest.approx(T ** 2 / math.pi ** 2)


def test_remainder_matches_brute_force():
    mod = m.chaos_eigenvalues("energy", 1.0, 10)
    brute = sum((4.0 / ((2 * k + 1) ** 2 * math.pi ** 2)) ** 2
                for k in range(10, 200000))
    assert mod.remainder_sq == pytest.approx(brute, rel=1e-6)


@pytest.mark.parametrize("convention", ["spectral", "pathwise"])
@pytest.mark.parametrize("kind", ["energy", "centered"])
def test_remainder_matches_mpmath_polygamma(kind, convention):
    # sum_{k >= N} (2k+1)^{-4} = psi'''(N + 1/2)/96 and
    # sum_{k > N} k^{-4} = psi'''(N + 1)/6, in 40 digits.
    T = 1.3
    for N in (1, 10, 500, 10 ** 6):
        rem = m.chaos_eigenvalues(kind, T, N, convention).remainder_sq
        with mpmath.workdps(40):
            scale = mpmath.mpf(T) ** 2 / mpmath.pi ** 2
            if kind == "energy":
                want = (4 * scale) ** 2 * mpmath.psi(3, N + 0.5) / 96
            else:
                want = scale ** 2 * mpmath.psi(3, N + 1) / 6
            if convention == "pathwise":
                want *= 4
            assert _rel_err(rem, want) <= 1e-15, N


def test_pathwise_convention_doubles():
    spec = m.chaos_eigenvalues("energy", 1.0, 50)
    path = m.chaos_eigenvalues("energy", 1.0, 50, convention="pathwise")
    assert np.allclose(np.asarray(path.eigs), 2 * np.asarray(spec.eigs))
    assert path.remainder_sq == pytest.approx(4 * spec.remainder_sq)


def test_pathwise_variance_matches_path_functional():
    # Var(int_0^1 B^2 dt) = 1/3 must equal (1/2) sum a_k^2 under the
    # pathwise convention.
    mod = m.chaos_eigenvalues("energy", 1.0, 500, convention="pathwise")
    sum_sq = float(np.sum(np.asarray(mod.eigs) ** 2)) + mod.remainder_sq
    assert 0.5 * sum_sq == pytest.approx(1.0 / 3.0, rel=1e-10)


# ----------------------------------------------------------------------
# construction validation
# ----------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(PreconditionViolated):
        m.Stable(alpha=2.0, sigma_total=1.0)
    with pytest.raises(PreconditionViolated):
        m.Stable(alpha=1.0, sigma_total=-1.0)
    with pytest.raises(EmptySpectrum):
        m.QuadraticSpectral(())
    with pytest.raises(EmptySpectrum):
        m.QuadraticSpectral((0.0, 0.0))
    with pytest.raises(PreconditionViolated):
        m.LevyArea(T=0.0)
