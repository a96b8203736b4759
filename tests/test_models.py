"""Model tests: tail masses, envelopes, moments against blind quadrature.

The quadrature oracles here are deliberately naive (direct scipy.quad on
the defining integrand, no substitutions, no closed forms) so they share
no code with the implementations they check.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from levytails import models as m
from levytails.errors import (
    Divergent,
    EmptySpectrum,
    MissingEstimate,
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
    m.QuadraticSpectral((1.0, -0.5)), m.LevyArea(math.pi), m.LevyArea(0.7),
    m.BoundedSupport(2.0, {2: 1.0})], ids=lambda mod: type(mod).__name__)
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
    def solve(g, **kw):
        return m._bracket_root(g, 1e-9, 1.0, xtol=1e-15, rtol=1e-12,
                               failure=OutOfRange("no bracket"), **kw)

    # Doubling brackets a root above 1, halving one below the start.
    assert solve(lambda x: x - 3.0) == pytest.approx(3.0, rel=1e-12)
    assert solve(lambda x: x - 1e-10, halvings=10) == pytest.approx(
        1e-10, rel=1e-12)
    # A level already passed at the lowest end returns that end.
    assert solve(lambda x: 1.0, halvings=3) == 1e-9 / 8
    # No bracket, or an overflowing evaluation: the caller's error.
    with pytest.raises(OutOfRange, match="no bracket"):
        solve(lambda x: -1.0, doublings=5)
    with pytest.raises(OutOfRange, match="no bracket"):
        solve(lambda x: math.expm1(1e3 * x) - 1e300)


# ----------------------------------------------------------------------
# truncated_abs_moment
# ----------------------------------------------------------------------

def test_stable_truncated_moments():
    mod = m.Stable(1.0, 1.0)
    assert m.truncated_abs_moment(mod, 2, 1.0) == pytest.approx(1.0)
    assert m.truncated_abs_moment(mod, 3, 2.0) == pytest.approx(2.0)
    oracle, _ = integrate.quad(lambda r: r ** 3 * r ** -2, 0, 2.0)
    assert m.truncated_abs_moment(mod, 3, 2.0) == pytest.approx(oracle, rel=1e-9)


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


def test_bounded_support_moments():
    mod = m.BoundedSupport(R_support=2.0, abs_moments={1: 3.0, 2: 5.0})
    assert m.truncated_abs_moment(mod, 2, 2.0) == 5.0
    assert m.truncated_abs_moment(mod, 2, math.inf) == 5.0
    with pytest.raises(MissingEstimate):
        m.truncated_abs_moment(mod, 3, math.inf)
    with pytest.raises(MissingEstimate):
        m.truncated_abs_moment(mod, 2, 1.0)


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


def test_levy_area_exp_moment_below_envelope():
    T = math.pi
    mod = m.LevyArea(T)
    for t in (0.1, 0.5, 0.9):
        exact = m.exp_weighted_moment(mod, 1, t)
        env = m.levy_area_exp_envelope(T, t)
        assert exact <= env
    assert m.levy_area_exp_envelope(T, 0.5) == pytest.approx(4.0, rel=1e-12)


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
    assert m.spectral_sum(mod) == pytest.approx(T ** 2 / 2, rel=2e-3)
    assert m.spectral_sum_sq(mod) == pytest.approx(T ** 4 / 6, rel=1e-12)
    assert mod.remainder_sq < 1e-8
    assert mod.eigs[0] == pytest.approx(4 * T ** 2 / math.pi ** 2)


def test_centered_spectrum_sums():
    T = 2.0
    mod = m.chaos_eigenvalues("centered", T, 300)
    assert m.spectral_sum(mod) == pytest.approx(T ** 2 / 6, rel=3e-3)
    assert m.spectral_sum_sq(mod) == pytest.approx(T ** 4 / 90, rel=1e-12)
    assert mod.eigs[0] == pytest.approx(T ** 2 / math.pi ** 2)


def test_remainder_matches_brute_force():
    mod = m.chaos_eigenvalues("energy", 1.0, 10)
    brute = sum((4.0 / ((2 * k + 1) ** 2 * math.pi ** 2)) ** 2
                for k in range(10, 200000))
    assert mod.remainder_sq == pytest.approx(brute, rel=1e-6)


def test_pathwise_convention_doubles():
    spec = m.chaos_eigenvalues("energy", 1.0, 50)
    path = m.chaos_eigenvalues("energy", 1.0, 50, convention="pathwise")
    assert np.allclose(np.asarray(path.eigs), 2 * np.asarray(spec.eigs))
    assert path.remainder_sq == pytest.approx(4 * spec.remainder_sq)


def test_pathwise_variance_matches_path_functional():
    # Var(int_0^1 B^2 dt) = 1/3 must equal (1/2) sum a_k^2 under the
    # pathwise convention.
    mod = m.chaos_eigenvalues("energy", 1.0, 500, convention="pathwise")
    assert 0.5 * m.spectral_sum_sq(mod) == pytest.approx(1.0 / 3.0, rel=1e-10)


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
    with pytest.raises(PreconditionViolated):
        m.BoundedSupport(R_support=1.0, abs_moments={5: 1.0})


def test_positive_part():
    mod = m.QuadraticSpectral((1.0, -2.0, 3.0))
    assert m.QuadraticSpectral((1.0, 3.0)).eigs == mod.positive_part().eigs
    with pytest.raises(EmptySpectrum):
        m.QuadraticSpectral((-1.0,)).positive_part()
