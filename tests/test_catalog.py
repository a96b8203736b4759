"""Catalog tests: every closed-form bound against frozen numbers and the
entropy engine.

Three of the closed forms are exact Chernoff transforms, which gives
engine cross-checks that must agree to near machine precision:

  * Bennett           <->  h(t) = alpha2 (e^{tK} - 1)/K,
  * quadratic log_form <-> h(t) = 2 S t / (1 - a t),
  * area lipschitz    <->  h(t) = 4 t T / (pi (pi/T - t)).

All other oracles are frozen literals recomputed here from scratch (raw
formula or independent bisection), never read back from the module.
"""

import math
import warnings
from dataclasses import replace
from math import exp, log, pi, sqrt

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levytails import catalog as c
from levytails import models as m
from levytails.engine import HFunction, chernoff_min, tail_bound_from_h
from levytails.errors import (
    Divergent,
    EmptySpectrum,
    InvalidProfile,
    MissingEstimate,
    OutOfRange,
    PreconditionViolated,
    QuadratureFailure,
)


# ----------------------------------------------------------------------
# bennett_bound
# ----------------------------------------------------------------------

def test_bennett_frozen_point():
    tb = c.bennett_bound(1.0, 1.0)
    # e^1 (1 + 1)^{-1 - 1} = e/4
    assert tb(1.0) == pytest.approx(math.e / 4.0, rel=1e-14)
    assert tb.regime(1.0) == "bennett"
    assert tb.center == "mean"
    assert tb.meta["transform"] == "value"


def test_bennett_gaussian_at_zero_k():
    tb = c.bennett_bound(0.0, 2.0)
    assert tb(1.5) == pytest.approx(exp(-1.5 ** 2 / 4.0), rel=1e-15)
    assert tb.regime(0.5) == "gaussian"
    assert tb.valid_hi == math.inf


def test_bennett_negative_k_range():
    tb = c.bennett_bound(-1.0, 2.0)
    assert tb.valid_hi == pytest.approx(2.0)
    x = 1.9
    raw = exp(x / -1.0 - (x / -1.0 + 2.0) * log(1.0 + x * -1.0 / 2.0))
    assert tb(x) == pytest.approx(raw, rel=1e-14)
    with pytest.raises(OutOfRange):
        tb(2.5)
    with pytest.raises(OutOfRange):
        tb(2.0)  # the interval is open


def test_bennett_huge_k_stays_near_one():
    # x K/alpha2 overflows at K = 1e308; the bound is 1 - O(1e-305) there,
    # so no valid value may fall below 1 (an upper bound of 0 is false).
    xs = np.linspace(0.5, 5.0, 10)
    values, _, valid = c.bennett_bound(1e308, 1.0).evaluate_grid(xs)
    assert valid.all()
    assert np.all(values >= 1.0 - 1e-12)


def test_bennett_rejects_bad_alpha2():
    with pytest.raises(InvalidProfile):
        c.bennett_bound(1.0, 0.0)


def test_bennett_rejects_nonfinite_constants():
    for K, alpha2 in ((math.inf, 1.0), (-math.inf, 1.0), (math.nan, 1.0),
                      (1.0, math.inf)):
        with pytest.raises(InvalidProfile):
            c.bennett_bound(K, alpha2)


def test_bennett_is_exact_chernoff_transform():
    """exp(-int h^{-1}) for h = alpha2 (e^{tK}-1)/K equals Bennett."""
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        K = float(rng.uniform(-2.0, 2.0))
        if abs(K) < 0.05:
            K = 0.5
        alpha2 = float(rng.uniform(0.1, 5.0))
        tb = c.bennett_bound(K, alpha2)
        if K > 0:
            h = HFunction(lambda t, K=K, a=alpha2: a * math.expm1(t * K) / K)
            x_hi = 6.0 * math.sqrt(alpha2)
        else:
            # h saturates at alpha2/|K|; x stays below -alpha2/K.
            h = HFunction(lambda t, K=K, a=alpha2: a * math.expm1(t * K) / K,
                          h_sup=-alpha2 / K)
            x_hi = 0.95 * (-alpha2 / K)
        eng = tail_bound_from_h(h)
        for x in np.linspace(x_hi / 50.0, x_hi, 50):
            assert eng(float(x)) == pytest.approx(tb(float(x)), rel=1e-8)


# ----------------------------------------------------------------------
# FunctionalProfile and StableSpec validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kwargs, fragment", [
    ({"alpha2": -1.0}, "alpha2 must be >= 0"),
    ({"lip_c": 0.0}, "lip_c must be > 0"),
    ({"beta": (1.0, -0.5)}, "beta entries must be >= 0"),
    ({"n": 0}, "n must be >= 1"),
], ids=["alpha2", "lip_c", "beta", "n"])
def test_functional_profile_rejects_bad_fields(kwargs, fragment):
    with pytest.raises(InvalidProfile, match=fragment):
        c.FunctionalProfile(**{"K": 1.0, "alpha2": 1.0, **kwargs})


def test_functional_profile_betas_length_mismatch():
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0, 2.0), n=3)
    with pytest.raises(InvalidProfile, match="expected 1 or n=3"):
        prof.betas()


@pytest.mark.parametrize("kwargs, fragment", [
    ({"alpha": 0.0}, "alpha must lie strictly in"),
    ({"alpha": 2.0}, "alpha must lie strictly in"),
    ({"sigma_total": 0.0}, "sigma_total must be > 0"),
    ({"lip_c": -1.0}, "lip_c must be > 0"),
], ids=["alpha_0", "alpha_2", "sigma_total", "lip_c"])
def test_stable_spec_rejects_bad_fields(kwargs, fragment):
    with pytest.raises(InvalidProfile, match=fragment):
        c.StableSpec(**{"alpha": 1.2, "sigma_total": 1.0, **kwargs})


# ----------------------------------------------------------------------
# product_h
# ----------------------------------------------------------------------

def test_product_h_vanishes_at_origin():
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0,), n=1)
    mod = m.QuadraticSpectral(eigs=(0.5,))
    for mode in ("shared_beta", "per_component", "supremum"):
        h = c.product_h(prof, mod, mode)
        assert h(0.0) == 0.0
        assert h(-1.0) == 0.0


def test_product_h_shared_equals_per_component_for_equal_betas():
    # shared_beta uses alpha2/beta, per_component uses n beta; they agree
    # exactly when alpha2 = n beta^2 with one common model.
    beta, n = 0.7, 2
    prof = c.FunctionalProfile(K=1.0, alpha2=n * beta * beta,
                               beta=(beta,) * n, n=n)
    mod = m.QuadraticSpectral(eigs=(0.5, -0.3, 0.2))
    h1 = c.product_h(prof, mod, "shared_beta")
    h2 = c.product_h(prof, mod, "per_component")
    t_end = (1.0 / 0.5) / beta
    assert h1.t_end == pytest.approx(t_end, rel=1e-15)
    assert h2.t_end == pytest.approx(t_end, rel=1e-15)
    for t in np.linspace(0.05, 0.95 * t_end, 20):
        assert h1(float(t)) == pytest.approx(h2(float(t)), rel=1e-12)


def test_product_h_supremum_single_eigenvalue_closed_form():
    # One positive eigenvalue a: int_0^inf y (e^{ty}-1) nu(dy)
    #   = (1/2) t a^2 / (1 - t a).
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, n=1)
    h = c.product_h(prof, m.QuadraticSpectral(eigs=(0.5,)), "supremum")
    assert h.t_end == pytest.approx(2.0, rel=1e-15)
    for t in (0.3, 1.0, 1.7):
        assert h(t) == pytest.approx(0.5 * t * 0.25 / (1 - 0.5 * t),
                                     rel=1e-12)
    # Negative eigenvalues put no mass on the positive axis.
    h2 = c.product_h(prof, m.QuadraticSpectral(eigs=(0.5, -0.9)), "supremum")
    assert h2.t_end == pytest.approx(2.0, rel=1e-15)
    assert h2(1.2) == pytest.approx(h(1.2), rel=1e-12)


def test_product_h_per_component_is_additive_over_models():
    prof2 = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0, 1.0), n=2)
    prof1 = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0,), n=1)
    quad = m.QuadraticSpectral(eigs=(0.5,))
    area = m.LevyArea(T=pi)
    h_both = c.product_h(prof2, [quad, area], "per_component")
    h_q = c.product_h(prof1, quad, "per_component")
    h_a = c.product_h(prof1, area, "per_component")
    assert h_both.t_end == pytest.approx(1.0, rel=1e-15)  # min(2, pi/T)
    for t in (0.2, 0.6, 0.9):
        assert h_both(t) == pytest.approx(h_q(t) + h_a(t), rel=1e-12)


def test_product_h_radial_model_needs_truncation():
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, n=1)
    stable = m.Stable(alpha=1.2, sigma_total=1.0)
    h_open = c.product_h(prof, stable, "shared_beta")
    assert h_open.t_end == 0.0  # exponential moments all diverge
    with pytest.raises(Divergent):
        h_open(0.5)
    h = c.product_h(prof, stable, "shared_beta", truncation=1.0)
    assert h.t_end == math.inf
    # Small-t slope is int_{|y|<=1} y^2 nu(dy) = sigma/(2 - alpha) = 1.25.
    assert h(1e-9) / 1e-9 == pytest.approx(1.0 / 0.8, rel=1e-6)


def test_product_h_rejects_model_count_mismatch():
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0, 1.0), n=2)
    with pytest.raises(InvalidProfile):
        c.product_h(prof, [m.QuadraticSpectral(eigs=(0.5,))],
                    "per_component")


# ----------------------------------------------------------------------
# dimension_free_bound
# ----------------------------------------------------------------------

def test_dimension_free_requires_mean_norm():
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, n=2)
    with pytest.raises(MissingEstimate):
        c.dimension_free_bound(prof, m.QuadraticSpectral(eigs=(0.4,)))


def test_dimension_free_iid_components_give_n_free_bound():
    # mean_norm^2 proportional to n cancels the explicit n in h.
    mod = m.QuadraticSpectral(eigs=(0.5, -0.3, 0.2))
    per_comp = 0.9
    bounds = []
    for n in (2, 8):
        prof = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0,), n=n)
        bounds.append(c.dimension_free_bound(
            prof, mod, mode="norm", mean_norm=per_comp * sqrt(n)))
    h2, h8 = bounds[0].meta["h"], bounds[1].meta["h"]
    for t in (0.3, 0.8, 1.3):
        assert h2(t) == pytest.approx(h8(t), rel=1e-12)
    for x in (0.5, 2.0, 5.0):
        assert bounds[0](x) == pytest.approx(bounds[1](x), rel=1e-9)


def test_dimension_free_single_component_engine_oracle():
    # Rebuild h by hand from the closed chi-square moments and compare.
    a, beta, mean_norm = 0.4, 2.0, 1.3
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, beta=(beta,), n=1)
    mod = m.QuadraticSpectral(eigs=(a,))
    tb = c.dimension_free_bound(prof, mod, mode="norm", mean_norm=mean_norm)

    def m1(s):
        b = a / (1.0 - s * a)
        return 0.5 * (b - a)

    def m3(s):
        b = a / (1.0 - s * a)
        return b ** 3 - a ** 3

    def h_manual(t):
        if t <= 0.0:
            return 0.0
        return (8.0 * beta * m1(t * beta)
                + (2.0 / mean_norm ** 2) * beta ** 3 * m3(t * beta))

    t_end = (1.0 / a) / beta
    for t in np.linspace(0.1, 0.9 * t_end, 8):
        assert tb.meta["h"](float(t)) == pytest.approx(h_manual(float(t)),
                                                       rel=1e-12)
    eng = tail_bound_from_h(HFunction(h_manual, t_end=t_end))
    for x in (0.5, 1.5, 4.0, 9.0):
        assert tb(x) == pytest.approx(eng(x), rel=1e-9)
    assert tb.center == "shifted_mean"
    assert tb.meta["shift_mult"] == 2.0
    assert tb.meta["transform"] == "norm"


def test_dimension_free_lipschitz_rescales_deviation():
    mod = m.QuadraticSpectral(eigs=(0.4,))
    tb1, tb2 = (c.dimension_free_bound(
        c.FunctionalProfile(K=1.0, alpha2=1.0, n=1, lip_c=lip), mod,
        mode="lipschitz", mean_norm=1.0) for lip in (1.0, 2.0))
    for d in (0.5, 1.0, 3.0):
        assert tb2(2.0 * d) == pytest.approx(tb1(d), rel=1e-12)
    # The grid path runs the base bound's accumulated integral on d/c.
    assert tb2.grid_fn is not None
    vals, _, valid = tb2.evaluate_grid([6.0, 1.0, -1.0, 2.0])
    assert valid.tolist() == [True, True, False, True]
    for d, v in zip((3.0, 0.5, 1.0), vals[[0, 1, 3]]):
        assert v == pytest.approx(tb1(d), rel=1e-9)
    assert tb2.valid_hi == pytest.approx(2.0 * tb1.valid_hi)
    assert tb2.meta["x_scale"] == 2.0
    assert tb2.meta["transform"] == "value"


def test_dimension_free_tends_to_one_at_origin():
    mod = m.QuadraticSpectral(eigs=(0.4,))
    prof = c.FunctionalProfile(K=1.0, alpha2=1.0, n=1)
    tb = c.dimension_free_bound(prof, mod, mode="norm", mean_norm=1.0)
    assert tb(1e-10) == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# bounded_support_norm_bound
# ----------------------------------------------------------------------

def test_bounded_support_reduces_to_bennett_point():
    # beta = R = mean = 1, int y^2 nu = 0.1:
    # alpha_R^2 = (8 + 2) * 0.1 = 1, K = 1, so the e/4 point reappears.
    tb = c.bounded_support_norm_bound(1.0, 1.0, 0.1, 1.0)
    assert tb.meta["alpha_R2"] == pytest.approx(1.0, rel=1e-15)
    assert tb(1.0) == pytest.approx(math.e / 4.0, rel=1e-14)
    assert tb.center == "shifted_mean"
    assert tb.meta["shift_mult"] == 2.0


def test_bounded_support_constant_arithmetic():
    beta, R, sm, mean1 = 0.5, 2.0, 0.3, 0.7
    tb = c.bounded_support_norm_bound(beta, R, sm, mean1)
    expect = (8.0 * beta ** 2 + 2.0 * beta ** 5 * R * R / mean1 ** 2) * sm
    assert tb.meta["alpha_R2"] == pytest.approx(expect, rel=1e-15)
    assert tb.meta["K"] == pytest.approx(beta * R, rel=1e-15)
    x, a2, K = 1.7, expect, beta * R
    raw = exp(x / K - (x / K + a2 / K ** 2) * log(1.0 + x * K / a2))
    assert tb(x) == pytest.approx(raw, rel=1e-14)


# ----------------------------------------------------------------------
# quad_wiener_bound
# ----------------------------------------------------------------------

def _energy_spec(N=60, T=1.0):
    return c.QuadraticSpec((tuple(m.chaos_eigenvalues("energy", T, N).eigs),))


def test_quad_spec_radii_energy_spectrum():
    spec = _energy_spec()
    assert spec.a_max == pytest.approx(4.0 / pi ** 2, rel=1e-12)
    assert spec.a_plus == spec.a_max  # all eigenvalues positive


def test_quad_min_form_frozen_values():
    spec = c.QuadraticSpec(((1.0, 1.0, 1.0, 1.0),))  # a = 1, S = 1
    tb = c.quad_wiener_bound(spec, 1.0, form="min_form")
    c0 = 1.0 - log(3.0) / 2.0
    # x = 2: min(x/a, x^2/(4S)) = min(2, 1) = 1.
    assert tb(2.0) == pytest.approx(exp(-c0), rel=1e-14)
    assert tb(2.0) == pytest.approx(0.6371858831689839, rel=1e-12)
    assert tb.regime(2.0) == "quadratic"
    # x = 8: min(8, 16) = 8.
    assert tb(8.0) == pytest.approx(exp(-8.0 * c0), rel=1e-14)
    assert tb.regime(8.0) == "linear"


def test_quad_log_form_is_exact_chernoff_of_envelope():
    spec = c.QuadraticSpec(((1.0, 1.0, 1.0, 1.0),))
    a, S = 1.0, 1.0
    tb = c.quad_wiener_bound(spec, 1.0, form="log_form")
    h = HFunction(lambda t: 2.0 * S * t / (1.0 - a * t) if t > 0 else 0.0,
                  t_end=1.0 / a)
    eng = tail_bound_from_h(h)
    for x in np.linspace(0.5, 6.0, 12):
        assert tb(float(x)) == pytest.approx(eng(float(x)), rel=1e-10)


def test_quad_log_form_scale_free_at_float_limit():
    # The bound depends on the spectrum only through x/a and S/a^2, so
    # scaling eigenvalues and x together leaves it unchanged, up to the
    # float limit where S itself overflows.
    base = c.quad_wiener_bound(c.QuadraticSpec(((1.0, 0.5),)), form="log_form")
    big = c.quad_wiener_bound(c.QuadraticSpec(((1e308, 5e307),)),
                              form="log_form")
    for x in (0.3, 1.0, 1.7):
        assert big(1e308 * x) == pytest.approx(base(x), rel=1e-12)
    top = c.quad_wiener_bound(c.QuadraticSpec(((1e308, 1e308),)),
                              form="log_form")
    values, _, valid = top.evaluate_grid(np.linspace(0.1, 2.0, 5))
    assert valid.all()
    assert np.allclose(values, 1.0, rtol=1e-12)


def test_quad_forms_are_ordered():
    spec = _energy_spec()
    ex = c.quad_wiener_bound(spec, 1.0, form="exact_h")
    lg = c.quad_wiener_bound(spec, 1.0, form="log_form")
    mn = c.quad_wiener_bound(spec, 1.0, form="min_form")
    for x in np.linspace(0.1, 5.0, 50):
        x = float(x)
        assert ex(x) <= lg(x) * (1.0 + 1e-12)
        assert lg(x) <= mn(x) * (1.0 + 1e-12)


def test_quad_exact_h_matches_spectral_sum():
    spec = c.QuadraticSpec(((0.5, -0.3), (0.2,)))
    tb = c.quad_wiener_bound(spec, 2.0, form="exact_h")
    h = tb.meta["h"]
    ct = 2.0 * 0.7
    expect = 0.5 * sum(ct * a * a / (1.0 - ct * abs(a))
                       for a in (0.5, -0.3, 0.2))
    assert h(0.7) == pytest.approx(expect, rel=1e-12)


def _random_exact_h(seed, n, lip, target):
    eigs = np.abs(np.random.default_rng(seed).uniform(-2.0, 2.0, n))
    eigs[1::2] *= -1.0
    tb = c.quad_wiener_bound(c.QuadraticSpec((tuple(eigs),)), lip_c=lip,
                             form="exact_h", target=target)
    used = [float(a) for a in eigs if target == "lipschitz" or a > 0.0]
    return tb.meta["h"], tb.meta["lip_c"], used


@pytest.mark.parametrize("n", [5, 7, 8, 500])
@pytest.mark.parametrize("target", ["lipschitz", "sup"])
def test_quad_exact_h_guard(n, target):
    """The exact_h h-function is positive and nondecreasing, with no
    division by zero, at the points the bracket walk probes below t_end,
    finite at the smallest denormal, and within 1e-13 of an mpmath sum."""
    for seed in range(40):
        for lip in (0.1, 0.3, 1.0, 3.0, 7.0):
            h, _, _ = _random_exact_h(seed, n, lip, target)
            prev = 0.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for k in range(1, 53):
                    v = h(h.t_end * (1.0 - 2.0 ** -k))
                    assert v > 0.0 and v >= prev, (seed, lip, k)
                    prev = v
                tiny = h(5e-324)
            assert math.isfinite(tiny) and tiny >= 0.0
    rng = np.random.default_rng(n)
    for lip in (0.3, 1.0, 7.0):
        h, lip_c, used = _random_exact_h(n, n, lip, target)
        for u in rng.uniform(0.0, 0.99, 10):
            t = float(u * h.t_end)
            with mpmath.workdps(40):
                ct = mpmath.mpf(lip_c) * mpmath.mpf(t)
                want = sum(ct * mpmath.mpf(a) ** 2 / (1 - ct * abs(a))
                           for a in used) / 2
            assert h(t) == pytest.approx(float(want), rel=1e-13)


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("target", ["lipschitz", "sup"])
def test_quad_exact_h_small_spectrum_sums_as_numpy(n, target):
    """Below 8 eigenvalues h sums in plain floats; it gives the float of
    the one-pass numpy sum, out to t_end (1 - 2^-52)."""
    for seed in range(20):
        for lip in (0.3, 1.0, 7.0):
            h, lip_c, used = _random_exact_h(seed, n, lip, target)
            eigs = np.asarray(used)
            half_sq, ab = 0.5 * (eigs * eigs), np.abs(eigs)
            ts = [h.t_end * u for u in (1e-9, 0.01, 0.3, 0.7, 0.99)]
            ts += [h.t_end * (1.0 - 2.0 ** -k) for k in (10, 20, 40, 52)]
            for t in ts:
                inv = 1.0 / (lip_c * t)
                if not inv > ab.max():
                    assert h(t) == math.inf
                    continue
                want = float(np.add.reduce(half_sq / (inv - ab)))
                assert h(t) == pytest.approx(want, rel=1e-15, abs=0.0), (
                    seed, lip, t)


def _direct_exact_h(eigs, ct):
    """The exact_h h summed term by term, as (1/2) a^2 / (1/(ct) - |a|);
    every term is 0 where 1/(ct) is infinite."""
    if not ct > 0.0:
        return 0.0
    inv = 1.0 / ct
    if inv == math.inf:
        return 0.0
    if not inv > max(abs(a) for a in eigs):
        return math.inf
    return math.fsum(0.5 * (a * a) / (inv - abs(a)) for a in eigs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 600),
       shape=st.sampled_from(["decaying", "flat", "signed"]),
       power=st.floats(0.5, 3.0),
       seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-100.0, 100.0),
       target=st.sampled_from(["lipschitz", "sup"]),
       lip=st.floats(0.1, 10.0),
       fractions=st.lists(st.one_of(
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.9, 1.0, exclude_max=True)), min_size=1, max_size=8))
def test_quad_exact_h_head_and_tail_series_match_direct_sum(
        n, shape, power, seed, log_scale, target, lip, fractions):
    """The head sum plus the tail's moment series agrees with the direct
    sum within 2e-15 relative, over spectra from 1 to 600 eigenvalues at
    scales 1e-100 to 1e100 and t across (0, t_end).  Values below the
    normal float range round absolutely, to 5e-324 a term, hence the
    1e-320 absolute floor."""
    rng = np.random.default_rng(seed)
    if shape == "flat":
        eigs = rng.uniform(0.5, 1.5, n)
    else:
        eigs = np.arange(1, n + 1) ** -power * rng.uniform(0.9, 1.1, n)
    if shape == "signed":
        eigs[1:] *= rng.choice([-1.0, 1.0], n - 1)
    eigs = eigs * 10.0 ** log_scale
    tb = c.quad_wiener_bound(c.QuadraticSpec((tuple(eigs),)), lip_c=lip,
                             form="exact_h", target=target)
    h, lip_c = tb.meta["h"], tb.meta["lip_c"]
    used = [float(a) for a in eigs if target == "lipschitz" or a > 0.0]
    for f in fractions:
        t = f * h.t_end
        want = _direct_exact_h(used, lip_c * t)
        if want == math.inf:
            assert h(t) == math.inf
        else:
            assert h(t) == pytest.approx(want, rel=2e-15, abs=1e-320), (
                f, t)


@pytest.mark.parametrize("n", [1, 5, 8, 60, 500])
@pytest.mark.parametrize("target", ["lipschitz", "sup"])
def test_quad_exact_h_without_tail_is_the_one_pass_sum(n, target):
    """A spectrum with every |a_k| > top/64 has no tail series: h is the
    float of the one-pass numpy sum, out to t_end (1 - 2^-52)."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        eigs = rng.uniform(0.05, 3.0, n) * rng.choice([-1.0, 1.0], n)
        eigs[0] = 3.0
        tb = c.quad_wiener_bound(c.QuadraticSpec((tuple(eigs),)),
                                 lip_c=0.7, form="exact_h", target=target)
        h, lip_c = tb.meta["h"], tb.meta["lip_c"]
        used = eigs if target == "lipschitz" else eigs[eigs > 0.0]
        half_sq, ab = 0.5 * (used * used), np.abs(used)
        ts = [h.t_end * u for u in (1e-9, 0.01, 0.3, 0.7, 0.99)]
        ts += [h.t_end * (1.0 - 2.0 ** -k) for k in (10, 20, 40, 52)]
        for t in ts:
            inv = 1.0 / (lip_c * t)
            want = (float(np.add.reduce(half_sq / (inv - ab)))
                    if inv > ab.max() else math.inf)
            assert h(t) == want, (seed, t)


def _exact_h_legendre_oracle(used, lip_c, x, digits=50):
    """int_0^x h^{-1} for the exact_h h of the eigenvalues used: Newton's
    method on g(u) = x/top from u0 = 2x'/(1 + 2x') in the gap e = 1 - u
    (1 - u r = e r + 1 - r) at the given digits, then (x' u - G(u))/c.
    The untruncated sum stands in for the h's tail series, which leaves
    out under 1e-18 of it.  G cancels for small u, losing about -log10(u) digits, so small
    x needs that many more digits."""
    with mpmath.workdps(digits):
        ab = [abs(mpmath.mpf(a)) for a in used]
        top = max(ab)
        rs = [a / top for a in ab]
        xp = mpmath.mpf(x) / top
        e = 1 / (1 + 2 * xp)
        for _ in range(200):
            u = 1 - e
            g = slope = 0
            for r in rs:
                gap = e * r + (1 - r)
                g += r * r / 2 * u / gap
                slope += r * r / 2 / gap ** 2
            step = (g - xp) / slope
            if not step > min(e, u) * mpmath.mpf(10) ** -45:
                break
            e += step
        u = 1 - e
        big_g = sum(-mpmath.log(e * r + (1 - r)) - u * r for r in rs) / 2
        return float((xp * u - big_g) / lip_c)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(n=st.integers(1, 600),
       shape=st.sampled_from(["decaying", "flat", "signed"]),
       power=st.floats(0.5, 3.0),
       seed=st.integers(0, 2 ** 32 - 1),
       target=st.sampled_from(["lipschitz", "sup"]),
       log_c=st.floats(-3.0, 20.0),
       log_ctop=st.floats(-2.0, 2.0),
       log_x=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=5,
                      unique=True))
def test_quad_exact_h_closed_form_legendre_matches_gauss_kronrod(
        n, shape, power, seed, target, log_c, log_ctop, log_x):
    """h.legendre, the closed form of int_0^x h^{-1}, against the
    Gauss-Kronrod Legendre route (the same h without it) for x/top up to
    1e4, within 1e-12 relative (absolute below 1, where the bound value
    is what it moves), and against a 50-digit oracle beyond, within 1e-12
    relative.  lip_c runs over 1e-3 to 1e20 and x over (1e-300, 1e300)
    top; the spectrum is scaled to c top in [1e-2, 1e2], where the
    Gauss-Kronrod route's absolute tolerances (1e-15 in t, 1e-14 in the
    exponent) do not bite.  The bound values are finite in [0, 1] and do
    not increase, and the scalar fn gives the grid's floats."""
    rng = np.random.default_rng(seed)
    if shape == "flat":
        eigs = rng.uniform(0.5, 1.5, n)
    else:
        eigs = np.arange(1, n + 1) ** -power * rng.uniform(0.9, 1.1, n)
    if shape == "signed":
        eigs[1:] *= rng.choice([-1.0, 1.0], n - 1)
    lip = 10.0 ** log_c
    top = eigs.max() if target == "sup" else np.abs(eigs).max()
    eigs = eigs * (10.0 ** log_ctop / (top * (lip if target == "lipschitz"
                                              else 1.0)))
    tb = c.quad_wiener_bound(c.QuadraticSpec((tuple(eigs),)), lip_c=lip,
                             form="exact_h", target=target)
    h, lip_c, top = tb.meta["h"], tb.meta["lip_c"], tb.meta["a"]
    used = [float(a) for a in eigs if target == "lipschitz" or a > 0.0]
    quadrature = replace(h, legendre=None)
    # Points a rounding apart may order their values either way.
    kept = []
    for lx in sorted(log_x):
        if not kept or lx - kept[-1] > 1e-6:
            kept.append(lx)
    xs = top * 10.0 ** np.asarray(kept)
    values, _, valid = tb.evaluate_grid(xs)
    assert np.all(valid) and np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)
    for lx, x, v in zip(kept, xs.tolist(), values.tolist()):
        assert tb(x) == v
        got = h.legendre(x)
        assert v == math.exp(-got)
        if lx <= 4.0:
            try:
                want = -chernoff_min(quadrature, x)
            except (OutOfRange, QuadratureFailure):
                continue
            assert abs(got - want) <= 1e-12 * max(1.0, want), (x, got, want)
        else:
            want = _exact_h_legendre_oracle(used, lip_c, x)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (
                x, got, want)


@pytest.mark.parametrize("lam", [1e-150, 1e-20, 1e12, 1e15, 1e16, 1e20,
                                 1e150])
def test_quad_exact_h_is_scale_equivariant(lam):
    """Scaling the spectrum by lam and x with it leaves the exact_h bound
    where it was, on the grid and pointwise, within 1e-12 relative; the
    closed form computes in x/top and c t top only."""
    eigs = m.chaos_eigenvalues("energy", 1.0, 500).eigs
    base = c.quad_wiener_bound(c.QuadraticSpec((tuple(eigs),)),
                               form="exact_h")
    scaled = c.quad_wiener_bound(
        c.QuadraticSpec((tuple(lam * a for a in eigs),)), form="exact_h")
    xs = np.linspace(0.05, 40.0, 30)
    want, _, ok = base.evaluate_grid(xs)
    got, _, valid = scaled.evaluate_grid(lam * xs)
    assert np.all(ok) and np.all(valid)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    for x, v in zip(xs.tolist(), want.tolist()):
        assert scaled(lam * x) == pytest.approx(v, rel=1e-12, abs=0.0)


def test_quad_exact_h_deep_tail_is_exact():
    """Far in the tail, where c t top rounds to 1, the closed form keeps
    the gap: the exponent matches the 50-digit oracle, and the bound is
    0, not a QuadratureFailure or OutOfRange.  Near 0 it keeps its
    relative precision."""
    eigs = (1.0, -0.5, 0.25)
    tb = c.quad_wiener_bound(c.QuadraticSpec((eigs,)), form="exact_h")
    h = tb.meta["h"]
    for x in (1e8, 1e15, 1e16, 1e17, 1e100, 1e300, 1e308):
        assert h.legendre(x) == pytest.approx(
            _exact_h_legendre_oracle(eigs, 1.0, x), rel=1e-14, abs=0.0)
        assert tb(x) == 0.0
    # Near 0 the exponent, about x^2/(2 S c) with S = sum a_k^2/2, keeps
    # its relative precision too.
    for x in (1e-300, 1e-30, 1e-8, 1e-2, 0.2, 0.9):
        assert h.legendre(x) == pytest.approx(
            _exact_h_legendre_oracle(eigs, 1.0, x, digits=360), rel=1e-14,
            abs=0.0)
    # x/top beyond the float range: the exponent is +inf as a float too.
    tiny = c.quad_wiener_bound(c.QuadraticSpec(((1e-10,),)), form="exact_h")
    assert tiny.meta["h"].legendre(1e300) == math.inf
    assert tiny(1e300) == 0.0
    # With a large c the same gaps carry a bound value far from 0.
    big = c.quad_wiener_bound(c.QuadraticSpec((eigs,)), lip_c=1e20,
                              form="exact_h")
    xs = [1e18, 1e19, 1e20, 1e21]
    values, _, valid = big.evaluate_grid(xs)
    assert np.all(valid)
    for x, v in zip(xs, values.tolist()):
        want = math.exp(-_exact_h_legendre_oracle(eigs, 1e20, x))
        assert v == pytest.approx(want, rel=1e-12, abs=0.0)


def test_quad_sup_target_uses_positive_spectrum():
    spec = c.QuadraticSpec(((0.5, -0.9),))
    tb = c.quad_wiener_bound(spec, lip_c=3.0, form="exact_h", target="sup")
    assert tb.meta["lip_c"] == 1.0          # forced under sup
    assert tb.meta["a"] == pytest.approx(0.5)  # a_+, not a_max = 0.9
    assert tb.meta["S"] == pytest.approx(0.25 * (0.25 + 0.81), rel=1e-15)
    h = tb.meta["h"]
    # only the positive eigenvalue feeds the h-function
    assert h(1.0) == pytest.approx(0.5 * 0.25 / (1.0 - 0.5), rel=1e-12)
    with pytest.raises(EmptySpectrum):
        c.quad_wiener_bound(c.QuadraticSpec(((-0.5, -0.9),)), target="sup")


def test_quad_wiener_rejects_unknown_labels():
    spec = c.QuadraticSpec(((0.5,),))
    with pytest.raises(OutOfRange):
        c.quad_wiener_bound(spec, form="nope")
    with pytest.raises(OutOfRange):
        c.quad_wiener_bound(spec, target="nope")


# ----------------------------------------------------------------------
# quad_wiener_lower
# ----------------------------------------------------------------------

def test_quad_lower_frozen_values():
    tb = c.quad_wiener_lower(c.QuadraticSpec(((1.0,),)), b=0.5)
    # ((1-b)/(2x)) a e^{-x/a} at a=1, x=4: e^{-4}/16.
    assert tb(4.0) == pytest.approx(exp(-4.0) / 16.0, rel=1e-14)
    assert tb.direction == "lower"
    assert tb.meta["transform"] == "abs_inf"

    area = c.quad_wiener_lower(b=0.5, target="area", T=pi, n=1)
    # (1-b) n T e^{-pi x/T}/(2 pi x) at T=pi, x=8: e^{-8}/32.
    assert area(8.0) == pytest.approx(exp(-8.0) / 32.0, rel=1e-14)


def test_quad_lower_soft_threshold_solves_quarter():
    tb = c.quad_wiener_lower(c.QuadraticSpec(((1.0, 0.3),)), b=0.4)
    thr = tb.valid_lo
    assert tb(thr) == pytest.approx(0.25, rel=1e-10)
    assert tb.meta["audit_lo"] == pytest.approx(2.0 * thr, rel=1e-15)
    assert tb.meta["soft_threshold"] == thr


def test_quad_lower_sup_drops_negative_components():
    spec = c.QuadraticSpec(((0.5,), (-0.9,)))
    lo_sup = c.quad_wiener_lower(spec, b=0.5, target="sup")
    lo_inf = c.quad_wiener_lower(spec, b=0.5, target="inf_norm")
    x = 6.0
    # sup keeps only the 0.5 component; inf_norm also sees |-0.9|.
    assert lo_sup(x) == pytest.approx(0.25 / x * 0.5 * exp(-x / 0.5),
                                      rel=1e-12)
    assert lo_inf(x) == pytest.approx(
        0.25 / x * (0.5 * exp(-x / 0.5) + 0.9 * exp(-x / 0.9)), rel=1e-12)
    with pytest.raises(EmptySpectrum):
        c.quad_wiener_lower(c.QuadraticSpec(((-0.5,),)), target="sup")


def test_quad_lower_is_decreasing():
    tb = c.quad_wiener_lower(c.QuadraticSpec(((1.0, 0.4),)), b=0.5)
    xs = np.linspace(0.5, 20.0, 40)
    vals = [tb(float(x)) for x in xs]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# quad_euclid_iid_bound
# ----------------------------------------------------------------------

def _unit_iid_spec(n=1):
    # ||f_2||^2 = (1/4) * 4 = 1, a = 1 per component.
    return c.QuadraticSpec(((1.0, 1.0, 1.0, 1.0),) * n, mean_abs=1.0)


def test_quad_euclid_frozen_constant():
    tb = c.quad_euclid_iid_bound(_unit_iid_spec(), b=0.5)
    # -16 log(1/2) - 8*3*(1/2) + 4*(3/4)/(1/4) = 16 log 2 - 12 + 12.
    assert tb.meta["K_b"] == pytest.approx(16.0 * log(2.0), rel=1e-12)
    x_star = tb.meta["x_star"]
    expect_xstar = 4.0 * (-16.0 * log(0.25) - 8.0 * 3.0 * 0.75
                          + 4.0 * (1.0 - 0.0625) / 0.0625)
    assert x_star == pytest.approx(expect_xstar, rel=1e-12)
    # the sharp branch drops the additive constant at x_star
    below = tb(x_star * (1.0 - 1e-9))
    at = tb(x_star)
    assert at * exp(tb.meta["K_b"]) == pytest.approx(below, rel=1e-6)
    assert tb.regime(x_star) == "sharp"
    # near the origin the pre-factor makes the bound vacuous
    assert tb(0.5) == 1.0
    assert tb.regime(0.5) == "vacuous"
    assert tb.center == "shifted_mean"
    assert tb.meta["transform"] == "norm"


def test_quad_euclid_dimension_free_constant():
    tb1 = c.quad_euclid_iid_bound(_unit_iid_spec(1), b=0.5)
    tb4 = c.quad_euclid_iid_bound(_unit_iid_spec(4), b=0.5)
    assert tb1.meta["K_b"] == pytest.approx(tb4.meta["K_b"], rel=1e-15)
    for x in (30.0, 60.0):
        assert tb1(x) == pytest.approx(tb4(x), rel=1e-15)


def test_quad_euclid_constant_vanishes_as_b_tends_to_one():
    tb = c.quad_euclid_iid_bound(_unit_iid_spec(), b=1.0 - 1e-9)
    assert abs(tb.meta["K_b"]) < 1e-6


def test_quad_euclid_requirements():
    with pytest.raises(MissingEstimate):
        c.quad_euclid_iid_bound(c.QuadraticSpec(((1.0,),)))
    with pytest.raises(InvalidProfile):
        c.quad_euclid_iid_bound(
            c.QuadraticSpec(((1.0, 1.0), (2.0,)), mean_abs=1.0))
    with pytest.raises(OutOfRange):
        c.quad_euclid_iid_bound(_unit_iid_spec(), b=1.5)


# ----------------------------------------------------------------------
# levy_area_bound
# ----------------------------------------------------------------------

def test_levy_area_lipschitz_frozen_point():
    tb = c.levy_area_bound(pi, n=1, lip_c=1.0)
    # (1 + x/4)^4 e^{-x} at x = 8: 3^4 e^{-8}.
    assert tb(8.0) == pytest.approx(81.0 * exp(-8.0), rel=1e-13)
    tb2 = c.levy_area_bound(pi, n=2, lip_c=1.0)
    x = 5.0
    assert tb2(x) == pytest.approx((1.0 + x / 8.0) ** 8 * exp(-x),
                                   rel=1e-13)


def test_levy_area_lipschitz_is_exact_chernoff_transform():
    T = 1.7
    tb = c.levy_area_bound(T, n=1, lip_c=1.0)
    h = HFunction(lambda t: 4.0 * t * T / (pi * (pi / T - t))
                  if t > 0 else 0.0, t_end=pi / T)
    eng = tail_bound_from_h(h)
    for x in np.linspace(0.3, 6.0, 10):
        assert tb(float(x)) == pytest.approx(eng(float(x)), rel=1e-8)


def test_levy_area_euclid_frozen_constant():
    tb = c.levy_area_bound(pi, b=0.5, variant="euclid", mean_abs=1.0)
    # -32 log(1/2) - 16 + 16*(1/4)/(1/4) = 32 log 2.
    assert tb.meta["K_b"] == pytest.approx(32.0 * log(2.0), rel=1e-12)
    x_star = tb.meta["x_star"]
    K_quarter = (-32.0 * log(0.25) - 32.0 * 0.75
                 + 16.0 * pi ** 2 / pi ** 2 * (0.75 ** 2 / 0.0625))
    assert x_star == pytest.approx((2.0 * pi / (pi * 0.5)) * K_quarter,
                                   rel=1e-12)
    x = x_star * 1.5
    assert tb(x) == pytest.approx(exp(-0.5 * x), rel=1e-12)  # rate (1-b)pi/T
    assert tb.regime(x) == "sharp"


def test_levy_area_euclid_requirements():
    with pytest.raises(OutOfRange):
        c.levy_area_bound(pi, variant="euclid", mean_abs=1.0)
    with pytest.raises(MissingEstimate):
        c.levy_area_bound(pi, b=0.5, variant="euclid")
    with pytest.raises(InvalidProfile):
        c.levy_area_bound(-1.0)


# ----------------------------------------------------------------------
# id_lower_bound / id_lower_curve
# ----------------------------------------------------------------------

def test_id_lower_frozen_stable_point():
    mod = m.Stable(alpha=1.0, sigma_total=1.0)
    # nu(|y| >= 10) = 1/10, so the bound is (1 - e^{-0.1})/4.
    assert c.id_lower_bound(mod, 5.0) == pytest.approx(
        0.023790645491010107, rel=1e-14)
    curve = c.id_lower_curve(mod)
    assert curve(5.0) == pytest.approx(c.id_lower_bound(mod, 5.0))
    assert curve.direction == "lower"
    assert curve.center == "median"
    assert curve.regime(5.0) == "one_jump"
    assert curve.meta["transform"] == "abs"


def test_id_lower_where_the_stable_tail_mass_overflows():
    # R^(-alpha) overflows at R = 2e-300: the tail mass is infinite, so
    # one jump reaches 2x with probability 1 and the bound is 1/4.
    mod = m.Stable(alpha=1.2, sigma_total=1.0)
    assert m.tail_mass(mod, 1e-300) == math.inf
    assert m.gamma_envelope(mod, 1e-300) == math.inf
    # where R^(-alpha) overflows but the mass is a float, it is the mass
    assert m.tail_mass(m.Stable(1.2, 1e-300), 1e-300) == pytest.approx(
        1e60 / 1.2, rel=1e-12)
    values, regimes, valid = c.id_lower_curve(mod).evaluate_grid(
        np.linspace(1e-300, 1e-299, 4))
    assert valid.all()
    assert values.tolist() == [0.25] * 4
    assert regimes == ["one_jump"] * 4


def test_id_lower_monotone_and_vanishing():
    mod = m.Stable(alpha=1.2, sigma_total=2.0)
    vals = [c.id_lower_bound(mod, x) for x in (0.5, 1.0, 4.0, 16.0)]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# median_bound_general / median_bound_linear
# ----------------------------------------------------------------------

def test_median_general_matches_stable_specialization():
    alpha, sigma, lip = 1.2, 1.0, 1.0
    sg = c.stable_median_bound(c.StableSpec(alpha, sigma, lip), "general")
    mg = c.median_bound_general(m.Stable(alpha=alpha, sigma_total=sigma),
                                lambda R: lip * R, C=2.0 / (2.0 - alpha))
    assert sg.valid_lo == pytest.approx(mg.valid_lo, rel=1e-12)
    for x in np.linspace(sg.valid_lo * 1.01, sg.valid_lo * 6.0, 20):
        assert sg(float(x)) == pytest.approx(mg(float(x)), rel=1e-10)


def test_median_general_raises_below_range():
    mg = c.median_bound_general(m.Stable(alpha=1.2, sigma_total=1.0),
                                lambda R: R, C=2.5)
    with pytest.raises(OutOfRange):
        mg(0.9 * mg.valid_lo)


def test_median_general_vacuous_where_beta_inverse_is_zero():
    # beta(R) = R + 1 has beta(0+) = 1, so beta^{-1}(x/4) is the generalized
    # inverse 0.0 for x <= 4: the bound there is vacuous, not an error.
    mg = c.median_bound_general(m.Stable(alpha=1.2, sigma_total=1e-3),
                                lambda R: R + 1.0, C=2.5)
    assert mg.valid_lo < 3.0
    assert mg(3.0) == 1.0
    assert mg.regime(3.0) == "vacuous"
    assert mg(8.0) < 1.0


def test_median_linear_stable_closed_form():
    alpha, sigma = 1.2, 1.0
    C, C_prime = 2.0 / 0.8, 1.0
    mod = m.Stable(alpha=alpha, sigma_total=sigma)
    tb = c.median_bound_linear(mod, C=C, C_prime=C_prime)
    one_plus = 1.0 + C * math.e / C_prime ** 2
    q = 1.0 / (2.0 * one_plus)
    mass = -math.log1p(-q)
    r0 = (sigma / (alpha * mass)) ** (1.0 / alpha)
    assert tb.valid_lo == pytest.approx(2.0 * C_prime * r0, rel=1e-10)
    for mult in (1.5, 3.0, 10.0):
        x = mult * tb.valid_lo
        tm = (sigma / alpha) * (x / (4.0 * C_prime)) ** (-alpha)
        expect = min(1.0, one_plus * (-math.expm1(-tm)))
        assert tb(x) == pytest.approx(expect, rel=1e-12)
    assert tb.regime(3.0 * tb.valid_lo) == "exact_gamma"
    with pytest.raises(OutOfRange):
        tb(0.5 * tb.valid_lo)


# ----------------------------------------------------------------------
# two_regime_bound
# ----------------------------------------------------------------------

def _bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_two_regime_crossover_root_frozen():
    tb = c.two_regime_bound(1.0, 4.0, alpha3=1.0)
    s0 = tb.meta["s0"]
    # independent bisection of (e^s - 1)/s = 3
    oracle = _bisect_root(lambda s: math.expm1(s) / s - 3.0, 1.0, 3.0)
    assert s0 == pytest.approx(oracle, rel=1e-12)
    assert s0 == pytest.approx(1.9038136944403835, abs=1e-10)
    assert tb.meta["x0"] == pytest.approx(6.0 * s0, rel=1e-14)


@pytest.mark.parametrize("alpha2", [1e60, 1e221])
def test_two_regime_crossover_near_overflow(alpha2):
    # rhs = 2 alpha2 - 1 puts s0 K at 144 and 516, short of where e^{sK}
    # overflows (710): the search closes in on the overflow and brackets
    # s0 there. Oracle: bisection of log((e^s - 1)/s) = log(rhs).
    tb = c.two_regime_bound(1.0, alpha2, alpha3=0.5)
    rhs = 2.0 * alpha2 - 1.0
    oracle = _bisect_root(
        lambda s: s + math.log1p(-math.exp(-s)) - math.log(s * rhs), 1.0,
        700.0)
    assert tb.meta["s0"] == pytest.approx(oracle, rel=1e-12)


def test_two_regime_overflow_is_a_precondition_error():
    # rhs = K alpha2/alpha3 - 1 is infinite, so bracketing the crossover
    # root runs e^{sK} into overflow: a library error, not OverflowError.
    with pytest.raises(PreconditionViolated, match="crossover"):
        c.two_regime_bound(1e308, 1.0, alpha3=1e-300)


def test_two_regime_glue_constant_beyond_float_range():
    # K = 1, alpha2 = 100, alpha3 = 1: log K0 = 2 868 at x0 = 1 280, so K0
    # itself overflows; the Poisson branch is exp(log K0 + exponent).
    tb = c.two_regime_bound(1.0, 100.0, alpha3=1.0)
    x0, log_K0 = tb.meta["x0"], tb.meta["log_K0"]
    assert log_K0 == pytest.approx(2868.23, rel=1e-5)
    assert tb.meta["K0"] == math.inf
    # continuity at x0, in log space: both branches have log -x0^2/396.
    assert log_K0 + c._bennett_exponent(1.0, 2.0, x0) == pytest.approx(
        -x0 * x0 / 396.0, rel=1e-13)
    xs = np.concatenate([np.geomspace(1e-2, x0, 40),
                         x0 * np.array([1.0 + 1e-12, 1.001, 1.5, 10.0])])
    values, _, valid = tb.evaluate_grid(xs)
    assert np.all(valid)
    assert np.all(np.isfinite(values))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values) <= 0.0)
    assert values[0] == pytest.approx(exp(-1e-4 / 396.0), rel=1e-15)
    assert tb(x0) == tb(x0 * (1.0 + 1e-12)) == 0.0


def test_two_regime_gaussian_branch_is_literal():
    tb = c.two_regime_bound(1.0, 4.0, alpha3=1.0)
    x0 = tb.meta["x0"]
    for x in (0.2 * x0, 0.6 * x0, x0):
        # denom = alpha2 - alpha3/K = 3, so exp(-x^2/12).
        assert tb(x) == pytest.approx(exp(-x * x / 12.0), rel=1e-15)
        assert tb.regime(x) == "gaussian"
    assert tb.regime(1.0001 * x0) == "poisson"


def test_two_regime_poisson_branch_formula():
    tb = c.two_regime_bound(1.0, 4.0, alpha3=1.0)
    x0, K0 = tb.meta["x0"], tb.meta["K0"]
    x = 2.0 * x0
    a2 = 2.0  # 2 alpha3 / K
    raw = K0 * exp(x - (x + a2) * log(1.0 + x / a2))
    assert tb(x) == pytest.approx(raw, rel=1e-12)


def test_two_regime_branches_glue_continuously():
    rng = np.random.default_rng(7121)
    for _ in range(10):
        K = float(rng.uniform(0.2, 3.0))
        alpha3 = float(rng.uniform(0.1, 2.0))
        alpha2 = (2.0 * alpha3 / K) * (1.1 + float(rng.uniform(0.0, 3.0)))
        tb = c.two_regime_bound(K, alpha2, alpha3=alpha3)
        x0, K0 = tb.meta["x0"], tb.meta["K0"]
        denom = alpha2 - alpha3 / K
        gauss = exp(-x0 * x0 / (4.0 * denom))
        a2 = 2.0 * alpha3 / K
        pois = K0 * exp(x0 / K - (x0 / K + a2 / K ** 2)
                        * log(1.0 + x0 * K / a2))
        assert abs(gauss - pois) <= 1e-9 * gauss


def test_two_regime_rejects_boundary_parameters():
    # K alpha2 = 2 alpha3 exactly: the crossover equation degenerates.
    with pytest.raises(PreconditionViolated):
        c.two_regime_bound(1.0, 2.0, alpha3=1.0)
    with pytest.raises(PreconditionViolated):
        c.two_regime_bound(1.0, 2.0 * (1.0 + 1e-7), alpha3=1.0)
    c.two_regime_bound(1.0, 2.0 * (1.0 + 1e-5), alpha3=1.0)  # just outside
    with pytest.raises(PreconditionViolated):
        c.two_regime_bound(1.0, 4.0)  # alpha3 missing


def test_two_regime_fourth_moment_variant():
    tb = c.two_regime_bound(1.0, 4.0, alpha3=1.5, alpha4=1.0,
                            variant="fourth_moment")
    # s (alpha2 - alpha4/K^2) = (alpha4/K^3)(e^{sK} - 1) is again
    # (e^s - 1)/s = 3 for these parameters.
    assert tb.meta["s0"] == pytest.approx(1.9038136944403835, abs=1e-10)
    x0 = tb.meta["x0"]
    assert x0 == pytest.approx(9.0 * tb.meta["s0"], rel=1e-14)
    x = 0.5 * x0
    assert tb(x) == pytest.approx(exp(-x * x / 18.0), rel=1e-15)
    # continuity at x0
    K0 = tb.meta["K0"]
    a2 = 3.0  # 3 alpha4 / K^2
    pois = K0 * exp(x0 - (x0 + a2) * log(1.0 + x0 / a2))
    assert abs(exp(-x0 * x0 / 18.0) - pois) <= 1e-9 * pois


def test_two_regime_fourth_moment_crossover_to_1e13():
    # s0 solves s (alpha2 - alpha4/K^2) = (alpha4/K^3)(e^{sK} - 1), which
    # the search takes divided by s, so that it increases.
    for K, alpha2, alpha3, alpha4 in ((1.0, 10.0, 1.0, 1.0),
                                      (1.0, 4.0, 1.5, 1.0),
                                      (2.0, 3.0, 0.5, 0.7)):
        s0 = c.two_regime_bound(K, alpha2, alpha3=alpha3, alpha4=alpha4,
                                variant="fourth_moment").meta["s0"]
        with mpmath.workdps(40):
            want = mpmath.findroot(
                lambda s: (alpha4 / K ** 3) * mpmath.expm1(s * K)
                - s * (alpha2 - alpha4 / K ** 2), s0)
        assert s0 == pytest.approx(float(want), rel=1e-13)


def test_two_regime_fourth_moment_preconditions():
    with pytest.raises(PreconditionViolated) as exc:
        c.two_regime_bound(1.0, 4.0, alpha3=2.5, alpha4=1.0,
                           variant="fourth_moment")
    assert "alpha3 <= 2*alpha4/K" in str(exc.value)
    with pytest.raises(PreconditionViolated) as exc:
        c.two_regime_bound(1.0, 2.0, alpha3=1.5, alpha4=1.0,
                           variant="fourth_moment")
    assert "K^2*alpha2/alpha4" in str(exc.value)
    with pytest.raises(OutOfRange):
        c.two_regime_bound(1.0, 4.0, alpha3=1.0, variant="nope")


# ----------------------------------------------------------------------
# stable_median_bound
# ----------------------------------------------------------------------

def test_stable_general_frozen_threshold():
    tb = c.stable_median_bound(c.StableSpec(1.2, 1.0, 1.0), "general")
    # 2 gamma^{-1}(1/(2(1 + 2e/0.8))) with gamma(R) = (sigma/alpha) R^{-alpha}
    one_plus = 1.0 + (2.0 / 0.8) * math.e
    q = 1.0 / (2.0 * one_plus)
    r0 = (1.0 / (1.2 * q)) ** (1.0 / 1.2)
    assert tb.valid_lo == pytest.approx(2.0 * r0, rel=1e-10)
    assert tb.valid_lo == pytest.approx(16.947934003547772, abs=1e-9)


def test_stable_general_vacuous_at_threshold():
    # At x = valid_lo the raw value is 2^{alpha-1} > 1 for alpha > 1.
    tb = c.stable_median_bound(c.StableSpec(1.2, 1.0, 1.0), "general")
    lo = tb.valid_lo
    assert tb(lo) == 1.0
    assert tb.regime(lo) == "vacuous"
    x = 2.0 * lo
    expect = 2.0 ** (1.2 - 1.0) * 2.0 ** (-1.2)
    assert tb(x) == pytest.approx(expect, rel=1e-10)
    assert tb.regime(x) == "power_tail"


def test_stable_general_lipschitz_scaling():
    tb1 = c.stable_median_bound(c.StableSpec(1.2, 1.0, 1.0), "general")
    tb2 = c.stable_median_bound(c.StableSpec(1.2, 1.0, 2.0), "general")
    assert tb2.valid_lo == pytest.approx(2.0 * tb1.valid_lo, rel=1e-12)
    for x in (20.0, 40.0):
        assert tb2(2.0 * x) == pytest.approx(tb1(x), rel=1e-12)


def test_stable_uniform_variant():
    alpha, sigma = 1.2, 1.0
    tb = c.stable_median_bound(c.StableSpec(alpha, sigma, 1.0), "uniform")
    const = sigma * (1.5 * math.e ** 2 + 1.0 / alpha) * 4.0 ** alpha
    assert tb.meta["constant"] == pytest.approx(const, rel=1e-14)
    u = 2.0 - alpha
    L = log(2.0 / u)
    bracket = 1.5 * (1.0 + 4.0 / u * L) * log(1.0 + 8.0 / u * L)
    base = max(bracket, 4.0 / alpha, 6.0 * math.e ** 2)
    assert tb.valid_lo == pytest.approx(
        4.0 * sigma ** (1.0 / alpha) * base ** (1.0 / alpha), rel=1e-12)
    # below the power-law crossover the bound saturates at 1
    assert tb(8.0) == 1.0
    assert tb.regime(8.0) == "vacuous"
    x = 2.0 * tb.valid_lo
    assert tb(x) == pytest.approx(const * x ** -alpha, rel=1e-12)


def test_stable_sharp_variant():
    tb = c.stable_median_bound(c.StableSpec(1.2, 1.0, 1.0), "sharp")
    assert tb.valid_lo == pytest.approx(67.23583260601032, abs=1e-8)
    u = 0.8
    L1 = log(1.0 / u)
    bracket = (1.0 + 2.0 / u * L1) * log(1.0 + 4.0 / u * L1)
    base = max(bracket, 4.0 * math.e ** 2)
    assert tb.valid_lo == pytest.approx(4.0 * base ** (1.0 / 1.2),
                                        rel=1e-12)
    x = 1.5 * tb.valid_lo
    const = (1.0 + math.e ** 2 / 2.0) * 4.0 ** 1.2
    assert tb(x) == pytest.approx(const * x ** -1.2, rel=1e-12)
    with pytest.raises(PreconditionViolated):
        c.stable_median_bound(c.StableSpec(0.8, 1.0, 1.0), "sharp")


def test_stable_near2_exp_range_reporting():
    tb = c.stable_median_bound(c.StableSpec(1.5, 1.0, 1.0), "near2_exp",
                               epsilon=0.5)
    assert tb.meta.get("empty_range") is True
    assert tb.valid_lo > tb.valid_hi

    alpha = 2.0 - 1e-5
    tb2 = c.stable_median_bound(c.StableSpec(alpha, 1.0, 1.0), "near2_exp",
                                epsilon=0.5)
    assert "empty_range" not in tb2.meta
    assert tb2.valid_lo < tb2.valid_hi
    x = 0.5 * (tb2.valid_lo + tb2.valid_hi)
    u = 2.0 - alpha
    A = 4.0 ** alpha * 1.0
    expect = (0.5 + sqrt(math.e)) * exp(-u * x ** alpha / (2.0 * A))
    assert tb2(x) == pytest.approx(min(1.0, expect), rel=1e-12)


def test_stable_near2_log_point():
    alpha, sigma, b, eps = 1.5, 1.0, 4.0, 0.5
    tb = c.stable_median_bound(c.StableSpec(alpha, sigma, 1.0), "near2_log",
                               epsilon=eps, b=b)
    u = 2.0 - alpha
    x_star = 4.0 * b * sigma * log(1.0 / u) / u
    assert tb.meta["point"] == pytest.approx(x_star, rel=1e-14)
    A = 4.0 ** alpha * sigma
    w = log(1.0 / u) / u
    ratio = A / x_star ** alpha
    value = ratio * (1.0 / alpha
                     + (2.0 + eps) * exp((2.0 + eps) * ratio * w * log(w)))
    assert tb.meta["value_raw"] == pytest.approx(value, rel=1e-12)
    assert tb(x_star) == pytest.approx(min(1.0, value), rel=1e-12)
    with pytest.raises(OutOfRange):
        tb(1.1 * x_star)
    with pytest.raises(PreconditionViolated):
        c.stable_median_bound(c.StableSpec(alpha, sigma, 1.0), "near2_log",
                              epsilon=eps, b=2.5)


# ----------------------------------------------------------------------
# Scale-free thresholds
# ----------------------------------------------------------------------

_LAMS = (1e-150, 1e-20, 1e20, 1e150)
# The two-regime laws scale as K -> lam K, alpha_k -> lam^k alpha_k, and
# lam^4 alpha_4 leaves the float range beyond lam = 1e+-77.
_BENNETT_LAMS = (1e-75, 1e-20, 1e20, 1e75)


def _two_regime_roots(variant):
    def roots(lam):
        tb = c.two_regime_bound(lam, 4.0 * lam ** 2, alpha3=lam ** 3,
                                alpha4=lam ** 4, variant=variant)
        return tb.meta["s0"], tb.meta["x0"]
    return roots


def _quad_lower_threshold(target):
    def threshold(lam):
        if target == "area":
            tb = c.quad_wiener_lower(b=0.5, target="area", T=lam * pi, n=3)
        else:
            spec = c.QuadraticSpec(((lam, 0.3 * lam), (-0.9 * lam,)))
            tb = c.quad_wiener_lower(spec, b=0.5, target=target)
        return (tb.valid_lo,)
    return threshold


# name: (scales lam, powers of lam by which the values move, values at lam)
_SCALED_THRESHOLDS = {
    "stable_general": (_LAMS, (1 / 1.2,), lambda lam: (c.stable_median_bound(
        c.StableSpec(1.2, lam, 1.0), "general").valid_lo,)),
    "median_linear": (_LAMS, (1 / 1.2,), lambda lam: (c.median_bound_linear(
        m.Stable(1.2, lam), C=1.0, C_prime=1.0).valid_lo,)),
    "quad_lower_inf_norm": (_LAMS, (1,), _quad_lower_threshold("inf_norm")),
    "quad_lower_sup": (_LAMS, (1,), _quad_lower_threshold("sup")),
    "quad_lower_area": (_LAMS, (1,), _quad_lower_threshold("area")),
    "inverse_gamma_stable": (_LAMS, (1 / 1.2,), lambda lam: (
        m.inverse_gamma(m.Stable(1.2, lam), 0.1),)),
    "inverse_gamma_quadratic": (_LAMS, (1,), lambda lam: (
        m.inverse_gamma(m.QuadraticSpectral((lam, -0.5 * lam)), 0.1),)),
    "two_regime_third": (_BENNETT_LAMS, (-1, 1),
                         _two_regime_roots("third_moment")),
    "two_regime_fourth": (_BENNETT_LAMS, (-1, 1),
                          _two_regime_roots("fourth_moment")),
}


@pytest.mark.parametrize("name, lam", [
    (name, lam) for name, (lams, _, _) in _SCALED_THRESHOLDS.items()
    for lam in lams])
def test_thresholds_are_scale_equivariant(name, lam):
    """A threshold of the law at scale lam is the one at scale 1, moved
    by its power of lam, within 1e-12 relative."""
    _, powers, values = _SCALED_THRESHOLDS[name]
    for got, base, power in zip(values(lam), values(1.0), powers):
        assert got == pytest.approx(base * lam ** power, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# asymptotic_slope
# ----------------------------------------------------------------------

def test_asymptotic_slope_oracles():
    energy = m.chaos_eigenvalues("energy", 1.0, 50)
    centered = m.chaos_eigenvalues("centered", 1.0, 50)
    assert c.asymptotic_slope("quad", energy) == pytest.approx(
        -pi ** 2 / 4.0, rel=1e-12)
    assert c.asymptotic_slope("quad", centered) == pytest.approx(
        -pi ** 2, rel=1e-12)
    assert c.asymptotic_slope("area", pi) == pytest.approx(-1.0, rel=1e-15)
    assert c.asymptotic_slope("area", m.LevyArea(T=2.0)) == pytest.approx(
        -pi / 2.0, rel=1e-15)


def test_asymptotic_slope_accepts_raw_spectra():
    assert c.asymptotic_slope("quad", (0.3, -0.6)) == pytest.approx(
        -1.0 / 0.6, rel=1e-15)
    assert c.asymptotic_slope("quad_sup", (0.3, -0.6)) == pytest.approx(
        -1.0 / 0.3, rel=1e-15)
    with pytest.raises(EmptySpectrum):
        c.asymptotic_slope("quad_sup", (-0.3, -0.6))
