"""The exact second-chaos distribution function and the sampler's law.

``levytails.exact`` inverts the characteristic function (Gil-Pelaez /
Imhof) and shares no code with the samplers.  It is checked against closed
forms (chi-square, normal), then used as the oracle for ``sample_chaos2``:
the law it draws, whose smallest eigenvalues share one moment-matched
Gaussian, must stay within 1e-6 of the full retained law in sup distance.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import CubicSpline

from levytails import exact
from levytails import models as m
from levytails import simulate as sim


def _chi2_points(dof):
    probs = [1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9]
    return np.concatenate([stats.chi2.ppf(probs, dof),
                           stats.chi2.isf([1e-3, 1e-6, 1e-9], dof),
                           [0.01, 0.05]])


@pytest.mark.parametrize("dof, a", [(4, 1.0), (4, -2.0), (7, 0.3),
                                    (10, -1.0)])
def test_cdf_matches_chi2_for_equal_eigenvalues(dof, a):
    # (1/2) a (chi2_dof - dof): for a > 0, P(X <= x) = F_chi2(dof + 2x/a).
    y = _chi2_points(dof)
    x = 0.5 * a * (y - dof)
    want = stats.chi2.cdf(y, dof) if a > 0 else stats.chi2.sf(y, dof)
    got = exact.cdf(x, [a] * dof, tol=1e-10)
    assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.parametrize("var", [1.0, 1e-6, 4e12])
def test_cdf_pure_gaussian(var):
    x = np.linspace(-9.0, 9.0, 37) * math.sqrt(var)
    got = exact.cdf(x, [], var)
    assert np.max(np.abs(got - stats.norm.cdf(x, scale=math.sqrt(var)))) \
        <= 1e-9


def test_cdf_difference_matches_two_cdfs():
    x = np.linspace(-2.0, 6.0, 9)
    law, other = ([2.0, -1.0, 0.5], 0.1), ([2.0, -1.0], 0.225)
    diff = exact.cdf_difference(x, law, other)
    np.testing.assert_allclose(diff, exact.cdf(x, *law) - exact.cdf(x, *other),
                               rtol=0.0, atol=1e-10)
    assert np.max(np.abs(diff)) > 1e-3
    assert np.all(exact.cdf_difference(x, law, law) == 0.0)


def _sampler_law(spec):
    """The law sample_chaos2 draws, rebuilt from its meta and the rule."""
    a = np.asarray(spec.eigs)
    meta = sim.sample_chaos2(spec, 10, sim.RngContract(1)).meta
    carried = np.argsort(np.abs(a), kind="stable")[:a.size - meta["n_exact"]]
    assert meta["gauss_sq"] == pytest.approx(np.sum(a[carried] ** 2),
                                             rel=1e-12)
    return np.delete(a, carried), 0.5 * meta["gauss_sq"]


def _grid(a):
    # Both tails: from just above the lower edge -(1/2) sum a (the law has
    # only positive eigenvalues) to 25 standard deviations above the mean.
    edge = -0.5 * np.sum(a)
    sd = math.sqrt(0.5 * np.sum(a ** 2))
    return np.concatenate([edge * (1.0 - np.geomspace(1e-4, 0.9, 12)),
                           np.linspace(0.0, 25.0 * sd, 26)])


@pytest.mark.parametrize("kind, N, convention", [
    ("energy", 500, "spectral"), ("energy", 500, "pathwise"),
    ("centered", 400, "spectral")])
def test_gaussian_tail_law_within_1e6_of_full_law(kind, N, convention):
    spec = m.chaos_eigenvalues(kind, 1.0, N, convention=convention)
    a = np.asarray(spec.eigs)
    kept, gauss_var = _sampler_law(spec)
    x = _grid(a)
    full = exact.cdf(x, a)
    assert full[0] < 1e-9 and 1.0 - full[-1] < 1e-8
    assert np.max(np.abs(exact.cdf_difference(x, (kept, gauss_var),
                                              (a, 0.0)))) <= 1e-6
    # Dropping the carried tail with no Gaussian is visibly worse.
    assert np.max(np.abs(exact.cdf_difference(x, (kept, 0.0),
                                              (a, 0.0)))) > 1e-6


def test_sampler_ks_against_exact_cdf():
    spec = m.chaos_eigenvalues("energy", 1.0, 500)
    values = sim.sample_chaos2(spec, 200_000, sim.RngContract(20261019),
                               stream_id=3).values
    # The exact CDF on a grid through a cubic spline: off by about 1.5e-6
    # between nodes, against a KS statistic near 2e-3.
    grid = np.linspace(values.min(), values.max(), 2000)
    spline = CubicSpline(grid, exact.cdf(grid, np.asarray(spec.eigs)))
    pvalue = stats.kstest(values, spline).pvalue
    assert pvalue >= 1e-3


def test_rejects_point_mass_and_bad_input():
    with pytest.raises(ValueError):
        exact.cdf([0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        exact.cdf([0.0], [1.0], -1.0)
    with pytest.raises(ValueError):
        exact.cdf([0.0], [math.inf])


@pytest.mark.parametrize("tol", [0.0, math.nan, 2.0, math.inf])
def test_rejects_tol_outside_unit_interval(tol):
    law = ([1.0] * 4, 0.0)
    message = r"tol must be a finite number in \(0, 1\)"
    with pytest.raises(ValueError, match=message):
        exact.cdf(0.5, *law, tol=tol)
    with pytest.raises(ValueError, match=message):
        exact.cdf_difference(0.5, law, ([1.0] * 3, 0.5), tol=tol)


def test_too_tight_tol_names_tol_and_node_cap():
    message = r"tol=1e-15 needs more than 2\*\*26 inversion nodes"
    with pytest.raises(ValueError, match=message):
        exact.cdf(0.5, [1.0] * 4, tol=1e-15)
