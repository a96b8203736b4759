"""Levy-measure model families and their moment/tail functionals.

Five variants, all immutable:

  * Stable(alpha, sigma_total)   radial density r^{-1-alpha}, spherical
                                 mass sigma_total
  * LogKernel(sigma_total)       radial density |log r| / r^2
  * GaussKernel(sigma_total)     radial density e^{-1/(2 r^2)}/(r^2 sqrt(2 pi))
  * QuadraticSpectral(eigs)      one-sided exponential mixture
                                 sum_k e^{-|y|/|a_k|}/(2|y|) on the side
                                 sign(a_k); the Levy measure of a quadratic
                                 Gaussian chaos (1/2) sum a_k (Z_k^2 - 1)
  * LevyArea(T)                  density 1/(2|y| sinh(pi |y|/T)) on R; the
                                 Levy measure of the stochastic area of a
                                 planar Brownian motion on [0, T]

Radial models carry only the total spherical mass: every bound downstream
uses nothing else. Direction information lives in the simulators.

Each variant is one class holding all that the bounds and samplers use
of its measure nu; the module functions below check arguments and call:

  tail_mass(R)                 nu(|y| > R)
  gamma_envelope(R)            envelope >= 1 - e^{-nu(|y|>R)} for median
                               bounds (default: that probability)
  truncated_abs_moment(k, R)   int_{|y|<=R} |y|^k nu(dy), k in {1,2,3,4},
                               or Divergent with the reason
  exp_weighted_moment(k, t, R, side)
                               int_{|y|<=R} |y|^k (e^{t|y|} - 1) nu(dy),
                               k in {1, 3}; side="pos" keeps y > 0
  exp_abscissa(side)           sup{t : int |y| e^{t|y|} nu(dy) < inf}
  compensation(eps, R)         -int_{eps<|y|<=R} y nu(dy), R = 1 or inf
                               (default 0: symmetric; Divergent at R = inf
                               where int_{|y|>1} |y| nu(dy) diverges)
  amplitude_sampler(eps, lam)  draw(g, n): n jumps of nu on |y| > eps, of
                               mass lam (default: symmetric, tabulated)

A new Levy model is one subclass of _LevyMeasure that implements the
five methods without a default and overrides the defaults that misfit.

Divergent integrals are detected analytically per variant (comparing the
moment order against the tail/origin exponents), never by letting a
quadrature blow up.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .engine import _brent
from .errors import (
    Divergent,
    EmptySpectrum,
    OutOfRange,
    PreconditionViolated,
    QuadratureFailure,
)

_QUAD_EPS = 1e-9


# ----------------------------------------------------------------------
# Variants
# ----------------------------------------------------------------------

class _LevyMeasure:
    """Defaults of the method contract: the exact gamma envelope, and the
    compensation and jump sampler of a symmetric measure."""

    def gamma_envelope(self, R: float) -> float:
        return -math.expm1(-self.tail_mass(R))

    def compensation(self, eps: float, R: float) -> float:
        return 0.0

    def amplitude_sampler(self, eps: float, lam: float):
        log_y, log_m = _radial_inverse_table(
            np.vectorize(self.tail_mass, otypes=[np.float64]), eps, lam)
        return _symmetric_sampler(
            lambda u: _invert_radial(log_y, log_m, u * lam))


class _Radial(_LevyMeasure):
    """Radial variants: density sigma_total * radial_density(r) in the
    radius, symmetric, and without any exponential moment."""

    def __post_init__(self):
        if not (self.sigma_total > 0.0):
            raise PreconditionViolated("sigma_total must be > 0")

    def exp_weighted_moment(self, k: int, t: float, R: float, side: str):
        if math.isinf(R):
            raise Divergent(
                "radial models need a finite truncation radius: e^{tr} "
                "dominates every radial density at infinity")
        # Unlike the plain moments, k <= alpha (and the log-kernel k=1
        # case) stay integrable here: e^{tr}-1 ~ tr adds a power of r at 0.
        # expm1 is clamped so that probing h at huge t saturates instead of
        # overflowing; saturated values sit far above any inverted level.
        rho = self.radial_density
        val = self.sigma_total * _quad(
            lambda r: r ** k * math.expm1(min(t * r, 690.0)) * rho(r),
            0.0, R)
        return 0.5 * val if side == "pos" else val

    def exp_abscissa(self, side: str = "abs") -> float:
        return 0.0      # power/log tails defeat every exponential

    def compensation(self, eps: float, R: float) -> float:
        if math.isinf(R):
            raise Divergent("int_{|y|>1} |y| nu(dy) diverges")
        return 0.0


@dataclass(frozen=True)
class Stable(_Radial):
    """Radial stable-type measure: density r^{-1-alpha}, spherical mass
    sigma_total; alpha in (0, 2)."""

    alpha: float
    sigma_total: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise PreconditionViolated(f"alpha must be in (0,2), got {self.alpha!r}")
        super().__post_init__()

    def radial_density(self, r: float) -> float:
        return r ** (-1.0 - self.alpha)

    def tail_mass(self, R: float) -> float:
        try:
            return self.sigma_total * R ** (-self.alpha) / self.alpha
        except OverflowError:  # R^(-alpha) past the float range: in logs
            log_mass = (math.log(self.sigma_total / self.alpha)
                        - self.alpha * math.log(R))
            return math.exp(log_mass) if log_mass < _LOG_HUGE else math.inf

    # The analytic envelope sigma/(alpha R^alpha) is the tail mass itself.
    gamma_envelope = tail_mass

    def truncated_abs_moment(self, k: int, R: float) -> float:
        if k <= self.alpha:
            raise Divergent(
                f"k={k} <= alpha={self.alpha}: divergence at the origin")
        if math.isinf(R):
            raise Divergent(f"k={k} > alpha: divergence at infinity")
        return self.sigma_total * R ** (k - self.alpha) / (k - self.alpha)

    def compensation(self, eps: float, R: float) -> float:
        # int_{|y|>1} |y| nu(dy) = sigma/(alpha - 1) converges for alpha > 1
        return 0.0 if self.alpha > 1.0 else super().compensation(eps, R)

    def amplitude_sampler(self, eps: float, lam: float):
        return _symmetric_sampler(lambda u: eps * u ** (-1.0 / self.alpha))


@dataclass(frozen=True)
class LogKernel(_Radial):
    """Radial density |log r|/r^2: finite small-ball energy but no finite
    variance of the induced vector."""

    sigma_total: float

    def radial_density(self, r: float) -> float:
        return abs(math.log(r)) / (r * r)

    def tail_mass(self, R: float) -> float:
        # antiderivative of log(r)/r^2 is -(1 + log r)/r
        if math.isinf(R):
            return 0.0
        if R >= 1.0:
            return self.sigma_total * (1.0 + math.log(R)) / R
        return self.sigma_total * (2.0 - (1.0 + math.log(R)) / R)

    def gamma_envelope(self, R: float) -> float:
        # 2 sigma log(R)/R, flattened at its maximum R = e so it stays
        # nonincreasing, and never below the exact probability.
        if math.isinf(R):
            return 0.0
        r_eff = max(R, math.e)
        return max(2.0 * self.sigma_total * math.log(r_eff) / r_eff,
                   super().gamma_envelope(R))

    def truncated_abs_moment(self, k: int, R: float) -> float:
        if k == 1:
            raise Divergent("k=1: |log r|/r not integrable at the origin")
        if math.isinf(R):
            raise Divergent(
                f"k={k}: r^{k - 2} log r not integrable at infinity")
        return self.sigma_total * _quad(
            lambda r: r ** (k - 2) * abs(math.log(r)), 0.0, R)


@dataclass(frozen=True)
class GaussKernel(_Radial):
    """Radial density e^{-1/(2 r^2)}/(r^2 sqrt(2 pi)); tail mass has the
    closed form sigma * (Phi(1/R) - 1/2)."""

    sigma_total: float

    def radial_density(self, r: float) -> float:
        if r < 1e-150:      # e^{-1/(2r^2)} underflows long before r^2 does
            return 0.0
        return math.exp(-0.5 / (r * r)) / (r * r * math.sqrt(2.0 * math.pi))

    def tail_mass(self, R: float) -> float:
        # substitution u = 1/r maps the tail onto a Gaussian increment
        return self.sigma_total * 0.5 * math.erf(1.0 / (R * math.sqrt(2.0)))

    def gamma_envelope(self, R: float) -> float:
        return self.sigma_total / (math.sqrt(2.0 * math.pi) * R)

    def truncated_abs_moment(self, k: int, R: float) -> float:
        if math.isinf(R):
            raise Divergent(f"k={k}: r^{k - 2} not integrable at infinity")
        return self.sigma_total * _quad(
            lambda r: (r ** (k - 2) * math.exp(-0.5 / (r * r))
                       / math.sqrt(2.0 * math.pi)), 0.0, R)


@dataclass(frozen=True)
class QuadraticSpectral(_LevyMeasure):
    """Levy measure of a centered Gaussian quadratic form
    (1/2) sum_k a_k (Z_k^2 - 1): each eigenvalue a_k contributes density
    e^{-|y|/|a_k|}/(2|y|) on the half-line of sign(a_k).

    eigs holds the (signed) retained eigenvalues; remainder_sq records
    sum_{k > N} a_k^2 of the dropped tail when the spectrum came from a
    closed-form generator (0.0 when unknown/irrelevant).
    """

    eigs: tuple
    remainder_sq: float = 0.0

    def __post_init__(self):
        eigs = tuple(float(a) for a in self.eigs)
        object.__setattr__(self, "eigs", eigs)
        if len(eigs) == 0 or max(abs(a) for a in eigs) <= 0.0:
            raise EmptySpectrum("QuadraticSpectral needs a nonzero eigenvalue")
        if any(not math.isfinite(a) for a in eigs):
            raise PreconditionViolated("eigenvalues must be finite")
        if self.remainder_sq < 0.0:
            raise PreconditionViolated("remainder_sq must be >= 0")

    def abs_eigs(self) -> np.ndarray:
        return np.abs(np.asarray(self.eigs, dtype=float))

    def tail_mass(self, R: float) -> float:
        a = self.abs_eigs()
        a = a[a > 0.0]
        return float(0.5 * _special().exp1(R / a).sum())

    def truncated_abs_moment(self, k: int, R: float) -> float:
        # (1/2) int_0^R y^{k-1} e^{-y/a} dy = (1/2) a^k (k-1)! P(k, R/a)
        a = self.abs_eigs()
        a = a[a > 0.0]
        reg = _special().gammainc(k, R / a) if math.isfinite(R) else 1.0
        return float(0.5 * math.factorial(k - 1) * np.sum(a ** k * reg))

    def exp_weighted_moment(self, k: int, t: float, R: float, side: str):
        eigs = np.asarray(self.eigs, dtype=float)
        if side == "pos":
            eigs = eigs[eigs > 0.0]
        a = np.abs(eigs)
        a = a[a > 0.0]
        if a.size == 0:
            return 0.0
        amax = float(a.max())
        if math.isinf(R):
            if t * amax >= 1.0:
                raise Divergent(
                    f"t={t!r} at/beyond the exponential abscissa 1/max|a| "
                    f"= {1.0 / amax!r}")
            # One-sided eigenvalue terms in closed form: the tilted rate is
            # b = a/(1 - t a), and int_0^inf y^{k-1}(e^{ty}-1) e^{-y/a} dy
            # = (k-1)! (b^k - a^k).
            b = a / (1.0 - t * a)
            return float(0.5 * math.factorial(k - 1) * np.sum(b ** k - a ** k))
        # Finite truncation: always convergent, any t.
        def f(y: float) -> float:
            return (0.5 * y ** (k - 1) * math.expm1(min(t * y, 690.0))
                    * np.exp(-y / a).sum())
        return _quad(f, 0.0, R)

    def exp_abscissa(self, side: str = "abs") -> float:
        eigs = np.asarray(self.eigs, dtype=float)
        if side == "pos":
            eigs = eigs[eigs > 0.0]
        amax = float(np.max(np.abs(eigs))) if eigs.size else 0.0
        return math.inf if amax == 0.0 else 1.0 / amax

    def compensation(self, eps: float, R: float) -> float:
        if eps >= R:
            return 0.0
        a = np.asarray(self.eigs, dtype=np.float64)
        a_abs = np.abs(a)
        parts = 0.5 * np.sign(a) * a_abs * (
            np.exp(-eps / a_abs) - np.exp(-R / a_abs))
        return -float(np.sum(parts))

    def amplitude_sampler(self, eps: float, lam: float):
        # Pick an eigenvalue by its mass beyond eps, then invert its own
        # tail; the jump carries the eigenvalue's sign.
        a = np.asarray(self.eigs, dtype=np.float64)
        a = a[a != 0.0]
        exp1 = _special().exp1
        weights = 0.5 * exp1(eps / np.abs(a))
        a = a[weights > 0.0]            # eigenvalues with no mass beyond eps
        weights = weights[weights > 0.0]
        cum_w = np.cumsum(weights)
        tables = [
            _radial_inverse_table(lambda r, ak=ak: 0.5 * exp1(r / ak),
                                  eps, w_k)
            for ak, w_k in zip(np.abs(a), weights)
        ]

        def draw(g, total):
            sel = np.searchsorted(cum_w, g.random(total) * cum_w[-1])
            sel = np.minimum(sel, len(a) - 1)
            u = _interior_uniform(g, total)
            amps = np.empty(total, dtype=np.float64)
            for k in np.unique(sel):
                mask = sel == k
                log_y, log_m = tables[k]
                amps[mask] = _invert_radial(log_y, log_m,
                                            u[mask] * weights[k])
            return amps * np.sign(a)[sel]

        return draw


@dataclass(frozen=True)
class LevyArea(_LevyMeasure):
    """Levy measure 1/(2|y| sinh(pi |y|/T)) of the Brownian stochastic
    area on [0, T]; symmetric, all polynomial moments of order >= 2 finite."""

    T: float

    def __post_init__(self):
        if not (self.T > 0.0):
            raise PreconditionViolated("T must be > 0")

    def tail_mass(self, R: float) -> float:
        # int_R^inf dy/(y sinh(pi y/T)) through y = R/u onto (0, 1]
        if math.isinf(R):
            return 0.0
        T = self.T
        return _quad(lambda u: (_inv_sinh(math.pi * (R / u) / T) / (R / u)
                                * R / (u * u)), 0.0, 1.0)

    def truncated_abs_moment(self, k: int, R: float) -> float:
        if k == 1:
            raise Divergent("k=1: 1/sinh(pi y/T) not integrable at the origin")
        T = self.T
        if math.isinf(R):
            if k == 2:
                # int_0^inf y/sinh(pi y/T) dy = T^2/4
                return T * T / 4.0
            R = 50.0 * T    # integrand is < 1e-60 of its peak beyond this
        return _quad(lambda y: y ** (k - 1) * _inv_sinh(math.pi * y / T),
                     0.0, R)

    def exp_weighted_moment(self, k: int, t: float, R: float, side: str):
        c = math.pi / self.T
        if math.isinf(R):
            if t >= c:
                raise Divergent(
                    f"t={t!r} at/beyond the exponential abscissa pi/T = "
                    f"{c!r}")
            val = _levy_area_exp_moment(k, t, c)
        else:
            val = _quad(lambda y: y ** (k - 1) * _expm1_over_sinh(t, c, y),
                        0.0, R)
        return 0.5 * val if side == "pos" else val

    def exp_abscissa(self, side: str = "abs") -> float:
        return math.pi / self.T


LevyModel = Union[Stable, LogKernel, GaussKernel, QuadraticSpectral,
                  LevyArea]


# ----------------------------------------------------------------------
# Quadrature, root and sampling helpers
# ----------------------------------------------------------------------

def _inv_sinh(z: float) -> float:
    """1/sinh(z) without overflow for large z."""
    if z > 350.0:
        return 2.0 * math.exp(-z)
    return 1.0 / math.sinh(z)


def _expm1_over_sinh(t: float, b: float, y: float) -> float:
    """(e^{t y} - 1)/sinh(b y), overflow-safe (clamped far above any
    level ever inverted)."""
    z = b * y
    if z > 350.0:
        return 2.0 * (math.exp(min((t - b) * y, 690.0)) - math.exp(-z))
    return math.expm1(min(t * y, 690.0)) / math.sinh(z)


def _special():
    # Imported on first use, as in _quad: scipy.special adds about 0.2 s to a
    # cold start, and only the quadratic model's tail masses, truncated
    # moments and jump tables, and the auditor's quantiles, need it.
    from scipy import special

    return special


def _quad(f, a, b, **kw) -> float:
    # Imported on first use: scipy.integrate adds about 0.35 s to a cold
    # start, and most runs never integrate.
    from scipy import integrate

    opts = dict(epsabs=1e-13, epsrel=_QUAD_EPS, limit=300)
    opts.update(kw)
    val, err = integrate.quad(f, a, b, **opts)
    if not math.isfinite(val) or err > 1e-6 * (1.0 + abs(val)):
        raise QuadratureFailure(
            f"quadrature on ({a!r},{b!r}) err={err!r} value={val!r}")
    return val


_ROOT_RTOL = 1e-13
_TINY = math.ulp(0.0)
_HUGE = sys.float_info.max
_LOG_HUGE = math.log(_HUGE)


def _bracket_root(g, start: float, *, failure: Exception) -> float:
    """Smallest positive root of a nondecreasing g, searched from start,
    the problem's natural scale: the one bracketing solver.

    Steps by factors 2, 4, 16, ... (each the square of the last) until g
    changes sign, so a root 1e300 away takes ten steps; a step where g
    raises an ArithmeticError (e.g. overflow) is retried with the square
    root of its factor. The bracket is cut geometrically to a ratio of 2
    and engine._brent solves g = 0 to _ROOT_RTOL relative. Returns 0.0,
    the generalized inverse, if g >= 0 down to the smallest positive
    float; raises `failure` if g < 0 up to the largest float or to where
    g raises.
    """
    try:
        x = start
        g_x = g(x)
        up = not g_x >= 0.0
        step = 2.0
        while True:
            nxt = min(x * step, _HUGE) if up else max(x / step, _TINY)
            if nxt == x:
                if up or x > _TINY:
                    raise failure
                return 0.0
            try:
                g_nxt = g(nxt)
            except ArithmeticError:
                step = math.sqrt(step)
                continue
            if (g_nxt >= 0.0) == up:
                break
            x, g_x, step = nxt, g_nxt, min(step * step, _HUGE)
        (lo, g_lo), (hi, g_hi) = sorted(((x, g_x), (nxt, g_nxt)))
        while hi > 2.0 * lo:
            mid = math.sqrt(lo) * math.sqrt(hi)
            g_mid = g(mid)
            if g_mid >= 0.0:
                hi, g_hi = mid, g_mid
            else:
                lo, g_lo = mid, g_mid
        return _brent(g, lo, g_lo, hi, g_hi, 0.0, _ROOT_RTOL)[0]
    except ArithmeticError as exc:
        raise failure from exc


# Jump tables of amplitude_sampler.
_TABLE_NODES = 4096
_TABLE_TAIL_FRACTION = 1e-18


def _interior_uniform(gen, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1): both endpoints excluded.

    Built from 53-bit integers so neither 0 nor 1 can occur (numpy's
    ``random()`` can return exactly 0, which would put the CMS angle on the
    boundary where cos vanishes).
    """
    return gen.integers(1, 2 ** 53, size=size).astype(np.float64) * 2.0 ** -53


def _symmetric_sampler(radii):
    """Jumps of a symmetric measure: radius radii(u) of an interior uniform
    u, then a fair sign."""

    def draw(g, total):
        amps = radii(_interior_uniform(g, total))
        return amps * np.where(g.random(total) < 0.5, 1.0, -1.0)

    return draw


def _radial_inverse_table(tail_fn, eps: float, lam: float):
    """Monotone inverse of a radial tail-mass function on (eps, infinity).

    Returns log-spaced radii and the log of their tail masses, for use with
    ``np.interp`` in (log mass -> log radius) direction.  The grid extends
    until the tail mass drops below ``lam * 1e-18``; the probability that a
    draw falls beyond the grid (and is clamped to its last node) is below
    1e-18 per jump.  Plateaus where the tail mass saturates in double
    precision (e.g. the Gaussian-kernel model below radius ~0.12, whose
    density is ~e^{-200}) collapse to their left edge; the affected mass is
    below 1e-15 of the rate.  ``tail_fn`` takes arrays: the node grid is
    evaluated in one call.
    """
    y_hi = max(2.0 * eps, 1.0)
    for _ in range(4000):
        if tail_fn(y_hi) < lam * _TABLE_TAIL_FRACTION:
            break
        y_hi *= 2.0
    else:
        raise Divergent("tail mass decays too slowly to tabulate")
    y = np.geomspace(eps, y_hi, _TABLE_NODES)
    masses = np.array(tail_fn(y), dtype=np.float64)
    masses[0] = lam
    # Guard against flat spots from underflow at the far end.
    positive = masses > 0.0
    y, masses = y[positive], masses[positive]
    log_m = np.log(masses)
    keep = np.ones(len(y), dtype=bool)
    keep[1:] = np.diff(log_m) < 0.0
    return np.log(y[keep]), log_m[keep]


def _invert_radial(log_y, log_m, targets: np.ndarray) -> np.ndarray:
    """Map tail-mass targets to radii through the tabulated inverse.

    The radius of target t is exp(interp(-log t, -log_m, log_y)): np.interp
    needs increasing abscissae, so the (decreasing) log masses are negated.
    The targets are looked up in ascending order of -log t and the radii
    scattered back to the targets' positions.  Each point's interpolation
    does not depend on the order of the queries, so the radii are those of
    the lookup in the given order, bit for bit; on ascending queries
    np.interp finds each node next to the previous one instead of by a
    binary search over the whole table.
    """
    neg_log_t = -np.log(targets)
    order = np.argsort(neg_log_t)
    out = np.empty_like(neg_log_t)
    out[order] = np.interp(neg_log_t[order], -log_m, log_y)
    return np.exp(out, out=out)


# ----------------------------------------------------------------------
# Module functions: argument checks, then the variant's method
# ----------------------------------------------------------------------

def tail_mass(model: LevyModel, R: float) -> float:
    """nu({ |y| > R }). Closed form where exact, quadrature otherwise."""
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    return model.tail_mass(R)


def gamma_envelope(model: LevyModel, R: float) -> float:
    """The envelope gamma(R) >= 1 - e^{-nu(|y|>R)} used by median-type
    bounds: analytic for the radial variants, exact for the others."""
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    return model.gamma_envelope(R)


def inverse_gamma(model: LevyModel, p: float) -> float:
    """Smallest R with gamma_envelope(model, R) <= p, to _ROOT_RTOL
    relative at any scale: 0.0 if the envelope is at most p at every
    R > 0, OutOfRange if it stays above p at every float."""
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"p must be in (0,1), got {p!r}")
    return _bracket_root(
        lambda R: p - model.gamma_envelope(R), 1.0,
        failure=OutOfRange(f"gamma never falls below p={p!r}"))


def truncated_abs_moment(model: LevyModel, k: int, R: float = math.inf) -> float:
    """int_{|y| <= R} |y|^k nu(dy) for k in {1,2,3,4}."""
    if k not in (1, 2, 3, 4):
        raise OutOfRange(f"k must be in {{1,2,3,4}}, got {k!r}")
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    return model.truncated_abs_moment(k, R)


# ----------------------------------------------------------------------
# Exponentially weighted moments
# ----------------------------------------------------------------------

# Bernoulli numbers B_2, B_4, ..., B_20 of the Euler-Maclaurin tail below.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)
# The tail starts at x >= s + _EM_START, where its first omitted term is
# below 1e-17 of the sum for every s <= 27.
_EM_START = 8


def _hurwitz_zeta(s: int, a: float) -> float:
    """zeta(s, a) = sum_{n >= 0} (n + a)^{-s} for integer s >= 2, a > 0.

    The terms below x = a + n >= s + 8 are summed directly, then the
    Euler-Maclaurin tail x^{1-s}/(s-1) + x^{-s}/2
    + sum_j B_2j/(2j)! s(s+1)...(s+2j-2) x^{1-s-2j} (Johansson 2015, Numer.
    Algorithms 69:253). a + i is rarely a float, and its rounding would
    cost s times its relative error, so each shift carries its exact
    rounding error to first order. Within 4e-16 relative for s <= 27.
    """
    n = max(0, math.ceil(s + _EM_START - a))
    parts = []
    for i in range(n + 1):
        x = a + i
        back = x - a
        err = (a - (x - back)) + (i - back)     # a + i = x + err exactly
        xs = x ** -s
        parts.append(xs)
        parts.append(-s * err * xs / x)         # (x + err)^{-s}, first order
    parts[-2] *= 0.5                            # the tail takes half of f(x)
    parts[-1] *= 0.5
    parts.append((x / (s - 1) - err) * xs)
    rise = 0.5 * s * xs / x     # s(s+1)...(s+2j-2)/(2j)! x^{1-s-2j} at j = 1
    w = 1.0 / (x * x)
    for j, b in enumerate(_BERNOULLI, 1):
        parts.append(b * rise)
        rise *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2)) * w
    return math.fsum(parts)


# Taylor coefficients C(m+k-1, k-1) zeta(m+k, 5/2), m = 1..24, of
# sum_{n >= 2} [(n + 1/2 - d)^{-k} - (n + 1/2)^{-k}] in d, for k = 1 and 3.
# Their ratio is about 2d/5 < 1/5 on 0 <= d < 1/2, so the omitted terms are
# below 1e-17 of the moment.
_AREA_SERIES = {
    k: tuple(math.comb(m + k - 1, k - 1) * _hurwitz_zeta(m + k, 2.5)
             for m in range(1, 25))
    for k in (1, 3)
}


def _levy_area_exp_moment(k: int, t: float, c: float) -> float:
    """int_0^inf y^{k-1} (e^{t y} - 1)/sinh(c y) dy, k in {1, 3}, 0 < t < c.

    With 1/sinh(c y) = 2 sum_n e^{-(2n+1) c y} the integral is
    2 (k-1)!/(2c)^k sum_n [(n + a)^{-k} - (n + 1/2)^{-k}], a = 1/2 - d,
    d = t/(2c): (psi(1/2) - psi(a))/c for k = 1 and
    (zeta(3, a) - zeta(3, 1/2))/(2c^3) for k = 3. The terms n = 0 and 1
    are formed as one difference each, x^{-k} - y^{-k} = (1/x - 1/y)
    (x^{1-k} + ... + y^{1-k}) with 1/a - 2 = 2d/a and
    1/(1 + a) - 2/3 = d/(1.5 (1 + a)); the rest is the Taylor series in d
    about 5/2. Every part carries d and is positive, so nothing cancels,
    as t -> 0 or near the abscissa.
    """
    scale = 1.0 / c if k == 1 else 0.5 / c ** 3
    d = 0.5 * t / c
    # c - t is exact near the abscissa, which keeps a accurate as a -> 0.
    a = 0.5 * (c - t) / c
    p, q = 1.0 / a, 1.0 / (1.0 + a)
    if k == 1:
        head = 2.0 * p + q / 1.5
    else:
        head = (2.0 * p * (p * p + 2.0 * p + 4.0)
                + q / 1.5 * (q * q + q / 1.5 + 1.0 / 2.25))
    acc = 0.0
    for coef in reversed(_AREA_SERIES[k]):
        acc = coef + acc * d
    return scale * d * (head + acc)


def exp_weighted_moment(model: LevyModel, k: int, t: float,
                        R: float = math.inf, *, side: str = "abs") -> float:
    """int_{|y| <= R} |y|^k (e^{t |y|} - 1) nu(dy), k in {1, 3}.

    side="abs" integrates over both half-lines; side="pos" keeps only the
    positive one (symmetric models contribute half; QuadraticSpectral keeps
    the positive-eigenvalue terms in full).
    """
    if k not in (1, 3):
        raise OutOfRange(f"k must be 1 or 3, got {k!r}")
    if not (t > 0.0):
        raise OutOfRange(f"t must be > 0, got {t!r}")
    if side not in ("abs", "pos"):
        raise OutOfRange(f"side must be 'abs' or 'pos', got {side!r}")
    return model.exp_weighted_moment(k, t, R, side)


# ----------------------------------------------------------------------
# Spectral generators for the two canonical quadratic path functionals
# ----------------------------------------------------------------------

def chaos_eigenvalues(kind: str, T: float, N: int,
                      convention: str = "spectral") -> QuadraticSpectral:
    """Eigenvalue spectra for the two canonical Brownian quadratic
    functionals on [0, T]:

      kind="energy":    int_0^T B_t^2 dt - T^2/2
                        lambda_k = 4 T^2/((2k+1)^2 pi^2), k = 0..N-1
      kind="centered":  int_0^T (B_t - mean B)^2 dt - T^2/6
                        lambda_k = T^2/(k^2 pi^2),        k = 1..N

    convention selects what the returned eigenvalues mean:
      "spectral"  -- the covariance eigenvalues lambda_k themselves (the
                     values under which the associated bounds are quoted);
      "pathwise"  -- 2 lambda_k, the coefficients a_k for which the chaos
                     normalization (1/2) sum a_k (Z_k^2 - 1) is equal in
                     law to the path functional (matches the simulators).

    The dropped spectral tail sum_{k >= N} a_k^2 is computed in closed form
    from the Hurwitz zeta(4, .) and stored as remainder_sq.
    """
    if kind not in ("energy", "centered"):
        raise OutOfRange(f"kind must be 'energy' or 'centered', got {kind!r}")
    if convention not in ("spectral", "pathwise"):
        raise OutOfRange(
            f"convention must be 'spectral' or 'pathwise', got {convention!r}")
    if not (T > 0.0):
        raise OutOfRange(f"T must be > 0, got {T!r}")
    if N < 1:
        raise OutOfRange(f"N must be >= 1, got {N!r}")
    if kind == "energy":
        ks = np.arange(N)
        lam = 4.0 * T * T / (((2 * ks + 1) ** 2) * math.pi ** 2)
        # sum_{k >= N} (2k+1)^{-4} = zeta(4, N + 1/2)/16
        rem = (4.0 * T * T / math.pi ** 2) ** 2 \
            * _hurwitz_zeta(4, N + 0.5) / 16.0
    else:
        ks = np.arange(1, N + 1)
        lam = T * T / ((ks ** 2) * math.pi ** 2)
        # sum_{k >= N+1} k^{-4} = zeta(4, N + 1)
        rem = (T * T / math.pi ** 2) ** 2 * _hurwitz_zeta(4, N + 1.0)
    if convention == "pathwise":
        lam = 2.0 * lam
        rem = 4.0 * rem
    return QuadraticSpectral(tuple(float(a) for a in lam), remainder_sq=rem)
