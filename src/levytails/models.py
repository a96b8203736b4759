"""Levy-measure model families and their moment/tail functionals.

Six variants, all immutable:

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
  * BoundedSupport(R_support, abs_moments)
                                 only moment information is known

Radial models carry only the total spherical mass: every bound downstream
uses nothing else. Direction information lives in the simulators.

Divergent integrals are detected analytically per variant (comparing the
moment order against the tail/origin exponents), never by letting a
quadrature blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np
from scipy import integrate
from scipy.special import exp1, gammainc, polygamma, psi, zeta

from .errors import (
    Divergent,
    EmptySpectrum,
    MissingEstimate,
    OutOfRange,
    PreconditionViolated,
    QuadratureFailure,
)

_QUAD_EPS = 1e-9


# ----------------------------------------------------------------------
# Variants
# ----------------------------------------------------------------------

def _check_small_ball(radial_density, label: str) -> None:
    """Numeric sanity check of int_{r<=1} r^2 rho(r) dr at construction."""
    val, err = integrate.quad(lambda r: r * r * radial_density(r),
                              0.0, 1.0, epsabs=1e-12, epsrel=1e-8, limit=200)
    if not math.isfinite(val) or err > 1e-6 * (1.0 + abs(val)):
        raise PreconditionViolated(
            f"{label}: small-ball second moment not finite to 1e-6 "
            f"(value={val!r}, err={err!r})")


@dataclass(frozen=True)
class Stable:
    """Radial stable-type measure: density r^{-1-alpha}, spherical mass
    sigma_total; alpha in (0, 2)."""

    alpha: float
    sigma_total: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise PreconditionViolated(f"alpha must be in (0,2), got {self.alpha!r}")
        if not (self.sigma_total > 0.0):
            raise PreconditionViolated("sigma_total must be > 0")
        _check_small_ball(lambda r: r ** (-1.0 - self.alpha), "Stable")

    def radial_density(self, r: float) -> float:
        return r ** (-1.0 - self.alpha)


@dataclass(frozen=True)
class LogKernel:
    """Radial density |log r|/r^2: finite small-ball energy but no finite
    variance of the induced vector."""

    sigma_total: float

    def __post_init__(self):
        if not (self.sigma_total > 0.0):
            raise PreconditionViolated("sigma_total must be > 0")
        _check_small_ball(lambda r: abs(math.log(r)) / (r * r), "LogKernel")

    def radial_density(self, r: float) -> float:
        return abs(math.log(r)) / (r * r)


@dataclass(frozen=True)
class GaussKernel:
    """Radial density e^{-1/(2 r^2)}/(r^2 sqrt(2 pi)); tail mass has the
    closed form sigma * (Phi(1/R) - 1/2)."""

    sigma_total: float

    def __post_init__(self):
        if not (self.sigma_total > 0.0):
            raise PreconditionViolated("sigma_total must be > 0")
        _check_small_ball(
            lambda r: math.exp(-0.5 / (r * r)) / (r * r * math.sqrt(2.0 * math.pi)),
            "GaussKernel")

    def radial_density(self, r: float) -> float:
        if r < 1e-150:      # e^{-1/(2r^2)} underflows long before r^2 does
            return 0.0
        return math.exp(-0.5 / (r * r)) / (r * r * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class QuadraticSpectral:
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

    @property
    def truncation(self) -> int:
        return len(self.eigs)

    def abs_eigs(self) -> np.ndarray:
        return np.abs(np.asarray(self.eigs, dtype=float))

    def positive_part(self) -> "QuadraticSpectral":
        """The sub-measure carried by the positive eigenvalues (used for
        one-sided/supremum bounds). Raises EmptySpectrum if there is none."""
        pos = tuple(a for a in self.eigs if a > 0.0)
        if not pos:
            raise EmptySpectrum("no positive eigenvalues")
        return QuadraticSpectral(pos)


@dataclass(frozen=True)
class LevyArea:
    """Levy measure 1/(2|y| sinh(pi |y|/T)) of the Brownian stochastic
    area on [0, T]; symmetric, all polynomial moments of order >= 2 finite."""

    T: float

    def __post_init__(self):
        if not (self.T > 0.0):
            raise PreconditionViolated("T must be > 0")

    def density(self, y: float) -> float:
        ay = abs(y)
        z = math.pi * ay / self.T
        if z > 700.0:       # sinh overflows; density is ~ e^{-z}/ay
            return math.exp(-z) / ay
        return 1.0 / (2.0 * ay * math.sinh(z))


@dataclass(frozen=True)
class BoundedSupport:
    """A measure known only through its support radius and the absolute
    moments int |y|^k nu(dy), k in {1,2,3,4} (not all need be present)."""

    R_support: float
    abs_moments: Mapping[int, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.R_support > 0.0):
            raise PreconditionViolated("R_support must be > 0")
        moments = dict(self.abs_moments)
        if any(k not in (1, 2, 3, 4) for k in moments):
            raise PreconditionViolated("abs_moments keys must be in {1,2,3,4}")
        if any(v < 0.0 for v in moments.values()):
            raise PreconditionViolated("abs_moments must be >= 0")
        object.__setattr__(self, "abs_moments", moments)

    def moment(self, k: int) -> float:
        try:
            return float(self.abs_moments[k])
        except KeyError:
            raise MissingEstimate(f"abs moment k={k} not supplied") from None


LevyModel = Union[Stable, LogKernel, GaussKernel, QuadraticSpectral,
                  LevyArea, BoundedSupport]


# ----------------------------------------------------------------------
# Quadrature helpers
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


def _quad(f, a, b, **kw) -> float:
    opts = dict(epsabs=1e-13, epsrel=_QUAD_EPS, limit=300)
    opts.update(kw)
    val, err = integrate.quad(f, a, b, **opts)
    if not math.isfinite(val) or err > 1e-6 * (1.0 + abs(val)):
        raise QuadratureFailure(
            f"quadrature on ({a!r},{b!r}) err={err!r} value={val!r}")
    return val


def _tail_quad(f, R: float) -> float:
    """int_R^inf f(y) dy via the substitution y = R/u onto (0, 1]."""
    return _quad(lambda u: f(R / u) * R / (u * u), 0.0, 1.0)


# ----------------------------------------------------------------------
# tail_mass / gamma_envelope / inverse_gamma
# ----------------------------------------------------------------------

def tail_mass(model: LevyModel, R: float) -> float:
    """nu({ |y| > R }). Closed form where exact, quadrature otherwise."""
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    if isinstance(model, Stable):
        return model.sigma_total * R ** (-model.alpha) / model.alpha
    if isinstance(model, LogKernel):
        # antiderivative of log(r)/r^2 is -(1 + log r)/r
        if R >= 1.0:
            return model.sigma_total * (1.0 + math.log(R)) / R
        return model.sigma_total * (2.0 - (1.0 + math.log(R)) / R)
    if isinstance(model, GaussKernel):
        # substitution u = 1/r maps the tail onto a Gaussian increment
        return model.sigma_total * 0.5 * math.erf(1.0 / (R * math.sqrt(2.0)))
    if isinstance(model, QuadraticSpectral):
        a = model.abs_eigs()
        a = a[a > 0.0]
        return float(0.5 * exp1(R / a).sum())
    if isinstance(model, LevyArea):
        T = model.T
        return _tail_quad(lambda y: _inv_sinh(math.pi * y / T) / y, R)
    if isinstance(model, BoundedSupport):
        if R >= model.R_support:
            return 0.0
        raise MissingEstimate(
            "tail mass below the support radius is not determined by moments")
    raise TypeError(f"unknown model {model!r}")


def gamma_envelope(model: LevyModel, R: float) -> float:
    """The envelope gamma(R) >= 1 - e^{-nu(|y|>R)} used by median-type
    bounds.

    Stable uses the analytic choice sigma/(alpha R^alpha); the log kernel
    uses 2 sigma log(R)/R (flattened at its maximum R=e so it stays
    nonincreasing, and never below the exact probability); the Gaussian
    kernel uses sigma/(sqrt(2 pi) R); all other variants return the exact
    1 - e^{-tail_mass}.
    """
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    exact = -math.expm1(-tail_mass(model, R)) if not isinstance(model, Stable) \
        else None
    if isinstance(model, Stable):
        return model.sigma_total * R ** (-model.alpha) / model.alpha
    if isinstance(model, LogKernel):
        r_eff = max(R, math.e)
        analytic = 2.0 * model.sigma_total * math.log(r_eff) / r_eff
        return max(analytic, exact)
    if isinstance(model, GaussKernel):
        return model.sigma_total / (math.sqrt(2.0 * math.pi) * R)
    return exact


def inverse_gamma(model: LevyModel, p: float) -> float:
    """Smallest R with gamma_envelope(model, R) <= p (bisection, rel 1e-10).

    Raises OutOfRange if the envelope stays above p all the way to R=1e12.
    """
    if not (0.0 < p < 1.0):
        raise OutOfRange(f"p must be in (0,1), got {p!r}")
    lo = 1e-12
    if gamma_envelope(model, lo) <= p:
        return lo
    hi = 1.0
    while gamma_envelope(model, hi) > p:
        hi *= 2.0
        if hi > 1e12:
            raise OutOfRange(f"gamma never falls below p={p!r} up to R=1e12")
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if gamma_envelope(model, mid) <= p:
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------------------------
# Truncated absolute moments
# ----------------------------------------------------------------------

def _radial_moment_divergent(model, k: int, R: float) -> str | None:
    """Reason string if int_{|y|<=R} |y|^k nu(dy) diverges, else None."""
    if isinstance(model, Stable):
        if k <= model.alpha:
            return f"k={k} <= alpha={model.alpha}: divergence at the origin"
        if math.isinf(R):
            return f"k={k} > alpha: divergence at infinity"
    if isinstance(model, LogKernel):
        if k == 1:
            return "k=1: |log r|/r not integrable at the origin"
        if math.isinf(R):
            return f"k={k}: r^{k - 2} log r not integrable at infinity"
    if isinstance(model, GaussKernel) and math.isinf(R):
        return f"k={k}: r^{k - 2} not integrable at infinity"
    if isinstance(model, LevyArea) and k == 1:
        return "k=1: 1/sinh(pi y/T) not integrable at the origin"
    return None


def truncated_abs_moment(model: LevyModel, k: int, R: float = math.inf) -> float:
    """int_{|y| <= R} |y|^k nu(dy) for k in {1,2,3,4}."""
    if k not in (1, 2, 3, 4):
        raise OutOfRange(f"k must be in {{1,2,3,4}}, got {k!r}")
    if not (R > 0.0):
        raise OutOfRange(f"R must be > 0, got {R!r}")
    reason = _radial_moment_divergent(model, k, R)
    if reason is not None:
        raise Divergent(reason)

    if isinstance(model, Stable):
        return model.sigma_total * R ** (k - model.alpha) / (k - model.alpha)
    if isinstance(model, LogKernel):
        s = model.sigma_total
        return s * _quad(lambda r: r ** (k - 2) * abs(math.log(r)), 0.0, R)
    if isinstance(model, GaussKernel):
        s = model.sigma_total
        f = (lambda r: r ** (k - 2) * math.exp(-0.5 / (r * r))
             / math.sqrt(2.0 * math.pi))
        return s * _quad(f, 0.0, R)
    if isinstance(model, QuadraticSpectral):
        # (1/2) int_0^R y^{k-1} e^{-y/a} dy = (1/2) a^k (k-1)! P(k, R/a)
        a = model.abs_eigs()
        a = a[a > 0.0]
        reg = gammainc(k, R / a) if math.isfinite(R) else 1.0
        return float(0.5 * math.factorial(k - 1) * np.sum(a ** k * reg))
    if isinstance(model, LevyArea):
        T = model.T
        if math.isinf(R):
            if k == 2:
                # int_0^inf y/sinh(pi y/T) dy = T^2/4
                return T * T / 4.0
            R = 50.0 * T    # integrand is < 1e-60 of its peak beyond this
        return _quad(lambda y: y ** (k - 1) * _inv_sinh(math.pi * y / T),
                     0.0, R)
    if isinstance(model, BoundedSupport):
        if R >= model.R_support:
            return model.moment(k)
        raise MissingEstimate(
            "truncated moments below the support radius are not determined")
    raise TypeError(f"unknown model {model!r}")


# ----------------------------------------------------------------------
# Exponentially weighted moments
# ----------------------------------------------------------------------

# Taylor coefficients C(m+k-1, k-1) zeta(m+k, 1/2), m = 1..24, of
# sum_n [(n + 1/2 - d)^{-k} - (n + 1/2)^{-k}] in d, for k = 1 and 3. The
# series is used for d <= 0.05, where its ratio is about 2d <= 0.1, so the
# 24th term is ~1e-21 of the first.
_AREA_SERIES = {
    k: np.array([math.comb(m + k - 1, k - 1) * float(zeta(m + k, 0.5))
                 for m in range(1, 25)])
    for k in (1, 3)
}


def _levy_area_exp_moment(k: int, t: float, c: float) -> float:
    """int_0^inf y^{k-1} (e^{t y} - 1)/sinh(c y) dy, k in {1, 3}, 0 < t < c.

    With 1/sinh(c y) = 2 sum_n e^{-(2n+1) c y} the integral is
    2 (k-1)!/(2c)^k sum_n [(n + a)^{-k} - (n + 1/2)^{-k}], a = 1/2 - t/(2c):
    (psi(1/2) - psi(a))/c for k = 1 and (zeta(3, a) - zeta(3, 1/2))/(2c^3)
    for k = 3. For t/c <= 0.1 the difference cancels (4e-11 relative error
    at t/c = 1e-6), so the all-positive Taylor series in t/(2c) is summed
    instead.
    """
    scale = 1.0 / c if k == 1 else 0.5 / c ** 3
    d = 0.5 * t / c
    if d <= 0.05:
        return scale * d * float(np.polynomial.polynomial.polyval(
            d, _AREA_SERIES[k]))
    # c - t is exact near the abscissa, which keeps a accurate as a -> 0.
    a = 0.5 * (c - t) / c
    if k == 1:
        return scale * float(psi(0.5) - psi(a))
    return scale * float(zeta(3, a) - zeta(3, 0.5))


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

    if isinstance(model, QuadraticSpectral):
        eigs = np.asarray(model.eigs, dtype=float)
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

    if isinstance(model, LevyArea):
        c = math.pi / model.T
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

    if isinstance(model, (Stable, LogKernel, GaussKernel)):
        if math.isinf(R):
            raise Divergent(
                "radial models need a finite truncation radius: e^{tr} "
                "dominates every radial density at infinity")
        # Unlike the plain moments, k <= alpha (and the log-kernel k=1
        # case) stay integrable here: e^{tr}-1 ~ tr adds a power of r at 0.
        # expm1 is clamped so that probing h at huge t saturates instead of
        # overflowing; saturated values sit far above any inverted level.
        s = model.sigma_total
        rho = model.radial_density
        val = s * _quad(lambda r: r ** k * math.expm1(min(t * r, 690.0))
                        * rho(r), 0.0, R)
        return 0.5 * val if side == "pos" else val

    if isinstance(model, BoundedSupport):
        raise MissingEstimate(
            "exponentially weighted moments are not determined by the "
            "stored moments")
    raise TypeError(f"unknown model {model!r}")


def levy_area_exp_envelope(T: float, t: float) -> float:
    """Closed-form upper envelope 4 t T/(pi (pi/T - t)) for the k=1
    exponentially weighted moment of the LevyArea measure (abs side).

    Valid for 0 < t < pi/T; raises Divergent at or beyond the abscissa.
    """
    if not (t > 0.0):
        raise OutOfRange(f"t must be > 0, got {t!r}")
    if t >= math.pi / T:
        raise Divergent(f"t={t!r} at/beyond pi/T = {math.pi / T!r}")
    return 4.0 * t * T / (math.pi * (math.pi / T - t))


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
    via polygamma and stored as remainder_sq.
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
        # sum_{k >= N} (2k+1)^{-4} = psi'''(N + 1/2)/96
        rem = (4.0 * T * T / math.pi ** 2) ** 2 \
            * float(polygamma(3, N + 0.5)) / 96.0
    else:
        ks = np.arange(1, N + 1)
        lam = T * T / ((ks ** 2) * math.pi ** 2)
        # sum_{k >= N+1} k^{-4} = psi'''(N + 1)/6
        rem = (T * T / math.pi ** 2) ** 2 * float(polygamma(3, N + 1)) / 6.0
    if convention == "pathwise":
        lam = 2.0 * lam
        rem = 4.0 * rem
    return QuadraticSpectral(tuple(float(a) for a in lam), remainder_sq=rem)


def spectral_sum_sq(model: QuadraticSpectral, include_remainder: bool = True) -> float:
    """sum_k a_k^2, optionally including the generator's dropped tail."""
    s = float(np.sum(np.asarray(model.eigs) ** 2))
    return s + model.remainder_sq if include_remainder else s


def spectral_sum(model: QuadraticSpectral) -> float:
    """sum_k a_k over the retained eigenvalues (signed)."""
    return float(np.sum(np.asarray(model.eigs)))
