"""Catalog of named closed-form deviation bounds.

Each operation returns a TailBound (or an HFunction / scalar where noted)
carrying its exact constants, validity interval, center convention and
regime labels.  Conventions shared across the catalog:

  * center="mean"          deviation from E[F];
    center="median"        deviation from a median m(F);
    center="shifted_mean"  deviation beyond a mean-based shift recorded in
                           meta (e.g. 2 E|F|_2 for Euclidean-norm bounds).
  * meta["transform"] (with "shift_mult" and "audit_lo") tells the
    verifier how to read the bound; the table is in levytails.verify.
  * Vacuous values (closed form > 1) are clamped to 1 and labelled
    "vacuous" by regime(); they are never hidden.
  * Lower bounds are asymptotic: valid_lo is a soft threshold (smallest x
    with bound <= 1/4) and audits should stay beyond meta["audit_lo"].

Engine-backed bounds (difference-operator h-functions) keep a reference to
their HFunction in meta["h"] so the construction can be cross-checked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import models
from .engine import HFunction, TailBound, tail_bound_from_h
from .errors import (
    EmptySpectrum,
    InvalidProfile,
    MissingEstimate,
    OutOfRange,
    PreconditionViolated,
)

__all__ = [
    "FunctionalProfile",
    "QuadraticSpec",
    "StableSpec",
    "bennett_bound",
    "product_h",
    "dimension_free_bound",
    "bounded_support_norm_bound",
    "quad_wiener_bound",
    "quad_wiener_lower",
    "quad_euclid_iid_bound",
    "levy_area_bound",
    "id_lower_bound",
    "id_lower_curve",
    "median_bound_general",
    "median_bound_linear",
    "two_regime_bound",
    "stable_median_bound",
    "asymptotic_slope",
]

_E = math.e
# Two-regime parameter sets this close (relative) to the precondition
# boundary are rejected: the crossover equation for s0 degenerates there.
_BOUNDARY_MARGIN = 1e-6
# log of the largest finite float: math.exp overflows above it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# The exact_h h sums its spectrum as a head, the eigenvalues with
# |a_k| > top/_TAIL_RATIO (top = max |a_k|), term by term, plus a tail,
# the rest, as a power series in u = c t top < 1 with _TAIL_TERMS moment
# coefficients fixed at build time.  Every tail term has c t |a_k| <
# 1/_TAIL_RATIO, so truncating its geometric series after _TAIL_TERMS
# terms drops less than 64^-10/(1 - 1/64) ~ 9e-19 of the tail sum.
_TAIL_RATIO = 64.0
_TAIL_TERMS = 10
# np.add.reduce sums float64 arrays pairwise from this length up and term
# by term below it, so a head shorter than this sums in a plain-float
# loop: the same float, without numpy's fixed cost per call.
_PAIRWISE_SUM_MIN = 8
# The exact_h Legendre transform x' u - G(u) (see _quad_legendre) is
# summed as a power series in u for u <= _SERIES_U, where the closed
# form's terms -log(1 - u r) - u r would cancel: _SERIES_TERMS terms leave
# out less than 2 u^28/(1 - u) < 4e-17 of it, relative.
_SERIES_U = 0.25
_SERIES_TERMS = 28
_NEWTON_MAXITER = 100
# Above this x/top, 1/(1 - u) nears the float limit; the Newton start is
# then the root to within the float's precision, and is used as it is.
_NEWTON_XMAX = 1e300


# ----------------------------------------------------------------------
# Parameter bundles
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalProfile:
    """Difference-operator bounds describing a functional (or a vector).

    K       uniform bound on the difference operator D_yF (sign matters;
            K <= 0 is allowed and tightens the Gaussian-type range),
    alpha2  sup_omega int |D_yF|^2 nu(dy)  (the square alpha~^2),
    beta    per-component slopes sup |D_{(i,y)}F_i| / |y|,
    lip_c   Lipschitz constant of the outer function,
    n       dimension of the described vector.
    """

    K: float
    alpha2: float
    beta: tuple = (1.0,)
    lip_c: float = 1.0
    n: int = 1

    def __post_init__(self):
        object.__setattr__(self, "beta",
                           tuple(float(b) for b in self.beta))
        if self.alpha2 < 0.0:
            raise InvalidProfile(f"alpha2 must be >= 0, got {self.alpha2!r}")
        if not (self.lip_c > 0.0):
            raise InvalidProfile(f"lip_c must be > 0, got {self.lip_c!r}")
        if any(b < 0.0 for b in self.beta):
            raise InvalidProfile("beta entries must be >= 0")
        if self.n < 1:
            raise InvalidProfile(f"n must be >= 1, got {self.n!r}")

    def betas(self) -> tuple:
        """Per-component slopes broadcast to length n."""
        if len(self.beta) == self.n:
            return self.beta
        if len(self.beta) == 1:
            return self.beta * self.n
        raise InvalidProfile(
            f"beta has length {len(self.beta)}, expected 1 or n={self.n}")


@dataclass(frozen=True)
class QuadraticSpec:
    """Spectral data for a vector of quadratic Wiener functionals.

    Component i is J_2(f_2^i) = (1/2) sum_k a_k^i ((Z_k^i)^2 - 1) with
    eigenvalues a_k^i (signed).  mean_abs optionally holds a Monte Carlo
    estimate of E|J_2(f_2)| (single component, for the i.i.d. norm bound).
    The flattened spectrum, a_max, a_plus and f2_norms are computed once
    here and held as private attributes, not fields.
    """

    eigs_per_component: tuple
    mean_abs: float | None = None

    def __post_init__(self):
        comps = tuple(tuple(float(a) for a in comp)
                      for comp in self.eigs_per_component)
        if not comps:
            raise InvalidProfile("need at least one component")
        if any(len(comp) == 0 for comp in comps):
            raise InvalidProfile("every component needs eigenvalues")
        flat = np.array([a for comp in comps for a in comp], dtype=float)
        if not np.all(np.isfinite(flat)):
            raise InvalidProfile("eigenvalues must be finite")
        object.__setattr__(self, "eigs_per_component", comps)
        if self.mean_abs is not None and not (self.mean_abs > 0.0):
            raise InvalidProfile(f"mean_abs must be > 0, got {self.mean_abs!r}")
        flat.flags.writeable = False
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_a_max", float(np.abs(flat).max()))
        object.__setattr__(self, "_a_plus", max(0.0, float(flat.max())))
        object.__setattr__(self, "_f2_norms", tuple(
            0.25 * sum(a * a for a in comp) for comp in comps))

    @property
    def n(self) -> int:
        return len(self.eigs_per_component)

    @property
    def a_max(self) -> float:
        """Overall spectral radius max_{i,k} |a_k^i|."""
        return self._a_max

    @property
    def a_plus(self) -> float:
        """Largest positive eigenvalue across components (0 if none)."""
        return self._a_plus

    @property
    def f2_norms(self) -> tuple:
        """Per-component ||f_2^i||^2 = (1/4) sum_k (a_k^i)^2."""
        return self._f2_norms

    @property
    def f2_total(self) -> float:
        return sum(self.f2_norms)

    @property
    def component_a(self) -> tuple:
        """Per-component spectral radii a^i = max_k |a_k^i|."""
        return tuple(max(abs(a) for a in comp)
                     for comp in self.eigs_per_component)

    @property
    def component_a_plus(self) -> tuple:
        """Per-component largest positive eigenvalue (0 if none)."""
        return tuple(max((a for a in comp if a > 0.0), default=0.0)
                     for comp in self.eigs_per_component)


@dataclass(frozen=True)
class StableSpec:
    """Radial alpha-stable target: index, total spherical mass, Lipschitz c."""

    alpha: float
    sigma_total: float
    lip_c: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise InvalidProfile(
                f"alpha must lie strictly in (0, 2), got {self.alpha!r}")
        if not (self.sigma_total > 0.0):
            raise InvalidProfile(
                f"sigma_total must be > 0, got {self.sigma_total!r}")
        if not (self.lip_c > 0.0):
            raise InvalidProfile(f"lip_c must be > 0, got {self.lip_c!r}")


# ----------------------------------------------------------------------
# Small shared helpers
# ----------------------------------------------------------------------

def _bennett_exponent(K: float, alpha2: float, x: float) -> float:
    """log of exp(x/K) (1 + xK/alpha2)^(-x/K - alpha2/K^2); where xK/alpha2
    overflows (so K > 0), the log is log(K) + log(x/alpha2 + 1/K)."""
    u = x / K
    z = x * K / alpha2
    log_term = (math.log1p(z) if math.isfinite(z)
                else math.log(K) + math.log(x / alpha2 + 1.0 / K))
    return u - (u + alpha2 / (K * K)) * log_term


def _guard(lo: float, hi: float, name: str, fn):
    """Wrap fn so it raises OutOfRange outside the open interval (lo, hi)."""

    def guarded(x: float) -> float:
        x = float(x)
        if not (lo < x < hi):
            raise OutOfRange(f"{name}: x={x!r} outside ({lo!r}, {hi!r})")
        return fn(x)

    return guarded


def _clamped(raw_fn, label: str):
    """Vacuity clamp: (fn, regime_fn) reporting min(raw, 1) and 'vacuous'."""

    def fn(x: float) -> float:
        return min(1.0, raw_fn(x))

    def regime(x: float) -> str:
        try:
            return label if raw_fn(x) < 1.0 else "vacuous"
        except OutOfRange:
            return "out_of_range"

    return fn, regime


def _twice_mean_norm_bound(name: str, guard_name: str, K_of, b: float,
                           rate: float, x_unit: float,
                           meta: dict) -> TailBound:
    """P(|F|_2 >= 2 E|F|_2 + x) <= exp(-rate x + K_b [x < x*]), x > 0.

    K_b = K_of(b) and x* = x_unit K_of(b/2): beyond x* the constant drops
    (regime "sharp"); below it the value is clamped to 1 ("base" or
    "vacuous").  ``meta`` gains K_b, x_star and the norm transform.
    """
    K_b = K_of(b)
    x_star = x_unit * K_of(0.5 * b)

    def raw(x: float) -> float:
        return math.exp(-rate * x + (K_b if x < x_star else 0.0))

    fn, clamp_regime = _clamped(_guard(0.0, math.inf, guard_name, raw),
                                "base")

    def regime(x: float) -> str:
        if x >= x_star:
            return "sharp"
        return clamp_regime(x)

    return TailBound(name=name, fn=fn, center="shifted_mean",
                     regime_fn=regime,
                     meta={**meta, "K_b": K_b, "x_star": x_star,
                           "transform": "norm", "shift_mult": 2.0})


def _spectral_radii(spec) -> tuple:
    """(a_max, a_plus) from a QuadraticSpec, a model, or raw eigenvalues."""
    if isinstance(spec, QuadraticSpec):
        return spec.a_max, spec.a_plus
    eigs = tuple(float(a) for a in getattr(spec, "eigs", spec))
    if not eigs:
        raise EmptySpectrum("no eigenvalues")
    amax = max(abs(a) for a in eigs)
    aplus = max((a for a in eigs if a > 0.0), default=0.0)
    return amax, aplus


# ----------------------------------------------------------------------
# Difference-operator bounds (Bennett form and product h-functions)
# ----------------------------------------------------------------------

def bennett_bound(K: float, alpha2: float) -> TailBound:
    """Bennett-type bound from difference-operator constants (K, alpha~^2).

    P(F - E[F] >= x) <= e^{x/K} (1 + xK/alpha2)^{-x/K - alpha2/K^2}

    for K != 0, degenerating to the Gaussian exp(-x^2/(2 alpha2)) at K = 0.
    For K > 0 the range is all of (0, inf); for K < 0 it is (0, -alpha2/K)
    (beyond which the formula's logarithm leaves its domain).
    """
    K = float(K)
    alpha2 = float(alpha2)
    if not (math.isfinite(K) and math.isfinite(alpha2)):
        raise InvalidProfile(
            f"K and alpha2 must be finite, got K={K!r}, alpha2={alpha2!r}")
    if not (alpha2 > 0.0):
        raise InvalidProfile(f"alpha2 must be > 0, got {alpha2!r}")
    if K == 0.0:
        fn = _guard(0.0, math.inf, "bennett",
                    lambda x: math.exp(-x * x / (2.0 * alpha2)))
        return TailBound(name="bennett", fn=fn, center="mean",
                         regime_fn=lambda x: "gaussian",
                         meta={"K": K, "alpha2": alpha2,
                               "transform": "value"})
    valid_hi = math.inf if K > 0.0 else -alpha2 / K
    fn = _guard(0.0, valid_hi, "bennett",
                lambda x: math.exp(_bennett_exponent(K, alpha2, x)))
    return TailBound(name="bennett", fn=fn, center="mean",
                     valid_hi=valid_hi,
                     regime_fn=lambda x: "bennett",
                     meta={"K": K, "alpha2": alpha2, "transform": "value"})


def _per_component(model, n: int) -> list:
    """One model per component: a list or tuple as given, else n copies."""
    mods = list(model) if isinstance(model, (list, tuple)) else [model] * n
    if len(mods) != n:
        raise InvalidProfile(f"got {len(mods)} models for n={n} components")
    return mods


def product_h(profile: FunctionalProfile, model, mode: str,
              truncation: float = math.inf) -> HFunction:
    """h-function for a functional of several independent components.

    With M1_i(s) = int |y| (e^{s|y|} - 1) nu_i(dy):

      mode="shared_beta"    h(t) = (alpha2/beta) M1(beta t)
                            (common slope beta = max of profile.beta,
                             single jump measure),
      mode="per_component"  h(t) = sum_i beta_i M1_i(beta_i t),
      mode="supremum"       h(t) = sum_i int_0^inf y (e^{ty} - 1) nu_i(dy)
                            (positive jumps only; the right h for
                             sup-type functionals).

    t_end comes from the models' exponential abscissas, never from the
    caller.  Radial models with unbounded support have abscissa 0: pass a
    finite truncation radius to work with their restriction to a ball.
    """
    if mode not in ("shared_beta", "per_component", "supremum"):
        raise OutOfRange(f"unknown mode {mode!r}")
    n = profile.n
    mods = _per_component(model, n)
    trunc_finite = math.isfinite(truncation)

    if mode == "shared_beta":
        beta = max(profile.beta)
        if not (beta > 0.0 and profile.alpha2 > 0.0):
            raise InvalidProfile("shared_beta needs beta > 0 and alpha2 > 0")
        m0 = mods[0]
        t_end = math.inf if trunc_finite else m0.exp_abscissa() / beta

        def ev(t: float) -> float:
            if t <= 0.0:
                return 0.0
            return (profile.alpha2 / beta) * models.exp_weighted_moment(
                m0, 1, t * beta, R=truncation)

    elif mode == "per_component":
        betas = profile.betas()
        if trunc_finite:
            t_end = math.inf
        else:
            t_end = min((m.exp_abscissa() / b
                         for m, b in zip(mods, betas) if b > 0.0),
                        default=math.inf)

        def ev(t: float) -> float:
            if t <= 0.0:
                return 0.0
            return sum(b * models.exp_weighted_moment(m, 1, t * b,
                                                      R=truncation)
                       for m, b in zip(mods, betas) if b > 0.0)

    else:  # supremum
        if trunc_finite:
            t_end = math.inf
        else:
            t_end = min(m.exp_abscissa("pos") for m in mods)

        def ev(t: float) -> float:
            if t <= 0.0:
                return 0.0
            return sum(models.exp_weighted_moment(m, 1, t, R=truncation,
                                                  side="pos")
                       for m in mods)

    return HFunction(eval_fn=ev, t_end=t_end, h_sup=math.inf,
                     name=f"product[{mode}]")


def dimension_free_bound(profile: FunctionalProfile, model,
                         mode: str = "norm", mean_norm: float | None = None,
                         truncation: float = math.inf) -> TailBound:
    """Dimension-free deviation bound for independent-component vectors.

    Builds h(t) = 8 max_i beta_i M1_i(beta_i t)
                + (2n/mean_norm^2) max_i beta_i^3 M3_i(beta_i t)
    and returns the entropy bound exp(-int_0^x h^{-1}).

    mode="norm":      P(|F|_2 >= 2 E|F|_2 + x) <= bound(x);
                      mean_norm = E|F|_2.
    mode="lipschitz": P(f(F) >= E[f(F)] + c sqrt(2 sum_i Var F_i) + d)
                      <= bound(d) for l2-Lipschitz(c) f, where
                      c = profile.lip_c and the bound is expressed in
                      the physical deviation d = c x;
                      mean_norm = E|F - E[F]|_2.

    For i.i.d. components mean_norm^2 grows like n, so h -- hence the
    whole bound -- is independent of the dimension.
    """
    if mode not in ("norm", "lipschitz"):
        raise OutOfRange(f"unknown mode {mode!r}")
    if mean_norm is None:
        raise MissingEstimate(
            "mean_norm (E|F|_2 or E|F - EF|_2) must be estimated first")
    if not (mean_norm > 0.0):
        raise InvalidProfile(f"mean_norm must be > 0, got {mean_norm!r}")
    n = profile.n
    betas = profile.betas()
    mods = _per_component(model, n)
    active = [(m, b) for m, b in zip(mods, betas) if b > 0.0]
    if not active:
        raise InvalidProfile("all beta_i are zero")
    if math.isfinite(truncation):
        t_end = math.inf
    else:
        t_end = min(m.exp_abscissa() / b for m, b in active)
    coef3 = 2.0 * n / (mean_norm * mean_norm)

    def ev(t: float) -> float:
        if t <= 0.0:
            return 0.0
        m1 = max(b * models.exp_weighted_moment(m, 1, t * b, R=truncation)
                 for m, b in active)
        m3 = max(b ** 3 * models.exp_weighted_moment(m, 3, t * b,
                                                     R=truncation)
                 for m, b in active)
        return 8.0 * m1 + coef3 * m3

    h = HFunction(eval_fn=ev, t_end=t_end, h_sup=math.inf,
                  name=f"dimfree[{mode}]")
    base = tail_bound_from_h(h)
    if mode == "norm":
        return replace(base, name="dimension_free[norm]",
                       center="shifted_mean",
                       meta={"h": h, "transform": "norm", "shift_mult": 2.0,
                             "mean_norm": mean_norm})
    c = profile.lip_c

    def fn(d: float) -> float:
        return base.fn(d / c)

    return TailBound(name="dimension_free[lipschitz]", fn=fn,
                     grid_fn=lambda ds: base.grid_fn(ds / c),
                     center="shifted_mean", valid_lo=0.0,
                     valid_hi=c * base.valid_hi,
                     meta={"h": h, "transform": "value", "x_scale": c,
                           "shift": "mean + c sqrt(2 sum Var)",
                           "mean_norm": mean_norm})


def bounded_support_norm_bound(beta: float, R: float, second_moment: float,
                               mean_abs_f1: float) -> TailBound:
    """Euclidean-norm bound for i.i.d. components with jumps in B(0, R).

    With alpha_R^2 = (8 beta^2 + 2 beta^5 R^2 / (E|F_1|)^2) int |y|^2 nu(dy),

    P(|F|_2 >= 2 E|F|_2 + x)
      <= exp( x/(beta R)
              - (x/(beta R) + alpha_R^2/(beta R)^2)
                log(1 + x beta R / alpha_R^2) ),   x > 0,

    i.e. the Bennett form with K = beta R.  alpha_R^2 does not depend on
    the dimension n.
    """
    if not (beta > 0.0 and R > 0.0 and second_moment > 0.0
            and mean_abs_f1 > 0.0):
        raise InvalidProfile("all parameters must be > 0")
    alpha_r2 = (8.0 * beta ** 2
                + 2.0 * beta ** 5 * R * R / (mean_abs_f1 * mean_abs_f1)
                ) * second_moment
    K = beta * R
    fn = _guard(0.0, math.inf, "bounded_support_norm",
                lambda x: math.exp(_bennett_exponent(K, alpha_r2, x)))
    return TailBound(name="bounded_support_norm", fn=fn,
                     center="shifted_mean",
                     regime_fn=lambda x: "bennett",
                     meta={"alpha_R2": alpha_r2, "K": K,
                           "transform": "norm", "shift_mult": 2.0})


# ----------------------------------------------------------------------
# Quadratic Wiener functionals
# ----------------------------------------------------------------------

def _quad_legendre(r: np.ndarray, mus: list, top: float, c: float):
    """x -> int_0^x h^{-1} for the exact_h h, in closed form.

    r holds |a_k|/top over the head and mus the tail moments mu_m of the
    h.  In u = c t top and x' = x/top, h(t) = top g(u) and its
    antiderivative is H(t) = G(u)/c, with nu_m = mu_m/top^2 and

        g(u) = sum_head (r_k^2/2) u/(1 - u r_k) + u sum_m nu_m u^m,
        G(u) = (1/2) sum_head [-log(1 - u r_k) - u r_k]
               + sum_m nu_m u^(m+2)/(m+2),

    the chaos cumulant with |a_k| in place of a_k.  g(u) = x' is solved by
    Newton's method from the right, starting at u0 = 2x'/(1 + 2x'), where
    the top term alone reaches x'; g is convex and increasing, so the
    iterates fall monotonically.  The gap e = 1 - u = (1/(ct) - top) c t
    is carried beside u, and every denominator is formed from it as
    1 - u r_k = e + u (1 - r_k): beyond x' ~ 1e16, where u rounds to 1,
    the points stay exact.  The value is (x' u - G(u))/c.  Every quantity
    is dimensionless, so no tolerance depends on the scale.  For
    u <= 1/4, x' u - G(u) is summed instead as u (x' - g(u)) plus the
    series sum_{m<28} ((m+1)/(m+2)) N_m u^(m+2), N_m = sum_head
    (r_k^2/2) r_k^m + nu_m, whose terms are all positive.  The head is
    summed term by term in plain floats.
    """
    nus = [mu / top / top for mu in mus]
    has_tail = any(nus)
    moments = (0.5 * (r * r)) @ np.vander(r, _SERIES_TERMS, increasing=True)
    moments[:_TAIL_TERMS] += nus
    series = [(m + 1) / (m + 2) * v
              for m, v in enumerate(moments.tolist())][::-1]
    g_tail = nus[::-1]
    big_g_tail = [v / (m + 2) for m, v in enumerate(nus)][::-1]
    terms = [(0.5 * (rk * rk), rk, 1.0 - rk) for rk in r.tolist()]

    def slope(u: float, e: float) -> tuple[float, float]:
        # (g(u), e^2 g'(u)) with e = 1 - u; the factor e^2 keeps the
        # derivative finite deep in the tail, where g'(u) ~ 1/(2 e^2).
        g = ge2 = 0.0
        for hk, _, dk in terms:
            q = 1.0 / (e + u * dk)
            eq = e * q
            g += hk * q
            ge2 += hk * eq * eq
        g *= u
        if has_tail:
            p = dp = 0.0
            for nu in g_tail:
                dp = dp * u + p
                p = p * u + nu
            g += u * p
            ge2 += (p + u * dp) * e * e
        return g, ge2

    def big_g(u: float, e: float) -> float:
        # G(u) with e = 1 - u; log(1 - u r_k) is log1p(-u r_k) up to 1/2
        # and log(e + u (1 - r_k)) above, where 1 - u r_k is the gap.
        total = 0.0
        for _, rk, dk in terms:
            y = u * rk
            total += (math.log1p(-y) if y <= 0.5
                      else math.log(e + u * dk)) + y
        value = -0.5 * total
        if has_tail:
            p = 0.0
            for v in big_g_tail:
                p = p * u + v
            value += u * u * p
        return value

    def legendre(x: float) -> float:
        xp = x / top
        if not xp < math.inf:
            return math.inf
        u, e = xp / (0.5 + xp), 0.5 / (0.5 + xp)
        if xp > _NEWTON_XMAX:
            # The start's u is within 1e-300 (times the multiplicity of
            # top) of the root, and the value is stationary in u.
            return (xp * u - big_g(u, e)) / c
        g, ge2 = slope(u, e)
        for _ in range(_NEWTON_MAXITER):
            step = (g - xp) * e * (e / ge2)
            if not step > 0.0:
                break
            u_next, e_next = u - step, e + step
            if not u_next > 0.0 or (u_next == u and e_next == e):
                break
            u, e = u_next, e_next
            g, ge2 = slope(u, e)
        if u <= _SERIES_U:
            p = 0.0
            for v in series:
                p = p * u + v
            return (u * (xp - g) + u * u * p) / c
        return (xp * u - big_g(u, e)) / c

    return legendre


def quad_wiener_bound(spec: QuadraticSpec, lip_c: float = 1.0,
                      form: str = "exact_h",
                      target: str = "lipschitz") -> TailBound:
    """Upper deviation bounds for quadratic Wiener vectors.

    target="lipschitz" bounds P(g(F) - E[g(F)] >= x) for l1-Lipschitz(c)
    g; target="sup" bounds the deviation of max_i J_2^i (Lipschitz
    constant forced to 1, only positive eigenvalues drive the rate).

    form="exact_h"   engine bound for
                     h(t) = (1/2) sum_{i,k} c t (a_k^i)^2 / (1 - c t |a_k^i|)
                     on [0, 1/(c a));  a -> a_+ and positive eigenvalues
                     only under target="sup".  The eigenvalues with
                     |a_k| > a/64 (the head) are summed term by term; the
                     rest (the tail) add c t sum_{m<10} mu_m (c t a)^m,
                     mu_m = sum_tail (a_k^2/2)(|a_k|/a)^m fixed at build
                     time, which leaves out under 64^-10/(1 - 1/64)
                     ~ 9e-19 of the tail sum.  A spectrum with no tail
                     gives the direct sum's floats.  The h carries its
                     Legendre transform in closed form, h.legendre: with
                     u = c t a and x' = x/a, Newton's method solves
                     h/a = g(u) = x' from the right, starting at
                     u0 = 2x'/(1 + 2x') where the top term alone reaches
                     x', and carries the gap 1 - u beside u; the exponent
                     is (x' u - G(u))/c with G(u) = (1/2) sum_head
                     [-log(1 - u |a_k|/a) - u |a_k|/a] plus the tail
                     series' antiderivative (see _quad_legendre).  No
                     quadrature, and no tolerance that depends on scale.
    form="log_form"  exp(-x/(ac) + (2S/(a^2 c)) log(1 + a x/(2S))) with
                     S = sum_i ||f_2^i||^2, evaluated through the
                     scale-free ratio r = S/a^2 = (1/4) sum (a_k^i/a)^2,
                     so that eigenvalues near the float limit stay finite.
    form="min_form"  exp(-(1/c)(1 - log(3)/2) min(x/a, x^2/(4S))).

    Pointwise: exact_h <= log_form <= min_form on the common range.
    """
    if form not in ("exact_h", "log_form", "min_form"):
        raise OutOfRange(f"unknown form {form!r}")
    if target not in ("lipschitz", "sup"):
        raise OutOfRange(f"unknown target {target!r}")
    if target == "sup":
        c = 1.0
        a = spec.a_plus
        if not (a > 0.0):
            raise EmptySpectrum("sup target needs a positive eigenvalue")
    else:
        c = float(lip_c)
        if not (c > 0.0):
            raise InvalidProfile(f"lip_c must be > 0, got {lip_c!r}")
        a = spec.a_max
        if not (a > 0.0):
            raise EmptySpectrum("all eigenvalues vanish")
    S = spec.f2_total
    meta = {"a": a, "S": S, "lip_c": c, "target": target,
            "transform": "value"}

    if form == "exact_h":
        flat = spec._flat
        if target == "sup":
            flat = flat[flat > 0.0]
        ab = np.abs(flat)
        top = a
        head = ab > top / _TAIL_RATIO
        ab_head = ab[head]
        half_sq = 0.5 * (ab_head * ab_head)
        pairs = (tuple(zip(half_sq.tolist(), ab_head.tolist()))
                 if ab_head.size < _PAIRWISE_SUM_MIN else None)
        # Tail moments mu_m = sum (a_k^2/2) (|a_k|/top)^m, m < _TAIL_TERMS;
        # the ratio is at most 1/64, so no power overflows at any scale.
        tail = ab[~head]
        has_tail = tail.size > 0
        mus = [0.0] * _TAIL_TERMS
        if has_tail:
            ratio = tail / top
            terms = 0.5 * (tail * tail)
            for m in range(_TAIL_TERMS):
                mus[m] = float(np.add.reduce(terms))
                terms *= ratio
        m0, m1, m2, m3, m4, m5, m6, m7, m8, m9 = mus

        def ev(t: float) -> float:
            # (1/2) sum a_k^2 / (1/(ct) - |a_k|) over the head, in plain
            # floats for a short one, else in one vector pass (np.add.reduce
            # is ndarray.sum without its Python wrapper); both give the same
            # float.  Every gap is at least 1/(ct) - top: h is +inf where
            # rounding near t_end closes that, and 0, as the direct sum
            # gives, where ct underflows or 1/(ct) overflows.
            ct = c * t
            inv = 1.0 / ct if ct > 0.0 else math.inf
            if not inv < math.inf:
                return 0.0
            if not inv > top:
                return math.inf
            if pairs is None:
                total = float(np.add.reduce(half_sq / (inv - ab_head)))
            else:
                total = 0.0
                for hs, ak in pairs:
                    total += hs / (inv - ak)
            if not has_tail:
                return total
            # The tail's ct sum_m mu_m u^m by Horner's rule, unrolled: the
            # loop over the ten terms cost a fifth of the call.
            u = ct * top
            return total + ct * (m0 + u * (m1 + u * (m2 + u * (m3 + u * (
                m4 + u * (m5 + u * (m6 + u * (m7 + u * (m8 + u * m9)))))))))

        h = HFunction(eval_fn=ev, t_end=1.0 / (c * a), h_sup=math.inf,
                      name=f"quad_h[{target}]",
                      legendre=_quad_legendre(ab_head / top, mus, top, c))
        base = tail_bound_from_h(h)
        return replace(base, name=f"quad_wiener[exact_h,{target}]",
                       meta={**meta, "h": h})

    if form == "log_form":
        r = 0.25 * sum((v / a) * (v / a) for comp in spec.eigs_per_component
                       for v in comp)

        def raw(x: float) -> float:
            return math.exp(-x / (a * c)
                            + (2.0 * r / c) * math.log1p(x / a / (2.0 * r)))

        fn = _guard(0.0, math.inf, "quad_wiener", raw)
        return TailBound(name=f"quad_wiener[log_form,{target}]", fn=fn,
                         center="mean", regime_fn=lambda x: "log_form",
                         meta=meta)

    c0 = 1.0 - math.log(3.0) / 2.0

    def raw(x: float) -> float:
        return math.exp(-(c0 / c) * min(x / a, x * x / (4.0 * S)))

    def regime(x: float) -> str:
        return "quadratic" if x * x / (4.0 * S) <= x / a else "linear"

    fn = _guard(0.0, math.inf, "quad_wiener", raw)
    return TailBound(name=f"quad_wiener[min_form,{target}]", fn=fn,
                     center="mean", regime_fn=regime,
                     meta={**meta, "constant": c0})


def quad_wiener_lower(spec: QuadraticSpec | None = None, b: float = 0.5,
                      target: str = "inf_norm", T: float | None = None,
                      n: int | None = None) -> TailBound:
    """Asymptotic lower bounds on sup-norm tails.

    target="inf_norm"  P(|(J_2^1..J_2^n)|_inf >= x)
                         >= ((1-b)/(2x)) sum_i a^i e^{-x/a^i},
                       a^i = max_k |a_k^i|;
    target="sup"       same with the positive radii a_+^i (components
                       without positive eigenvalues drop out);
    target="area"      P(|(S^1..S^n)|_inf >= x) >= (1-b) n T e^{-pi x/T}/(2 pi x)
                       for n i.i.d. stochastic areas on [0, T].

    Each holds for x beyond some unspecified threshold x_b.  valid_lo is a
    soft stand-in (smallest x with bound <= 1/4); audits must stay beyond
    meta["audit_lo"] = 2 * valid_lo, and values below that are
    informational only.
    """
    if not (0.0 < b < 1.0):
        raise OutOfRange(f"b must lie in (0, 1), got {b!r}")
    if target in ("inf_norm", "sup"):
        if spec is None:
            raise InvalidProfile(f"target {target!r} needs a QuadraticSpec")
        rates = (spec.component_a if target == "inf_norm"
                 else spec.component_a_plus)
        rates = [r for r in rates if r > 0.0]
        if not rates:
            raise EmptySpectrum("no usable eigenvalue in any component")

        def raw(x: float) -> float:
            return ((1.0 - b) / (2.0 * x)
                    * sum(r * math.exp(-x / r) for r in rates))

        scale = max(rates)
    elif target == "area":
        if T is None or not (T > 0.0):
            raise InvalidProfile("target 'area' needs T > 0")
        n = 1 if n is None else int(n)
        if n < 1:
            raise InvalidProfile(f"n must be >= 1, got {n!r}")

        def raw(x: float) -> float:
            return ((1.0 - b) * n * T * math.exp(-math.pi * x / T)
                    / (2.0 * math.pi * x))

        scale = T
    else:
        raise OutOfRange(f"unknown target {target!r}")

    # The expression decreases strictly on (0, inf): solve raw(x) = 1/4.
    threshold = models._bracket_root(lambda x: 0.25 - raw(x), scale, failure=(
        OutOfRange("quad_lower: never falls to 1/4")))
    fn = _guard(0.0, math.inf, "quad_lower", raw)
    return TailBound(name=f"quad_lower[{target}]", fn=fn, center="mean",
                     direction="lower", valid_lo=threshold,
                     regime_fn=lambda x: "asymptotic",
                     meta={"b": b, "soft_threshold": threshold,
                           "audit_lo": 2.0 * threshold,
                           "transform": "abs_inf"})


def quad_euclid_iid_bound(spec: QuadraticSpec, b: float = 0.5) -> TailBound:
    """Euclidean-norm bound for an i.i.d. quadratic Wiener vector.

    P(|F|_2 >= 2 E|F|_2 + x) <= exp(-(1-b) x / a + K_b) for all x > 0,
    sharpening to exp(-(1-b) x / a) once x >= (2a/b) K_{b/2}, with

      K_b = -(16 ||f_2||^2 / a^2) log b
            - 8 ||f_2||^2 (2/a^2 + 1/mean_abs^2) (1 - b)
            + (4 ||f_2||^2 / mean_abs^2) (1 - b^2) / b^2,

    ||f_2||^2 and a taken from one component, mean_abs = E|J_2(f_2)|
    (single component; the constant is dimension free).
    """
    if not (0.0 < b < 1.0):
        raise OutOfRange(f"b must lie in (0, 1), got {b!r}")
    if spec.mean_abs is None:
        raise MissingEstimate("mean_abs = E|J_2(f_2)| must be estimated")
    norms = spec.f2_norms
    radii = spec.component_a
    if any(abs(v - norms[0]) > 1e-9 * max(norms[0], 1e-300) for v in norms) \
            or any(abs(r - radii[0]) > 1e-9 * max(radii[0], 1e-300)
                   for r in radii):
        raise InvalidProfile("components must be identically distributed")
    fsq = norms[0]
    a = radii[0]
    if not (a > 0.0):
        raise EmptySpectrum("all eigenvalues vanish")
    m2 = spec.mean_abs * spec.mean_abs

    def K_of(bb: float) -> float:
        return (-(16.0 * fsq / (a * a)) * math.log(bb)
                - 8.0 * fsq * (2.0 / (a * a) + 1.0 / m2) * (1.0 - bb)
                + (4.0 * fsq / m2) * (1.0 - bb * bb) / (bb * bb))

    return _twice_mean_norm_bound(
        "quad_euclid_iid", "quad_euclid", K_of, b, rate=(1.0 - b) / a,
        x_unit=2.0 * a / b,
        meta={"b": b, "a": a, "f2_sq": fsq, "mean_abs": spec.mean_abs})


# ----------------------------------------------------------------------
# Levy's stochastic area
# ----------------------------------------------------------------------

def levy_area_bound(T: float, n: int = 1, lip_c: float = 1.0,
                    b: float | None = None, variant: str = "lipschitz",
                    mean_abs: float | None = None) -> TailBound:
    """Tail bounds for vectors of planar Brownian stochastic areas on [0,T].

    variant="lipschitz":  for l1-Lipschitz(c) g,
        P(g(S^1..S^n) - E[g] >= x)
          <= (1 + pi x/(4 n c T))^{4n} exp(-pi x/(c T)),  x > 0.
    variant="euclid":  P(|S|_2 >= 2 E|S|_2 + x) <= exp(-(1-b) pi x/T + K_b)
        for all x > 0, sharpening to exp(-(1-b) pi x/T) once
        x >= (2T/(pi b)) K_{b/2}, with
        K_b = -32 log b - 32 (1-b) + (16 T^2/(pi^2 mean_abs^2)) (1-b)^2/b^2,
        mean_abs = E|S^1_T| (single component; K_b is dimension free).

    The exact tail slope -pi/T is ``asymptotic_slope("area", T)``.
    """
    if not (T > 0.0):
        raise InvalidProfile(f"T must be > 0, got {T!r}")
    if n < 1:
        raise InvalidProfile(f"n must be >= 1, got {n!r}")

    if variant == "lipschitz":
        c = float(lip_c)
        if not (c > 0.0):
            raise InvalidProfile(f"lip_c must be > 0, got {lip_c!r}")
        coef = math.pi / (4.0 * n * c * T)
        rate = math.pi / (c * T)

        def raw(x: float) -> float:
            return math.exp(4.0 * n * math.log1p(coef * x) - rate * x)

        fn = _guard(0.0, math.inf, "levy_area", raw)
        return TailBound(name="levy_area[lipschitz]", fn=fn, center="mean",
                         regime_fn=lambda x: "lipschitz",
                         meta={"T": T, "n": n, "lip_c": c,
                               "transform": "value"})

    if variant != "euclid":
        raise OutOfRange(f"unknown variant {variant!r}")
    if b is None or not (0.0 < b < 1.0):
        raise OutOfRange(f"euclid variant needs b in (0, 1), got {b!r}")
    if mean_abs is None:
        raise MissingEstimate("mean_abs = E|S^1_T| must be estimated")
    if not (mean_abs > 0.0):
        raise InvalidProfile(f"mean_abs must be > 0, got {mean_abs!r}")
    m2 = mean_abs * mean_abs

    def K_of(bb: float) -> float:
        return (-32.0 * math.log(bb) - 32.0 * (1.0 - bb)
                + (16.0 * T * T / (math.pi ** 2 * m2))
                * (1.0 - bb) ** 2 / (bb * bb))

    return _twice_mean_norm_bound(
        "levy_area[euclid]", "levy_area", K_of, b,
        rate=(1.0 - b) * math.pi / T, x_unit=2.0 * T / (math.pi * b),
        meta={"T": T, "n": n, "b": b, "mean_abs": mean_abs})


# ----------------------------------------------------------------------
# Median-centered bounds (infinite-variance framework)
# ----------------------------------------------------------------------

def id_lower_bound(model, x: float) -> float:
    """One-jump lower bound (1/4)(1 - e^{-nu(|y| >= 2x)}).

    Lower-bounds P(||F - m|| >= x) for any norm and any median m of the
    infinitely divisible vector F with Levy measure nu.
    """
    if not (x > 0.0):
        raise OutOfRange(f"x must be > 0, got {x!r}")
    return 0.25 * (-math.expm1(-models.tail_mass(model, 2.0 * x)))


def id_lower_curve(model) -> TailBound:
    """id_lower_bound packaged for the verification pipeline."""
    fn = _guard(0.0, math.inf, "id_lower",
                lambda x: id_lower_bound(model, x))
    return TailBound(name="id_lower", fn=fn, center="median",
                     direction="lower", regime_fn=lambda x: "one_jump",
                     meta={"transform": "abs"})


def median_bound_general(model, beta_fn, C: float) -> TailBound:
    """General median deviation bound from a growth function beta.

    Under the usual local-Lipschitz hypotheses (the caller's
    responsibility; they are recorded, not checked),

        P(F - m(F) >= x) <= (1 + C e) gamma(beta^{-1}(x/4)),

    valid for x >= 2 beta(gamma^{-1}(1/(2(1 + C e)))), where gamma is the
    model's envelope for the probability of a jump outside B(0, R) and
    beta_fn is nondecreasing; beta^{-1} is solved by bracketing.
    Evaluation below valid_lo raises OutOfRange.
    """
    if not (C > 0.0):
        raise InvalidProfile(f"C must be > 0, got {C!r}")
    one_plus = 1.0 + C * _E

    r0 = models.inverse_gamma(model, 1.0 / (2.0 * one_plus))
    valid_lo = 2.0 * beta_fn(r0)

    def raw(x: float) -> float:
        u = x / 4.0
        r = models._bracket_root(lambda r: beta_fn(r) - u, 1.0, failure=(
            OutOfRange(f"median_bound_general: cannot bracket level {u!r}")))
        # beta^{-1}(u) = 0 where beta(0+) >= u: the bound is vacuous.
        return one_plus * models.gamma_envelope(model, r) if r else math.inf

    fn, regime = _clamped(_guard(valid_lo, math.inf,
                                 "median_bound_general", raw), "envelope")
    return TailBound(name="median_envelope", fn=fn, center="median",
                     valid_lo=valid_lo, regime_fn=regime,
                     meta={"C": C, "transform": "value"})


def median_bound_linear(model, C: float, C_prime: float) -> TailBound:
    """Median bound for linear growth beta(R) = C' R, with the exact
    overshoot probability gamma(R) = 1 - e^{-nu(|y| > R)}:

        P(F - m(F) >= x) <= (1 + C e / C'^2) gamma(x/(4 C')),

    valid for x >= 2 C' gamma^{-1}(1/(2(1 + e C/C'^2))).
    """
    if not (C > 0.0 and C_prime > 0.0):
        raise InvalidProfile("C and C_prime must be > 0")
    one_plus = 1.0 + C * _E / (C_prime * C_prime)

    def gamma_exact(R: float) -> float:
        return -math.expm1(-models.tail_mass(model, R))

    # Generalized inverse: R with nu(|y| > R) = -log(1 - q), or 0.0 (and
    # valid_lo = 0) when the total mass stays below that level.
    q = 1.0 / (2.0 * one_plus)
    target = -math.log1p(-q)
    r0 = models._bracket_root(
        lambda r: target - models.tail_mass(model, r), 1.0,
        failure=OutOfRange(f"median_linear: tail mass stays above {target!r}"))
    valid_lo = 2.0 * C_prime * r0

    def raw(x: float) -> float:
        return one_plus * gamma_exact(x / (4.0 * C_prime))

    fn, regime = _clamped(_guard(valid_lo, math.inf,
                                 "median_bound_linear", raw), "exact_gamma")
    return TailBound(name="median_linear", fn=fn, center="median",
                     valid_lo=valid_lo, regime_fn=regime,
                     meta={"C": C, "C_prime": C_prime,
                           "transform": "value"})


# ----------------------------------------------------------------------
# Two-regime (Gaussian / Poissonian) bounds
# ----------------------------------------------------------------------

def _two_regime(K: float, denom: float, x0: float, gauss_coef: float,
                pois_alpha2: float, variant: str, s0: float) -> TailBound:
    """Assemble the two branches; K0 glues them continuously at x0.

    K0 is carried as its log, which can pass the float range (2 868 at
    K = 1, alpha2 = 100, alpha3 = 1) while the glued value stays tiny;
    meta["K0"] is then +inf."""
    log_K0 = (-x0 * x0 / (gauss_coef * denom)
              - _bennett_exponent(K, pois_alpha2, x0))
    K0 = math.exp(log_K0) if log_K0 < _LOG_FLOAT_MAX else math.inf

    def raw(x: float) -> float:
        if x <= x0:
            return math.exp(-x * x / (gauss_coef * denom))
        return min(1.0, math.exp(log_K0
                                 + _bennett_exponent(K, pois_alpha2, x)))

    fn = _guard(0.0, math.inf, "two_regime", raw)
    return TailBound(
        name=f"two_regime[{variant}]", fn=fn, center="mean",
        regime_fn=lambda x: "gaussian" if x <= x0 else "poisson",
        meta={"s0": s0, "x0": x0, "K0": K0, "log_K0": log_K0,
              "variant": variant,
              "transform": "value"})


def two_regime_bound(K: float, alpha2: float, alpha3: float | None = None,
                     alpha4: float | None = None,
                     variant: str = "third_moment") -> TailBound:
    """Gaussian bound below a crossover x0, Poissonian above it.

    variant="third_moment" (needs K alpha2 >= 2 alpha3):
        s0 solves (e^{sK} - 1)/(sK) = K alpha2/alpha3 - 1,
        x0 = 2 s0 (alpha2 - alpha3/K);
        x <= x0:  exp(-x^2 / (4 (alpha2 - alpha3/K))),
        x >= x0:  K0 exp(x/K - (x/K + 2 alpha3/K^3) log(1 + K^2 x/(2 alpha3))).

    variant="fourth_moment" (needs alpha3 <= 2 alpha4/K and
                             K^2 alpha2/alpha4 >= 2):
        s0 solves s (alpha2 - alpha4/K^2) = (alpha4/K^3)(e^{sK} - 1),
        x0 = 3 s0 (alpha2 - alpha4/K^2);
        x <= x0:  exp(-x^2 / (6 (alpha2 - alpha4/K^2))),
        x >= x0:  K0 exp(x/K - (x/K + 3 alpha4/K^4) log(1 + K^3 x/(3 alpha4))).

    K0 is chosen so the two branches agree at x0 exactly.  Parameter sets
    within 1e-6 relative of the binding inequality are rejected (s0 is
    ill-conditioned at the boundary).
    """
    if not (K > 0.0):
        raise PreconditionViolated(f"K must be > 0, got {K!r}")
    if not (alpha2 > 0.0):
        raise PreconditionViolated(f"alpha2 must be > 0, got {alpha2!r}")

    if variant == "third_moment":
        if alpha3 is None or not (alpha3 > 0.0):
            raise PreconditionViolated(
                f"variant 'third_moment' needs alpha3 > 0, got {alpha3!r}")
        if K * alpha2 < 2.0 * alpha3 * (1.0 + _BOUNDARY_MARGIN):
            raise PreconditionViolated(
                f"K*alpha2 >= 2*alpha3 fails or is within {_BOUNDARY_MARGIN}"
                f" of the boundary: K*alpha2={K * alpha2!r},"
                f" 2*alpha3={2.0 * alpha3!r}")
        rhs = K * alpha2 / alpha3 - 1.0

        def g(s: float) -> float:
            return math.expm1(s * K) / (s * K) - rhs

        denom = alpha2 - alpha3 / K
        # s0 is g's positive root: g increases from g(0+) = 1 - rhs < 0,
        # so the search never returns its generalized inverse 0.0.
        s0 = models._bracket_root(g, 1.0 / K, failure=PreconditionViolated(
            "crossover equation has no root"))
        return _two_regime(K, denom, 2.0 * s0 * denom, 4.0,
                           2.0 * alpha3 / K, variant, s0)

    if variant != "fourth_moment":
        raise OutOfRange(f"unknown variant {variant!r}")
    if alpha4 is None or not (alpha4 > 0.0):
        raise PreconditionViolated(
            f"variant 'fourth_moment' needs alpha4 > 0, got {alpha4!r}")
    if alpha3 is None or not (alpha3 > 0.0):
        raise PreconditionViolated(
            f"variant 'fourth_moment' needs alpha3 > 0 for its"
            f" precondition, got {alpha3!r}")
    if alpha3 > 2.0 * alpha4 / K:
        raise PreconditionViolated(
            f"alpha3 <= 2*alpha4/K fails: alpha3={alpha3!r},"
            f" 2*alpha4/K={2.0 * alpha4 / K!r}")
    if K * K * alpha2 / alpha4 < 2.0 * (1.0 + _BOUNDARY_MARGIN):
        raise PreconditionViolated(
            f"K^2*alpha2/alpha4 >= 2 fails or is within"
            f" {_BOUNDARY_MARGIN} of the boundary:"
            f" ratio={K * K * alpha2 / alpha4!r}")
    denom = alpha2 - alpha4 / (K * K)

    # Divided by s, so that g increases from g(0+) = alpha4/K^2 - denom < 0.
    def g(s: float) -> float:
        return (alpha4 / K ** 3) * math.expm1(s * K) / s - denom

    s0 = models._bracket_root(g, 1.0 / K, failure=PreconditionViolated(
        "crossover equation has no root"))
    return _two_regime(K, denom, 3.0 * s0 * denom, 6.0,
                       3.0 * alpha4 / (K * K), variant, s0)


# ----------------------------------------------------------------------
# Stable-law median bounds
# ----------------------------------------------------------------------

def stable_median_bound(spec: StableSpec, variant: str = "general",
                        epsilon: float | None = None,
                        b: float | None = None) -> TailBound:
    """Median deviation bounds for l2-Lipschitz(c) functions of a radial
    alpha-stable vector (sigma = total spherical mass).

    variant="general"    (1 + 2e/(2-alpha)) (sigma/alpha) (x/(4c))^{-alpha},
                         x >= 2c gamma^{-1}(1/(2(1 + 2e/(2-alpha)))):
                         median_bound_general specialized to the stable
                         envelope.
    variant="uniform"    sigma (3e^2/2 + 1/alpha) (4c)^alpha x^{-alpha};
                         constant bounded uniformly in alpha, range per
                         its own threshold.
    variant="sharp"      sigma (1 + e^2/2) (4c)^alpha x^{-alpha}; needs
                         alpha >= 1.
    variant="near2_exp"  (eps + sqrt(e)) exp(-(2-alpha) x^alpha /
                         (2 (4c)^alpha sigma)) on an interval that is
                         nonempty only for alpha extremely close to 2;
                         an empty range is reported in meta, not thrown.
    variant="near2_log"  a single-point evaluation at
                         x* = 4 b c sigma log(1/(2-alpha))/(2-alpha),
                         b > 3, alpha > 1.

    All curves evaluate (clamped at 1, regime "vacuous") at any x > 0;
    validity endpoints live in valid_lo/valid_hi.
    """
    alpha = spec.alpha
    sigma = spec.sigma_total
    c = spec.lip_c
    u = 2.0 - alpha
    inv_alpha = 1.0 / alpha

    if variant == "general":
        C = 2.0 / u
        one_plus = 1.0 + C * _E
        model = models.Stable(alpha=alpha, sigma_total=sigma)
        valid_lo = 2.0 * c * models.inverse_gamma(
            model, 1.0 / (2.0 * one_plus))

        def raw(x: float) -> float:
            return one_plus * models.gamma_envelope(model, x / (4.0 * c))

        fn, regime = _clamped(_guard(0.0, math.inf, "stable", raw),
                              "power_tail")
        return TailBound(name="stable[general]", fn=fn, center="median",
                         valid_lo=valid_lo, regime_fn=regime,
                         meta={"C": C, "transform": "value"})

    if variant in ("uniform", "sharp"):
        if variant == "sharp":
            if alpha < 1.0:
                raise PreconditionViolated(
                    f"variant 'sharp' needs alpha >= 1, got {alpha!r}")
            const = sigma * (1.0 + _E ** 2 / 2.0) * (4.0 * c) ** alpha
            L = math.log(1.0 / u)
            bracket = (1.0 + (2.0 / u) * L) * math.log1p((4.0 / u) * L)
            base = max(bracket, 4.0 * _E ** 2)
        else:
            const = sigma * (1.5 * _E ** 2 + inv_alpha) * (4.0 * c) ** alpha
            L = math.log(2.0 / u)
            bracket = 1.5 * (1.0 + (4.0 / u) * L) \
                * math.log1p((8.0 / u) * L)
            base = max(bracket, 4.0 * inv_alpha, 6.0 * _E ** 2)
        valid_lo = 4.0 * c * sigma ** inv_alpha * base ** inv_alpha

        def raw(x: float) -> float:
            return const * x ** (-alpha)

        fn, regime = _clamped(_guard(0.0, math.inf, "stable", raw),
                              "power_tail")
        return TailBound(name=f"stable[{variant}]", fn=fn, center="median",
                         valid_lo=valid_lo, regime_fn=regime,
                         meta={"constant": const, "transform": "value"})

    if variant == "near2_exp":
        if epsilon is None or not (epsilon > 0.0):
            raise OutOfRange(
                f"variant 'near2_exp' needs epsilon > 0, got {epsilon!r}")
        A = (4.0 * c) ** alpha * sigma
        lo_pow = (2.0 * A / u) * math.log(4.0 * (1.0 + math.sqrt(_E)))
        hi_pow = A * math.log(1.0 / u) / (2.0 * u * (3.0 - alpha))
        valid_lo = lo_pow ** inv_alpha
        valid_hi = hi_pow ** inv_alpha if hi_pow > 0.0 else 0.0
        coef = epsilon + math.sqrt(_E)

        def raw(x: float) -> float:
            return coef * math.exp(-u * x ** alpha / (2.0 * A))

        fn, regime = _clamped(_guard(0.0, math.inf, "stable", raw),
                              "stretched_exp")
        meta = {"epsilon": epsilon, "transform": "value"}
        if not (valid_lo < valid_hi):
            meta["empty_range"] = True
        return TailBound(name="stable[near2_exp]", fn=fn, center="median",
                         valid_lo=valid_lo, valid_hi=valid_hi,
                         regime_fn=regime, meta=meta)

    if variant != "near2_log":
        raise OutOfRange(f"unknown variant {variant!r}")
    if b is None or not (b > 3.0):
        raise PreconditionViolated(
            f"variant 'near2_log' needs b > 3, got {b!r}")
    if not (alpha > 1.0):   # x* > 0 needs log(1/(2 - alpha)) > 0
        raise PreconditionViolated(
            f"variant 'near2_log' needs alpha > 1, got {alpha!r}")
    if epsilon is None or not (epsilon > 0.0):
        raise OutOfRange(
            f"variant 'near2_log' needs epsilon > 0, got {epsilon!r}")
    x_star = 4.0 * b * c * sigma * math.log(1.0 / u) / u
    A = (4.0 * c) ** alpha * sigma
    w = math.log(1.0 / u) / u                     # u^{-1} log u^{-1}
    g_val = w * math.log(w)
    ratio = A / x_star ** alpha
    value = ratio * (inv_alpha
                     + (2.0 + epsilon) * math.exp((2.0 + epsilon)
                                                  * ratio * g_val))
    lo = x_star * (1.0 - 1e-9)
    hi = x_star * (1.0 + 1e-9)
    fn, regime = _clamped(_guard(lo, hi, "stable", lambda x: value),
                          "point")
    return TailBound(name="stable[near2_log]", fn=fn, center="median",
                     valid_lo=lo, valid_hi=hi, regime_fn=regime,
                     meta={"point": x_star, "value_raw": value,
                           "epsilon": epsilon, "b": b,
                           "transform": "value"})


# ----------------------------------------------------------------------
# Exact asymptotic slopes
# ----------------------------------------------------------------------

def asymptotic_slope(kind: str, spec) -> float:
    """Exact limit of log P(tail >= x)/x as x -> inf.

    kind="quad"      -1/a   (a = overall spectral radius),
    kind="quad_sup"  -1/a_+ (positive spectral radius),
    kind="area"      -pi/T  (spec is T, a LevyArea model, or anything
                     with a .T attribute).
    """
    if kind in ("quad", "quad_sup"):
        a_max, a_plus = _spectral_radii(spec)
        a = a_max if kind == "quad" else a_plus
        if not (a > 0.0):
            raise EmptySpectrum(
                "no usable eigenvalue for the requested slope")
        return -1.0 / a
    if kind == "area":
        T = getattr(spec, "T", spec)
        T = float(T)
        if not (T > 0.0):
            raise InvalidProfile(f"T must be > 0, got {T!r}")
        return -math.pi / T
    raise OutOfRange(f"unknown kind {kind!r}")
