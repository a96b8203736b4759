"""Chernoff/Legendre machinery for h-function deviation bounds.

A nondecreasing "h-function" h with h(0) = 0 encodes a deviation inequality

    P(F - E[F] >= x) <= exp( - int_0^x h^{-1}(s) ds ),   0 < x < h(t_end-),

where h^{-1}(s) = inf{t > 0 : h(t) >= s} is the left-continuous inverse.
The same exponent arises as the Chernoff infimum

    inf_{0 < t < t_end} ( int_0^t h(u) du - t x ),

and the two routes are kept numerically independent here (pointwise
inversion + quadrature of h^{-1} on one side; root of h(t) = x + quadrature
of h on the other) so that their agreement is a genuine cross-check.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import NonMonotone, OutOfRange, QuadratureFailure

# Tolerances fixed by contract.
_INVERT_XTOL = 1e-15
_INVERT_RTOL = 1e-12
_MONOTONE_SLACK = 1e-9
# Internal quadrature target. Tighter than the contractual 1e-9 so that
# downstream identities (duality at 1e-7 absolute-in-exponent, closed-form
# cross-checks at 1e-8 on bound values) keep headroom even when the
# exponent itself is ~40.
_QUAD_REL_TOL = 1e-11
# Absolute-tolerance floor: the consumer of the entropy integral is
# exp(-I), so an absolute error of 1e-14 in I is a 1e-14 relative error
# on the bound -- far inside every contract.  Without the floor, tiny
# integrals (I ~ x^2 for x -> 0) would demand tolerances below the noise
# floor of the brentq-computed integrand and the quadrature could never
# converge.
_QUAD_ABS_FLOOR = 1e-14
_MAX_EVALS = 2 ** 20
_BRACKET_T0 = 1e-12
# Bracket-memo size cap (see _InverseEvaluator): insort is O(n) per
# insert, so an unbounded memo would degrade pathological quadratures
# from linear to quadratic cost.
_MEMO_CAP = 20000


@dataclass(frozen=True)
class HFunction:
    """A nondecreasing function h on [0, t_end) with h(0) = 0.

    h_sup is the left limit h(t_end-); it bounds the range of validity of
    the induced tail bound. Both t_end and h_sup may be +inf.
    """

    eval_fn: Callable[[float], float]
    t_end: float = math.inf
    h_sup: float = math.inf
    name: str = "h"

    def __call__(self, t: float) -> float:
        return float(self.eval_fn(t))


@dataclass(frozen=True)
class TailBound:
    """A one-sided deviation bound x -> P(deviation >= x) <= fn(x).

    center tags what the deviation is measured from ("mean",
    "shifted_mean", or "median"); direction is "upper" or "lower".
    fn may raise OutOfRange outside (valid_lo, valid_hi); evaluate_grid
    flags such points instead. regime_fn labels which expression/regime
    produced the value at x (constant label for single-regime bounds).
    meta carries auxiliary information for verification (e.g. the shift
    added to the center, or transform="abs" for norm-type bounds).
    grid_fn, when set, evaluates an array of in-range points at once
    (NaN where a point fails); engine-backed bounds use it to share one
    entropy integral across the grid. Without it, fn runs point by point.
    """

    name: str
    fn: Callable[[float], float]
    center: str = "mean"
    direction: str = "upper"
    valid_lo: float = 0.0
    valid_hi: float = math.inf
    regime_fn: Callable[[float], str] | None = None
    meta: dict = field(default_factory=dict)
    grid_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def regime(self, x: float) -> str:
        return self.regime_fn(x) if self.regime_fn is not None else self.name

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def evaluate_grid(self, xs: Sequence[float]):
        """Evaluate on a grid, never raising for out-of-range points.

        Returns (bound, regime, valid) arrays/lists of the grid's length.
        Points outside the range, points whose pointwise evaluation raises
        OutOfRange or an ArithmeticError (a division by zero or an overflow
        inside the formula), and points whose value is not a finite number in
        [0, 1] get the trivial value (1 for upper bounds, 0 for lower
        bounds), regime "out_of_range" and valid=False.
        """
        xs = np.asarray(xs, dtype=float)
        inside = (self.valid_lo < xs) & (xs < self.valid_hi)
        out = np.full(xs.size, np.nan)
        if self.grid_fn is not None:
            out[inside] = self.grid_fn(xs[inside])
        else:
            for i in np.flatnonzero(inside):
                with suppress(OutOfRange, ArithmeticError):
                    out[i] = self.fn(float(xs[i]))
        valid = inside & np.isfinite(out) & (out >= 0.0) & (out <= 1.0)
        out[~valid] = 1.0 if self.direction == "upper" else 0.0
        regimes = [self.regime(float(x)) if ok else "out_of_range"
                   for x, ok in zip(xs, valid)]
        return out, regimes, valid


# ----------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (hand-rolled by design: failures must
# be explicit, and the entropy integral must not share scipy code paths
# with anything it is cross-checked against).
# ----------------------------------------------------------------------

# Kronrod 15-point rule on [-1, 1] (Kronrod 1965; QUADPACK qk15): nodes
# +-_K15_X[j] with weights _K15_W[j]; the odd j are the 7-point Gauss
# nodes, with weights _G7_W. Mirrored below into 15 ascending nodes.
_K15_X = (0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
          0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
          0.207784955007898468, 0.0)
_K15_W = (0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
          0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
          0.204432940075298892, 0.209482141084727828)
_G7_W = (0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
         0.417959183673469388)
_K15_X = tuple(-x for x in _K15_X[:7]) + _K15_X[::-1]
_K15_W = _K15_W[:7] + _K15_W[::-1]
_G7_W = _G7_W[:3] + _G7_W[::-1]


def _gk15(f: Callable[[float], float], a: float, b: float):
    """The Kronrod-15 and Gauss-7 estimates of int_a^b f (15 evaluations)."""
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    fv = [f(c + r * x) for x in _K15_X]
    return (r * sum(w * v for w, v in zip(_K15_W, fv)),
            r * sum(w * v for w, v in zip(_G7_W, fv[1::2])))


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f on [a, b] to relative tolerance _QUAD_REL_TOL.

    The first K15 estimate on [a, b] sets the absolute tolerance
    _QUAD_REL_TOL * |estimate| + _QUAD_ABS_FLOOR. A panel is accepted when
    its K15 and G7 estimates agree within its tolerance (or it is narrower
    than 1e-15 (b - a)); otherwise it is bisected and each half gets half
    the tolerance. Raises QuadratureFailure once more than 2^20 integrand
    evaluations would be spent.
    """
    if b <= a:
        return 0.0
    k15, g7 = _gk15(f, a, b)
    min_width = 1e-15 * (b - a)
    evals = 15
    total = 0.0
    # stack entries: (a, b, K15, G7, tol); the left half is popped first so
    # that the integrand is swept left to right.
    stack = [(a, b, k15, g7, _QUAD_REL_TOL * abs(k15) + _QUAD_ABS_FLOOR)]
    while stack:
        a0, b0, k0, g0, tol0 = stack.pop()
        if abs(k0 - g0) <= tol0 or b0 - a0 <= min_width:
            total += k0
            continue
        evals += 30
        if evals > _MAX_EVALS:
            raise QuadratureFailure(
                f"adaptive Gauss-Kronrod exceeded {_MAX_EVALS} integrand "
                f"evaluations on [{a!r}, {b!r}]")
        m = 0.5 * (a0 + b0)
        stack.append((m, b0, *_gk15(f, m, b0), 0.5 * tol0))
        stack.append((a0, m, *_gk15(f, a0, m), 0.5 * tol0))
    return total


# ----------------------------------------------------------------------
# Inversion
# ----------------------------------------------------------------------

class _InverseEvaluator:
    """Pointwise h^{-1} with bracket memoization.

    Successive queries (as issued by adaptive quadrature) are strongly
    clustered, so remembering every solved pair (s, t) and bracketing new
    queries between the nearest solved neighbours makes each brentq call
    converge in a handful of iterations. Results are identical to cold
    invert_h calls: same root problem, same tolerances.
    """

    def __init__(self, h: HFunction):
        self.h = h
        self._s: list[float] = []   # sorted solved ordinates
        self._t: dict[float, float] = {}

    def __call__(self, s: float) -> float:
        if s <= 0.0:
            return 0.0
        s = _level(self.h, s, "s")
        t = self._t.get(s)
        if t is not None:
            return t
        if len(self._s) >= _MEMO_CAP:
            self._s.clear()
            self._t.clear()
        i = bisect_left(self._s, s)
        lo = self._t[self._s[i - 1]] if i > 0 else 0.0
        hi = self._t[self._s[i]] if i < len(self._s) else None
        t = _solve_inverse(self.h, s, lo, hi)
        insort(self._s, s)
        self._t[s] = t
        return t


def _solve_inverse(h: HFunction, s: float, lo: float,
                   hi: float | None) -> float:
    """Root of h(t) = s on (lo, hi), expanding the bracket if hi is None.

    lo must satisfy h(lo) <= s (lo = 0 always works since h(0) = 0).
    Monotonicity is spot-checked during expansion: a decrease of more than
    1e-9 between successive probes raises NonMonotone.
    """
    if hi is None:
        t = max(_BRACKET_T0, lo * 2.0 if lo > 0 else _BRACKET_T0)
        prev_t, prev_v = lo, h(lo) if lo > 0 else 0.0
        while True:
            if h.t_end < math.inf and t >= h.t_end:
                t = 0.5 * (prev_t + h.t_end)
            v = h(t)
            if v < prev_v - _MONOTONE_SLACK:
                raise NonMonotone(
                    f"h({t!r}) = {v!r} < h({prev_t!r}) = {prev_v!r} - 1e-9")
            if v >= s:
                lo, hi = prev_t, t
                break
            prev_t, prev_v = t, v
            if h.t_end < math.inf:
                t = 0.5 * (t + h.t_end)
                if h.t_end - t <= 1e-15 * h.t_end:
                    raise OutOfRange(
                        f"h(t) stays below s={s!r} up to t_end={h.t_end!r}")
            else:
                t *= 2.0
                if t > 1e300:
                    raise OutOfRange(
                        f"h(t) stays below s={s!r} for t up to 1e300")
    if hi <= lo:
        return hi
    f_lo = (h(lo) if lo > 0 else 0.0) - s
    f_hi = h(hi) - s
    if f_lo > 0.0:
        # A memoized neighbour can overshoot by its root tolerance when two
        # ordinates are extremely close; restart from the safe left end.
        lo, f_lo = 0.0, -s
    if f_hi < 0.0:
        return _solve_inverse(h, s, hi, None)
    if f_hi == 0.0:
        return hi
    return float(brentq(lambda t: h(t) - s, lo, hi,
                        xtol=_INVERT_XTOL, rtol=_INVERT_RTOL))


def _level(h: HFunction, v: float, name: str) -> float:
    """float(v), after checking 0 < v < h.h_sup (OutOfRange otherwise)."""
    v = float(v)
    if not (v > 0.0):
        raise OutOfRange(f"{name} must be positive, got {v!r}")
    if not (v < h.h_sup):
        raise OutOfRange(f"{name}={v!r} is not below sup h = {h.h_sup!r}")
    return v


def invert_h(h: HFunction, s: float) -> float:
    """Left-continuous inverse h^{-1}(s) = inf{t > 0 : h(t) >= s}.

    Requires 0 < s < h.h_sup; raises OutOfRange otherwise, and NonMonotone
    if bracketing observes h decreasing by more than 1e-9.
    """
    return _solve_inverse(h, _level(h, s, "s"), 0.0, None)


# ----------------------------------------------------------------------
# Entropy integral and Chernoff minimum
# ----------------------------------------------------------------------

def entropy_integral(h: HFunction, x: float,
                     _inv: _InverseEvaluator | None = None) -> float:
    """int_0^x h^{-1}(s) ds by adaptive Gauss-Kronrod on the pointwise inverse.

    Requires 0 < x < h.h_sup. The integrand is evaluated through invert_h
    (with bracket memoization); the quadrature itself is the hand-rolled
    adaptive Gauss-Kronrod 7-15 with a budget of 2^20 evaluations.
    """
    inv = _inv if _inv is not None else _InverseEvaluator(h)
    return _gauss_kronrod(inv, 0.0, _level(h, x, "x"))


def chernoff_min(h: HFunction, x: float) -> float:
    """min over t in (0, t_end) of int_0^t h(u) du - t*x.

    For x < h_sup the minimizer solves h(t) = x; the minimum is then the
    quadrature of h up to that root minus t*x. For x >= h_sup the infimum
    is approached at t -> t_end: with t_end = +inf it is -inf (returned as
    a float, not raised); with finite t_end it is the boundary value.
    The result is always <= 0 (t -> 0 gives 0).
    """
    x = float(x)
    if not (x > 0.0):
        raise OutOfRange(f"x must be positive, got {x!r}")
    if x < h.h_sup:
        t_star = invert_h(h, x)
        return min(_gauss_kronrod(h, 0.0, t_star) - t_star * x, 0.0)
    if math.isinf(h.t_end):
        # h is bounded by h_sup <= x, so the objective decays at least
        # linearly with slope h_sup - x <= 0; the infimum is -inf whenever
        # x exceeds h_sup (and for x == h_sup it is the negative of a
        # possibly divergent integral; report -inf unless it is provably
        # finite within the probe horizon).
        if x > h.h_sup:
            return -math.inf
        t, g_prev = 1.0, 0.0
        while t <= 1e9:
            g = _gauss_kronrod(h, 0.0, t) - t * x
            if g < -1e12:
                return -math.inf
            if abs(g - g_prev) <= 1e-12 * (1.0 + abs(g)):
                return min(g, 0.0)
            g_prev, t = g, t * 4.0
        return -math.inf
    t_edge = h.t_end * (1.0 - 1e-12)
    return min(_gauss_kronrod(h, 0.0, t_edge) - t_edge * x, 0.0)


def _entropy_segments(inv: _InverseEvaluator, xs: np.ndarray) -> np.ndarray:
    """int_0^x h^{-1} at every x of xs (any order, duplicates allowed).

    Sums the integral segment by segment over the sorted points, each at
    entropy_integral's relative tolerance; the segments are nonnegative,
    so relative errors do not grow. The point whose segment raises
    OutOfRange, and every point above it, get NaN.
    """
    totals = np.full(xs.size, np.nan)
    acc = prev = 0.0
    for i in np.argsort(xs, kind="stable"):
        x = float(xs[i])
        if x > prev:
            try:
                acc += _gauss_kronrod(inv, prev, x)
            except OutOfRange:
                break
            prev = x
        totals[i] = acc
    return totals


def tail_bound_from_h(h: HFunction) -> TailBound:
    """The deviation bound exp(-int_0^x h^{-1}) as a TailBound.

    center="mean", direction="upper", validity (0, h_sup), regime
    "entropy" (a label free of commas, unlike the names callers give the
    bound). A scalar call integrates from 0; evaluate_grid sums the
    integral segment by segment over the sorted grid. Both share one
    memoized inverse.
    """
    inv = _InverseEvaluator(h)
    return TailBound(
        name=f"entropy[{h.name}]",
        fn=lambda x: math.exp(-entropy_integral(h, x, _inv=inv)),
        center="mean",
        direction="upper",
        valid_lo=0.0,
        valid_hi=h.h_sup,
        regime_fn=lambda x: "entropy",
        meta={"h_name": h.name},
        grid_fn=lambda xs: np.exp(-_entropy_segments(inv, xs)),
    )


def evaluate_entropy_grid(h: HFunction, xs: Sequence[float]) -> np.ndarray:
    """Entropy integrals int_0^{x_i} h^{-1} for a whole grid at once.

    The grid path of tail_bound_from_h: the integral is summed segment by
    segment over the sorted points and mapped back to the input order.
    Raises OutOfRange if any point falls outside (0, h_sup), or if h^{-1}
    is undefined below a point.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0) or np.any(xs >= h.h_sup):
        raise OutOfRange("grid points must lie in (0, sup h)")
    totals = _entropy_segments(_InverseEvaluator(h), xs)
    if np.any(np.isnan(totals)):
        raise OutOfRange("h stays below part of the grid up to t_end")
    return totals
