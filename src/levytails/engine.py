"""Chernoff/Legendre machinery for h-function deviation bounds.

A nondecreasing "h-function" h with h(0) = 0 encodes a deviation inequality

    P(F - E[F] >= x) <= exp( - int_0^x h^{-1}(s) ds ),   0 < x < h(t_end-),

where h^{-1}(s) = inf{t > 0 : h(t) >= s} is the left-continuous inverse.
The same exponent arises as the Chernoff infimum

    inf_{0 < t < t_end} ( int_0^t h(u) du - t x ),

and the engine computes it along two numerically independent routes:

* the Legendre route (tail_bound_from_h, scalar and grid, and
  chernoff_min): h.legendre(x) where the h supplies that closed form of
  int_0^x h^{-1}; otherwise one root t* of h(t*) = x per point, then
  int_0^x h^{-1} = int_0^{t*} (x - h(u)) du, a quadrature of h itself
  with a nonnegative integrand; on a grid each root is bracketed from the
  previous one and the integral is accumulated segment by segment;
* the inverse route (entropy_integral, evaluate_entropy_grid): quadrature
  of the pointwise inverse h^{-1}, one cold root solve at the top point,
  then each node solved inside the bracket of its solved neighbours. It
  never calls h.legendre. It is slower and serves as the reference the
  Legendre route is checked against.

Both routes solve every root by one bracket search (_bracket_root) that
ends in Chandrupatla's method (_chandrupatla), on one path at every scale,
and integrate by one adaptive Gauss-Kronrod 7-15 sweep
(_gauss_kronrod). A panel whose K15 and G7 sums disagree is confirmed by
its halves before it is bisected: first the halves' Gauss nodes, then
their Kronrod nodes, each halves' sum compared with the panel's K15. A NaN
value of h that a route meets raises OutOfRange naming the point, and so
does an infinite value that the Legendre route integrates.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonMonotone, OutOfRange, QuadratureFailure

# Tolerances fixed by contract: roots of h to 1e-12 relative, and a
# decrease of h by more than 1e-9 of the values compared is NonMonotone.
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
# floor of the root-solved integrand and the quadrature could never
# converge.
_QUAD_ABS_FLOOR = 1e-14
_MAX_EVALS = 2 ** 20
_SOLVE_MAXITER = 100
# The bracket search hands the solver brackets within this ratio.
_NARROW_RATIO = 16.0
_TINY = math.ulp(0.0)
_HUGE = sys.float_info.max


@dataclass(frozen=True)
class HFunction:
    """A nondecreasing function h on [0, t_end) with h(0) = 0.

    h_sup is the left limit h(t_end-); it bounds the range of validity of
    the induced tail bound. Both t_end and h_sup may be +inf. legendre,
    when set, is the closed form x -> int_0^x h^{-1} = x t* - H(t*) for
    0 < x < h_sup, with h(t*) = x and H the antiderivative of h; the
    Legendre route calls it instead of solving and integrating.
    """

    eval_fn: Callable[[float], float]
    t_end: float = math.inf
    h_sup: float = math.inf
    name: str = "h"
    legendre: Callable[[float], float] | None = None

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
    added to the center, or transform="norm" for norm-type bounds).
    grid_fn, when set, evaluates an array of in-range points at once
    (NaN where a point fails); engine-backed bounds use it to walk the
    sorted grid on the Legendre route, each root solve bracketed from the
    previous point's and the entropy integral summed segment by segment.
    Without it, fn runs point by point.
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
_G7_X = _K15_X[1::2]
_KRONROD_X = _K15_X[0::2]  # the 8 nodes the Kronrod rule adds


def _sums(fv: list, c: float, r: float) -> tuple[float, float]:
    """The Kronrod-15 and Gauss-7 estimates from the 15 values fv at the
    ascending nodes c + r x of a panel. Raises ValueError naming the first
    node where f is NaN or infinite when the K15 sum is."""
    k15 = r * sum(w * v for w, v in zip(_K15_W, fv))
    if not math.isfinite(k15):
        for x, v in zip(_K15_X, fv):
            if not math.isfinite(v):
                raise _not_finite_at(c + r * x, v)
    return k15, r * sum(w * v for w, v in zip(_G7_W, fv[1::2]))


def _gk15(f: Callable[[float], float], a: float, b: float):
    """The Kronrod-15 and Gauss-7 estimates of int_a^b f (15 evaluations)."""
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    return _sums([f(c + r * x) for x in _K15_X], c, r)


def _charge(evals: int, n: int, a: float, b: float) -> int:
    """evals + n, or QuadratureFailure once that exceeds the budget."""
    evals += n
    if evals > _MAX_EVALS:
        raise QuadratureFailure(
            f"adaptive Gauss-Kronrod exceeded {_MAX_EVALS} integrand "
            f"evaluations on [{a!r}, {b!r}]")
    return evals


def _gauss_kronrod(f: Callable[[float], float], a: float, b: float,
                   accepted: Callable[[float], None] | None = None) -> float:
    """Integrate f on [a, b] to relative tolerance _QUAD_REL_TOL.

    The first K15 estimate on [a, b] sets the absolute tolerance
    _QUAD_REL_TOL * |estimate| + _QUAD_ABS_FLOOR. A panel is accepted when
    its K15 and G7 estimates agree within its tolerance (or it is narrower
    than 1e-15 (b - a)). Otherwise its halves confirm it before it is
    bisected: the 7 Gauss nodes of each half are evaluated, and the
    panel's K15 is accepted if the two halves' G7 sum agrees with it
    within the panel's tolerance; else their 8 Kronrod nodes each, and
    the halves' K15 sum is accepted if it agrees with the panel's K15
    within that tolerance; else each half goes on with half the
    tolerance. |K15 - G7| measures the error of the Gauss sum, not of
    K15, so the parent/child test (Gander & Gautschi 2000) stops sooner,
    and it evaluates f only at nodes that plain bisection would.
    Panels are accepted left to right, and accepted(b0) is told the
    right end b0 of each: f is never evaluated left of it again.
    Raises ValueError, naming the point, once a panel's K15 sum is NaN or
    infinite, and QuadratureFailure once more than 2^20 integrand evaluations
    would be spent.
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
        # Written as not (... <= tol0) so that a NaN difference fails.
        if not (abs(k0 - g0) <= tol0 or b0 - a0 <= min_width):
            m = 0.5 * (a0 + b0)
            # (c, r, values) of each half; the Gauss values come first.
            halves = [(0.5 * (a1 + b1), 0.5 * (b1 - a1), [0.0] * 15)
                      for a1, b1 in ((a0, m), (m, b0))]
            evals = _charge(evals, 14, a, b)
            for c, r, fv in halves:
                fv[1::2] = [f(c + r * x) for x in _G7_X]
            g_halves = sum(r * sum(w * v for w, v in zip(_G7_W, fv[1::2]))
                           for c, r, fv in halves)
            if not abs(g_halves - k0) <= tol0:
                evals = _charge(evals, 16, a, b)
                for c, r, fv in halves:
                    fv[0::2] = [f(c + r * x) for x in _KRONROD_X]
                left, right = [_sums(fv, c, r) for c, r, fv in halves]
                if not abs(left[0] + right[0] - k0) <= tol0:
                    stack.append((m, b0, *right, 0.5 * tol0))
                    stack.append((a0, m, *left, 0.5 * tol0))
                    continue
                k0 = left[0] + right[0]
        total += k0
        if accepted is not None:
            accepted(b0)
    return total


# ----------------------------------------------------------------------
# Inversion
# ----------------------------------------------------------------------

def _not_finite_at(x: float, v: float) -> ValueError:
    return ValueError(f"The function value at x={x} is "
                      f"{'NaN' if v != v else v}; solver cannot continue.")


def _chandrupatla(f: Callable[[float], float], a: float, fa: float,
                  b: float, fb: float, xtol: float, rtol: float,
                  level: float = 0.0) -> tuple[float, float]:
    """(x, f(x)) at a root x of f(x) = level between a and b, by
    Chandrupatla's method, given fa = f(a) and fb = f(b).

    The last stage of _bracket_root (Chandrupatla 1997, Adv. Eng. Softw.
    28, 145-149). It works on the residuals v - level of the values v that
    f returns. Each step goes from the bracket end with the smaller
    residual towards the other: first along the secant through the ends,
    then along the inverse quadratic through the last three points where
    that is monotone on the bracket, else halfway; and at least half the
    tolerance from both ends. The steps take only ratios of like
    differences, so one path serves every scale. Once the bracket is
    within xtol + rtol |x|, or no float lies inside it, it returns the end
    x with the smaller residual and the value f returned there, so a
    caller never evaluates f at it again. Raises ValueError if a value of
    f is NaN or fa and fb lie on the same side of level, and RuntimeError
    after 100 steps.
    """
    x1, v1 = a, float(fa)
    x2, v2 = b, float(fb)
    if v1 != v1:
        raise _not_finite_at(x1, v1)
    if v2 != v2:
        raise _not_finite_at(x2, v2)
    r1, r2 = v1 - level, v2 - level
    if r1 == 0.0:
        return x1, v1
    if r2 == 0.0:
        return x2, v2
    if (r1 < 0.0) == (r2 < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # (x1, r1) is the newest point, (x2, r2) the other end of the bracket
    # and (x3, r3) the point dropped last; (xb, rb) is the better end and
    # (xo, ro) the other. Zero denominators in the inverse quadratic come
    # only from a plateau r3 = r1, which its test (xi, phi) excludes. The
    # loop's assignments pack at most three names, which CPython does
    # without building a tuple.
    x3 = r3 = None
    for _ in range(_SOLVE_MAXITER):
        if (r1 if r1 > 0.0 else -r1) < (r2 if r2 > 0.0 else -r2):
            xb, vb, rb = x1, v1, r1
            xo, ro = x2, r2
        else:
            xb, vb, rb = x2, v2, r2
            xo, ro = x1, r1
        tol, d = xtol + rtol * (xb if xb > 0.0 else -xb), xo - xb
        width = d if d > 0.0 else -d
        if width <= tol:
            return xb, vb
        if x3 is None:
            t = rb / (rb - ro)
        else:
            xi, phi = (x1 - x2) / (x3 - x2), (r1 - r2) / (r3 - r2)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = rb / (ro - r3) * (r3 / (ro - rb)
                                      - (x3 - xb) / d * (ro / (r3 - rb)))
            else:
                t = 0.5
        tl = 0.5 * tol / width
        if not tl < t < 1.0 - tl:  # NaN too
            t = 1.0 - tl if t > 0.5 else tl
        x = xb + t * d
        if x == xb or x == xo:  # no float lies inside the bracket
            return xb, vb
        v = float(f(x))
        if v != v:
            raise _not_finite_at(x, v)
        r = v - level
        if r == 0.0:
            return x, v
        if (r < 0.0) == (r1 < 0.0):
            x3, r3 = x1, r1
        else:
            x3, r3 = x2, r2
            x2, v2, r2 = x1, v1, r1
        x1, v1, r1 = x, v, r
    raise RuntimeError(
        f"Failed to converge after {_SOLVE_MAXITER} iterations.")


def _between(lo: float | None, hi: float, down: float) -> float | None:
    """The next probe inside (lo, hi), None once there is none: hi / down
    while nothing positive lies below, the geometric mean while hi > 16 lo,
    then the midpoint until the gap is within 1e-15 of hi."""
    if not lo:
        t = max(hi / down, _TINY)
        return t if t < hi else None
    if hi > _NARROW_RATIO * lo:
        return math.sqrt(lo) * math.sqrt(hi)
    return lo + 0.5 * (hi - lo) if hi - lo > 1e-15 * hi else None


def _check_rise(t: float, v: float, u: float, w: float) -> None:
    """NonMonotone if f(t) = v, for t > u, is below f(u) = w by more than
    _MONOTONE_SLACK of the two values."""
    if v < w - _MONOTONE_SLACK * max(abs(v), abs(w)):
        raise NonMonotone(f"h({t!r}) = {v!r} < h({u!r}) = {w!r}")


def _bracket_root(f: Callable[[float], float], level: float,
                  start: float | None, rtol: float, *, below=None,
                  above=None, top: float = math.inf,
                  failure: Exception | None = None) -> tuple[float, float]:
    """(t, f(t)) at the smallest t > 0 with f(t) >= level, for a
    nondecreasing f: the package's one bracket search, free of any scale.

    below = (a, f(a)) with f(a) < level and above = (b, f(b)) with
    f(b) >= level are points the caller holds (h(0) = 0, a previous root).
    Without above, f is probed at start, then up by factors 2, 4, 16, ...
    (each the square of the last); top, the end of f's domain or the
    lowest point where f was NaN or raised an ArithmeticError, bounds the
    probes, which close in on it by _between. A bracket so found is
    narrowed to a ratio of 16: by the secant through below, if given, then
    by _between; one the caller gave goes on as it is. _chandrupatla
    solves the rest to rtol relative, on the same path at every scale.
    Returns (0.0, NaN), the generalized inverse, where f >= level down to
    the smallest float and nothing is known below; else f(t) is the value
    f returned at t. Successive probes on either side are spot-checked:
    f falling by more than 1e-9 of the values compared raises NonMonotone.
    Where f stays below level up to top or the largest float, or fails
    inside the bracket, raises failure (OutOfRange when it is None).
    """
    a, fa = below if below is not None else (None, None)
    b, fb = above if above is not None else (None, None)
    secant, bad, t, up, down = below is not None, None, start, 2.0, 2.0
    while b is None or (above is None and fb != level
                        and (not a or b > _NARROW_RATIO * a)):
        if b is not None:  # narrow [a, b]
            t = a + (b - a) * (level - fa) / (fb - fa) if secant else None
            if not (secant and a < t < b):
                t, down = _between(a, b, down), min(down * down, _HUGE)
                if t is None:
                    break
            secant = False
        elif t >= top:
            t, down = _between(a, top, down), min(down * down, _HUGE)
            if t is None:
                raise failure or OutOfRange(
                    f"h(t) stays below s={level!r} up to t_end={top!r}"
                    if bad is None else f"{bad}, and h stays below "
                    f"s={level!r} up to where it fails, near t={top!r}")
        how = "is NaN"
        try:
            v = float(f(t))
        except ArithmeticError as exc:
            v, how = math.nan, f"raises {type(exc).__name__}"
        if v != v:
            if b is not None:
                raise failure or OutOfRange(f"h({t!r}) {how}")
            if bad is None:
                bad = f"h({t!r}) {how}"
            top = t
            continue
        if a is not None and v < fa:
            _check_rise(t, v, a, fa)
        if b is not None:
            _check_rise(b, fb, t, v)
        if v >= level:
            b, fb = t, v
            continue
        a, fa = t, v
        if b is None:  # step up
            t, up = min(t * up, _HUGE), min(up * up, _HUGE)
            if t == a:
                raise failure or OutOfRange(
                    f"h(t) stays below s={level!r} up to the largest float")
    if fb == level:
        return b, fb
    if a is None:  # f >= level down to the smallest float
        return 0.0, math.nan
    try:
        return _chandrupatla(f, a, fa, b, fb, 0.0, rtol, level)
    except (ValueError, ArithmeticError) as exc:  # f fails inside [a, b]
        raise failure or OutOfRange(str(exc)) from exc


def _solve_inverse(h: HFunction, s: float, lo: float = 0.0,
                   lo_v: float = 0.0) -> tuple[float, float]:
    """(t, h(t)) at the root of h(t) = s above lo, by _bracket_root.

    lo_v = h(lo) is the caller's value (lo = lo_v = 0 always works since
    h(0) = 0), and the search starts at 2 lo, or cold at min(1, t_end/2).
    """
    start = 2.0 * lo if lo > 0.0 else min(1.0, 0.5 * h.t_end)
    if lo_v > s:
        # A previous root can overshoot s by its tolerance when two
        # ordinates are extremely close; the bracket then starts at 0.
        lo = lo_v = 0.0
    return _bracket_root(h.eval_fn, s, start, _INVERT_RTOL,
                         below=(lo, lo_v), top=h.t_end)


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
    if the bracket search observes h decreasing by more than 1e-9 of the
    values it compares.
    """
    return _solve_inverse(h, _level(h, s, "s"))[0]


# ----------------------------------------------------------------------
# Entropy integral and Chernoff minimum
# ----------------------------------------------------------------------

def entropy_integral(h: HFunction, x: float) -> float:
    """int_0^x h^{-1}(s) ds by adaptive Gauss-Kronrod on the pointwise inverse.

    Requires 0 < x < h.h_sup. The inverse route, kept as the reference for
    the Legendre route of tail_bound_from_h and chernoff_min: h^{-1}(x) is
    one cold solve, and every quadrature node below it one root solve
    inside the bracket of its solved neighbours (see _InverseNodes); the
    quadrature itself is the hand-rolled adaptive Gauss-Kronrod 7-15 with
    a budget of 2^20 evaluations, in which a panel's halves may confirm it
    (their G7, then their K15 sum, against its K15) before it is bisected,
    so no node is solved that plain bisection would not solve.
    """
    x = _level(h, x, "x")
    nodes = _InverseNodes(h, x)
    return _gauss_kronrod(nodes, 0.0, x, nodes.drop_below)


class _InverseNodes:
    """h^{-1} at the nodes of one left-to-right quadrature sweep below top.

    h^{-1}(top) is solved cold. Every node s below it is then solved by
    _bracket_root from [t_lo, t_hi], the roots of the nearest solved nodes
    below and above s, whose h values are held, so it needs no upward
    probe. Where those values do not bracket s (rounding, a NaN value of h
    between them, an h that is not monotone), the node takes the cold
    _solve_inverse, which raises OutOfRange or NonMonotone as invert_h
    does. The sweep never returns left of an accepted panel, so
    drop_below(b) keeps only the last node at or below b: the table holds
    the nodes of the panels still on the quadrature stack, and each lookup
    is a bisection.
    """

    def __init__(self, h: HFunction, top: float):
        self.h = h
        self.ev = h.eval_fn
        self.levels = [0.0, top]
        self.roots = [(0.0, 0.0), _solve_inverse(h, top)]

    def __call__(self, s: float) -> float:
        levels, roots = self.levels, self.roots
        i = bisect_right(levels, s)
        t_lo, v_lo = roots[i - 1]
        if levels[i - 1] == s:
            return t_lo
        root = None
        if i < len(roots) and v_lo <= s <= roots[i][1]:
            try:
                root = _bracket_root(self.ev, s, None, _INVERT_RTOL,
                                     below=roots[i - 1], above=roots[i])
            except OutOfRange:  # h is NaN between the neighbours
                pass
        if root is None:
            root = _solve_inverse(self.h, s)
        levels.insert(i, s)
        roots.insert(i, root)
        return root[0]

    def drop_below(self, b: float) -> None:
        j = bisect_right(self.levels, b) - 1
        if j > 0:
            del self.levels[:j], self.roots[:j]


def _legendre_step(h: HFunction, x: float, x_prev: float, t_prev: float,
                   v_prev: float) -> tuple[float, float, float]:
    """(t, h(t), int_{x_prev}^x h^{-1}) for the root t = h^{-1}(x).

    t_prev = h^{-1}(x_prev) with v_prev = h(t_prev) (0 and 0 for
    x_prev = 0) brackets the root solve, and the increment is summed as

        (x - x_prev) t_prev + int_{t_prev}^t (x - h(u)) du,

    whose terms are nonnegative for any nondecreasing h, convex or not,
    so nothing cancels. Raises OutOfRange when h stays below x or is NaN
    (as the inverse route does), or is infinite or raises an
    ArithmeticError at a quadrature node.
    """
    t, v = _solve_inverse(h, x, t_prev, v_prev)
    ev = h.eval_fn
    try:
        area = _gauss_kronrod(lambda u: x - float(ev(u)), t_prev, t)
    except (ValueError, ArithmeticError) as exc:
        # h is NaN or infinite, or raises, at a node below the root
        raise OutOfRange(f"{type(exc).__name__}: {exc}") from exc
    return t, v, (x - x_prev) * t_prev + area


def chernoff_min(h: HFunction, x: float) -> float:
    """min over t in (0, t_end) of int_0^t h(u) du - t*x, for 0 < x < h_sup.

    The minimizer solves h(t) = x, and the minimum is minus
    int_0^t (x - h(u)) du (the one-point case of the Legendre route), or
    minus h.legendre(x) where h supplies it. The result is always <= 0
    (t -> 0 gives 0). Raises OutOfRange outside 0 < x < h_sup, the range
    in which the deviation bound holds.
    """
    x = _level(h, x, "x")
    if h.legendre is not None:
        return min(-h.legendre(x), 0.0)
    return min(-_legendre_step(h, x, 0.0, 0.0, 0.0)[2], 0.0)


def _legendre_grid(h: HFunction, xs: np.ndarray) -> np.ndarray:
    """int_0^x h^{-1} at every x of xs (any order, duplicates allowed).

    h.legendre(x) at every point where h supplies it. Otherwise walks the
    sorted points with _legendre_step, each root bracketed from the
    previous one and its held h value, and sums the nonnegative
    increments. The point whose step raises OutOfRange (h stays below it,
    or is NaN at a node), and every point above it, get NaN.
    """
    if h.legendre is not None:
        return np.array([h.legendre(x) for x in xs.tolist()], dtype=float)
    totals = np.full(xs.size, np.nan)
    acc = x_prev = t_prev = v_prev = 0.0
    for i in np.argsort(xs, kind="stable"):
        x = float(xs[i])
        if x > x_prev:
            try:
                t_prev, v_prev, step = _legendre_step(h, x, x_prev, t_prev,
                                                      v_prev)
            except OutOfRange:
                break
            acc += step
            x_prev = x
        totals[i] = acc
    return totals


def tail_bound_from_h(h: HFunction) -> TailBound:
    """The deviation bound exp(-int_0^x h^{-1}) as a TailBound.

    center="mean", direction="upper", validity (0, h_sup), regime
    "entropy" (a label free of commas, unlike the names callers give the
    bound). Both the scalar fn (exp of chernoff_min) and evaluate_grid
    take the Legendre route: h.legendre where h supplies it, else one
    root solve per point; the grid brackets each root from the previous
    point's and sums the integral segment by segment. Both take math.exp
    of the exponent (numpy's exp can differ from it in the last bit).
    """
    return TailBound(
        name=f"entropy[{h.name}]",
        fn=lambda x: math.exp(chernoff_min(h, x)),
        center="mean",
        direction="upper",
        valid_lo=0.0,
        valid_hi=h.h_sup,
        regime_fn=lambda x: "entropy",
        meta={"h_name": h.name},
        grid_fn=lambda xs: np.array(
            [math.exp(-v) for v in _legendre_grid(h, xs).tolist()]),
    )


def evaluate_entropy_grid(h: HFunction, xs: Sequence[float]) -> np.ndarray:
    """Entropy integrals int_0^{x_i} h^{-1} for a whole grid at once.

    The inverse route on a grid, kept as the reference for the grid path
    of tail_bound_from_h: the quadrature of h^{-1} is summed segment by
    segment over the sorted points and mapped back to the input order.
    One sweep's node table serves every segment, its top the largest
    point. Raises OutOfRange if any point falls outside (0, h_sup), or if
    h^{-1} is undefined below a point.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0.0) or np.any(xs >= h.h_sup):
        raise OutOfRange("grid points must lie in (0, sup h)")
    if not xs.size:
        return np.empty(0)
    order = np.argsort(xs, kind="stable")
    # Python floats, so that every node and solver iterate below is one too.
    edges = [0.0] + xs[order].tolist()
    nodes = _InverseNodes(h, edges[-1])
    totals = np.empty(xs.size)
    totals[order] = np.cumsum([
        _gauss_kronrod(nodes, a, b, nodes.drop_below)
        for a, b in zip(edges[:-1], edges[1:])])
    return totals
