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

Both routes integrate by one adaptive Gauss-Kronrod 7-15 sweep
(_gauss_kronrod). A panel whose K15 and G7 sums disagree is confirmed by
its halves before it is bisected: first the halves' Gauss nodes, then
their Kronrod nodes, each halves' sum compared with the panel's K15. A NaN
value of h that a route meets raises OutOfRange naming the point, and so
does an infinite value that the Legendre route integrates.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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
# floor of the root-solved integrand and the quadrature could never
# converge.
_QUAD_ABS_FLOOR = 1e-14
_MAX_EVALS = 2 ** 20
_BRACKET_FLOOR = 1e-12
_BRENT_MAXITER = 100


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


def _brent(f: Callable[[float], float], a: float, fa: float, b: float,
           fb: float, xtol: float, rtol: float,
           level: float = 0.0) -> tuple[float, float]:
    """(x, f(x)) at a root x of f(x) = level between a and b, by Brent's
    method, given fa = f(a) and fb = f(b).

    The package's one bracketing root finder. It takes the same iterates
    as scipy's brentq.c (Brent 1973, "Algorithms for Minimization Without
    Derivatives", ch. 4) on the residual f - level, formed as v - level
    from each value v that f returns, so the root is brentq's with the
    same xtol and rtol. The caller passes the values of f at both bracket
    ends, which it already holds, so each solve makes two fewer calls of f
    than brentq; f(x) is the value f returned at the root, so a caller
    that goes on from there never evaluates f at it again. Raises
    ValueError if a value of f is NaN or fa and fb lie on the same side
    of level, and RuntimeError after 100 iterations without convergence.
    """
    xpre, xcur = a, b
    vpre, vcur = float(fa), float(fb)
    if vpre != vpre:
        raise _not_finite_at(xpre, vpre)
    if vcur != vcur:
        raise _not_finite_at(xcur, vcur)
    fpre, fcur = vpre - level, vcur - level
    if fpre == 0.0:
        return xpre, vpre
    if fcur == 0.0:
        return xcur, vcur
    # Zeros are handled above and at the top of each iteration, so a sign
    # bit is the test f < 0.
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    # |f| and |s| ride along with f and s, each taken once per iterate,
    # and the v are the raw values of f.
    afpre = -fpre if fpre < 0.0 else fpre
    afcur = -fcur if fcur < 0.0 else fcur
    xblk = fblk = afblk = vblk = spre = scur = aspre = ascur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur == 0.0:
            return xcur, vcur
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            afblk, vblk = afpre, vpre
            spre = scur = xcur - xpre
            aspre = ascur = -scur if scur < 0.0 else scur
        if afblk < afcur:
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afpre, afcur, afblk = afcur, afblk, afcur
            vpre, vcur, vblk = vcur, vblk, vcur
        delta = (xtol + rtol * (-xcur if xcur < 0.0 else xcur)) * 0.5
        sbis = (xblk - xcur) * 0.5
        asbis = -sbis if sbis < 0.0 else sbis
        if asbis < delta:
            return xcur, vcur
        step_ok = False
        if aspre > delta and afcur < afpre:
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gives an infinite or NaN step there, which the test
                # below rejects.
                pass
            else:
                astry = -stry if stry < 0.0 else stry
                limit = 3.0 * asbis - delta
                step_ok = 2.0 * astry < (aspre if aspre < limit else limit)
        if step_ok:
            # good short step
            spre, scur = scur, stry
            aspre, ascur = ascur, astry
        else:
            # bisect
            spre = scur = sbis
            aspre = ascur = asbis
        xpre, fpre = xcur, fcur
        afpre, vpre = afcur, vcur
        if ascur > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        vcur = float(f(xcur))
        if vcur != vcur:
            raise _not_finite_at(xcur, vcur)
        fcur = vcur - level
        afcur = -fcur if fcur < 0.0 else fcur
    raise RuntimeError(
        f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _solve_inverse(h: HFunction, s: float, lo: float = 0.0,
                   lo_v: float = 0.0) -> tuple[float, float]:
    """(t, h(t)) at the root of h(t) = s above lo: probes of h, then Brent.

    lo_v = h(lo) <= s is the caller's value (lo = lo_v = 0 always works
    since h(0) = 0), and h(t) is the value h returned at t, so a caller
    that goes on from t never evaluates h there again. From lo > 0 the
    bracket grows upward: 2 lo, then doublings (halfway to t_end when
    t_end is finite). From lo = 0 the first probe is t0 = 1 (t_end/2 when
    t_end <= 2); below the level there, the bracket grows upward from t0
    the same way, else it shrinks toward 0: first the secant guess
    t0 s / h(t0) through the origin, then halvings, with [0, t] the
    bracket once t is below 1e-12. An upward probe where h is NaN is
    bisected against the last finite one (see _bisect_nan). Monotonicity
    is spot-checked between successive probes on either side: h
    decreasing by more than 1e-9 raises NonMonotone. Any other NaN value
    of h raises OutOfRange.
    """
    ev = h.eval_fn
    prev_t, prev_v = lo, lo_v
    if lo > 0.0:
        t = 2.0 * lo
    else:
        t = 1.0 if h.t_end > 2.0 else 0.5 * h.t_end
    while True:
        if h.t_end < math.inf and t >= h.t_end:
            t = 0.5 * (prev_t + h.t_end)
        v = float(ev(t))
        if v != v:
            prev_t, prev_v, t, v = _bisect_nan(ev, s, prev_t, prev_v, t)
            break
        if v < prev_v - _MONOTONE_SLACK:
            raise NonMonotone(
                f"h({t!r}) = {v!r} < h({prev_t!r}) = {prev_v!r} - 1e-9")
        if v >= s:
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
    if prev_t == 0.0 and v > s:
        prev_t, prev_v, t, v = _shrink_bracket(ev, s, t, v)
    if v == s:
        return t, v
    if prev_v > s:
        # A previous root can overshoot by its root tolerance when two
        # ordinates are extremely close; restart from the safe left end.
        prev_t, prev_v = 0.0, 0.0
    try:
        return _brent(ev, prev_t, prev_v, t, v, _INVERT_XTOL, _INVERT_RTOL,
                      level=s)
    except ValueError as exc:  # a NaN value of h inside the bracket
        raise OutOfRange(str(exc)) from exc


def _bisect_nan(ev: Callable[[float], float], s: float, lo: float,
                lo_v: float, nan_t: float) -> tuple[float, float, float, float]:
    """(a, h(a), b, h(b)) with h(a) < s <= h(b), from h(lo) = lo_v < s and
    h(nan_t) NaN, by bisecting [lo, nan_t]; ev is h's eval_fn.

    A NaN midpoint becomes the NaN end, a finite one below s the low end.
    Raises OutOfRange, naming nan_t, once the NaN end is within 1e-15
    relative (or 1e-12 absolute) of a low end where h is still below s.
    """
    first = nan_t
    while nan_t - lo > 1e-15 * nan_t and nan_t > _BRACKET_FLOOR:
        t = 0.5 * (lo + nan_t)
        v = float(ev(t))
        if v != v:
            nan_t = t
            continue
        if v < lo_v - _MONOTONE_SLACK:
            raise NonMonotone(
                f"h({t!r}) = {v!r} < h({lo!r}) = {lo_v!r} - 1e-9")
        if v >= s:
            return lo, lo_v, t, v
        lo, lo_v = t, v
    raise OutOfRange(
        f"h({first!r}) is NaN, and h stays below s={s!r} up to its NaN "
        f"boundary near t={nan_t!r}")


def _shrink_bracket(ev: Callable[[float], float], s: float, t: float,
                    v: float) -> tuple[float, float, float, float]:
    """(a, h(a), b, h(b)) with h(a) < s <= h(b), from h(t) = v > s; ev is
    h's eval_fn.

    Probes the secant guess t s / v, then halvings, each probe the new
    upper end while h stays at or above s there; once the upper end is
    below 1e-12, the lower end is 0. A NaN probe raises OutOfRange.
    """
    guess = t * s / v
    lower = guess if 0.0 < guess < t else 0.5 * t
    while True:
        w = float(ev(lower))
        if w != w:
            raise OutOfRange(f"h({lower!r}) is NaN")
        if w > v + _MONOTONE_SLACK:
            raise NonMonotone(
                f"h({lower!r}) = {w!r} > h({t!r}) = {v!r} + 1e-9")
        if w < s:
            return lower, w, t, v
        t, v = lower, w
        if v == s or t < _BRACKET_FLOOR:
            return 0.0, 0.0, t, v
        lower = 0.5 * t


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
    return _solve_inverse(h, _level(h, s, "s"))[0]


# ----------------------------------------------------------------------
# Entropy integral and Chernoff minimum
# ----------------------------------------------------------------------

def entropy_integral(h: HFunction, x: float) -> float:
    """int_0^x h^{-1}(s) ds by adaptive Gauss-Kronrod on the pointwise inverse.

    Requires 0 < x < h.h_sup. The inverse route, kept as the reference for
    the Legendre route of tail_bound_from_h and chernoff_min: h^{-1}(x) is
    one cold solve, and every quadrature node below it one Brent solve
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
    _brent on [t_lo, t_hi], the roots of the nearest solved nodes below
    and above s, whose h values are held, so it needs no bracketing probe.
    Where those values do not bracket s (rounding, a NaN value of h
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
                root = _brent(self.ev, t_lo, v_lo, *roots[i], _INVERT_XTOL,
                              _INVERT_RTOL, level=s)
            except ValueError:  # h is NaN between the neighbours
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
    (as the inverse route does) or infinite at a quadrature node.
    """
    t, v = _solve_inverse(h, x, t_prev, v_prev)
    ev = h.eval_fn
    try:
        area = _gauss_kronrod(lambda u: x - float(ev(u)), t_prev, t)
    except ValueError as exc:  # a NaN or infinite value of h below the root
        raise OutOfRange(str(exc)) from exc
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
    # Python floats, so that every node and Brent iterate below is one too.
    edges = [0.0] + xs[order].tolist()
    nodes = _InverseNodes(h, edges[-1])
    totals = np.empty(xs.size)
    totals[order] = np.cumsum([
        _gauss_kronrod(nodes, a, b, nodes.drop_below)
        for a, b in zip(edges[:-1], edges[1:])])
    return totals
