"""Engine tests: inversion, entropy integral, Chernoff minimum, duality.

Oracles are closed forms computed independently of the engine:
  * linear h(t) = lam*t:       h^{-1}(s) = s/lam, entropy = x^2/(2 lam)
  * exponential h(t) = a2*(e^{Kt}-1)/K:
        h^{-1}(s) = log(1 + K s/a2)/K,
        entropy   = (x/K + a2/K^2) log(1 + K x/a2) - x/K
  * h(t) = t^2:                h^{-1}(s) = sqrt(s)
  * concave h(t) = log(1 + t): entropy = e^x - 1 - x
  * plateau h(t) = min(t, 1) + max(t - 2, 0):
        entropy = x^2/2 (x <= 1), x^2/2 + x - 1 (x > 1)
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from levytails import (
    FunctionalProfile,
    HFunction,
    QuadraticSpec,
    chernoff_min,
    entropy_integral,
    evaluate_entropy_grid,
    invert_h,
    product_h,
    quad_wiener_bound,
    tail_bound_from_h,
)
from levytails import engine
from levytails.models import LevyArea
from levytails.engine import TailBound, _chandrupatla, _gauss_kronrod, _gk15
from levytails.errors import NonMonotone, OutOfRange, QuadratureFailure


def linear_h(lam):
    return HFunction(lambda t: lam * t, name=f"linear[{lam}]")


def exp_h(K, a2):
    """h(t) = a2 (e^{Kt} - 1)/K; for K < 0 it saturates at -a2/K."""
    h_sup = math.inf if K >= 0 else -a2 / K
    return HFunction(lambda t: a2 * math.expm1(K * t) / K,
                     h_sup=h_sup, name=f"exp[K={K}]")


def exp_entropy(K, a2, x):
    return (x / K + a2 / K**2) * math.log1p(K * x / a2) - x / K


# ----------------------------------------------------------------------
# Gauss-Kronrod quadrature
# ----------------------------------------------------------------------

def test_k15_panel_exact_to_degree_22():
    a, b = 0.2, 1.3
    for d in range(23):
        k15, g7 = _gk15(lambda x: x ** d, a, b)
        want = (b ** (d + 1) - a ** (d + 1)) / (d + 1)
        assert k15 == pytest.approx(want, rel=1e-14), d
        if d <= 13:
            assert g7 == pytest.approx(want, rel=1e-14), d


def test_quadrature_budget_raises_on_oscillation():
    # Resolving the 6e-12 period over [0, 1] takes ~2^40 panels, far past
    # the 2^20-evaluation budget (about a second of evaluations).
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.sin(1e12 * x)

    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure):
        _gauss_kronrod(f, 0.0, 1.0)
    assert calls <= 2 ** 20
    assert time.perf_counter() - t0 < 10.0


def test_quadrature_stops_at_the_first_nan_panel():
    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return math.nan

    with pytest.raises(ValueError, match="NaN"):
        _gauss_kronrod(f, 0.0, 1.0)
    assert calls <= 15


@pytest.mark.parametrize("inf", [-math.inf, math.inf])
def test_quadrature_stops_at_the_first_infinite_panel(inf):
    # K15 = G7 = inf on the first panel, so |K15 - G7| is NaN: without the
    # stop the sweep bisects until the 2^20 budget runs out.
    f = _Counted(lambda x: inf if x < 0.3 else 0.0)
    with pytest.raises(ValueError, match=f"x=0.00427.* is {inf}"):
        _gauss_kronrod(f, 0.0, 1.0)
    assert len(f.args) <= 15


def test_legendre_route_reports_an_infinite_h_as_out_of_range():
    # h is +inf on (0.30, 0.31): the integrand 0.5 - h of the Legendre
    # route is -inf at a node there. It used to sum to -inf and come back
    # as the bound value 0.
    h_fn = _Counted(lambda t: math.inf if 0.30 < t < 0.31 else t)
    h = HFunction(h_fn, name="inf on (0.30, 0.31)")
    with pytest.raises(OutOfRange, match="-inf"):
        chernoff_min(h, 0.5)
    assert len(h_fn.args) <= 200


def _bisection_sweep(f, a, b):
    """int_a^b f by plain bisection: a panel whose |K15 - G7| exceeds its
    tolerance is always split, both halves evaluated in full. The sweep
    _gauss_kronrod ran before its halves could confirm a panel."""
    k15, g7 = _gk15(f, a, b)
    min_width = 1e-15 * (b - a)
    total = 0.0
    stack = [(a, b, k15, g7,
              engine._QUAD_REL_TOL * abs(k15) + engine._QUAD_ABS_FLOOR)]
    while stack:
        a0, b0, k0, g0, tol0 = stack.pop()
        if abs(k0 - g0) <= tol0 or b0 - a0 <= min_width:
            total += k0
            continue
        m = 0.5 * (a0 + b0)
        stack.append((m, b0, *_gk15(f, m, b0), 0.5 * tol0))
        stack.append((a0, m, *_gk15(f, a0, m), 0.5 * tol0))
    return total


def _polynomial(draw):
    coef = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=23))
    a = draw(st.floats(-1.0, 0.0))
    b = draw(st.floats(a + 1e-2, 1.0))
    # |f| <= 1 on [-1, 1].
    c = [v / len(coef) for v in coef]

    def f(x):
        y = 0.0
        for v in reversed(c):
            y = y * x + v
        return y

    exact = math.fsum(v * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                      for k, v in enumerate(c))
    return f, a, b, exact


def _left_pole(draw):
    p = draw(st.floats(0.0, 1.0))
    q = draw(st.floats(1e-2, 1.0))
    d = draw(st.floats(1e-3, 1.0))
    b = draw(st.floats(0.1, 2.0))
    return lambda x: p + q / (x + d), 0.0, b, p * b + q * math.log1p(b / d)


def _sqrt(draw):
    b = draw(st.floats(1e-3, 10.0))
    return math.sqrt, 0.0, b, 2.0 / 3.0 * b * math.sqrt(b)


def _step(draw):
    # No rule sees a step in the gap between a panel's end and its
    # outermost node (0.43% of its width), and a step at a random float
    # falls into that gap of some deep panel: both sweeps then miss it by
    # up to 1e-8. A step at k/128 is never in it, and from the seventh
    # bisection on it lies on a panel end.
    p = draw(st.integers(1, 127)) / 128.0
    return lambda x: 0.0 if x < p else 1.0, 0.0, 1.0, 1.0 - p


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       family=st.sampled_from([_polynomial, _left_pole, _sqrt, _step]))
def test_gauss_kronrod_never_evaluates_more_than_the_bisection_sweep(data,
                                                                     family):
    f, a, b, exact = family(data.draw)
    bisection, sweep, events = _Counted(f), _Counted(f), []

    def logged(x):
        events.append(("eval", x))
        return sweep(x)

    _bisection_sweep(bisection, a, b)
    got = _gauss_kronrod(logged, a, b,
                         lambda end: events.append(("accepted", end)))
    assert not Counter(sweep.args) - Counter(bisection.args)
    assert abs(got - exact) <= 1e-11 * abs(exact) + 1e-14
    ends = [x for kind, x in events if kind == "accepted"]
    assert all(e0 < e1 for e0, e1 in zip(ends, ends[1:]))
    assert ends[-1] == b
    last = a
    for kind, x in events:
        assert x >= last
        if kind == "accepted":
            last = x


# ----------------------------------------------------------------------
# invert_h
# ----------------------------------------------------------------------

def test_invert_linear():
    assert invert_h(linear_h(2.0), 3.0) == pytest.approx(1.5, rel=1e-12)


def test_invert_exponential_closed_form():
    h = exp_h(1.0, 1.0)
    assert invert_h(h, math.e - 1.0) == pytest.approx(1.0, rel=1e-11)


def test_invert_square():
    h = HFunction(lambda t: t * t, name="square")
    assert invert_h(h, 4.0) == pytest.approx(2.0, rel=1e-11)


def test_invert_roundtrip_random():
    rng = np.random.default_rng(20260816)
    h = exp_h(0.7, 1.3)
    for _ in range(100):
        t = float(rng.uniform(1e-6, 20.0))
        s = h(t)
        assert invert_h(h, s) == pytest.approx(t, rel=1e-9, abs=1e-12)


def test_invert_out_of_range():
    h = exp_h(-1.0, 1.0)   # sup h = 1
    with pytest.raises(OutOfRange):
        invert_h(h, 1.0)
    with pytest.raises(OutOfRange):
        invert_h(h, -0.5)


def test_invert_detects_decrease():
    # Target above the first hump of sin(3t): bracket expansion must walk
    # across the decrease and report it rather than silently continue.
    bad = HFunction(lambda t: math.sin(3.0 * t), name="sin")
    with pytest.raises(NonMonotone):
        invert_h(bad, 1.5)


class _Counted:
    """A function that records every argument it is called with."""

    def __init__(self, f):
        self.f = f
        self.args = []

    def __call__(self, t):
        self.args.append(t)
        return self.f(t)


def test_invert_cold_bracket_call_counts():
    # A cold bracket starts at t0 = 1: a secant guess and halvings below
    # it, doublings above.
    h_fn = _Counted(math.expm1)
    h = HFunction(h_fn, name="expm1")
    for s in (0.01, 1.0, 100.0):
        h_fn.args.clear()
        assert invert_h(h, s) == pytest.approx(math.log1p(s), rel=1e-12)
        assert len(h_fn.args) <= 14, s
    h_fn.args.clear()
    want = 2.0 * math.log(2.0) - 1.0
    assert entropy_integral(h, 1.0) == pytest.approx(want, rel=1e-13)
    assert len(h_fn.args) <= 160


@pytest.mark.parametrize("f, t_end", [
    (math.expm1, math.inf),
    (math.log1p, math.inf),
    (lambda t: t * t, math.inf),
    (lambda t: min(t, 1.0) + max(t - 2.0, 0.0), math.inf),
    (lambda t: t / (1.0 - t), 1.0),
    (lambda t: 1e-3 * t / (0.01 - t), 0.01),
])
def test_invert_never_probes_the_same_t_twice(f, t_end):
    h_fn = _Counted(f)
    h = HFunction(h_fn, t_end=t_end)
    for s in (1e-9, 1e-3, 0.3, 0.999, 1.0, 1.5, 40.0):
        h_fn.args.clear()
        invert_h(h, s)
        assert len(set(h_fn.args)) == len(h_fn.args), (s, h_fn.args)


def test_solve_inverse_on_a_finite_domain():
    # From lo >= t_end/2 the first probe, 2 lo, is clamped to halfway
    # between lo and t_end.
    h_fn = _Counted(lambda t: t / (1.0 - t))
    h = HFunction(h_fn, t_end=1.0)
    t, v = engine._solve_inverse(h, 9.0, 0.6, 1.5)
    assert t == pytest.approx(0.9, rel=1e-14) and v == h_fn.f(t)
    assert h_fn.args[:2] == [0.8, 0.9]
    # Below s up to t_end: the probes close in on t_end, then give up.
    capped = HFunction(lambda t: t, t_end=1.0)
    with pytest.raises(OutOfRange, match="stays below s=2.0 up to t_end"):
        engine._solve_inverse(capped, 2.0)


def test_solve_inverse_restarts_below_an_overshooting_start():
    # A previous root may overshoot s by its tolerance, so h(lo) > s: the
    # bracket then restarts from 0.
    lo = 1.0 + 2.0 ** -52
    assert engine._solve_inverse(HFunction(lambda t: t), 1.0, lo, lo) == \
        (1.0, 1.0)


def test_invert_nan_raises_at_first_nan_probe():
    h_fn = _Counted(lambda t: t if t < 5.0 else math.nan)
    h = HFunction(h_fn, name="nan above 5")
    with pytest.raises(OutOfRange, match=r"h\(8\.0\) is NaN"):
        invert_h(h, 6.0)
    # t = 1, 2, 4, 8, then 50 bisections of [4, 8] pin the NaN boundary.
    assert len(h_fn.args) == 54
    xs = [0.5, 1.0, 1.5, 6.0, 9.0]
    tb = tail_bound_from_h(h)
    vals, _, valid = tb.evaluate_grid(xs)
    assert valid.tolist() == [True, True, True, False, False]
    assert vals[:3] == pytest.approx(np.exp(-0.5 * np.square(xs[:3])),
                                     rel=1e-12)
    with pytest.raises(OutOfRange):
        tb(6.0)
    # The root lies below the NaN region: bisecting [4, 8] finds it.
    h_fn.args.clear()
    assert invert_h(h, 4.9) == pytest.approx(4.9, rel=1e-12)
    assert len(h_fn.args) <= 14
    vals, _, valid = tb.evaluate_grid([1.0, 4.9, 6.0])
    assert valid.tolist() == [True, True, False]
    assert vals[1] == pytest.approx(math.exp(-0.5 * 4.9 ** 2), rel=1e-12)
    # A NaN between the bracket ends, met by the Brent iterates.
    hole = HFunction(lambda t: math.nan if 1.9 < t < 1.99 else t)
    with pytest.raises(OutOfRange, match="NaN"):
        invert_h(hole, 1.95)


# ----------------------------------------------------------------------
# Root solver (Chandrupatla's method on a bracket, reusing its values)
# ----------------------------------------------------------------------

def _solver_vs_brentq(f, a, b, xtol, rtol):
    """(outcome, calls) of brentq and of _chandrupatla on the same problem."""
    results = []
    for solve in (lambda g: brentq(g, a, b, xtol=xtol, rtol=rtol),
                  lambda g: _chandrupatla(g, a, f(a), b, f(b), xtol,
                                          rtol)[0]):
        g = _Counted(f)
        try:
            out = solve(g).hex()
        except (ValueError, RuntimeError) as exc:
            out = (type(exc).__name__, str(exc))
        results.append((out, len(g.args)))
    return results


def _assert_verified_root(f, x, xtol, rtol, level=0.0):
    """f(x - 2 tol) < level <= f(x + 2 tol), tol = xtol + rtol |x|, for a
    nondecreasing f; where f(x) = level, rounding may hold f at the level
    beyond x - 2 tol."""
    tol = xtol + rtol * abs(x)
    assert f(x - 2.0 * tol) < level or f(x) == level, (x, tol)
    assert level <= f(x + 2.0 * tol), (x, tol)


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
       k=st.floats(0.05, 4.0),
       root=st.floats(-5.0, 5.0),
       ends=st.tuples(st.floats(1e-9, 8.0), st.floats(1e-9, 8.0)),
       swap=st.booleans(),
       tol=st.sampled_from([(1e-15, 1e-12), (2e-12, 8.881784197001252e-16),
                            (1e-22, 1e-10), (1e-15, 1e-13)]))
def test_solver_returns_a_verified_root(w, k, root, ends, swap, tol):
    # A nondecreasing function with a zero at `root`, on a bracket around
    # it, with jumps: the bracket closes on a root or on the jump.
    def g(x):
        return (w[0] * math.expm1(k * x) + w[1] * x + w[2] * math.atan(k * x)
                + w[3] * math.floor(4.0 * x) + x * 1e-3)

    g_root = g(root)
    a, b = root - ends[0], root + ends[1]
    if swap:
        a, b = b, a

    def f(x):
        return g(x) - g_root

    x, fx = _chandrupatla(f, a, f(a), b, f(b), *tol)
    assert fx == f(x)
    _assert_verified_root(f, x, *tol)


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
       k=st.floats(0.05, 4.0),
       offset=st.floats(-1e3, 1e3),
       root=st.floats(-5.0, 5.0),
       ends=st.tuples(st.floats(1e-9, 8.0), st.floats(1e-9, 8.0)),
       swap=st.booleans())
def test_brent_at_a_level_takes_the_residuals_iterates(w, k, offset, root,
                                                       ends, swap):
    # _chandrupatla(f, level=s) solves f = s with the iterates of
    # _chandrupatla on f - s at level 0, and hands back the value f itself
    # took at the root.
    def f(x):
        return (offset + w[0] * math.expm1(k * x) + w[1] * math.atan(k * x)
                + w[2] * math.floor(4.0 * x) + x * 1e-3)

    s = f(root)
    a, b = root - ends[0], root + ends[1]
    if swap:
        a, b = b, a
    outcomes = []
    for solve in (lambda: _chandrupatla(f, a, f(a), b, f(b), 1e-15, 1e-12,
                                        level=s),
                  lambda: _chandrupatla(lambda x: f(x) - s, a, f(a) - s, b,
                                        f(b) - s, 1e-15, 1e-12)):
        try:
            outcomes.append(solve())
        except (ValueError, RuntimeError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    at_level, shifted = outcomes
    if isinstance(shifted[0], str):
        assert at_level == shifted
    else:
        assert at_level[0].hex() == shifted[0].hex()
        assert at_level[1].hex() == f(at_level[0]).hex()
        assert shifted[1].hex() == (f(shifted[0]) - s).hex()


@pytest.mark.parametrize("f, a, b, error", [
    (lambda x: math.nan if x > 0.3 else x - 0.5, 0.0, 1.0, "ValueError"),
    (lambda x: math.nan if 0.2 < x < 0.4 else x - 0.3, 0.0, 1.0,
     "ValueError"),
    (lambda x: x * x + 1.0, -1.0, 2.0, "ValueError"),
])
def test_brent_error_parity(f, a, b, error):
    (ref, _), (port, _) = _solver_vs_brentq(f, a, b, 1e-15, 1e-12)
    assert ref[0] == error
    assert port == ref


def test_solver_solves_the_quintic_that_brentq_does_not():
    # brentq raises RuntimeError after 100 iterations on (x - 1)^5 at
    # xtol 1e-15, rtol 1e-12; the inverse quadratic steps land on 1.
    (ref, _), (got, calls) = _solver_vs_brentq(
        lambda x: (x - 1.0) ** 5, 0.0, 5.0, 1e-15, 1e-12)
    assert ref[0] == "RuntimeError"
    _assert_verified_root(lambda x: (x - 1.0) ** 5, float.fromhex(got),
                          1e-15, 1e-12)
    assert calls <= 100


def test_solver_is_scale_free_on_values_near_1e_300():
    # Brent's extrapolation step underflowed here; the solver takes only
    # ratios of like differences.
    f = _Counted(lambda x: 1e-300 * (x ** 3 - 0.2))
    x, fx = _chandrupatla(f, 0.0, f.f(0.0), 1.0, f.f(1.0), 1e-15, 1e-12)
    assert x == pytest.approx(0.2 ** (1 / 3), rel=1e-12) and fx == f.f(x)
    assert len(f.args) <= 12


@pytest.mark.parametrize("fa, fb, end", [(math.nan, 1.0, 0.0),
                                         (-1.0, math.nan, 1.0)])
def test_solver_raises_on_a_nan_end(fa, fb, end):
    f = _Counted(lambda x: x - 0.5)
    with pytest.raises(ValueError, match=f"x={end} is NaN"):
        _chandrupatla(f, 0.0, fa, 1.0, fb, 1e-15, 1e-12)
    assert not f.args


@pytest.mark.parametrize("fa, fb, want", [(2.0, 3.0, (0.0, 2.0)),
                                          (1.0, 2.0, (1.0, 2.0))])
def test_solver_returns_an_end_at_the_level(fa, fb, want):
    # A zero residual at either end is the root, with the value given.
    f = _Counted(lambda x: x + 2.0)
    assert _chandrupatla(f, 0.0, fa, 1.0, fb, 1e-15, 1e-12,
                         level=2.0) == want
    assert not f.args


def test_solver_stops_at_the_tolerance_or_the_last_float():
    f = _Counted(lambda x: 1.0 if x > 0.0 else -1.0)
    # A bracket already within xtol + rtol |x| returns its better end.
    assert _chandrupatla(f, 1.0, -1.0, 1.0 + 1e-13, 2.0, 1e-15,
                         1e-12) == (1.0, -1.0)
    # No float lies inside [0, 5e-324], and tol = 1e-12 * 5e-324 is 0.
    assert _chandrupatla(f, 0.0, -1.0, 5e-324, 1.0, 0.0, 1e-12) == (
        5e-324, 1.0)
    assert not f.args


def test_solver_steps_from_the_better_end():
    # The secant step goes from 0, whose residual is the smaller, a
    # fraction 1e-300 of the way to 1: from 1, the fraction 1 - 1e-300
    # would round to 1.
    f = _Counted(lambda x: x - 1e-300)
    assert _chandrupatla(f, 1.0, f.f(1.0), 0.0, f.f(0.0), 0.0, 1e-12) == (
        1e-300, 0.0)
    assert f.args == [1e-300]


def test_solver_bisects_a_plateau():
    # f(0.5) = f(0) = -1: the inverse quadratic's denominator r3 - r1 is
    # zero, so the next step bisects [0.5, 1].
    f = _Counted(lambda x: -1.0 if x < 0.9 else 10.0 * (x - 0.9))
    x, fx = _chandrupatla(f, 0.0, -1.0, 1.0, 1.0, 1e-15, 1e-12)
    assert f.args[:2] == [0.5, 0.75]
    _assert_verified_root(f, x, 1e-15, 1e-12)


def test_solver_gives_up_after_100_steps():
    # A jump at 1e-300: the steps stay on the plateaus and bisect, and
    # halving [0, 1] down to a bracket within 1e-312 of 1e-300 takes far
    # more than 100 steps.
    f = _Counted(lambda x: 1.0 if x >= 1e-300 else -1.0)
    with pytest.raises(RuntimeError, match="after 100 iterations"):
        _chandrupatla(f, 0.0, -1.0, 1.0, 1.0, 0.0, 1e-12)
    assert len(f.args) == 100


# ----------------------------------------------------------------------
# entropy_integral
# ----------------------------------------------------------------------

def test_entropy_linear():
    # int_0^2 s/2 ds = 1
    assert entropy_integral(linear_h(2.0), 2.0) == pytest.approx(1.0, rel=1e-9)


def test_entropy_exponential_closed_form():
    h = exp_h(1.0, 1.0)
    want = 2.0 * math.log(2.0) - 1.0      # = exp_entropy(1, 1, 1)
    assert want == pytest.approx(0.3862943611198906, rel=1e-15)
    assert entropy_integral(h, 1.0) == pytest.approx(want, rel=1e-9)


def test_entropy_vanishes_at_zero():
    h = exp_h(0.5, 2.0)
    assert entropy_integral(h, 1e-12) < 1e-11


def test_entropy_monotone_and_convex():
    rng = np.random.default_rng(7)
    h = exp_h(1.5, 0.8)
    for _ in range(20):
        a, b = np.sort(rng.uniform(0.05, 5.0, size=2))
        ia, ib = entropy_integral(h, a), entropy_integral(h, b)
        im = entropy_integral(h, 0.5 * (a + b))
        assert ia <= ib + 1e-12
        assert im <= 0.5 * (ia + ib) + 1e-10   # convexity (midpoint)


def test_entropy_out_of_range():
    h = exp_h(-2.0, 1.0)   # sup h = 0.5
    with pytest.raises(OutOfRange):
        entropy_integral(h, 0.5)


# ----------------------------------------------------------------------
# chernoff_min
# ----------------------------------------------------------------------

def test_chernoff_linear():
    # int_0^t 2s ds - 2t = t^2 - 2t, minimized at t=1 -> -1
    assert chernoff_min(linear_h(2.0), 2.0) == pytest.approx(-1.0, rel=1e-9)


def test_chernoff_exponential():
    h = HFunction(lambda t: math.expm1(t), name="expm1")
    want = -(2.0 * math.log(2.0) - 1.0)
    assert chernoff_min(h, 1.0) == pytest.approx(want, rel=1e-8)


def test_chernoff_nonpositive():
    rng = np.random.default_rng(11)
    h = exp_h(2.0, 0.5)
    for _ in range(10):
        assert chernoff_min(h, float(rng.uniform(0.01, 10.0))) <= 0.0


def _assert_chernoff_refused_at_and_beyond_h_sup(h):
    """chernoff_min holds on 0 < x < h_sup, the range of the deviation
    bound, and raises OutOfRange wherever entropy_integral does."""
    inside = 0.5 * h.h_sup
    assert chernoff_min(h, inside) == pytest.approx(
        -entropy_integral(h, inside), rel=1e-7)
    for x in (h.h_sup, math.nextafter(h.h_sup, math.inf),
              1.5 * h.h_sup, math.inf, math.nan, 0.0, -1.0):
        for fn in (chernoff_min, entropy_integral):
            with pytest.raises(OutOfRange):
                fn(h, x)
        with pytest.raises(OutOfRange):
            tail_bound_from_h(h)(x)


def test_chernoff_divergent_is_tagged_minus_inf():
    # Past sup h = 1 the Chernoff objective runs to -inf; chernoff_min
    # tags that x as out of range, as entropy_integral does.
    _assert_chernoff_refused_at_and_beyond_h_sup(exp_h(-1.0, 1.0))


def test_chernoff_at_h_sup_with_infinite_domain():
    # At x = h_sup the objective tends to -1 for h = 1 - e^{-t} and to
    # -inf for h = 1 - 1/(1 + t); both lie outside the bound's range.
    _assert_chernoff_refused_at_and_beyond_h_sup(
        HFunction(lambda t: -math.expm1(-t), h_sup=1.0, name="1-e^-t"))
    _assert_chernoff_refused_at_and_beyond_h_sup(
        HFunction(lambda t: t / (1.0 + t), h_sup=1.0, name="t/(1+t)"))


def test_chernoff_at_and_beyond_h_sup_on_finite_domain():
    # h = t on [0, 2): the infimum would sit at the boundary t_end.
    _assert_chernoff_refused_at_and_beyond_h_sup(
        HFunction(lambda t: t, t_end=2.0, h_sup=2.0, name="t on [0, 2)"))


def test_duality_random_h_family():
    """|chernoff_min + entropy_integral| <= 1e-7 (1 + |entropy|)."""
    rng = np.random.default_rng(101)
    for _ in range(5):
        K = float(rng.uniform(-1.5, 2.0))
        a2 = float(rng.uniform(0.3, 3.0))
        if abs(K) < 1e-3:
            K = 1e-3
        h = exp_h(K, a2)
        hi = 0.9 * h.h_sup if math.isfinite(h.h_sup) else 8.0
        for x in np.linspace(hi / 10, hi, 4):
            ent = entropy_integral(h, float(x))
            che = chernoff_min(h, float(x))
            assert abs(che + ent) <= 1e-7 * (1.0 + abs(ent))


# ----------------------------------------------------------------------
# tail_bound_from_h
# ----------------------------------------------------------------------

def test_tail_bound_linear_is_gaussian():
    a2 = 1.7
    tb = tail_bound_from_h(linear_h(a2))
    for x in (0.3, 1.0, 2.5):
        assert tb(x) == pytest.approx(math.exp(-x * x / (2 * a2)), rel=1e-9)
    assert tb.center == "mean" and tb.direction == "upper"


def test_tail_bound_limits_and_monotone():
    tb = tail_bound_from_h(exp_h(1.0, 1.0))
    xs = np.linspace(0.05, 6.0, 30)
    vals = np.array([tb(float(x)) for x in xs])
    assert vals[0] > 0.99 * math.exp(-entropy_integral(exp_h(1.0, 1.0), 0.05))
    assert np.all(vals[1:] <= vals[:-1] + 1e-15)
    assert np.all(vals <= 1.0) and np.all(vals > 0.0)
    assert tb(1e-9) == pytest.approx(1.0, abs=1e-8)


def test_tail_bound_respects_h_sup():
    h = exp_h(-1.0, 1.0)   # validity (0, 1)
    tb = tail_bound_from_h(h)
    assert tb.valid_hi == pytest.approx(1.0)
    with pytest.raises(OutOfRange):
        tb(1.5)
    vals, regimes, valid = tb.evaluate_grid([0.5, 1.5])
    assert valid.tolist() == [True, False]
    assert vals[1] == 1.0 and regimes[1] == "out_of_range"


def test_grid_evaluation_matches_pointwise():
    h = exp_h(0.9, 1.4)
    xs = np.array([3.0, 0.2, 1.1, 0.2, 2.4])
    grid = evaluate_entropy_grid(h, xs)
    for x, g in zip(xs, grid):
        assert g == pytest.approx(entropy_integral(h, float(x)), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(K=st.sampled_from([-1.5, -0.4, 0.6, 1.2]),
       a2=st.floats(0.3, 3.0),
       fractions=st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=8),
       repeats=st.integers(0, 3))
def test_grid_path_matches_pointwise(K, a2, fractions, repeats):
    h = exp_h(K, a2)
    scale = h.h_sup if math.isfinite(h.h_sup) else 6.0
    xs = [f * scale for f in fractions] + [0.0, scale]
    xs = xs + xs[:repeats]          # duplicates, unsorted
    tb = tail_bound_from_h(h)
    vals, regimes, valid = tb.evaluate_grid(xs)
    inside = [0.0 < x < h.h_sup for x in xs]
    assert valid.tolist() == inside
    assert np.all(np.isfinite(vals))
    for x, v, ok, reg in zip(xs, vals, valid, regimes):
        if ok:
            want = math.exp(-entropy_integral(h, x))
            assert v == pytest.approx(want, rel=1e-9)
        else:
            assert v == 1.0 and reg == "out_of_range"


def test_grid_never_flags_bad_values_valid():
    raw = {0.5: 0.3, 1.0: math.nan, 1.5: math.inf, 2.0: 1.5, 2.5: -0.1}
    for grid_fn in (None, lambda xs: np.array([raw[x] for x in xs])):
        tb = TailBound(name="t", fn=raw.__getitem__, grid_fn=grid_fn)
        vals, regimes, valid = tb.evaluate_grid(list(raw))
        assert valid.tolist() == [True, False, False, False, False]
        assert vals.tolist() == [0.3, 1.0, 1.0, 1.0, 1.0]
        assert regimes[1:] == ["out_of_range"] * 4


def test_pointwise_arithmetic_error_marks_point_invalid():
    def fn(x):
        if x == 1.0:
            raise ZeroDivisionError("float division by zero")
        if x == 1.5:
            raise OverflowError("math range error")
        return 0.25

    vals, regimes, valid = TailBound(name="t", fn=fn).evaluate_grid(
        [0.5, 1.0, 1.5, 2.0])
    assert valid.tolist() == [True, False, False, True]
    assert vals.tolist() == [0.25, 1.0, 1.0, 0.25]
    assert regimes[1:3] == ["out_of_range"] * 2


def test_grid_invalidates_points_above_failed_segment():
    # h_sup is declared infinite but h saturates at 1 before t_end = 5,
    # so h^{-1} is undefined above h(5-) ~ 0.993: those points, and only
    # those, fail.
    h = HFunction(lambda t: -math.expm1(-t), t_end=5.0, name="saturating")
    xs = [0.999, 0.5, 0.995, 0.2, 0.999]
    vals, _, valid = tail_bound_from_h(h).evaluate_grid(xs)
    assert valid.tolist() == [False, True, False, True, False]
    for x, v, ok in zip(xs, vals, valid):
        if ok:
            assert v == pytest.approx(math.exp(-entropy_integral(h, x)),
                                      rel=1e-9)
    with pytest.raises(OutOfRange):
        evaluate_entropy_grid(h, xs)


# ----------------------------------------------------------------------
# Legendre route for h that is not convex, and its work
# ----------------------------------------------------------------------

def _plateau_entropy(x):
    return 0.5 * x * x + max(x - 1.0, 0.0)


@pytest.mark.parametrize("h, want", [
    (HFunction(math.log1p, name="log1p"), lambda x: math.expm1(x) - x),
    (HFunction(lambda t: min(t, 1.0) + max(t - 2.0, 0.0), name="plateau"),
     _plateau_entropy),
])
def test_legendre_route_closed_forms_for_nonconvex_h(h, want):
    xs = np.linspace(0.05, 5.0, 23)
    tb = tail_bound_from_h(h)
    vals, _, valid = tb.evaluate_grid(xs[::-1])
    assert np.all(valid)
    for x, v in zip(xs[::-1], vals):
        assert -math.log(v) == pytest.approx(want(x), rel=1e-9)
        assert -math.log(tb(x)) == pytest.approx(want(x), rel=1e-9)
        assert -chernoff_min(h, x) == pytest.approx(want(x), rel=1e-9)


def test_grid_makes_a_third_of_the_reference_h_calls():
    calls = 0

    def poisson(t):
        nonlocal calls
        calls += 1
        return math.expm1(t)

    h = HFunction(poisson, name="poisson[K=1]")
    xs = np.linspace(0.2, 10.0, 50)
    legendre = -np.log(tail_bound_from_h(h).evaluate_grid(xs)[0])
    legendre_calls, calls = calls, 0
    reference = evaluate_entropy_grid(h, xs)
    assert legendre == pytest.approx(reference, rel=1e-9)
    assert 3 * legendre_calls < calls


# ----------------------------------------------------------------------
# Inverse route: each node solved inside its solved neighbours' bracket
# ----------------------------------------------------------------------

@pytest.mark.parametrize("h, want", [
    (HFunction(math.log1p, name="log1p"), lambda x: math.expm1(x) - x),
    (HFunction(lambda t: min(t, 1.0) + max(t - 2.0, 0.0), name="plateau"),
     _plateau_entropy),
    (HFunction(lambda t: t / (1.0 - t), t_end=1.0, name="t/(1-t)"),
     lambda x: x - math.log1p(x)),
])
def test_inverse_route_closed_forms(h, want):
    xs = np.linspace(0.05, 5.0, 23)
    grid = evaluate_entropy_grid(h, xs[::-1])
    for x, g in zip(xs[::-1], grid):
        assert g == pytest.approx(want(x), rel=1e-9)
        assert entropy_integral(h, x) == pytest.approx(want(x), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(eigs=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=6),
       signs=st.lists(st.booleans(), min_size=6, max_size=6),
       lip_c=st.floats(0.5, 2.0),
       frac=st.floats(0.05, 0.97))
def test_inverse_route_dual_to_chernoff_on_quadratic_spectra(eigs, signs,
                                                            lip_c, frac):
    a = tuple(e if up else -e for e, up in zip(eigs, signs))
    h = quad_wiener_bound(QuadraticSpec((a,)), lip_c=lip_c,
                          form="exact_h").meta["h"]
    x = h(frac * h.t_end)
    assert abs(entropy_integral(h, x) + chernoff_min(h, x)) <= 1e-9


def test_inverse_route_call_ceiling():
    # One cold solve at x = 1, then every node inside its neighbours'
    # bracket: 82 calls, where a cold solve per node took 111.
    h_fn = _Counted(math.expm1)
    h = HFunction(h_fn, name="expm1")
    want = 2.0 * math.log(2.0) - 1.0
    assert entropy_integral(h, 1.0) == pytest.approx(want, rel=1e-13)
    assert len(h_fn.args) <= 90


@pytest.mark.parametrize("f, ceiling", [(0.1, 78), (0.667, 170),
                                        (0.95, 450)])
def test_inverse_route_halves_confirm_panels_call_ceiling(f, ceiling):
    # A 5-eigenvalue exact_h spectrum at x = h(f t_end). Plain bisection
    # took 78 / 228 / 674 calls at f = 0.1 / 0.667 / 0.95; with the halves
    # confirming a panel before it is split, 78 / 157 / 405 (at f = 0.1
    # the first panel is accepted, as before).
    exact = quad_wiener_bound(QuadraticSpec(((0.7, -1.2, 0.9, 1.1, -0.6),)),
                              form="exact_h").meta["h"]
    h_fn = _Counted(exact.eval_fn)
    h = HFunction(h_fn, t_end=exact.t_end, h_sup=exact.h_sup)
    x = exact(f * exact.t_end)
    assert abs(entropy_integral(h, x) + chernoff_min(exact, x)) <= 1e-12
    assert len(h_fn.args) <= ceiling


def test_legendre_route_reports_a_nan_of_h_as_the_inverse_route_does():
    # h is NaN on (0.30, 0.31): the first panel of int_0^0.5 (0.5 - h) has
    # a node at 0.3019..., the inverse route a node solved there.
    h_fn = _Counted(lambda t: math.nan if 0.30 < t < 0.31 else t)
    h = HFunction(h_fn, name="nan on (0.30, 0.31)")
    for route in (chernoff_min, entropy_integral):
        h_fn.args.clear()
        with pytest.raises(OutOfRange, match="NaN"):
            route(h, 0.5)
        assert len(h_fn.args) <= 200, route
    # The grid fails at 0.5 and at every point above it.
    tb = tail_bound_from_h(h)
    assert tb.evaluate_grid([0.7, 0.5])[2].tolist() == [False, False]
    with pytest.raises(OutOfRange, match="NaN"):
        tb(0.5)
    assert tb(0.2) == pytest.approx(math.exp(-0.02), rel=1e-12)


def test_inverse_route_raises_on_nan_and_decreasing_h():
    above = HFunction(lambda t: t if t < 5.0 else math.nan, name="nan > 5")
    with pytest.raises(OutOfRange, match="NaN"):
        entropy_integral(above, 6.0)
    with pytest.raises(OutOfRange, match="NaN"):
        evaluate_entropy_grid(above, [1.0, 6.0])
    assert entropy_integral(above, 4.0) == pytest.approx(8.0, rel=1e-12)
    # Nodes at s = 1.81 and 2.11 have their roots where h is NaN: the
    # neighbours' bracket meets the NaN, and the cold solve reports it.
    hole = HFunction(lambda t: math.nan if 1.5 < t < 2.5 else t, name="hole")
    with pytest.raises(OutOfRange, match="NaN"):
        entropy_integral(hole, 3.0)
    with pytest.raises(OutOfRange, match="NaN"):
        evaluate_entropy_grid(hole, [3.0, 1.0])
    sin3 = HFunction(lambda t: math.sin(3.0 * t), name="sin")
    with pytest.raises(NonMonotone):
        entropy_integral(sin3, 0.5)
    with pytest.raises(NonMonotone):
        evaluate_entropy_grid(sin3, [0.5, 0.2])


def test_inverse_route_refuses_points_outside_the_range():
    h = exp_h(-1.0, 1.0)   # sup h = 1
    for xs in ([0.0, 0.5], [0.5, 1.0], [-0.5]):
        with pytest.raises(OutOfRange, match=r"must lie in \(0, sup h\)"):
            evaluate_entropy_grid(h, xs)
    assert evaluate_entropy_grid(h, []).shape == (0,)


def test_invert_below_level_up_to_the_largest_float():
    # 1 - e^-t stays below 2 for every t, though the h claims no sup.
    h = HFunction(lambda t: -math.expm1(-t), name="1 - e^-t")
    with pytest.raises(OutOfRange, match="up to the largest float"):
        invert_h(h, 2.0)


def test_inverse_route_budget_failure_is_linear(monkeypatch):
    # h^{-1}(s) wiggles with amplitude 1e-6 and period 6e-6 on [0, 1], so
    # no panel converges before the budget (cut to 2^16 here) runs out.
    # The node table keeps only the nodes right of the accepted panels.
    monkeypatch.setattr(engine, "_MAX_EVALS", 2 ** 16)
    sizes = []
    call = engine._InverseNodes.__call__

    def spied(nodes, s):
        sizes.append(len(nodes.levels))
        return call(nodes, s)

    monkeypatch.setattr(engine._InverseNodes, "__call__", spied)
    h = HFunction(lambda t: t + 1e-6 * math.sin(1e6 * t), name="wiggle")
    t0 = time.perf_counter()
    with pytest.raises(QuadratureFailure):
        entropy_integral(h, 1.0)
    assert time.perf_counter() - t0 < 20.0
    assert len(sizes) > 2 ** 16 - 30
    assert max(sizes) <= 2000


# ----------------------------------------------------------------------
# A closed-form Legendre transform: HFunction.legendre
# ----------------------------------------------------------------------

def test_legendre_route_takes_the_closed_form_and_inverse_route_never():
    # h(t) = 2t: int_0^x h^{-1} = x^2/4.
    calls = []

    def closed(x):
        calls.append(x)
        return x * x / 4.0

    h = HFunction(lambda t: 2.0 * t, legendre=closed, name="linear[2]")
    tb = tail_bound_from_h(h)
    xs = np.linspace(0.1, 3.0, 7)
    values, _, valid = tb.evaluate_grid(xs)
    assert np.all(valid)
    for x, v in zip(xs.tolist(), values.tolist()):
        assert tb(x) == v == math.exp(-(x * x / 4.0))
    assert chernoff_min(h, 1.5) == -0.5625
    assert len(calls) == 15
    assert entropy_integral(h, 1.5) == pytest.approx(0.5625, rel=1e-12)
    assert evaluate_entropy_grid(h, xs) == pytest.approx(xs * xs / 4.0,
                                                         rel=1e-12)
    assert len(calls) == 15


def test_engine_hands_h_python_floats_only():
    """Both routes evaluate h at Python floats, never at numpy scalars,
    whatever array type the grid arrives in."""
    def spy(t):
        assert type(t) is float, type(t)
        return math.expm1(t)

    h = HFunction(spy, name="float spy")
    xs = np.linspace(0.2, 5.0, 9)
    want = [exp_entropy(1.0, 1.0, x) for x in xs.tolist()]
    assert evaluate_entropy_grid(h, xs) == pytest.approx(want, rel=1e-9)
    assert evaluate_entropy_grid(h, xs.tolist()) == pytest.approx(want,
                                                                  rel=1e-9)
    assert entropy_integral(h, xs[3]) == pytest.approx(want[3], rel=1e-9)
    assert -chernoff_min(h, xs[3]) == pytest.approx(want[3], rel=1e-9)
    values, _, valid = tail_bound_from_h(h).evaluate_grid(xs)
    assert np.all(valid)
    assert -np.log(values) == pytest.approx(want, rel=1e-9)


# ----------------------------------------------------------------------
# One bracket search at every scale
# ----------------------------------------------------------------------

_LAMS = (1e-150, 1e-20, 1e20, 1e150)


@pytest.mark.parametrize("lam", _LAMS)
def test_poisson_exponent_is_scale_free(lam):
    # h_lam(t) = lam^2 (e^{lam t} - 1)/lam = lam h_1(lam t) has h_1's
    # exponent at lam x. math.expm1 raises OverflowError past t ~ 710/lam,
    # so for lam >= 1e20 the cold probe at t = 1 fails and bounds the
    # search from above.
    h = HFunction(lambda t: lam * math.expm1(lam * t), name=f"poisson[{lam}]")
    xs = np.array([0.3, 1.0, 2.5, 6.0])
    want = [exp_entropy(1.0, 1.0, x) for x in xs.tolist()]
    tb = tail_bound_from_h(h)
    values, _, valid = tb.evaluate_grid(lam * xs)
    assert np.all(valid)
    assert -np.log(values) == pytest.approx(want, rel=1e-12, abs=0.0)
    for x, w in zip((lam * xs).tolist(), want):
        assert -math.log(tb(x)) == pytest.approx(w, rel=1e-12, abs=0.0)
    assert evaluate_entropy_grid(h, lam * xs) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", _LAMS)
def test_area_product_exponent_is_scale_free(lam):
    # product_h on LevyArea(pi lam) is lam h_1(lam t) for h_1 that of
    # LevyArea(pi), with t_end = 1/lam.
    xs = np.array([0.5, 1.0, 2.0])

    def exponent(scale):
        h = product_h(FunctionalProfile(K=1.0, alpha2=1.0),
                      LevyArea(T=math.pi * scale), "shared_beta")
        values, _, valid = tail_bound_from_h(h).evaluate_grid(scale * xs)
        assert np.all(valid)
        return -np.log(values)

    assert exponent(lam) == pytest.approx(exponent(1.0), rel=1e-12, abs=0.0)


def test_steep_h_that_overflows_at_the_cold_probe():
    # h(t) = e^{800 t} - 1 raises OverflowError at t = 1: the search closes
    # in below it. h^{-1}(s) = log1p(s)/800, so the exponent is
    # ((1 + x) log1p(x) - x)/800.
    h = HFunction(lambda t: math.expm1(800.0 * t), name="expm1(800 t)")
    xs = [1.0, 5.0]
    want = [exp_entropy(1.0, 1.0, x) / 800.0 for x in xs]
    values, _, valid = tail_bound_from_h(h).evaluate_grid(xs)
    assert valid.tolist() == [True, True]
    assert values.tolist() == pytest.approx([0.99951725, 0.99283758],
                                            abs=5e-9)
    assert values == pytest.approx(np.exp(-np.array(want)), rel=1e-14)
    assert [-chernoff_min(h, x) for x in xs] == pytest.approx(want, rel=1e-12)
    assert evaluate_entropy_grid(h, xs) == pytest.approx(want, rel=1e-12)
    assert invert_h(h, 1.0) == pytest.approx(math.log(2.0) / 800.0,
                                             rel=1e-12)


def test_legendre_route_reports_an_overflow_of_h_as_out_of_range():
    # h = t raises OverflowError on (0.25, 0.27), where the quadrature of
    # 0.5 - h on [0.2, 0.5] has a node: the grid marks 0.5 and every point
    # above it invalid instead of raising.
    def h_fn(t):
        if 0.25 < t < 0.27:
            raise OverflowError("math range error")
        return t

    tb = tail_bound_from_h(HFunction(h_fn, name="overflow on (0.25, 0.27)"))
    values, regimes, valid = tb.evaluate_grid([0.2, 0.5, 0.7])
    assert valid.tolist() == [True, False, False]
    assert values[0] == pytest.approx(math.exp(-0.02), rel=1e-12)
    assert regimes[1:] == ["out_of_range"] * 2


def test_monotone_spot_check_is_relative():
    # test_invert_detects_decrease at scale 1e-20: h falls by ~4e-21
    # between the probes t = 1 and 2, far below any absolute slack.
    bad = HFunction(lambda t: 1e-20 * math.sin(3.0 * t), name="tiny sin")
    with pytest.raises(NonMonotone):
        invert_h(bad, 1.5e-20)
