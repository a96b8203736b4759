"""End-to-end acceptance checks for the tail-bound toolkit.

Each test covers one numbered acceptance criterion and prints a single
``[criterion N] PASS/FAIL`` line with the load-bearing numbers and its
runtime (run ``pytest tests/test_acceptance.py -rA`` to see the lines).
The Monte-Carlo criteria share three module-scoped 1e7-draw batches with
frozen seeds; their stated time limits include the time spent building
the batch they depend on.

Criteria:

 1. Chernoff/entropy duality: the minimized Legendre form and the
    entropy integral agree to 1e-7 relative on randomized h-functions.
 2. The engine bound for the Poisson-exponential h-function reproduces
    the closed-form Bennett curve to 1e-8 relative.
 3. Quadratic-chaos upper bounds (all three forms) are never violated
    by a 1e7-draw batch on a 20-point centered grid.
 4. The stochastic-area Lipschitz bound is never violated by a
    1e7-draw batch.
 5. Asymptotic lower bounds stay below the empirical upper confidence
    limit at every audited point of their windows.
 6. Fitted log-tail slopes match the exact spectral slopes.
 7. Median-centered stable bounds hold and the one-jump lower bound
    stays below the empirical band.
 8. Two-regime bounds are continuous at the regime switch and their
    Gaussian branch equals the closed Gaussian curve exactly.
 9. Independent samplers of the same law pass two-sample KS tests.
10. The elementary exponential-ratio inequality used by the median
    bounds has no numerical counterexamples.
11. The verification pipeline's false-violation rate on exact synthetic
    tails stays within its design level.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from levytails import (
    HFunction,
    QuadraticSpec,
    RngContract,
    StableSpec,
    TailBound,
    asymptotic_slope,
    audit_bound,
    bennett_bound,
    chernoff_min,
    deviation_values,
    empirical_median,
    empirical_tail,
    entropy_integral,
    fit_log_slope,
    id_lower_curve,
    levy_area_bound,
    quad_wiener_bound,
    quad_wiener_lower,
    sample_brownian_quadratic,
    sample_chaos2,
    sample_id_compound,
    sample_levy_area,
    sample_stable,
    stable_median_bound,
    tail_bound_from_h,
    two_regime_bound,
)
from levytails.models import QuadraticSpectral, Stable, chaos_eigenvalues

_COUNT = 10_000_000


def _report(num, ok, detail, t0, limit=None):
    """Print the one-line verdict for a criterion and assert it."""
    elapsed = time.perf_counter() - t0
    if limit is not None:
        ok = ok and elapsed <= limit
        detail = f"{detail}; {elapsed:.1f}s of {limit:.0f}s"
    else:
        detail = f"{detail}; {elapsed:.1f}s"
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _tail_grid(dev, p_hi, p_lo, points):
    """Geometric grid between the empirical (1-p_hi) and (1-p_lo) quantiles."""
    lo = float(np.quantile(dev, 1.0 - p_hi))
    hi = float(np.quantile(dev, 1.0 - p_lo))
    return np.geomspace(max(lo, 1e-12), hi, points)


def _mean_and_se(values):
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size))
    return mean, se


# ----------------------------------------------------------------------
# Shared Monte-Carlo batches (frozen seeds, built once per module)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def chaos_data():
    """1e7 draws of the Brownian energy chaos, T=1, N=500 eigenvalues."""
    t0 = time.perf_counter()
    spectrum = chaos_eigenvalues("energy", T=1.0, N=500,
                                 convention="spectral")
    batch = sample_chaos2(spectrum, _COUNT, RngContract(20260301),
                          stream_id=0)
    build = time.perf_counter() - t0
    mean, se = _mean_and_se(batch.values)
    return {"batch": batch, "spec": QuadraticSpec((tuple(spectrum.eigs),)),
            "mean": mean, "se": se, "build": build}


@pytest.fixture(scope="module")
def area_data():
    """1e7 draws of the planar stochastic area on [0, pi], 4096 steps."""
    t0 = time.perf_counter()
    batch = sample_levy_area(math.pi, 4096, _COUNT, RngContract(20260302),
                             stream_id=0)
    build = time.perf_counter() - t0
    mean, se = _mean_and_se(batch.values)
    return {"batch": batch, "T": math.pi, "mean": mean, "se": se,
            "build": build}


@pytest.fixture(scope="module")
def stable_data():
    """1e7 draws of a symmetric 1.2-stable scalar, unit total scale."""
    t0 = time.perf_counter()
    batch = sample_stable(1.2, 1, "uniform", _COUNT, RngContract(20260303),
                          stream_id=0, sigma_total=1.0)
    build = time.perf_counter() - t0
    return {"batch": batch, "median": empirical_median(batch),
            "build": build}


# ----------------------------------------------------------------------
# Criterion 1: Chernoff minimization equals the entropy integral
# ----------------------------------------------------------------------

def test_criterion_1_duality_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    h_functions = []
    for i in range(10):
        n_eig = int(rng.integers(2, 8))
        eigs = rng.uniform(0.1, 2.0, n_eig) * rng.choice([-1.0, 1.0], n_eig)
        if i % 3 == 0:
            eigs = np.abs(eigs)
        lip_c = float(rng.uniform(0.5, 2.0))
        target = "sup" if i % 4 == 1 else "lipschitz"
        bound = quad_wiener_bound(QuadraticSpec((tuple(eigs),)),
                                  lip_c=lip_c, form="exact_h", target=target)
        h_functions.append(bound.meta["h"])

    worst = 0.0
    checked = 0
    for h in h_functions:
        for t in h.t_end * np.linspace(0.1, 0.95, 20):
            x = h.eval_fn(float(t))
            entropy = entropy_integral(h, x)
            legendre = chernoff_min(h, x)
            worst = max(worst,
                        abs(legendre + entropy) / max(1.0, abs(entropy)))
            checked += 1
    ok = checked == 200 and worst <= 1e-7
    _report(1, ok, f"{checked} duality points, worst relative residual "
            f"{worst:.2e} (tolerance 1e-7)", t0, limit=10.0)


# ----------------------------------------------------------------------
# Criterion 2: engine bound reproduces the closed Bennett curve
# ----------------------------------------------------------------------

def test_criterion_2_poisson_h_matches_bennett():
    t0 = time.perf_counter()
    rng = np.random.default_rng(662607)
    worst = 0.0
    for _ in range(10):
        K = float(rng.uniform(0.25, 3.0))
        alpha2 = float(rng.uniform(0.25, 4.0))
        h = HFunction(
            eval_fn=lambda t, K=K, a2=alpha2: a2 * math.expm1(t * K) / K,
            t_end=math.inf, h_sup=math.inf, name="poisson_h")
        engine = tail_bound_from_h(h)
        closed = bennett_bound(K, alpha2)
        x_hi = 1.0
        while closed.fn(x_hi) > math.exp(-35.0):
            x_hi *= 2.0
        for x in np.linspace(0.02 * x_hi, x_hi, 50):
            reference = closed.fn(float(x))
            worst = max(worst,
                        abs(engine.fn(float(x)) - reference) / reference)
    ok = worst <= 1e-8
    _report(2, ok, f"10 parameter pairs x 50 points, worst relative "
            f"difference {worst:.2e} (tolerance 1e-8)", t0, limit=10.0)


# ----------------------------------------------------------------------
# Criterion 3: quadratic-chaos upper bounds survive a 1e7 audit
# ----------------------------------------------------------------------

def test_criterion_3_quadratic_upper_bounds_hold(chaos_data):
    t0 = time.perf_counter()
    violations = 0
    verdicts = []
    for form in ("exact_h", "log_form", "min_form"):
        bound = quad_wiener_bound(chaos_data["spec"], lip_c=1.0, form=form,
                                  target="lipschitz")
        dev, meta = deviation_values(chaos_data["batch"], bound,
                                     chaos_data["mean"])
        grid = _tail_grid(dev, 5e-2, 2e-5, 20)
        curve = empirical_tail(dev, grid, meta=meta)
        report = audit_bound(curve, bound, chaos_data["mean"],
                             center_se=chaos_data["se"])
        violations += sum(1 for p in report.points
                          if p.verdict == "VIOLATION")
        verdicts.append(f"{form}={report.verdict}")
    ok = violations == 0
    _report(3, ok, f"3 forms x 20 points, {violations} violations "
            f"({', '.join(verdicts)})", t0 - chaos_data["build"],
            limit=300.0)


# ----------------------------------------------------------------------
# Criterion 4: stochastic-area Lipschitz bound survives a 1e7 audit
# ----------------------------------------------------------------------

def test_criterion_4_area_upper_bound_holds(area_data):
    t0 = time.perf_counter()
    bound = levy_area_bound(area_data["T"], n=1, lip_c=1.0,
                            variant="lipschitz")
    dev, meta = deviation_values(area_data["batch"], bound,
                                 area_data["mean"])
    grid = _tail_grid(dev, 5e-2, 2e-5, 20)
    curve = empirical_tail(dev, grid, meta=meta)
    report = audit_bound(curve, bound, area_data["mean"],
                         center_se=area_data["se"])
    violations = sum(1 for p in report.points if p.verdict == "VIOLATION")
    ok = violations == 0
    _report(4, ok, f"20 points, {violations} violations "
            f"(overall {report.verdict})", t0 - area_data["build"],
            limit=600.0)


# ----------------------------------------------------------------------
# Criterion 5: asymptotic lower bounds stay below the empirical band
# ----------------------------------------------------------------------

def test_criterion_5_lower_bounds_in_window(chaos_data, area_data):
    t0 = time.perf_counter()
    details = []
    ok = True
    cases = (
        ("chaos", quad_wiener_lower(chaos_data["spec"], b=0.5,
                                    target="inf_norm"),
         chaos_data),
        ("area", quad_wiener_lower(b=0.5, target="area", T=area_data["T"],
                                   n=1),
         area_data),
    )
    for label, bound, data in cases:
        dev, meta = deviation_values(data["batch"], bound, data["mean"])
        grid = np.geomspace(bound.meta["audit_lo"] * 1.03,
                            float(np.quantile(dev, 1.0 - 2e-5)), 14)
        curve = empirical_tail(dev, grid, meta=meta)
        report = audit_bound(curve, bound, data["mean"],
                             center_se=data["se"])
        audited = report.decision["audited_points"]
        violations = sum(1 for p in report.points
                         if p.verdict == "VIOLATION")
        ok = ok and audited >= 10 and violations == 0
        details.append(f"{label}: {audited} audited, "
                       f"{violations} contradictions")
    _report(5, ok, "; ".join(details), t0)


# ----------------------------------------------------------------------
# Criterion 6: fitted log-tail slopes match the exact spectral slopes
# ----------------------------------------------------------------------

def test_criterion_6_log_tail_slopes(chaos_data, area_data):
    t0 = time.perf_counter()
    results = []
    ok = True
    cases = (
        ("chaos", chaos_data,
         asymptotic_slope("quad", chaos_data["spec"]), -math.pi ** 2 / 4.0,
         0.20),
        ("area", area_data,
         asymptotic_slope("area", area_data["T"]), -1.0, 0.15),
    )
    for label, data, slope, expected, tol in cases:
        ok = ok and abs(slope - expected) <= 1e-12 * abs(expected)
        dev = data["batch"].values - data["mean"]
        grid = _tail_grid(dev, 1e-2, 1e-5, 15)
        curve = empirical_tail(dev, grid)
        fit = fit_log_slope(curve, (grid[0] * 0.999, grid[-1] * 1.001))
        rel = abs(fit.estimate - expected) / abs(expected)
        ok = ok and rel <= tol
        results.append(f"{label}: fitted {fit.estimate:.4f} vs {expected:.4f}"
                       f" ({100 * rel:.1f}% of {100 * tol:.0f}% allowed)")
    _report(6, ok, "; ".join(results), t0)


# ----------------------------------------------------------------------
# Criterion 7: stable median bounds hold, one-jump lower bound below band
# ----------------------------------------------------------------------

def test_criterion_7_stable_median_bounds(stable_data):
    t0 = time.perf_counter()
    median = stable_data["median"]["median"]
    spec = StableSpec(alpha=1.2, sigma_total=1.0, lip_c=1.0)
    details = []
    ok = True
    for variant in ("general", "sharp"):
        bound = stable_median_bound(spec, variant=variant)
        dev, meta = deviation_values(stable_data["batch"], bound, median)
        hi = float(np.quantile(dev, 1.0 - 2e-5))
        grid = np.geomspace(bound.valid_lo * 1.05, hi, 10)
        curve = empirical_tail(dev, grid, meta=meta)
        report = audit_bound(curve, bound, median)
        violations = sum(1 for p in report.points
                         if p.verdict == "VIOLATION")
        ok = ok and violations == 0
        details.append(f"{variant}: {violations} violations "
                       f"({report.verdict})")

    lower = id_lower_curve(Stable(alpha=1.2, sigma_total=1.0))
    dev, meta = deviation_values(stable_data["batch"], lower, median)
    grid = _tail_grid(dev, 2e-2, 2e-5, 10)
    curve = empirical_tail(dev, grid, meta=meta)
    report = audit_bound(curve, lower, median)
    audited = report.decision["audited_points"]
    contradictions = sum(1 for p in report.points
                         if p.verdict == "VIOLATION")
    ok = ok and audited == 10 and contradictions == 0
    details.append(f"one-jump lower: {contradictions} contradictions at "
                   f"{audited} points")
    _report(7, ok, "; ".join(details), t0 - stable_data["build"],
            limit=600.0)


# ----------------------------------------------------------------------
# Criterion 8: two-regime bounds glue continuously, Gaussian branch exact
# ----------------------------------------------------------------------

def test_criterion_8_two_regime_continuity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(577215)
    worst_jump = 0.0
    exact = True
    for _ in range(50):
        K = float(rng.uniform(0.5, 2.0))
        alpha2 = float(rng.uniform(0.5, 3.0))
        alpha3 = 0.5 * float(rng.uniform(0.05, 0.8)) * K * alpha2
        alpha4 = 0.5 * float(rng.uniform(0.05, 0.8)) * K * K * alpha2
        alpha3_f = float(rng.uniform(0.1, 1.0)) * 2.0 * alpha4 / K

        for bound, denominator, coefficient in (
            (two_regime_bound(K, alpha2, alpha3=alpha3,
                              variant="third_moment"),
             alpha2 - alpha3 / K, 4.0),
            (two_regime_bound(K, alpha2, alpha3=alpha3_f, alpha4=alpha4,
                              variant="fourth_moment"),
             alpha2 - alpha4 / (K * K), 6.0),
        ):
            x0 = bound.meta["x0"]
            left = bound.fn(float(np.nextafter(x0, -math.inf)))
            right = bound.fn(float(np.nextafter(x0, math.inf)))
            worst_jump = max(worst_jump,
                             abs(left - right) / max(left, right))
            for x in np.linspace(0.1 * x0, 0.999 * x0, 7):
                gaussian = math.exp(-x * x / (coefficient * denominator))
                if bound.fn(float(x)) != gaussian:
                    exact = False
    ok = worst_jump <= 1e-9 and exact
    _report(8, ok, f"100 parameter sets: worst relative jump at the switch "
            f"{worst_jump:.2e} (tolerance 1e-9), Gaussian branch exact: "
            f"{exact}", t0)


# ----------------------------------------------------------------------
# Criterion 9: independent samplers of the same law pass KS tests
# ----------------------------------------------------------------------

def test_criterion_9_cross_model_ks():
    t0 = time.perf_counter()
    draws = 100_000
    spectrum = chaos_eigenvalues("energy", T=1.0, N=500,
                                 convention="pathwise")
    single = QuadraticSpectral(eigs=(2.0,))
    p_brownian = []
    p_compound = []
    for i in range(5):
        rng = RngContract(20260309 + i)
        discretized = sample_brownian_quadratic("square_norm", 1.0, 2048,
                                                draws, rng, stream_id=0)
        series = sample_chaos2(spectrum, draws, rng, stream_id=1)
        p_brownian.append(
            stats.ks_2samp(discretized.values, series.values).pvalue)
        chaos = sample_chaos2((2.0,), draws, rng, stream_id=2)
        compound = sample_id_compound(single, 1e-4, draws, rng, stream_id=3,
                                      center="mean", gauss_smalljump=True)
        p_compound.append(
            stats.ks_2samp(chaos.values, compound.values).pvalue)
    ok = min(p_brownian) >= 1e-3 and min(p_compound) >= 1e-3
    _report(9, ok, f"5 seeds x 1e5 draws: min p-value "
            f"{min(p_brownian):.3f} (discretized vs series), "
            f"{min(p_compound):.3f} (series vs compound-Poisson); "
            f"reject level 0.001", t0)


# ----------------------------------------------------------------------
# Criterion 10: exponential-ratio inequality has no counterexamples
# ----------------------------------------------------------------------

def test_criterion_10_exponential_ratio_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(271828)

    def log_expm1(z):
        # log(e^z - 1), stable for both large and small z.
        if z > 1e-8:
            return z + math.log1p(-math.exp(-z))
        return math.log(math.expm1(z))

    counterexamples = 0
    for _ in range(10_000):
        u, v = np.sort(rng.uniform(1e-6, 1.0, 2) * 20.0)
        x = 10.0 ** rng.uniform(-3.0, 2.0)
        lhs = log_expm1(u * x) - log_expm1(v * x)
        rhs = math.log(u / v) + (u - v) * x / 2.0
        if lhs > rhs + 1e-12 * max(1.0, abs(rhs)):
            counterexamples += 1
    ok = counterexamples == 0
    _report(10, ok, f"1e4 random (u, v, x) triples, "
            f"{counterexamples} counterexamples to "
            f"(e^ux - 1)/(e^vx - 1) <= (u/v) e^((u - v) x / 2)", t0)


# ----------------------------------------------------------------------
# Criterion 11: false-violation rate on exact synthetic tails
# ----------------------------------------------------------------------

def test_criterion_11_verification_calibration():
    t0 = time.perf_counter()
    draws = 100_000
    exp_bound = TailBound(name="exact_exp", fn=lambda x: math.exp(-x),
                          meta={"transform": "value"})
    gauss_bound = TailBound(
        name="exact_gauss",
        fn=lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)),
        meta={"transform": "value"})
    false_violations = 0
    for i in range(200):
        rng = np.random.default_rng(20260400 + i)
        if i < 100:
            values = rng.exponential(1.0, draws)
            bound, grid = exp_bound, np.linspace(0.2, 6.0, 15)
        else:
            values = rng.standard_normal(draws)
            bound, grid = gauss_bound, np.linspace(0.1, 3.5, 20)
        dev, meta = deviation_values(values, bound, 0.0)
        curve = empirical_tail(dev, grid, meta=meta)
        if audit_bound(curve, bound, 0.0).verdict == "VIOLATION":
            false_violations += 1
    ok = false_violations <= 6
    _report(11, ok, f"{false_violations}/200 false violations on exact "
            f"tails (allowed 6 = 3%)", t0)
