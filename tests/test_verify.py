"""Tests for the verification module: curves, medians, audits, slopes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from levytails import (
    FunctionalProfile,
    QuadraticSpec,
    RngContract,
    SampleBatch,
    TailBound,
    audit_bound,
    deviation_values,
    dimension_free_bound,
    empirical_median,
    empirical_tail,
    fit_log_slope,
    levy_area_bound,
    quad_euclid_iid_bound,
    sample_chaos2,
    sample_levy_area,
    verify,
)
from levytails.errors import (
    CenterMismatch,
    EmptyBatch,
    InsufficientTail,
    PreconditionViolated,
)
from levytails.models import QuadraticSpectral, chaos_eigenvalues
from levytails.verify import TailCurve, _clopper_pearson


def _batch(values, seed=0):
    values = np.asarray(values, dtype=np.float64)
    return SampleBatch(values=values, count=values.shape[0], seed=seed,
                       stream_id=0, meta={})


# ----------------------------------------------------------------------
# empirical_tail
# ----------------------------------------------------------------------


def test_tail_constant_batch():
    curve = empirical_tail(_batch(np.full(1000, 3.0)),
                           np.array([2.0, 3.0, 4.0]))
    assert curve.p_hat.tolist() == [1.0, 1.0, 0.0]
    assert curve.count == 1000
    # at x beyond the support the upper band is 1 - 0.01**(1/n), small
    assert 0.0 < curve.ci_hi[2] < 0.01
    assert curve.ci_lo[2] == 0.0


def test_tail_monotone_and_bracketing():
    rng = np.random.default_rng(3)
    curve = empirical_tail(rng.exponential(1.0, 100_000),
                           np.linspace(0.0, 8.0, 17))
    assert np.all(np.diff(curve.p_hat) <= 0.0)
    assert np.all(curve.ci_lo <= curve.p_hat)
    assert np.all(curve.p_hat <= curve.ci_hi)


def test_tail_bernoulli_coverage():
    # two one-sided 99% limits form a two-sided 98% interval; over 500
    # seeded repetitions the true p = 0.1 must be covered >= 98% of the
    # time (Clopper-Pearson is conservative, so typically more).
    rng = np.random.default_rng(7)
    grid = np.array([0.5])
    covered = 0
    for _ in range(500):
        values = (rng.random(10_000) < 0.1).astype(np.float64)
        curve = empirical_tail(values, grid)
        covered += curve.ci_lo[0] <= 0.1 <= curve.ci_hi[0]
    assert covered >= 490


def test_tail_validation():
    with pytest.raises(EmptyBatch):
        empirical_tail(np.array([]), np.array([1.0]))
    with pytest.raises(PreconditionViolated):
        empirical_tail(np.ones(10), np.array([2.0, 1.0]))
    with pytest.raises(PreconditionViolated):
        empirical_tail(np.ones((10, 2)), np.array([1.0]))


# Samples with ties and +-inf, drawn from a small pool of values.
_POOL = st.lists(st.one_of(st.floats(-5.0, 5.0), st.sampled_from(
    [-math.inf, math.inf])), min_size=1, max_size=8)


def _pooled(data, pool, min_size, max_size):
    size = data.draw(st.integers(min_size, max_size))
    seed = data.draw(st.integers(0, 2 ** 32))
    picks = np.random.default_rng(seed).integers(0, len(pool), size)
    return np.array(pool, dtype=np.float64)[picks]


@settings(max_examples=200, deadline=None)
@given(_POOL, st.data())
def test_tail_counts_equal_the_full_sort(pool, data):
    values = _pooled(data, pool, 1, 300)
    finite = values[np.isfinite(values)]
    lo, hi = (finite.min(), finite.max()) if finite.size else (0.0, 0.0)
    # Grid points below the minimum, above the maximum, at sample values
    # and in between.
    candidates = np.unique(np.concatenate([
        values, [lo - 1.0, hi + 1.0, -math.inf, math.inf],
        data.draw(st.lists(st.floats(-6.0, 6.0), max_size=5))]))
    keep = data.draw(st.lists(st.booleans(), min_size=candidates.size,
                              max_size=candidates.size))
    grid = candidates[np.array(keep, dtype=bool)]
    if grid.size == 0:
        grid = candidates[:1]
    curve = empirical_tail(values, grid)
    n = values.size
    k = n - np.searchsorted(np.sort(values), grid, side="left")
    ci_lo, ci_hi = _clopper_pearson(k, n)
    assert curve.p_hat.tobytes() == (k / n).tobytes()
    assert curve.ci_lo.tobytes() == ci_lo.tobytes()
    assert curve.ci_hi.tobytes() == ci_hi.tobytes()


def test_tail_and_median_refuse_nan():
    # Sorted last, a NaN used to count as an exceedance at every grid
    # point (p_hat 0.25 at x = 5 here) and to make the median NaN.
    values = [0.1, 0.2, math.nan, 0.3] * 50
    with pytest.raises(PreconditionViolated, match="50 NaN"):
        empirical_tail(values, [0.15, 0.25, 5.0])
    with pytest.raises(PreconditionViolated, match="50 NaN"):
        empirical_tail(values, [5.0])  # no finite value in the tail
    with pytest.raises(PreconditionViolated, match="50 NaN"):
        empirical_median(values)


def test_tail_curve_invariants_enforced():
    x = np.array([1.0, 2.0])
    with pytest.raises(PreconditionViolated):
        TailCurve(x, np.array([0.2, 0.4]), np.array([0.1, 0.3]),
                  np.array([0.3, 0.5]), 10)  # p_hat increasing
    with pytest.raises(PreconditionViolated):
        TailCurve(x, np.array([0.4, 0.2]), np.array([0.5, 0.1]),
                  np.array([0.6, 0.3]), 10)  # band below p_hat


# ----------------------------------------------------------------------
# empirical_median
# ----------------------------------------------------------------------


def test_median_symmetric_contains_zero():
    rng = np.random.default_rng(11)
    est = empirical_median(_batch(rng.normal(0.0, 1.0, 10_000)))
    assert est["ci_lo"] < 0.0 < est["ci_hi"]
    assert est["ci_lo"] <= est["median"] <= est["ci_hi"]


def test_median_shift_equivariance():
    rng = np.random.default_rng(12)
    values = rng.exponential(1.0, 5_000)
    a = empirical_median(_batch(values))
    b = empirical_median(_batch(values + 5.0))
    assert b["median"] == pytest.approx(a["median"] + 5.0, abs=1e-12)
    assert b["ci_lo"] == pytest.approx(a["ci_lo"] + 5.0, abs=1e-12)
    assert b["ci_hi"] == pytest.approx(a["ci_hi"] + 5.0, abs=1e-12)


def test_median_normal_width():
    rng = np.random.default_rng(13)
    est = empirical_median(_batch(rng.normal(0.0, 1.0, 1_000_000)))
    assert est["ci_hi"] - est["ci_lo"] < 0.01


def test_median_needs_count():
    with pytest.raises(PreconditionViolated):
        empirical_median(_batch(np.arange(50, dtype=np.float64)))


@settings(max_examples=200, deadline=None)
@given(_POOL, st.data())
def test_median_equals_np_median(pool, data):
    # Odd and even n; ties, and +-inf among the middle values.
    values = _pooled(data, pool, 100, 301)
    est = empirical_median(values)
    ordered = np.sort(values)
    n = values.size
    # Equal as numbers: where 0.0 and -0.0 tie in the middle, the sort and
    # np.median's partition may put either one there.
    median, expected = est["median"], float(np.median(values))
    assert median == expected or (math.isnan(median) and
                                  math.isnan(expected))
    j = max(int(stats.binom.ppf(0.005, n, 0.5)) - 1, 0)
    k = min(int(stats.binom.ppf(0.995, n, 0.5)) + 1, n - 1)
    assert (est["ci_lo"], est["ci_hi"]) == (ordered[j], ordered[k])


# The band and rank quantiles come from scipy.special; scipy.stats, not
# imported by the package, is the oracle they must match bit for bit.
_ORACLE_NS = [1, 2, 3, 7, 100, 999, 1000, 4097, 10**4, 123_457, 10**6,
              10**7, 10**8]


@pytest.mark.parametrize("n", _ORACLE_NS)
def test_clopper_pearson_equals_beta_ppf(n):
    if n <= 5000:
        k = np.arange(n + 1)
    else:
        k = np.unique(np.r_[0:30, n - 30:n + 1,
                            np.linspace(0, n, 300).astype(np.int64)])
    lo, hi = verify._clopper_pearson(k, n)
    alpha = 1.0 - verify._LEVEL
    want_lo = np.zeros(k.shape)
    want_hi = np.ones(k.shape)
    pos, below = k > 0, k < n
    want_lo[pos] = stats.beta.ppf(alpha, k[pos], n - k[pos] + 1)
    want_hi[below] = stats.beta.ppf(1.0 - alpha, k[below] + 1, n - k[below])
    assert lo.tobytes() == want_lo.tobytes()
    assert hi.tobytes() == want_hi.tobytes()


def test_median_ranks_equal_binom_ppf():
    ns = list(range(100, 3000)) + [4097, 10**4, 123_457, 10**6, 10**7,
                                   10**8]
    for n in ns:
        for q in (0.005, 0.995):
            assert verify._binom_ppf(q, n) == int(stats.binom.ppf(q, n, 0.5))
    # At q = P(B <= k) the continuous inverse lands on or just above k,
    # and the rank must come back down to k.
    for n in (1001, 10**4):
        for k in range(n // 2 - 60, n // 2 + 60):
            assert verify._binom_ppf(float(special.bdtr(k, n, 0.5)), n) == k
    assert verify._Z99 == float(stats.norm.ppf(verify._LEVEL))
    values = np.random.default_rng(14).normal(size=1001)
    ordered = np.sort(values)
    est = empirical_median(_batch(values))
    assert est["ci_lo"] == ordered[int(stats.binom.ppf(0.005, 1001, 0.5)) - 1]
    assert est["ci_hi"] == ordered[int(stats.binom.ppf(0.995, 1001, 0.5)) + 1]


# ----------------------------------------------------------------------
# deviation_values
# ----------------------------------------------------------------------


def test_deviation_transforms():
    bounds = {
        t: TailBound(name=t, fn=lambda x: 1.0, meta={"transform": t})
        for t in ("value", "abs", "abs_inf")
    }
    batch = _batch([1.0, 2.0, 4.0])
    out, meta = deviation_values(batch, bounds["value"], 2.0)
    assert out.tolist() == [-1.0, 0.0, 2.0]
    assert meta == {"transform": "value", "center": 2.0, "shift": 0.0}
    out, _ = deviation_values(batch, bounds["abs"], 2.0)
    assert out.tolist() == [1.0, 0.0, 2.0]
    vec = _batch([[1.0, -3.0], [0.5, 0.25]])
    out, _ = deviation_values(vec, bounds["abs_inf"], 0.0)
    assert out.tolist() == [3.0, 0.5]
    norm_bound = TailBound(name="n", fn=lambda x: 1.0,
                           center="shifted_mean",
                           meta={"transform": "norm", "shift_mult": 2.0})
    out, meta = deviation_values(vec, norm_bound, 1.5)
    assert out == pytest.approx(np.hypot([1.0, 0.5], [3.0, 0.25]) - 3.0)
    assert meta["shift"] == 3.0


# ----------------------------------------------------------------------
# audit_bound
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def exp_million():
    rng = np.random.default_rng(42)
    return rng.exponential(1.0, 1_000_000)


def test_audit_unit_bound_never_violated(exp_million):
    unit = TailBound(name="unit", fn=lambda x: 1.0)
    curve = empirical_tail(exp_million[:10_000], np.linspace(0.2, 5.0, 10))
    report = audit_bound(curve, unit, float(exp_million[:10_000].mean()))
    assert report.verdict == "PASS"
    assert all(p.verdict != "VIOLATION" for p in report.points)
    # grid points at or below the estimated mean are out of range for a
    # deviation bound and are excluded rather than judged
    assert report.points[0].verdict == "out_of_range"


def test_audit_exponential_pass_and_violation(exp_million):
    curve = empirical_tail(exp_million, np.linspace(0.5, 8.0, 16))
    slack = TailBound(name="half-rate", fn=lambda x: math.exp(-x / 2))
    wrong = TailBound(name="double-rate", fn=lambda x: math.exp(-2 * x))
    assert audit_bound(curve, slack, 0.0).verdict == "PASS"
    report = audit_bound(curve, wrong, 0.0)
    assert report.verdict == "VIOLATION"
    # detected already at moderate x, not just in the deep tail
    first = next(p for p in report.points if p.verdict == "VIOLATION")
    assert first.x <= 2.0


def test_audit_lower_bound_window_semantics(exp_million):
    grid = np.array([0.5, 1.5, 2.5, 4.0])
    curve = empirical_tail(exp_million, grid)
    low_ok = TailBound(name="low-ok", fn=lambda x: math.exp(-2 * x),
                       direction="lower", meta={"audit_lo": 1.0})
    low_bad = TailBound(name="low-bad", fn=lambda x: math.exp(-x / 2),
                        direction="lower", meta={"audit_lo": 1.0})
    low_mixed = TailBound(
        name="low-mixed",
        fn=lambda x: math.exp(-2 * x) if x < 2.0 else math.exp(-x / 2),
        direction="lower", meta={"audit_lo": 1.0})
    r_ok = audit_bound(curve, low_ok, 0.0)
    assert r_ok.verdict == "PASS"
    assert r_ok.points[0].verdict == "informational"
    r_bad = audit_bound(curve, low_bad, 0.0)
    assert r_bad.verdict == "VIOLATION"
    # a lower bound is only declared violated when every audited window
    # point contradicts it; one consistent point clears it
    assert audit_bound(curve, low_mixed, 0.0).verdict == "PASS"


def test_audit_lower_bound_inconclusive(exp_million):
    # At 1.5 the bound lies between p_hat and the band's upper limit: the
    # point neither clears nor contradicts it. Beyond, the bound is twice
    # the upper limit. A window of violations and one inconclusive point
    # is not unanimous, and no point clears the bound.
    grid = np.array([0.5, 1.5, 2.5, 4.0])
    curve = empirical_tail(exp_million, grid)
    between = 0.5 * (curve.p_hat + curve.ci_hi)
    table = dict(zip(grid.tolist(), [0.0, between[1], 2.0 * curve.ci_hi[2],
                                     2.0 * curve.ci_hi[3]]))
    low = TailBound(name="low-inconclusive", fn=lambda x: table[x],
                    direction="lower", meta={"audit_lo": 1.0})
    report = audit_bound(curve, low, 0.0)
    assert [p.verdict for p in report.points] == [
        "informational", "INCONCLUSIVE", "VIOLATION", "VIOLATION"]
    assert report.verdict == "INCONCLUSIVE"


def test_audit_center_handling(exp_million):
    curve = empirical_tail(exp_million[:10_000], np.linspace(0.5, 4.0, 8))
    bound = TailBound(name="b", fn=lambda x: 1.0)
    with pytest.raises(CenterMismatch):
        audit_bound(curve, bound, None)
    abs_bound = TailBound(name="a", fn=lambda x: 1.0,
                          meta={"transform": "abs"})
    dev, meta = deviation_values(_batch(exp_million[:10_000]), abs_bound, 1.0)
    dev_curve = empirical_tail(dev, np.linspace(0.1, 3.0, 6), meta=meta)
    # matching center: fine; different center: loud
    assert audit_bound(dev_curve, abs_bound, 1.0).verdict in (
        "PASS", "INCONCLUSIVE")
    with pytest.raises(CenterMismatch):
        audit_bound(dev_curve, abs_bound, 1.1)
    # transform mismatch between curve and bound: loud
    value_bound = TailBound(name="v", fn=lambda x: 1.0,
                            meta={"transform": "value"})
    with pytest.raises(CenterMismatch):
        audit_bound(dev_curve, value_bound, 1.0)


_UNREAD = [
    ("nrom", {"transform": "nrom"}, "unknown transform 'nrom'"),
    ("value-shift", {"transform": "value", "shift_mult": 2.0},
     "shift_mult is read only by 'norm'"),
    ("upper-lo", {"audit_lo": 1.0}, "audit_lo is read only for a lower bound"),
]


@pytest.mark.parametrize("name, meta, fragment", _UNREAD,
                         ids=[u[0] for u in _UNREAD])
def test_audit_refuses_a_reading_it_would_not_use(exp_million, name, meta,
                                                  fragment):
    # A misspelt transform, a shift on a bound that is not "norm" and an
    # audit start on an upper bound would each be ignored; each is refused
    # naming the bound, on a raw curve, on a deviation curve that carries
    # the bound's own transform, and in deviation_values.
    bound = TailBound(name=name, fn=lambda x: 1.0, meta=meta)
    grid = np.linspace(0.5, 4.0, 8)
    curves = [empirical_tail(exp_million[:10_000], grid),
              empirical_tail(exp_million[:10_000], grid,
                             meta={"transform": meta.get("transform",
                                                         "value")})]
    refusal = f"bound {name!r}: {fragment}"
    for curve in curves:
        with pytest.raises(PreconditionViolated, match=refusal):
            audit_bound(curve, bound, 0.0)
    with pytest.raises(PreconditionViolated, match=refusal):
        deviation_values(_batch(exp_million[:100]), bound, 0.0)


def test_audit_norm_reading_on_raw_curves(exp_million):
    """A "norm" bound audited on a raw curve of norms reads each grid
    point x as x - shift_mult * center: the same points as the curve whose
    grid is already shifted; its +-2 SE rows move by shift_mult * SE."""
    seen = []

    def record(ds):
        seen.append(ds.copy())
        return np.exp(-ds)

    bound = TailBound(name="norm", fn=lambda x: math.exp(-x),
                      grid_fn=record, center="shifted_mean",
                      valid_lo=-math.inf,
                      meta={"transform": "norm", "shift_mult": 2.0})
    center, se = 0.75, 0.01
    raw = empirical_tail(exp_million, np.linspace(1.0, 6.0, 11))
    shifted = TailCurve(raw.x_grid - 1.5, raw.p_hat, raw.ci_lo, raw.ci_hi,
                        raw.count, {"transform": "norm", "center": center})
    r_raw = audit_bound(raw, bound, center, center_se=se)
    r_shifted = audit_bound(shifted, bound, center)
    assert [p.deviation for p in r_raw.points] == (
        raw.x_grid - 1.5).tolist()
    for p_raw, p_shifted in zip(r_raw.points, r_shifted.points):
        assert {**p_raw.__dict__, "x": 0.0} == {**p_shifted.__dict__,
                                                "x": 0.0}
    base, minus, plus = seen[:3]
    assert minus == pytest.approx(base + 2.0 * 2.0 * se, rel=0, abs=1e-15)
    assert plus == pytest.approx(base - 2.0 * 2.0 * se, rel=0, abs=1e-15)


def test_audit_grid_cap(exp_million):
    curve = empirical_tail(exp_million[:1000], np.linspace(0.1, 4.0, 21))
    with pytest.raises(PreconditionViolated):
        audit_bound(curve, TailBound(name="b", fn=lambda x: 1.0), 0.0)


def test_audit_reorder_invariance(exp_million):
    values = exp_million[:50_000].copy()
    rng = np.random.default_rng(0)
    shuffled = values.copy()
    rng.shuffle(shuffled)
    grid = np.linspace(0.5, 5.0, 10)
    bound = TailBound(name="half-rate", fn=lambda x: math.exp(-x / 2))
    r1 = audit_bound(empirical_tail(values, grid), bound, 0.0)
    r2 = audit_bound(empirical_tail(shuffled, grid), bound, 0.0)
    assert [p.verdict for p in r1.points] == [p.verdict for p in r2.points]
    assert r1.verdict == r2.verdict


def test_audit_sensitivity_and_estimates(exp_million):
    curve = empirical_tail(exp_million, np.linspace(0.5, 6.0, 12))
    bound = TailBound(name="half-rate", fn=lambda x: math.exp(-x / 2))
    mean = float(exp_million.mean())
    se = float(exp_million.std() / math.sqrt(exp_million.size))
    report = audit_bound(curve, bound, 0.0, center_se=se,
                         estimates={"mean": mean, "mean_se": se})
    assert report.sensitivity["center_se"] == se
    assert report.sensitivity["center_minus_2se"] in (
        "PASS", "VIOLATION", "INCONCLUSIVE")
    assert report.estimates["mean"] == mean
    # exact mean vs MC mean agree within standard-error propagation
    assert abs(mean - 1.0) < 4.0 * se


def test_audit_report_serialization(exp_million):
    curve = empirical_tail(exp_million, np.linspace(0.5, 6.0, 12))
    bound = TailBound(name="half-rate", fn=lambda x: math.exp(-x / 2))
    report = audit_bound(curve, bound, 0.0)
    doc = json.loads(report.to_json())
    assert doc["verdict"] == "PASS"
    assert doc["bound"] == "half-rate"
    assert len(doc["points"]) == 12
    rows = report.csv_rows()
    assert rows[0] == "x,p_hat,ci_lo,ci_hi,bound,verdict"
    assert len(rows) == 13
    cells = rows[1].split(",")
    assert float(cells[0]) == 0.5 and cells[5] in (
        "PASS", "INCONCLUSIVE", "VIOLATION", "out_of_range", "informational")
    # the true tail exp(-x) sits inside [ci_lo, ci_hi] at the first point
    assert float(cells[2]) <= math.exp(-0.5) <= float(cells[3])


def test_audit_counts_informative_points(exp_million):
    # A bound at its trivial value cannot be contradicted: the decision
    # shows how many audited points could have been.
    curve = empirical_tail(exp_million[:10_000], np.linspace(0.5, 5.0, 10))
    vacuous = TailBound(name="unit", fn=lambda x: 1.0)
    capped = TailBound(name="capped", fn=lambda x: min(1.0, math.exp(2 - x)))
    nothing = TailBound(name="zero", fn=lambda x: 0.0, direction="lower")
    lower = TailBound(name="low", fn=lambda x: 0.0 if x < 2.0 else 1e-9,
                      direction="lower", meta={"audit_lo": 1.0})
    for bound, audited, informative in ((vacuous, 10, 0), (capped, 10, 6),
                                        (nothing, 10, 0), (lower, 9, 7)):
        report = audit_bound(curve, bound, 0.0)
        assert report.decision["audited_points"] == audited
        assert report.decision["informative_points"] == informative
    assert audit_bound(curve, vacuous, 0.0).verdict == "PASS"


def test_quad_euclid_iid_bound_holds_where_it_is_informative():
    """The dimension-free norm bound on n = 1, 10, 100 i.i.d. energy chaoses
    (N = 500, 5e4 draws each on its own stream), audited on a grid where
    the bound is below 1 for b = 0.8 and 0.9."""
    spectrum = chaos_eigenvalues("energy", T=1.0, N=500,
                                 convention="spectral")
    rng = RngContract(20261018)
    columns = np.column_stack([
        sample_chaos2(spectrum, 50_000, rng, stream_id=j).values
        for j in range(100)])
    # One law for every component, so all draws estimate E|J_2(f_2)|.
    spec = QuadraticSpec((tuple(spectrum.eigs),),
                         mean_abs=float(np.abs(columns).mean()))
    scan = np.linspace(0.01, 10.0, 1000)
    for b in (0.8, 0.9):
        bound = quad_euclid_iid_bound(spec, b=b)
        x0 = next(x for x in scan if bound(float(x)) < 1.0)
        grid = x0 * np.array([1.0, 1.2, 1.5, 2.0, 2.5])
        for n in (1, 10, 100):
            values = columns[:, :n]
            center = float(np.linalg.norm(values, axis=1).mean())
            dev, meta = deviation_values(values, bound, center)
            report = audit_bound(empirical_tail(dev, grid, meta=meta),
                                 bound, center)
            assert report.decision["informative_points"] >= 3, (b, n)
            assert all(p.verdict != "VIOLATION" for p in report.points), (
                b, n)


def test_dimension_free_bound_holds_on_iid_chaoses():
    """dimension_free_bound(mode="norm"), beta = 1, on the norm of n = 1 and
    10 independent chaoses (1/2)(Z^2 - 1) (2e5 draws each on its own
    stream), mean_norm from the draws, audited on 8 points from where the
    bound drops below 0.99 to the depth with 50 exceedances.

    The bound barely depends on n (mean_norm^2 grows like n); it falls
    below 0.99 near x = 0.5 and is still about 3.4 decades above p_hat at
    the deepest point, p_hat = 2.5e-4.
    """
    model = QuadraticSpectral((1.0,))
    rng = RngContract(20261023)
    columns = np.column_stack([
        sample_chaos2(model, 200_000, rng, stream_id=j).values
        for j in range(10)])
    scan = np.linspace(0.05, 5.0, 100)
    for n in (1, 10):
        values = columns[:, :n]
        mean_norm = float(np.linalg.norm(values, axis=1).mean())
        bound = dimension_free_bound(
            FunctionalProfile(K=1.0, alpha2=1.0, beta=(1.0,), n=n), model,
            mode="norm", mean_norm=mean_norm)
        dev, meta = deviation_values(values, bound, mean_norm)
        x0 = scan[np.argmax(bound.evaluate_grid(scan)[0] < 0.99)]
        grid = np.geomspace(x0, np.sort(dev)[-50], 8)
        report = audit_bound(empirical_tail(dev, grid, meta=meta), bound,
                             mean_norm)
        assert report.decision["informative_points"] >= 3, n
        assert all(p.verdict != "VIOLATION" for p in report.points), n
        print(f"n={n}: log10(bound/p_hat) = " + " ".join(
            f"{math.log10(p.bound_value / p.p_hat):.2f}"
            for p in report.points if p.p_hat > 0.0))


def test_levy_area_euclid_bound_holds_where_it_is_informative():
    """levy_area_bound(variant="euclid") on the norm of n independent areas
    (T = pi, 4096 steps, 5e4 draws each on its own stream), audited from
    where the bound drops below 1 to the depth with 50 exceedances.

    The bound falls below 1 at x = 3.17, 1.48 and 0.29 for b = 0.9, 0.95
    and 0.99, while the 50-exceedance depth of ||S|| - 2 E||S|| shrinks
    with n: 4.8 at n = 1, 1.3 at n = 10 and -10.2 at n = 100.  So n >= 10
    has no window for b <= 0.95, and n = 100 none at all.
    """
    rng = RngContract(20261019)
    columns = np.column_stack([
        sample_levy_area(math.pi, 4096, 50_000, rng, stream_id=j).values
        for j in range(10)])
    mean_abs = float(np.abs(columns).mean())
    scan = np.linspace(0.01, 10.0, 1000)
    for n, b in ((1, 0.9), (1, 0.95), (10, 0.99)):
        bound = levy_area_bound(math.pi, n=n, b=b, variant="euclid",
                                mean_abs=mean_abs)
        x0 = next(x for x in scan if bound(float(x)) < 1.0)
        values = columns[:, :n]
        center = float(np.linalg.norm(values, axis=1).mean())
        dev, meta = deviation_values(values, bound, center)
        x50 = float(np.sort(dev)[-50])
        assert x50 > x0, (n, b)
        report = audit_bound(
            empirical_tail(dev, np.linspace(x0, x50, 10), meta=meta),
            bound, center)
        assert report.decision["informative_points"] >= 3, (n, b)
        assert all(p.verdict != "VIOLATION" for p in report.points), (n, b)


# ----------------------------------------------------------------------
# fit_log_slope
# ----------------------------------------------------------------------


def test_slope_exponential_recovery():
    rng = np.random.default_rng(9)
    curve = empirical_tail(rng.exponential(0.5, 1_000_000),
                           np.linspace(0.25, 3.0, 12))
    fit = fit_log_slope(curve, (0.25, 3.0))
    assert fit.estimate == pytest.approx(-2.0, abs=fit.stderr)
    assert fit.n_points == 12


def test_slope_stderr_is_calibrated():
    # the reported stderr must track the true sampling spread of the
    # estimate (nested exceedance counts are correlated; a naive WLS
    # formula understates by about 2x)
    estimates, stderrs = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        curve = empirical_tail(rng.exponential(0.5, 200_000),
                               np.linspace(0.25, 3.0, 12))
        fit = fit_log_slope(curve, (0.25, 3.0))
        estimates.append(fit.estimate)
        stderrs.append(fit.stderr)
    spread = float(np.std(estimates))
    reported = float(np.mean(stderrs))
    assert 0.6 * spread < reported < 1.8 * spread


def test_slope_insufficient_tail():
    rng = np.random.default_rng(6)
    curve = empirical_tail(rng.exponential(1.0, 10_000),
                           np.linspace(0.5, 4.0, 8))
    with pytest.raises(InsufficientTail):
        fit_log_slope(curve, (3.9, 4.1))  # one usable point
    # beyond the sample maximum every p_hat is 0: nothing to fit
    far = empirical_tail(rng.exponential(1.0, 100),
                         np.linspace(20.0, 30.0, 6))
    with pytest.raises(InsufficientTail):
        fit_log_slope(far, (20.0, 30.0))


# ----------------------------------------------------------------------
# calibration: a bound that exactly equals the true tail must almost
# never be flagged (familywise-adjusted decisions keep the observed
# false-violation rate far below the per-point band level)
# ----------------------------------------------------------------------


def test_calibration_false_violation_rate():
    bound = TailBound(name="exact", fn=lambda x: math.exp(-x))
    grid = np.linspace(0.2, 6.0, 15)
    violations = 0
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        curve = empirical_tail(rng.exponential(1.0, 100_000), grid)
        report = audit_bound(curve, bound, 0.0)
        violations += report.verdict == "VIOLATION"
    assert violations <= 6  # 3% of 200
