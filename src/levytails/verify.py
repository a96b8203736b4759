"""Statistical comparison of Monte-Carlo batches against catalog bounds.

The empirical side is deliberately conservative: exceedance frequencies get
exact one-sided 99% Clopper-Pearson limits per grid point (sharper than a
uniform DKW band in the deep tail, where DKW is useless), and an upper
bound is declared VIOLATED only when even the lower confidence limit lies
strictly above it.  Multiplicity is controlled by capping audit grids at
20 points rather than by widening the bands.

Centering: every catalog bound states its center ("mean", "median" or
"shifted_mean") and, in ``meta["transform"]`` ("value" if unset), how raw
samples map to the deviation variable the bound constrains (an unknown
transform, or a meta key the audit would not read, is refused):

``"value"``    d = v - center              (one-sided deviation)
``"abs"``      d = |v - center|            (two-sided deviation)
``"abs_inf"``  d = max_i |v_i - center|    (vector sup-deviation)
``"norm"``     d = ||v|| - shift_mult * center   (norm beyond a multiple
               of the estimated mean norm)

:func:`deviation_values` applies that map; :func:`empirical_tail` then
turns any 1-D sample into a :class:`TailCurve`.  :func:`audit_bound` also
accepts a curve over *raw* scalar values and re-expresses its grid as
deviations itself -- for an "abs" bound this audits the one-sided tail
P(F - c >= d) <= P(|F - c| >= d), which is sound, just one-sided.

Lower bounds are asymptotic statements: they are audited only beyond the
soft threshold published by the bound (``meta["audit_lo"]``), and a
VIOLATION requires the empirical upper limit to fall below the bound at
*every* audited point in that window; elsewhere points are reported
informationally.

Multiplicity: an upper bound is declared VIOLATED at *some* point of the
grid, so the per-point band level must be split across the audited points
(Bonferroni) or the familywise false-violation rate balloons to roughly
(number of points) x 1%.  The published ci_lo/ci_hi stay per-point 99%;
the VIOLATION decision uses the stricter adjusted limit, which can only
make contradictions rarer, so "VIOLATION implies the published band
strictly contradicts" still holds.  Lower bounds need no adjustment:
their rule quantifies over *all* window points (an intersection), which
already deflates the familywise error below the per-point level.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .engine import TailBound
from .errors import (
    CenterMismatch,
    EmptyBatch,
    InsufficientTail,
    PreconditionViolated,
)
from .models import _special

__all__ = [
    "TailCurve",
    "SlopeFit",
    "PointAudit",
    "VerificationReport",
    "empirical_tail",
    "deviation_values",
    "empirical_median",
    "audit_bound",
    "fit_log_slope",
]

# One-sided confidence level of every band in this module.
_LEVEL = 0.99
# Audit grids are capped at this many points (multiplicity control).
_MAX_AUDIT_POINTS = 20
# z-score matching the one-sided 99% level, used to convert band widths
# into log-space standard errors for the slope fit: ndtri(0.99), a literal
# so that importing the module loads no scipy.
_Z99 = 2.3263478740408408


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class TailCurve:
    """Empirical exceedance curve with one-sided 99% bands per point."""

    x_grid: np.ndarray
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    count: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.x_grid = np.asarray(self.x_grid, dtype=np.float64)
        self.p_hat = np.asarray(self.p_hat, dtype=np.float64)
        self.ci_lo = np.asarray(self.ci_lo, dtype=np.float64)
        self.ci_hi = np.asarray(self.ci_hi, dtype=np.float64)
        if not (self.x_grid.shape == self.p_hat.shape == self.ci_lo.shape
                == self.ci_hi.shape):
            raise PreconditionViolated("curve arrays must share one shape")
        if np.any(np.diff(self.x_grid) <= 0.0):
            raise PreconditionViolated("x_grid must be strictly increasing")
        if np.any(np.diff(self.p_hat) > 1e-15):
            raise PreconditionViolated("p_hat must be nonincreasing in x")
        if np.any(self.ci_lo > self.p_hat) or np.any(self.p_hat > self.ci_hi):
            raise PreconditionViolated("bands must bracket p_hat pointwise")


@dataclass
class SlopeFit:
    """Weighted least-squares fit of the log-tail decay."""

    estimate: float
    stderr: float
    window: tuple
    n_points: int = 0


@dataclass
class PointAudit:
    """One grid point of an audit: the deviation, the band, the bound."""

    x: float
    deviation: float
    p_hat: float
    ci_lo: float
    ci_hi: float
    bound_value: float
    regime: str
    verdict: str


@dataclass
class VerificationReport:
    """Outcome of auditing one bound against one empirical curve."""

    bound_name: str
    direction: str
    center: str
    center_estimate: float
    points: list
    verdict: str
    bound_params: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    sensitivity: dict | None = None
    decision: dict = field(default_factory=dict)
    curve: TailCurve | None = None

    def _doc(self) -> dict:
        """The report as one JSON document, each point a dict: to_json
        encodes it, and the CLI adds its run keys before writing it."""
        return {
            "bound": self.bound_name,
            "direction": self.direction,
            "center": self.center,
            "center_estimate": self.center_estimate,
            "verdict": self.verdict,
            "params": self.bound_params,
            "points": [vars(p) for p in self.points],
            "estimates": self.estimates,
            "sensitivity": self.sensitivity,
            "decision": self.decision,
            "count": None if self.curve is None else self.curve.count,
        }

    def to_json(self) -> str:
        return json.dumps(self._doc(), sort_keys=True, indent=2)

    def csv_rows(self) -> list:
        """Per-point rows in the `x,p_hat,ci_lo,ci_hi,bound,verdict` schema."""
        rows = ["x,p_hat,ci_lo,ci_hi,bound,verdict"]
        for p in self.points:
            rows.append(
                f"{p.x:.17g},{p.p_hat:.17g},{p.ci_lo:.17g},"
                f"{p.ci_hi:.17g},{p.bound_value:.17g},{p.verdict}"
            )
        return rows


# ---------------------------------------------------------------------------
# Empirical curves
# ---------------------------------------------------------------------------


def _clopper_pearson(k: np.ndarray, n: int, alpha: float = 1.0 - _LEVEL):
    """Exact one-sided lower/upper limits for k successes out of n.

    Each limit is exceeded by the truth with probability at most
    ``alpha`` (so the default gives the module's 99% bands).
    """
    k = np.asarray(k, dtype=np.int64)
    lo = np.zeros(k.shape, dtype=np.float64)
    hi = np.ones(k.shape, dtype=np.float64)
    pos = k > 0
    betaincinv = _special().betaincinv
    lo[pos] = betaincinv(k[pos], n - k[pos] + 1, alpha)
    below = k < n
    hi[below] = betaincinv(k[below] + 1, n - k[below], 1.0 - alpha)
    return lo, hi


def _binom_ppf(q: float, n: int) -> int:
    """Smallest k with P(Binomial(n, 1/2) <= k) >= q, for 0 < q < 1.

    The continuous inverse rounded up, then one step down where the CDF
    already reaches q there. At the two levels empirical_median uses,
    this gives scipy's binom.ppf ranks.
    """
    special = _special()
    k = math.ceil(special.bdtrik(q, n, 0.5))
    below = max(k - 1, 0)
    return below if special.bdtr(below, n, 0.5) >= q else k


def _values_1d(batch) -> np.ndarray:
    values = np.asarray(getattr(batch, "values", batch), dtype=np.float64)
    if values.size == 0:
        raise EmptyBatch("batch contains no samples")
    return values


def _refuse_nan(ordered: np.ndarray, name: str) -> None:
    """Raise if a sorted sample holds NaN; np.sort puts NaN last."""
    if ordered.size and np.isnan(ordered[-1]):
        nans = np.count_nonzero(np.isnan(ordered))
        raise PreconditionViolated(
            f"{name}: the sample holds {nans} NaN value(s)")


def empirical_tail(batch, x_grid, *, meta: dict | None = None) -> TailCurve:
    """Exceedance curve p_hat(x) = #{v >= x}/count with exact 99% bands.

    ``batch`` is a SampleBatch or a plain 1-D array of scalar samples;
    vector batches must first be reduced to the deviation variable with
    :func:`deviation_values`.  Grid points beyond the observed support are
    allowed (they simply get p_hat = 0 with its band).  A sample that holds
    NaN is refused: NaN has no place in the order the counts rest on.

    Only the values not below ``x_grid[0]`` are sorted: a value below it
    lies below every grid point, so the counts #{v >= x} are those of the
    whole sorted sample.  NaN is not below anything, so it stays in the
    sorted part, at its end.
    """
    values = _values_1d(batch)
    if values.ndim != 1:
        raise PreconditionViolated(
            "empirical_tail wants scalar samples; reduce vector batches "
            "with deviation_values first"
        )
    x_grid = np.asarray(x_grid, dtype=np.float64)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise PreconditionViolated("x_grid must be a nonempty 1-D array")
    if np.any(np.diff(x_grid) <= 0.0):
        raise PreconditionViolated("x_grid must be strictly increasing")
    n = values.size
    tail = np.compress(~(values < x_grid[0]), values)
    tail.sort()
    _refuse_nan(tail, "empirical_tail")
    # #{v >= x} by binary search on the sorted tail.
    k = tail.size - np.searchsorted(tail, x_grid, side="left")
    p_hat = k / n
    ci_lo, ci_hi = _clopper_pearson(k, n)
    curve_meta = {"transform": "raw", "center": 0.0, "shift": 0.0}
    if meta:
        curve_meta.update(meta)
    return TailCurve(x_grid, p_hat, ci_lo, ci_hi, n, curve_meta)


def _reading(bound: TailBound) -> tuple:
    """The one reader of ``bound``'s audit keys: its transform, the multiple
    of the center a raw value loses (``shift_mult``, "norm" only) and a lower
    bound's window start (``audit_lo``); a key never read is refused."""
    meta = bound.meta
    transform = meta.get("transform", "value")
    if transform not in ("value", "abs", "abs_inf", "norm"):
        fault = f"unknown transform {transform!r}"
    elif "shift_mult" in meta and transform != "norm":
        fault = f"shift_mult is read only by 'norm', not {transform!r}"
    elif "audit_lo" in meta and bound.direction != "lower":
        fault = "audit_lo is read only for a lower bound"
    else:
        return (transform, float(meta.get("shift_mult", 1.0)),
                float(meta.get("audit_lo", 0.0)))
    raise PreconditionViolated(f"bound {bound.name!r}: {fault}")


def deviation_values(batch, bound: TailBound, center_estimate: float):
    """Map raw samples to the deviation variable of ``bound``.

    Returns ``(values, meta)`` where ``meta`` records the transform so a
    curve built from these values can be matched to the bound later.
    """
    values = _values_1d(batch)
    transform, mult, _ = _reading(bound)
    center = float(center_estimate)
    shift = 0.0
    if transform == "norm":
        shift = mult * center
        out = (np.abs(values) if values.ndim == 1
               else np.linalg.norm(values, axis=1)) - shift
    else:
        out = values - center
        if transform != "value":
            np.abs(out, out=out)
        if transform == "abs_inf" and out.ndim == 2:
            out = out.max(axis=1)
        if out.ndim != 1:
            raise PreconditionViolated(f"transform {transform!r} cannot "
                                       f"read samples of shape {values.shape}")
    meta = {"transform": transform, "center": center, "shift": shift}
    return out, meta


def empirical_median(batch) -> dict:
    """Median with an exact 99% order-statistic confidence interval.

    One sort gives all three numbers: the median is the middle order
    statistic, or (a + b) / 2 of the two middle ones for even n, which is
    np.median's float.  A sample that holds NaN is refused.
    """
    values = _values_1d(batch)
    if values.ndim != 1:
        raise PreconditionViolated("empirical_median wants scalar samples")
    n = values.size
    if n < 100:
        raise PreconditionViolated("empirical_median requires count >= 100")
    ordered = np.sort(values)
    _refuse_nan(ordered, "empirical_median")
    half = n // 2
    median = (ordered[half] if n % 2 else
              (ordered[half - 1] + ordered[half]) / 2.0)
    # P(v_(j) <= m <= v_(k)) from the binomial(n, 1/2) law of the rank of
    # the true median; two-sided 99%.
    j = _binom_ppf(0.005, n)
    k = _binom_ppf(0.995, n)
    j = max(j - 1, 0)
    k = min(k + 1, n - 1)
    return {
        "median": float(median),
        "ci_lo": float(ordered[j]),
        "ci_hi": float(ordered[k]),
        "count": n,
    }


# ---------------------------------------------------------------------------
# Bound audits
# ---------------------------------------------------------------------------


def _point_verdict(direction: str, p_hat: float, decision_lo: float,
                   ci_hi: float, bound_value: float) -> str:
    if direction == "upper":
        # decision_lo is the multiplicity-adjusted lower limit; it sits at
        # or below the published ci_lo, so VIOLATION here implies the
        # published band contradicts the bound too.
        if decision_lo > bound_value:
            return "VIOLATION"
        if p_hat <= bound_value:
            return "PASS"
        return "INCONCLUSIVE"
    # lower bound: the claim is P >= bound_value; the overall rule needs
    # every window point to contradict, so the per-point band is used.
    if ci_hi < bound_value:
        return "VIOLATION"
    if p_hat >= bound_value:
        return "PASS"
    return "INCONCLUSIVE"


def _overall_verdict(direction: str, verdicts: list) -> str:
    audited = [v for v in verdicts if v in ("PASS", "VIOLATION",
                                            "INCONCLUSIVE")]
    if not audited:
        return "INCONCLUSIVE"
    if direction == "upper":
        if "VIOLATION" in audited:
            return "VIOLATION"
        if "INCONCLUSIVE" in audited:
            return "INCONCLUSIVE"
        return "PASS"
    # Lower bounds are asymptotic: contradiction must be unanimous on the
    # audited window, a single consistent point clears the bound.
    if all(v == "VIOLATION" for v in audited):
        return "VIOLATION"
    if "PASS" in audited:
        return "PASS"
    return "INCONCLUSIVE"


def _audit_points(curve: TailCurve, bound: TailBound, deviations: np.ndarray,
                  audit_lo: float):
    """Per-point verdicts plus the decision-band bookkeeping.

    Returns ``(points, decision)`` where decision records how many points
    were actually audited, how many of those are informative (the bound is
    below 1 for an upper bound, above 0 for a lower one, so the data could
    contradict it), and the adjusted per-point level used for upper
    VIOLATION calls (family level 1% split over the audited points).
    """
    values, regimes, valid = bound.evaluate_grid(deviations)
    in_window = (deviations >= audit_lo) | (bound.direction != "lower")
    audited = np.asarray(valid, dtype=bool) & in_window
    m = int(np.count_nonzero(audited))
    informative = (values[audited] < 1.0 if bound.direction == "upper"
                   else values[audited] > 0.0)
    alpha_point = (1.0 - _LEVEL) / max(m, 1)
    # Reconstruct the exceedance counts; p_hat is k/count exactly.
    k = np.rint(curve.p_hat * curve.count).astype(np.int64)
    decision_lo, _ = _clopper_pearson(k, curve.count, alpha_point)
    points = []
    for i, x in enumerate(curve.x_grid):
        d = float(deviations[i])
        if not valid[i]:
            verdict = "out_of_range"
        elif not in_window[i]:
            verdict = "informational"
        else:
            verdict = _point_verdict(bound.direction, curve.p_hat[i],
                                     decision_lo[i], curve.ci_hi[i],
                                     float(values[i]))
        points.append(PointAudit(
            x=float(x), deviation=d, p_hat=float(curve.p_hat[i]),
            ci_lo=float(curve.ci_lo[i]), ci_hi=float(curve.ci_hi[i]),
            bound_value=float(values[i]), regime=regimes[i], verdict=verdict,
        ))
    decision = {"audited_points": m,
                "informative_points": int(np.count_nonzero(informative)),
                "family_alpha": 1.0 - _LEVEL,
                "point_alpha": alpha_point}
    return points, decision


def audit_bound(curve: TailCurve, bound: TailBound, center_estimate,
                *, center_se: float | None = None,
                estimates: dict | None = None) -> VerificationReport:
    """Audit one bound against one empirical curve.

    ``center_estimate`` is the estimate of the bound's center (mean,
    median, or mean norm for shifted-mean bounds); it is required even
    when it is exactly zero, so that forgetting to center is loud
    (:class:`CenterMismatch`), and it must match the center the curve was
    built with when the curve is already in deviation units.

    Upper bounds: VIOLATION iff the lower confidence limit exceeds the
    bound at some in-range point, with the decision limit taken at the
    familywise level (1% split over the audited points) so that at most
    ~1% of audits of a true bound are flagged; the published per-point
    99% band then contradicts the bound a fortiori.  Lower bounds: audited
    beyond the bound's ``meta["audit_lo"]``; VIOLATION only when *every*
    audited point's per-point 99% upper limit falls below the bound.
    With ``center_se`` given, mean-centered audits are re-run with the
    center moved by +-2 SE (sensitivity rows in the report).
    """
    if center_estimate is None:
        raise CenterMismatch(
            f"bound {bound.name!r} is centered at its {bound.center}; "
            "pass the estimate (0.0 is accepted explicitly)"
        )
    if len(curve.x_grid) > _MAX_AUDIT_POINTS:
        raise PreconditionViolated(
            f"audit grids are capped at {_MAX_AUDIT_POINTS} points "
            f"(got {len(curve.x_grid)}); thin the grid"
        )
    center = float(center_estimate)
    transform, mult, audit_lo = _reading(bound)
    curve_transform = curve.meta.get("transform", "raw")
    if curve_transform == "raw":
        # Raw scalar curve: re-express the grid as deviations.  For "abs"
        # bounds this audits the (sound) one-sided reading of the claim.
        deviations = curve.x_grid - mult * center
    elif curve_transform == transform:
        recorded = float(curve.meta.get("center", math.nan))
        scale = max(1.0, abs(center))
        if not (abs(recorded - center) <= 1e-9 * scale):
            raise CenterMismatch(
                f"curve was centered at {recorded!r} but the audit asked "
                f"for {center!r}"
            )
        deviations = curve.x_grid
    else:
        raise CenterMismatch(
            f"curve carries transform {curve_transform!r}, bound wants "
            f"{transform!r}; rebuild the curve with deviation_values"
        )

    points, decision = _audit_points(curve, bound, deviations, audit_lo)
    verdict = _overall_verdict(bound.direction, [p.verdict for p in points])

    sensitivity = None
    if center_se is not None and bound.center in ("mean", "shifted_mean"):
        sensitivity = {"center_se": float(center_se)}
        for label, sgn in (("center_minus_2se", -1.0), ("center_plus_2se", 1.0)):
            shifted = deviations - sgn * 2.0 * float(center_se) * mult
            pts, _ = _audit_points(curve, bound, shifted, audit_lo)
            sensitivity[label] = _overall_verdict(
                bound.direction, [p.verdict for p in pts])

    return VerificationReport(
        bound_name=bound.name,
        direction=bound.direction,
        center=bound.center,
        center_estimate=center,
        points=points,
        verdict=verdict,
        bound_params={k: v for k, v in bound.meta.items()
                      if isinstance(v, (int, float, str, bool))},
        estimates=dict(estimates) if estimates else {},
        sensitivity=sensitivity,
        decision=decision,
        curve=curve,
    )


# ---------------------------------------------------------------------------
# Log-tail slope
# ---------------------------------------------------------------------------


def fit_log_slope(curve: TailCurve, window) -> SlopeFit:
    """Weighted least squares of log p_hat against x inside
    ``window = (x_lo, x_hi)``: the rate of an exponential tail.

    Weights come from the confidence-band widths mapped to log space
    (width / (2 z_{0.99}) as the per-point standard error).

    The reported stderr is NOT the independent-points formula: exceedance
    counts at nested thresholds are positively correlated -- conditionally
    on the count at x_i, the count at x_j > x_i is a binomial thinning, so
    cov(log p_hat(x_i), log p_hat(x_j)) ~= var(log p_hat(x_min)).  The
    stderr therefore uses the sandwich variance of the WLS contrast under
    that covariance; the naive formula understates the sampling error by
    about a factor of two on typical grids.
    """
    x_lo, x_hi = float(window[0]), float(window[1])
    mask = ((curve.x_grid >= x_lo) & (curve.x_grid <= x_hi)
            & (curve.p_hat > 0.0))
    n_pts = int(np.count_nonzero(mask))
    if n_pts < 5:
        raise InsufficientTail(
            f"need >= 5 usable grid points in the window, found {n_pts}"
        )
    x = curve.x_grid[mask]
    p = curve.p_hat[mask]
    lo = curve.ci_lo[mask]
    hi = curve.ci_hi[mask]
    y = np.log(p)
    # Log-space standard error from the band: prefer the two-sided width;
    # fall back to the upper half-width where the lower limit is zero.
    with np.errstate(divide="ignore"):
        width = np.where(lo > 0.0,
                         (np.log(hi) - np.log(lo)) / 2.0,
                         np.log(hi) - np.log(p))
    se = np.maximum(width / _Z99, 1e-12)
    w = 1.0 / se ** 2
    sw = w.sum()
    x_bar = (w * x).sum() / sw
    y_bar = (w * y).sum() / sw
    s_xx = (w * (x - x_bar) ** 2).sum()
    slope = float((w * (x - x_bar) * (y - y_bar)).sum() / s_xx)
    # Sandwich variance: slope = sum_j c_j y_j, cov(y_i, y_j) = var_min.
    # Writing var_j as a cumulative sum of nonnegative increments along
    # the grid, var(slope) = sum_l dvar_l * (suffix sum of c from l)^2.
    c = w * (x - x_bar) / s_xx
    var_pt = se ** 2
    dvar = np.diff(var_pt, prepend=0.0)
    dvar = np.maximum(dvar, 0.0)
    suffix = np.cumsum(c[::-1])[::-1]
    stderr = float(math.sqrt((dvar * suffix ** 2).sum()))
    return SlopeFit(estimate=slope, stderr=stderr, window=(x_lo, x_hi),
                    n_points=n_pts)
