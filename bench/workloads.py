"""Task classes of the three benchmark workloads and their correctness checks.

Every task is built from a numpy Generator seeded by (workload seed, cycle),
so the program only ever sees generated inputs: h parameters, grids,
RngContract seeds and CLI ``mc.seed`` values.  A task's ``run`` is the timed
call into the library; its ``check`` runs afterwards, outside the timed
region, and returns the problems it found (empty when the output is right).

Workloads (one cycle repeats the listed mix in a fixed order):

curves  engine-backed bounds built and evaluated on grids; no sampling.
audit   seeded batches audited against closed-form bounds; no h-engine.
cli     small in-process ``levytails.cli.main`` jobs writing artifacts.

The task sizes are the acceptance criteria's cut down until one cycle takes
a few seconds on a 2-core machine, so that a run holds enough tasks for a
median and a tail percentile.  Not run: a ``bound`` job with
``grid.points = 1e9``, which has no cap and gets the process OOM-killed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
from pathlib import Path
from typing import Callable

import numpy as np

import levytails as lt
from levytails import cli as lt_cli
from levytails import models as lt_models
from levytails.models import LevyArea, QuadraticSpectral, Stable

from tracer import TracedLib, instrument_h

SIZES = {
    "full": {
        "quad_points": 3, "quad_long_points": 26, "bennett_points": 10,
        "duality_points": 4, "area_points": 1, "area_x": (1.2, 1.3),
        "chaos_draws": 50_000, "area_draws": 500_000,
        "stable_draws": 1_250_000, "brownian_draws": 5_000,
        "compound_draws": 250_000,
        "cli_chaos": 20_000, "cli_quad": 20_000, "cli_quad_points": 6,
        "cli_area": 200_000, "cli_stable": 200_000,
        "cli_sim_area": 250_000, "cli_sim_stable": 500_000,
        "cli_bennett_points": 200, "cli_exact_points": 6,
        "cli_sweep": 50_000,
    },
    # Self-test sizes: every code path, a fraction of a second per cycle.
    "tiny": {
        "quad_points": 1, "quad_long_points": 2, "bennett_points": 2,
        "duality_points": 1, "area_points": 1, "area_x": (0.2, 0.3),
        "chaos_draws": 2_000, "area_draws": 5_000, "stable_draws": 100_000,
        "brownian_draws": 500, "compound_draws": 5_000,
        "cli_chaos": 2_000, "cli_quad": 2_000, "cli_quad_points": 2,
        "cli_area": 5_000, "cli_stable": 5_000,
        "cli_sim_area": 5_000, "cli_sim_stable": 5_000,
        "cli_bennett_points": 5, "cli_exact_points": 2, "cli_sweep": 2_000,
    },
}

# Relative tolerances of the reference checks (acceptance criteria 1-3).
_DUALITY_TOL = 1e-7
_GRID_REF_TOL = 1e-8
# A mean-centered sample mean must lie within this many standard errors of
# its exact mean 0.
_MEAN_SE = 6.0
_VERIFY_KEYS = {"bound", "verdict", "points", "decision", "config", "seed"}
_VERIFY_HEADER = "x,p_hat,ci_lo,ci_hi,bound,verdict"
_BOUND_HEADER = "x,bound,regime,valid"


@dataclasses.dataclass
class Task:
    kind: str                        # task class, e.g. "quad_exact"
    work: int                        # points, draws or jobs delivered
    run: Callable[[], object]        # timed call into the library
    check: Callable[[object], list]  # problems found in run's result
    known_defect: bool = False       # probe of a defect the program has


@dataclasses.dataclass
class Context:
    tr: object
    sizes: dict
    work_dir: Path
    fault: bool = False
    lib: object = None
    energy: QuadraticSpectral | None = None
    energy_spec: lt.QuadraticSpec | None = None
    pathwise_spec: lt.QuadraticSpec | None = None


def setup(ctx):
    """Build the N=500 spectra every workload shares."""
    ctx.lib = TracedLib(ctx.tr, lt)
    with ctx.tr.span("models.spectrum"):
        ctx.energy = lt_models.chaos_eigenvalues("energy", 1.0, 500)
        pathwise = lt_models.chaos_eigenvalues("energy", 1.0, 500,
                                               convention="pathwise")
    ctx.energy_spec = lt.QuadraticSpec((tuple(ctx.energy.eigs),))
    ctx.pathwise_spec = lt.QuadraticSpec((tuple(pathwise.eigs),))


def _bad_values(values, valid, label):
    values = np.asarray(values, dtype=float)[np.asarray(valid, dtype=bool)]
    bad = ~(np.isfinite(values) & (values >= 0.0) & (values <= 1.0))
    if np.any(bad):
        return [f"{label}: {int(bad.sum())} valid values not finite in [0, 1]"]
    return []


def _rel_err(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(values - reference) / np.abs(reference)))


# ----------------------------------------------------------------------
# curves: engine, catalog and models do all the work
# ----------------------------------------------------------------------

def _eval_grid(tr, bound, xs):
    with tr.span("engine.grid"):
        out = bound.evaluate_grid(xs)
    tr.count("engine.points", len(xs))
    return out


def _quad_exact(ctx, rng, points, label):
    """N=500 energy spectrum, exact_h bound; the bracket memo stays under
    its 20,000-entry cap at 3 points and overflows at 26."""
    tr = ctx.tr
    xs = np.linspace(rng.uniform(0.05, 0.06), rng.uniform(3.5, 3.6), points)

    def run():
        with tr.span("catalog.build"):
            bound = lt.quad_wiener_bound(ctx.energy_spec, form="exact_h")
        plain = instrument_h(tr, bound.meta["h"], "catalog.h")
        return _eval_grid(tr, bound, xs), plain

    def check(result):
        (values, _, valid), plain = result
        problems = _bad_values(values, valid, label)
        if not np.all(valid):
            return problems + [f"{label}: points flagged invalid"]
        reference = np.exp(-lt.evaluate_entropy_grid(plain, xs))
        err = _rel_err(values, reference)
        if not err <= _GRID_REF_TOL:
            problems.append(f"{label}: {err:.2e} from evaluate_entropy_grid")
        return problems

    return Task(label, points, run, check)


def _bennett_engine(ctx, rng, points):
    """Poisson h with random (K, alpha2) against the closed Bennett curve."""
    tr = ctx.tr
    K = float(rng.uniform(0.8, 1.2))
    alpha2 = float(rng.uniform(0.8, 1.2))
    closed = lt.bennett_bound(K, alpha2)
    # Grid up to where the bound reaches e^-35, as in criterion 2.
    x_hi = 1.0
    while closed.fn(x_hi) > math.exp(-35.0):
        x_hi *= 1.05
    xs = np.linspace(0.02 * x_hi, x_hi, points)

    def run():
        h = lt.HFunction(eval_fn=lambda t: alpha2 * math.expm1(t * K) / K,
                         name="poisson_h")
        instrument_h(tr, h, "bench.h")
        return _eval_grid(tr, lt.tail_bound_from_h(h), xs)

    def check(result):
        values, _, valid = result
        problems = _bad_values(values, valid, "bennett_engine")
        reference = np.array([closed.fn(float(x)) for x in xs])
        if ctx.fault:
            reference *= 1.0 + 1e-6
        err = _rel_err(values, reference)
        if not (np.all(valid) and err <= _GRID_REF_TOL):
            problems.append(f"bennett_engine: {err:.2e} from bennett_bound")
        return problems

    return Task("bennett_engine", points, run, check)


def _duality(ctx, rng, points):
    """Small random quad h; scalar entropy integral vs Chernoff minimum."""
    tr = ctx.tr
    n_eig = int(rng.integers(4, 6))
    eigs = rng.uniform(0.5, 1.5, n_eig) * rng.choice([-1.0, 1.0], n_eig)
    if rng.random() < 1.0 / 3.0:
        eigs = np.abs(eigs)
    lip_c = float(rng.uniform(0.8, 1.2))
    target = ("sup" if rng.random() < 0.25 and np.any(eigs > 0.0)
              else "lipschitz")
    fractions = np.linspace(0.1, 0.95, points)

    def run():
        with tr.span("catalog.build"):
            bound = lt.quad_wiener_bound(lt.QuadraticSpec((tuple(eigs),)),
                                         lip_c=lip_c, form="exact_h",
                                         target=target)
        h = bound.meta["h"]
        plain = instrument_h(tr, h, "catalog.h")
        xs = [plain.eval_fn(float(t)) for t in h.t_end * fractions]
        entropy, legendre = [], []
        for x in xs:
            with tr.span("engine.entropy_integral"):
                entropy.append(lt.entropy_integral(h, x))
            with tr.span("engine.chernoff_min"):
                legendre.append(lt.chernoff_min(h, x))
        tr.count("engine.points", len(xs))
        return np.array(entropy), np.array(legendre)

    def check(result):
        entropy, legendre = result
        problems = _bad_values(np.exp(-entropy), np.ones(entropy.size),
                               "duality")
        resid = np.abs(legendre + entropy) / np.maximum(1.0, np.abs(entropy))
        if not np.max(resid) <= _DUALITY_TOL:
            problems.append(f"duality: residual {np.max(resid):.2e}")
        return problems

    return Task("duality", points, run, check)


def _area_product(ctx, rng, points, x_range):
    """product_h(LevyArea(pi), shared_beta): each h call is one models
    quadrature."""
    tr = ctx.tr
    alpha2 = float(rng.uniform(0.9, 1.1))
    xs = np.sort(rng.uniform(*x_range, points))

    def run():
        with tr.span("catalog.build"):
            h = lt.product_h(lt.FunctionalProfile(K=1.0, alpha2=alpha2),
                             LevyArea(T=math.pi), "shared_beta")
        instrument_h(tr, h, "models.h")
        return _eval_grid(tr, lt.tail_bound_from_h(h), xs)

    def check(result):
        values, _, valid = result
        problems = _bad_values(values, valid, "area_product")
        if not np.all(valid):
            problems.append("area_product: points flagged invalid")
        if np.any(np.diff(values) > 1e-12):
            problems.append("area_product: curve increases")
        return problems

    return Task("area_product", points, run, check)


def curves_cycle(ctx, rng):
    """Ten tasks; by cost, six short ones, three area_product and one
    quad_exact_long, so that the run's p75 task time falls near the middle
    of the area_product times rather than on the edge between two task
    classes."""
    s = ctx.sizes
    return [
        _bennett_engine(ctx, rng, s["bennett_points"]),
        _duality(ctx, rng, s["duality_points"]),
        _area_product(ctx, rng, s["area_points"], s["area_x"]),
        _quad_exact(ctx, rng, s["quad_points"], "quad_exact"),
        _bennett_engine(ctx, rng, s["bennett_points"]),
        _duality(ctx, rng, s["duality_points"]),
        _area_product(ctx, rng, s["area_points"], s["area_x"]),
        _quad_exact(ctx, rng, s["quad_points"], "quad_exact"),
        _area_product(ctx, rng, s["area_points"], s["area_x"]),
        _quad_exact(ctx, rng, s["quad_long_points"], "quad_exact_long"),
    ]


# ----------------------------------------------------------------------
# audit: simulate and verify do the work, the h-engine is bypassed
# ----------------------------------------------------------------------

def _audit_grid(dev, bound, count, points):
    """Geometric grid from the bound's audit start to the depth with 50
    exceedances (at least 1% deep)."""
    hi = float(np.quantile(dev, 1.0 - min(0.01, max(2e-5, 50.0 / count))))
    if "audit_lo" in bound.meta:
        lo = 1.03 * bound.meta["audit_lo"]
    elif bound.valid_lo > 0.0:
        lo = 1.05 * bound.valid_lo
    else:
        lo = float(np.quantile(dev, 0.95))
    if not 0.0 < lo < hi:
        raise ValueError(f"{bound.name}: no audit window ({lo:.3g}, "
                         f"{hi:.3g}) at {count} draws")
    return np.geomspace(lo, hi, points)


def _audit_batch(ctx, values, bounds, center, se, count):
    lib = ctx.lib
    reports = []
    for bound in bounds:
        dev, meta = lib.deviation_values(values, bound, center)
        grid = _audit_grid(dev, bound, count, 10)
        curve = lib.empirical_tail(dev, grid, meta=meta)
        reports.append(lib.audit_bound(curve, bound, center, center_se=se))
    return reports


def _audit_task(ctx, rng, kind, count, draw, make_bounds, mean_centered):
    tr = ctx.tr
    seed = int(rng.integers(0, 2 ** 32))

    def run():
        lib = ctx.lib
        batch = draw(lib, count, lt.RngContract(seed))
        values = batch.values
        if mean_centered:
            center = float(values.mean())
            se = float(values.std(ddof=1) / math.sqrt(values.size))
        else:
            center, se = lib.empirical_median(batch)["median"], None
        with tr.span("catalog.build"):
            bounds = make_bounds()
        return center, se, _audit_batch(ctx, values, bounds, center, se,
                                         count)

    def check(result):
        center, se, reports = result
        problems = []
        exact_mean = 1.0 if ctx.fault else 0.0
        if mean_centered and not abs(center - exact_mean) <= _MEAN_SE * se:
            problems.append(f"{kind}: mean {center:.3e} is beyond "
                            f"{_MEAN_SE} SE ({se:.2e}) of {exact_mean}")
        for report in reports:
            if report.verdict == "VIOLATION":
                problems.append(f"{kind}: {report.bound_name} VIOLATION")
            in_range = [p.verdict != "out_of_range" for p in report.points]
            problems += _bad_values([p.bound_value for p in report.points],
                                    in_range, f"{kind}/{report.bound_name}")
        return problems

    return Task(kind, count, run, check)


def audit_cycle(ctx, rng):
    s = ctx.sizes
    spec, path = ctx.energy_spec, ctx.pathwise_spec
    single = lt.QuadraticSpec(((2.0,),))
    stable_spec = lt.StableSpec(alpha=1.2, sigma_total=1.0)
    return [
        _audit_task(
            ctx, rng, "chaos", s["chaos_draws"],
            lambda lib, n, r: lib.sample_chaos2(ctx.energy, n, r),
            lambda: [lt.quad_wiener_bound(spec, form="log_form"),
                     lt.quad_wiener_bound(spec, form="min_form"),
                     lt.quad_wiener_lower(spec, b=0.5, target="inf_norm")],
            True),
        _audit_task(
            ctx, rng, "area", s["area_draws"],
            lambda lib, n, r: lib.sample_levy_area(math.pi, 4096, n, r),
            lambda: [lt.levy_area_bound(math.pi, variant="lipschitz"),
                     lt.quad_wiener_lower(b=0.5, target="area", T=math.pi,
                                          n=1)],
            True),
        _audit_task(
            ctx, rng, "stable", s["stable_draws"],
            lambda lib, n, r: lib.sample_stable(1.2, 1, "uniform", n, r,
                                                sigma_total=1.0),
            lambda: [lt.stable_median_bound(stable_spec, variant="general"),
                     lt.stable_median_bound(stable_spec, variant="sharp"),
                     lt.id_lower_curve(Stable(alpha=1.2, sigma_total=1.0))],
            False),
        _audit_task(
            ctx, rng, "brownian", s["brownian_draws"],
            lambda lib, n, r: lib.sample_brownian_quadratic(
                "square_norm", 1.0, 2048, n, r),
            lambda: [lt.quad_wiener_bound(path, form="log_form")],
            True),
        _audit_task(
            ctx, rng, "compound", s["compound_draws"],
            lambda lib, n, r: lib.sample_id_compound(
                QuadraticSpectral((2.0,)), 1e-4, n, r, center="mean",
                gauss_smalljump=True),
            lambda: [lt.quad_wiener_bound(single, form="log_form")],
            True),
    ]


# ----------------------------------------------------------------------
# cli: many small jobs through levytails.cli.main, artifacts on disk
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _in_dir(path):
    old = os.getcwd()
    path.mkdir(parents=True, exist_ok=True)
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _files(path):
    return [p for p in Path(path).rglob("*") if p.is_file()]


def _read_csv(path):
    lines = Path(path).read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


@dataclasses.dataclass
class JobResult:
    code: int
    stdout: str
    stderr: str
    out: Path


def _cli_job(ctx, kind, name, cfg, check, subdir="jobs",
             known_defect=False):
    """One ``levytails CONFIG --out NAME`` run inside work_dir/subdir.

    The out dir is passed relative to the job's working directory, so the
    config echoed into every artifact is the same on every rerun.
    """
    tr = ctx.tr
    cwd = ctx.work_dir / subdir
    cwd.mkdir(parents=True, exist_ok=True)
    (cwd / f"{name}.json").write_text(json.dumps(cfg))

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with _in_dir(cwd), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr), tr.span(f"cli.{kind}"):
            code = lt_cli.main([f"{name}.json", "--out", name])
        return JobResult(code, stdout.getvalue(), stderr.getvalue(),
                         cwd / name)

    def checked(result):
        if tr.enabled and result.out.is_dir():
            tr.count("cli.bytes_written",
                     sum(p.stat().st_size for p in _files(result.out)))
        try:
            return [f"cli {name}: {p}" for p in check(result)]
        except (OSError, ValueError, KeyError) as exc:
            return [f"cli {name}: {type(exc).__name__}: {exc}"]

    return Task(kind, 1, run, checked, known_defect)


def _expect_code(result, code):
    if result.code != code:
        return [f"exit {result.code}, expected {code} "
                f"({result.stderr.strip()[:200]})"]
    return []


def _check_verify(result):
    problems = _expect_code(result, 0)
    if problems:
        return problems
    report = json.loads((result.out / "verify_report.json").read_text())
    missing = _VERIFY_KEYS - set(report)
    if missing:
        problems.append(f"verify_report.json lacks {sorted(missing)}")
    header, rows = _read_csv(result.out / "verify_curve.csv")
    if header != _VERIFY_HEADER:
        problems.append(f"verify_curve.csv header {header!r}")
    if report.get("verdict") == "VIOLATION":
        problems.append("VIOLATION")
    in_range = [r[5] != "out_of_range" for r in rows]
    return problems + _bad_values([float(r[4]) for r in rows], in_range,
                                  "verify_curve.csv")


def _check_bound(reference=None):
    def check(result):
        problems = _expect_code(result, 0)
        if problems:
            return problems
        summary = json.loads((result.out / "bound_summary.json").read_text())
        if not {"bound", "points", "valid_points"} <= set(summary):
            problems.append("bound_summary.json lacks keys")
        header, rows = _read_csv(result.out / "bound_curve.csv")
        if header != _BOUND_HEADER:
            problems.append(f"bound_curve.csv header {header!r}")
        xs = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        valid = np.array([r[3] == "1" for r in rows])
        problems += _bad_values(values, valid, "bound_curve.csv")
        if reference is not None and np.all(valid):
            err = _rel_err(values, reference(xs))
            if not err <= _GRID_REF_TOL:
                problems.append(f"{err:.2e} from the reference curve")
        return problems
    return check


def _check_simulate(mean_zero):
    def check(result):
        problems = _expect_code(result, 0)
        if problems:
            return problems
        summary = json.loads(
            (result.out / "simulate_summary.json").read_text())
        if not {"count", "seed", "mean", "se", "meta"} <= set(summary):
            problems.append("simulate_summary.json lacks keys")
        batch = lt.load_batch(str(result.out / "samples.bin"))
        if batch.count != summary["count"]:
            problems.append("samples.bin count differs from the summary")
        if mean_zero and not abs(summary["mean"]) <= _MEAN_SE * summary["se"]:
            problems.append(f"mean {summary['mean']:.3e} beyond "
                            f"{_MEAN_SE} SE")
        return problems
    return check


def _check_sweep(cells):
    def check(result):
        problems = _expect_code(result, 0)
        if problems:
            return problems
        summary = json.loads((result.out / "sweep_summary.json").read_text())
        if len(summary["cells"]) != cells:
            problems.append(f"{len(summary['cells'])} cells, "
                            f"expected {cells}")
        for cell in summary["cells"]:
            problems += _check_verify(JobResult(
                cell["exit"], "", "", result.out / cell["dir"]))
        return problems
    return check


def _check_config_error(result):
    problems = _expect_code(result, 1)
    lines = result.stderr.strip().split("\n")
    if not (result.stderr.strip() and len(lines) == 1):
        problems.append(f"{len(lines)} stderr lines, expected one")
    return problems


def _check_probe(result):
    """A bad-input probe passes when it is refused with one stderr line or
    when every row it marks valid holds a bound value in [0, 1]."""
    if result.code != 0:
        return _check_config_error(JobResult(1, "", result.stderr,
                                             result.out))
    return _check_bound()(result)


def _check_rerun(first_out):
    def check(result):
        problems = _expect_code(result, 0)
        if problems:
            return problems
        a = (first_out / "verify_report.json").read_bytes()
        b = (result.out / "verify_report.json").read_bytes()
        if a != b:
            problems.append("verify_report.json differs on rerun")
        return problems
    return check


def _bennett_job(ctx, rng, name, points):
    K = float(rng.uniform(0.25, 3.0))
    alpha2 = float(rng.uniform(0.25, 4.0))

    def reference(xs):
        closed = lt.bennett_bound(K, alpha2)
        return np.array([closed.fn(float(x)) for x in xs])

    return _cli_job(ctx, "bound", name, {
        "task": "bound", "bound": {"name": "bennett", "K": K,
                                   "alpha2": alpha2},
        "grid": {"x_lo": 0.1, "x_hi": 20.0, "points": points}},
        _check_bound(reference))


def cli_cycle(ctx, rng, cycle):
    s = ctx.sizes

    def seed():
        return int(rng.integers(0, 2 ** 31))

    def name(tag):
        return f"c{cycle:04d}_{tag}"

    energy = {"variant": "quadratic",
              "generator": {"kind": "energy", "T": 1.0, "N": 500}}
    area = {"variant": "levy_area", "T": 1.0}
    stable = {"variant": "stable", "alpha": 1.2, "sigma_total": 1.0}
    small = [float(v) for v in
             np.round(rng.uniform(0.45, 0.55, 3) * [1.0, 1.0, -1.0], 6)]
    stable_cfg = {"task": "verify", "model": stable,
                  "bound": {"name": "stable_median", "variant": "general"},
                  "grid": {"x_lo": 12.0, "x_hi": 60.0, "points": 10},
                  "mc": {"count": s["cli_stable"], "seed": seed()}}

    def exact_reference(eigs):
        def reference(xs):
            bound = lt.quad_wiener_bound(lt.QuadraticSpec((tuple(eigs),)))
            return np.exp(-lt.evaluate_entropy_grid(bound.meta["h"], xs))
        return reference

    jobs = [
        _cli_job(ctx, "verify", name("chaos"), {
            "task": "verify", "model": energy,
            "bound": {"name": "quad_wiener", "form": "log_form"},
            "grid": {"x_lo": 0.2, "x_hi": 2.0, "points": 10},
            "mc": {"count": s["cli_chaos"], "seed": seed()}},
            _check_verify),
        _cli_job(ctx, "verify", name("quad"), {
            "task": "verify",
            "model": {"variant": "quadratic", "eigs": [1.0, 0.5, -0.3, 0.2]},
            "bound": {"name": "quad_wiener"},
            "grid": {"x_lo": 0.5, "x_hi": 5.0,
                     "points": s["cli_quad_points"]},
            "mc": {"count": s["cli_quad"], "seed": seed()}},
            _check_verify),
        _cli_job(ctx, "verify", name("area"), {
            "task": "verify", "model": area,
            "bound": {"name": "levy_area", "variant": "lipschitz"},
            "grid": {"x_lo": 0.2, "x_hi": 1.5, "points": 10},
            "mc": {"count": s["cli_area"], "seed": seed()}},
            _check_verify),
        _cli_job(ctx, "verify", name("stable"), stable_cfg, _check_verify),
        _cli_job(ctx, "simulate", name("sim_area"), {
            "task": "simulate", "model": area,
            "mc": {"count": s["cli_sim_area"], "seed": seed()}},
            _check_simulate(mean_zero=True)),
        _cli_job(ctx, "simulate", name("sim_stable"), {
            "task": "simulate", "model": stable,
            "mc": {"count": s["cli_sim_stable"], "seed": seed()}},
            _check_simulate(mean_zero=False)),
        *(_bennett_job(ctx, rng, name(f"bennett{i}"),
                       s["cli_bennett_points"]) for i in range(3)),
        _cli_job(ctx, "bound", name("exact"), {
            "task": "bound", "model": {"variant": "quadratic", "eigs": small},
            "bound": {"name": "quad_wiener", "form": "exact_h"},
            "grid": {"x_lo": 0.05, "x_hi": 4.0,
                     "points": s["cli_exact_points"]}},
            _check_bound(exact_reference(small))),
        _cli_job(ctx, "sweep", name("sweep"), {
            "task": "sweep", "run": "verify", "model": area,
            "bound": {"name": "levy_area", "variant": "lipschitz"},
            "grid": {"x_lo": 0.2, "x_hi": 1.2, "points": 8},
            "mc": {"count": s["cli_sweep"]},
            "over": {"mc.seed": [seed() for _ in range(5)]}},
            _check_sweep(5)),
        _cli_job(ctx, "error", name("unknown_key"), {
            "task": "bound", "bound": {"name": "bennett", "K": 1.0,
                                       "alpha2": 1.0},
            "grid": {"x_lo": 0.1, "x_hi": 2.0, "points": 5},
            "colour": "red"},
            _check_config_error),
        _cli_job(ctx, "error", name("missing_field"), {
            "task": "bound", "bound": {"name": "bennett", "K": 1.0},
            "grid": {"x_lo": 0.1, "x_hi": 2.0, "points": 5}},
            _check_config_error),
        # Probes from the hardening item of the roadmap.  Both write NaN
        # rows marked valid=1 and exit 0 at the time of writing; they are
        # reported as known defects, apart from the pass/fail count.
        _cli_job(ctx, "error", name("probe_inf_k"), {
            "task": "bound", "bound": {"name": "bennett",
                                       "K": math.inf, "alpha2": 1.0},
            "grid": {"x_lo": 0.1, "x_hi": 2.0, "points": 5}},
            _check_probe, known_defect=True),
        _cli_job(ctx, "error", name("probe_huge_eigs"), {
            "task": "bound",
            "model": {"variant": "quadratic", "eigs": [1e308, 1e308]},
            "bound": {"name": "quad_wiener", "form": "log_form"},
            "grid": {"x_lo": 0.1, "x_hi": 2.0, "points": 5}},
            _check_probe, known_defect=True),
    ]
    first_stable = ctx.work_dir / "jobs" / name("stable")
    jobs.append(_cli_job(ctx, "verify", name("stable"), stable_cfg,
                         _check_rerun(first_stable), subdir="rerun"))
    return jobs


def cleanup_cycle(ctx):
    for sub in ("jobs", "rerun"):
        shutil.rmtree(ctx.work_dir / sub, ignore_errors=True)


CYCLES = {"curves": lambda ctx, rng, i: curves_cycle(ctx, rng),
          "audit": lambda ctx, rng, i: audit_cycle(ctx, rng),
          "cli": cli_cycle}
