"""Tests for the command-line driver: tasks, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from levytails import cli, load_batch
from levytails.cli import _BOUND_KEYS, _MODEL_VARIANTS, main


def _run(tmp_path, cfg, *flags, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return main([str(path), *flags])


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------------
# bound task
# ----------------------------------------------------------------------


def test_bound_task_bennett_curve(tmp_path):
    cfg = {
        "task": "bound",
        "bound": {"name": "dev_nico", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 0.25, "x_hi": 5.0, "points": 20},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 0
    header, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert header == "x,bound,regime,valid"
    assert len(rows) == 20
    values = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(r[3] == "1" for r in rows)
    summary = json.loads((tmp_path / "run" / "bound_summary.json").read_text())
    assert summary["bound"] == "bennett"
    assert summary["config"]["bound"]["K"] == 1.0


def test_bound_task_model_dependent(tmp_path):
    cfg = {
        "task": "bound",
        "model": {"variant": "quadratic", "eigs": [4.0, 1.0, 0.25]},
        "bound": {"name": "quad_wiener", "form": "log_form"},
        "grid": {"x_lo": 0.5, "x_hi": 30.0, "points": 30},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 0
    header, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert header == "x,bound,regime,valid"
    assert all(0.0 < float(r[1]) <= 1.0 for r in rows)


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------


def test_missing_field_names_path(tmp_path, capsys):
    cfg = {
        "task": "simulate",
        "model": {"variant": "stable", "sigma_total": 1.0},
        "mc": {"count": 100},
    }
    assert _run(tmp_path, cfg) == 1
    assert "model.alpha" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    assert _run(tmp_path, {"task": "bound", "modle": {}}) == 1
    assert "config.modle" in capsys.readouterr().err
    cfg = {
        "task": "bound",
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0, "kk": 2.0},
        "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 5},
    }
    assert _run(tmp_path, cfg, name="c2.json") == 1
    assert "bound.kk" in capsys.readouterr().err


def test_invalid_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert main([str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_audit_grid_cap_enforced(tmp_path, capsys):
    cfg = {
        "task": "verify",
        "model": {"variant": "stable", "alpha": 1.2, "sigma_total": 1.0},
        "bound": {"name": "id_lower"},
        "grid": {"x_lo": 1.0, "x_hi": 30.0, "points": 21},
        "mc": {"count": 1000, "seed": 1},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 1
    assert "grid.points" in capsys.readouterr().err


def test_bound_grid_cap_enforced(tmp_path, capsys, monkeypatch):
    # Validation must reject the size before any grid is allocated.
    def no_huge_grid(lo, hi, num, *args, **kwargs):
        raise AssertionError(f"grid of {num} points allocated")

    monkeypatch.setattr(np, "linspace", no_huge_grid)
    cfg = {
        "task": "bound",
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 0.25, "x_hi": 5.0, "points": 10 ** 9},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert "grid.points" in err and len(err.strip().split("\n")) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task, flags", [
    ("simulate", ()), ("verify", ()), ("simulate", ("--count", "100000001"))])
def test_mc_count_cap_enforced(tmp_path, capsys, monkeypatch, task, flags):
    # Validation must reject the count before any sampler allocates it.
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampler called")

    for name in ("sample_chaos2", "sample_levy_area", "sample_stable",
                 "sample_brownian_quadratic"):
        monkeypatch.setattr(cli, name, no_sampling)
    cfg = {"task": task, "model": {"variant": "quadratic", "eigs": [1.0]},
           "bound": {"name": "quad_wiener"},
           "grid": {"x_lo": 0.5, "x_hi": 2.0, "points": 4},
           "mc": {"count": cli._MAX_COUNT + 1 if not flags else 10},
           "out": {"dir": str(tmp_path / "run")}}
    assert cli._MAX_COUNT == 10 ** 8
    assert _run(tmp_path, cfg, *flags) == 1
    err = capsys.readouterr().err
    assert "mc.count" in err and len(err.strip().split("\n")) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bound, model", [
    ({"name": "bennett", "K": math.inf, "alpha2": 1.0}, None),
    ({"name": "quad_wiener", "form": "log_form"},
     {"variant": "quadratic", "eigs": [1e308, 1e308]}),
])
def test_bound_task_never_marks_nan_valid(tmp_path, bound, model):
    cfg = {
        "task": "bound",
        "bound": bound,
        "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 4},
        "out": {"dir": str(tmp_path / "run")},
    }
    if model is not None:
        cfg["model"] = model
    if not all(math.isfinite(v) for v in bound.values()
               if isinstance(v, float)):
        # A non-finite config number is refused before any row is written.
        assert _run(tmp_path, cfg) == 1
        assert not (tmp_path / "run").exists()
        return
    assert _run(tmp_path, cfg) == 0
    _, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    for row in rows:
        value, valid = float(row[1]), row[3]
        assert valid == "0" or (math.isfinite(value) and 0.0 <= value <= 1.0)


@pytest.mark.parametrize("section, key, value", [
    ("bound", "K", math.inf),
    ("bound", "alpha2", math.nan),
    ("grid", "x_hi", -math.inf),
    ("model", "eigs", [1.0, math.inf]),
    ("model", "eigs", [1.0, math.nan]),
    ("bound", "K", 10 ** 400),
])
def test_nonfinite_config_number_rejected(tmp_path, capsys, section, key,
                                          value):
    # json.dumps writes Infinity / NaN literals, which json.loads accepts.
    cfg = {
        "task": "bound",
        "model": {"variant": "quadratic", "eigs": [1.0, 0.5]},
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 4},
        "out": {"dir": str(tmp_path / "run")},
    }
    if section == "model":
        cfg["bound"] = {"name": "quad_wiener", "form": "log_form"}
    cfg[section][key] = value
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and f"{section}.{key}" in err[0]
    assert not (tmp_path / "run").exists()


def test_log_form_finite_at_float_limit_eigenvalues(tmp_path):
    cfg = {
        "task": "bound",
        "model": {"variant": "quadratic", "eigs": [1e308, 1e308]},
        "bound": {"name": "quad_wiener", "form": "log_form"},
        "grid": {"x_lo": 0.1, "x_hi": 2.0, "points": 5},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 0
    _, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert len(rows) == 5
    for row in rows:
        assert row[3] == "1" and float(row[1]) == pytest.approx(1.0)


def test_median_linear_on_finite_mass_model(tmp_path):
    # Total mass 0.5 stays below the target level -log(1 - q) = 0.667, so
    # the overshoot radius is the generalized inverse: the search's low end.
    cfg = {
        "task": "bound",
        "model": {"variant": "gauss_kernel", "sigma_total": 1},
        "bound": {"name": "median_linear", "C": 1, "C_prime": 10},
        "grid": {"x_lo": 0.5, "x_hi": 20.0, "points": 6},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 0
    _, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert [r[3] for r in rows] == ["1"] * 6
    assert all(0.0 < float(r[1]) < 1.0 for r in rows)


def test_exact_h_bound_rows_have_four_fields(tmp_path):
    # The regime column of an engine-backed bound must not split the row.
    cfg = {
        "task": "bound",
        "model": {"variant": "quadratic", "eigs": [0.5, 0.4, -0.3]},
        "bound": {"name": "quad_wiener", "form": "exact_h"},
        "grid": {"x_lo": 0.05, "x_hi": 4.0, "points": 5},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 0
    header, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert len(header.split(",")) == 4
    assert len(rows) == 5 and all(len(r) == 4 for r in rows)
    assert all(r[2] == "entropy" and r[3] == "1" for r in rows)


def test_bound_point_arithmetic_error_is_invalid_row(tmp_path):
    # alpha2/(K K) divides by zero at every point of this Bennett bound.
    cfg = {"task": "bound", "bound": {"name": "bennett", "K": 1e-300,
                                      "alpha2": 5e-324},
           "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 4},
           "out": {"dir": str(tmp_path / "run")}}
    assert _run(tmp_path, cfg) == 0
    _, rows = _read_csv(tmp_path / "run" / "bound_curve.csv")
    assert len(rows) == 4 and all(r[3] == "0" for r in rows)


# Config-wide property: any bound config ends in exit 0, 1 or 2, a failure
# prints exactly one stderr line, and every valid row is a number in [0, 1].
_EDGE = [0, 1, -1, 0.5, 2, 3.5, 10, 1e308, -1e308, 1e-300, 5e-324]
# One draw in four is an edge value, the others are moderate.
_NUMBER = st.integers(0, 3).flatmap(
    lambda i: st.sampled_from(_EDGE) if i == 0 else st.floats(0.05, 5.0))
_CHOICES = {
    ("quad_wiener", "form"): ["exact_h", "log_form", "min_form"],
    ("quad_wiener", "target"): ["lipschitz", "sup"],
    ("quad_wiener_lower", "target"): ["inf_norm", "sup", "area"],
    ("levy_area", "variant"): ["lipschitz", "euclid"],
    ("stable_median", "variant"): ["general", "uniform", "sharp",
                                   "near2_exp", "near2_log"],
    ("two_regime", "variant"): ["third_moment", "fourth_moment"],
}
_MODEL_KEYS = {"stable": ["alpha", "sigma_total"],
               "log_kernel": ["sigma_total"], "gauss_kernel": ["sigma_total"],
               "levy_area": ["T"], "brownian_square_norm": ["T"],
               "brownian_sample_variance": ["T"]}
# The model variants each bound reads; configs mostly pair them.
_ANY_MEASURE = ["stable", "log_kernel", "gauss_kernel", "levy_area",
                "quadratic"]
_PARTNERS = {"quad_wiener": ["quadratic"], "quad_wiener_lower": ["quadratic"],
             "quad_euclid": ["quadratic"], "levy_area": ["levy_area"],
             "stable_median": ["stable"], "id_lower": _ANY_MEASURE,
             "median_linear": _ANY_MEASURE}


@st.composite
def _bound_config(draw):
    name = draw(st.sampled_from(sorted(_BOUND_KEYS)))
    bound = {"name": name}
    for key in sorted(_BOUND_KEYS[name]):
        if draw(st.integers(0, 3)):
            choices = _CHOICES.get((name, key))
            bound[key] = (draw(st.sampled_from(choices + ["other"]))
                          if choices else draw(st.integers(1, 3))
                          if key == "n" else draw(_NUMBER))
    x_lo = draw(_NUMBER)
    cfg = {"task": "bound", "bound": bound,
           "grid": {"x_lo": x_lo, "x_hi": x_lo + draw(_NUMBER),
                    "points": draw(st.integers(2, 5))}}
    partners = _PARTNERS.get(name, [])
    variant = draw(st.sampled_from(partners * 8 + ["none", *_MODEL_VARIANTS]))
    if variant == "quadratic":
        cfg["model"] = {"variant": variant,
                        "eigs": draw(st.lists(_NUMBER | st.floats(-5.0, -0.01),
                                              min_size=1, max_size=4))}
    elif variant != "none":
        cfg["model"] = {"variant": variant,
                        **{k: draw(_NUMBER) for k in _MODEL_KEYS[variant]}}
        if variant == "stable" and draw(st.integers(0, 3)):
            cfg["model"]["alpha"] = draw(st.floats(0.1, 1.9))
    return cfg


def _exits_cleanly(cfg, tmp):
    """Run cfg with its output under tmp: exit 0, 1 or 2. Exit 1 prints
    exactly one stderr line; exit 2 (a VIOLATION verdict) prints none.
    Returns the output directory unless the exit is 1."""
    run = tmp / "run"
    (tmp / "config.json").write_text(
        json.dumps({**cfg, "out": {"dir": str(run)}}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(tmp / "config.json")])
    assert code in (0, 1, 2)
    if code != 1:
        assert err.getvalue() == ""
        return run
    lines = err.getvalue().strip().split("\n")
    assert len(lines) == 1 and lines[0], err.getvalue()
    return None


def _probe(name, model=None, **params):
    cfg = {"task": "bound", "bound": {"name": name, **params},
           "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 4}}
    if model is not None:
        cfg["model"] = model
    return cfg


_QUAD = {"variant": "quadratic", "eigs": [1.0, 0.5]}


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_bound_config())
@example(cfg=_probe("two_regime", K=1e308, alpha2=1, alpha3=1e-300))
@example(cfg=_probe("quad_wiener", _QUAD, lip_c=5e-324))
@example(cfg=_probe("levy_area", {"variant": "levy_area", "T": 1e-300}))
@example(cfg=_probe("quad_euclid", _QUAD, b=5e-324, mean_abs=1))
@example(cfg=_probe("bennett", K=1e-300, alpha2=5e-324))
@example(cfg=_probe("median_linear", {"variant": "stable", "alpha": 1.2,
                                      "sigma_total": 1}, C=1, C_prime=5e-324))
@example(cfg=_probe("median_linear", {"variant": "gauss_kernel",
                                      "sigma_total": 1}, C=1, C_prime=10))
@example(cfg=_probe("bennett", K=1e308, alpha2=1))
@example(cfg=_probe("stable_median", {"variant": "stable", "alpha": 1.0,
                                      "sigma_total": 1},
                    variant="near2_log", b=3.5, epsilon=1))
def test_any_bound_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        run = _exits_cleanly(cfg, Path(tmp))
        if run is None:
            return
        _, rows = _read_csv(run / "bound_curve.csv")
        assert len(rows) == cfg["grid"]["points"]
        for row in rows:
            assert len(row) == 4
            value = float(row[1])
            assert row[3] == "0" or (math.isfinite(value)
                                     and 0.0 <= value <= 1.0)


# The same property for simulate configs: every model variant (quadratic
# through explicit eigenvalues or a generator at N = 3 and N = 500), counts up
# to 2000 and the edge numbers.
_SUMMARY_KEYS = {"task", "config", "count", "seed", "stream_id", "mean", "se",
                 "min", "max", "meta"}


@st.composite
def _simulate_config(draw):
    variant = draw(st.sampled_from(_MODEL_VARIANTS))
    model = {"variant": variant}
    if variant == "quadratic" and draw(st.booleans()):
        model["eigs"] = draw(st.lists(_NUMBER | st.floats(-5.0, -0.01),
                                      min_size=1, max_size=4))
    elif variant == "quadratic":
        model["generator"] = {
            "kind": draw(st.sampled_from(["energy", "centered"])),
            "T": draw(_NUMBER), "N": draw(st.sampled_from([3, 500])),
            "convention": draw(st.sampled_from(["spectral", "pathwise"]))}
    else:
        model.update({k: draw(_NUMBER) for k in _MODEL_KEYS[variant]})
        if variant == "stable" and draw(st.integers(0, 3)):
            model["alpha"] = draw(st.floats(0.1, 1.9))
    mc = {"count": draw(st.sampled_from([1, 2, 2000])
                        | st.integers(1, 2000)),
          "seed": draw(st.sampled_from([0, 2 ** 64 - 1, 2 ** 64])
                       | st.integers(0, 10 ** 6))}
    if draw(st.integers(0, 3)):
        mc["steps"] = draw(st.integers(1, 64))
    return {"task": "simulate", "model": model, "mc": mc}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_simulate_config())
@example(cfg={"task": "simulate", "mc": {"count": 2000, "steps": 8},
              "model": {"variant": "quadratic", "generator": {
                  "kind": "centered", "T": 1e-300, "N": 500}}})
@example(cfg={"task": "simulate", "mc": {"count": 10},
              "model": {"variant": "quadratic", "eigs": [1e308, 1e-300]}})
def test_any_simulate_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        run = _exits_cleanly(cfg, Path(tmp))
        if run is None:
            return
        summary = json.loads((run / "simulate_summary.json").read_text())
        assert set(summary) == _SUMMARY_KEYS
        assert summary["count"] == cfg["mc"]["count"]
        meta = summary["meta"]
        if cfg["model"]["variant"] == "quadratic":
            assert 0 <= meta["n_exact"] <= meta["n_eigs"]
            assert meta["gauss_sq"] >= 0.0
            assert (meta["gauss_sq"] > 0.0) <= (meta["n_exact"]
                                               < meta["n_eigs"])


# The same property for verify and sweep configs. A verify config joins a
# drawn bound section and grid to a drawn model and mc section; a sweep runs
# one to four cells of a drawn bound, simulate or verify config. Huge sizes
# (counts and grids past their caps, sweeps past the cell cap) are drawn only
# where validation refuses them before any work is done.
_HUGE_COUNT = st.sampled_from([10 ** 8 + 1, 10 ** 18])
_HUGE_POINTS = st.sampled_from([21, 10 ** 9])


@st.composite
def _well_formed_verify(draw):
    """A samplable model, a bound that applies to it, moderate numbers."""
    moderate = st.floats(0.05, 5.0)
    variant = draw(st.sampled_from(["quadratic", "levy_area", "stable",
                                    "brownian_square_norm"]))
    model = {"variant": variant}
    bounds = [{"name": "bennett", "K": draw(moderate),
               "alpha2": draw(moderate)}]
    if variant == "quadratic":
        model["eigs"] = draw(st.lists(moderate, min_size=1, max_size=4))
        bounds += [{"name": "quad_wiener",
                    "form": draw(st.sampled_from(["exact_h", "log_form",
                                                  "min_form"]))},
                   {"name": "quad_wiener_lower"}]
    elif variant == "stable":
        model.update(alpha=draw(st.floats(0.1, 1.9)),
                     sigma_total=draw(moderate))
        bounds += [{"name": "id_lower"}, {"name": "stable_median"}]
    else:
        model["T"] = draw(moderate)
        if variant == "levy_area":
            bounds.append({"name": "levy_area"})
    x_lo = draw(moderate)
    return {"task": "verify", "model": model,
            "bound": draw(st.sampled_from(bounds)),
            "grid": {"x_lo": x_lo, "x_hi": x_lo + draw(moderate),
                     "points": draw(st.integers(2, 20))},
            "mc": {"count": draw(st.integers(1, 500)),
                   "seed": draw(st.integers(0, 10 ** 6))}}


@st.composite
def _verify_config(draw):
    if draw(st.booleans()):
        cfg = draw(_well_formed_verify())
    else:
        bound_cfg = draw(_bound_config())
        sim_cfg = draw(_simulate_config())
        model = bound_cfg.get("model", sim_cfg["model"])
        if model["variant"] in ("log_kernel", "gauss_kernel") and draw(
                st.integers(0, 3)):
            model = sim_cfg["model"]
        cfg = {"task": "verify", "model": model, "bound": bound_cfg["bound"],
               "grid": bound_cfg["grid"],
               "mc": {**sim_cfg["mc"], "count": draw(st.integers(1, 500))}}
    if not draw(st.integers(0, 5)):
        cfg["mc"]["count"] = draw(_HUGE_COUNT)
    if not draw(st.integers(0, 5)):
        cfg["grid"]["points"] = draw(_HUGE_POINTS)
    return cfg


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_verify_config())
@example(cfg={"task": "verify", "model": {"variant": "levy_area", "T": 1.0},
              "bound": {"name": "levy_area"}, "mc": {"count": 10 ** 18},
              "grid": {"x_lo": 0.5, "x_hi": 2.0, "points": 4}})
@example(cfg={"task": "verify", "model": {"variant": "stable", "alpha": 1.5,
                                          "sigma_total": 1.0},
              "bound": {"name": "id_lower"}, "mc": {"count": 300},
              "grid": {"x_lo": 1.0, "x_hi": 5.0, "points": 10 ** 9}})
def test_any_verify_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        run = _exits_cleanly(cfg, Path(tmp))
        if run is None:
            return
        report = json.loads((run / "verify_report.json").read_text())
        assert report["verdict"] in ("PASS", "VIOLATION", "INCONCLUSIVE")
        _, rows = _read_csv(run / "verify_curve.csv")
        assert len(rows) == cfg["grid"]["points"]


_SWEEP_AXES = [
    ("bound.K", st.lists(_NUMBER, min_size=1, max_size=2)),
    ("grid.points", st.lists(st.integers(2, 6) | _HUGE_POINTS,
                             min_size=1, max_size=2)),
    ("mc.count", st.lists(st.integers(1, 300) | _HUGE_COUNT,
                          min_size=1, max_size=2)),
    ("mc.seed", st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2)),
    ("model.T", st.lists(_NUMBER, min_size=1, max_size=2)),
] * 3 + [
    # Axes that validation refuses: outside model/bound/grid/mc, through a
    # non-object, empty, and past the 1000-cell cap.
    ("task", st.just(["bound"])),
    ("out.dir", st.just(["elsewhere"])),
    ("bound.name.deep", st.just([1])),
    ("mc.seed", st.just([])),
    ("mc.seed", st.just(list(range(1001)))),
]


@st.composite
def _sweep_config(draw):
    """Sweeps over a verify config, whose sections also serve bound and
    simulate cells (a cell reads only the sections its task needs)."""
    run = draw(st.sampled_from(["bound", "simulate", "verify"] * 3
                               + ["sweep"]))
    axes = draw(st.lists(st.sampled_from(_SWEEP_AXES), min_size=1,
                         max_size=2))
    return {**draw(_verify_config()), "task": "sweep", "run": run,
            "over": {path: draw(values) for path, values in axes}}


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=_sweep_config())
@example(cfg={"task": "sweep", "run": "bound",
              "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
              "grid": {"x_lo": 0.5, "x_hi": 2.0, "points": 3},
              "over": {"bound.K": list(range(1, 41)),
                       "bound.alpha2": list(range(1, 41))}})
@example(cfg={"task": "sweep", "run": "simulate",
              "model": {"variant": "levy_area", "T": 1.0},
              "mc": {"count": 10, "steps": 8},
              "over": {"mc.count": [5, 10 ** 18]}})
def test_any_sweep_config_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        run = _exits_cleanly(cfg, Path(tmp))
        if run is None:
            return
        summary = json.loads((run / "sweep_summary.json").read_text())
        assert len(summary["cells"]) == math.prod(
            len(values) for values in cfg["over"].values())
        assert summary["exit"] == max(c["exit"] for c in summary["cells"])
        for cell in summary["cells"]:
            assert (run / cell["dir"]).is_dir()


def test_execution_error_names_operation(tmp_path, capsys):
    # a centered spectrum truncated at N=1 drops far too much mass: the
    # sampler refuses, and the CLI surfaces the failing operation
    cfg = {
        "task": "simulate",
        "model": {"variant": "quadratic",
                  "generator": {"kind": "centered", "T": 1.0, "N": 1}},
        "mc": {"count": 1000, "seed": 1},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    assert "simulate/sample" in err and "TruncationTooCoarse" in err


# ----------------------------------------------------------------------
# simulate task
# ----------------------------------------------------------------------


def test_simulate_task_writes_batch(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "task": "simulate",
        "model": {"variant": "stable", "alpha": 1.2, "sigma_total": 1.0},
        "mc": {"count": 5000, "seed": 3},
        "out": {"dir": str(out)},
    }
    assert _run(tmp_path, cfg) == 0
    batch = load_batch(str(out / "samples.bin"))
    assert batch.count == 5000
    assert batch.seed == 3
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["count"] == 5000
    assert summary["meta"]["sampler"] == "stable"
    assert summary["config"]["model"]["alpha"] == 1.2


def test_simulate_rerun_byte_identical(tmp_path):
    cfg = {
        "task": "simulate",
        "model": {"variant": "levy_area", "T": math.pi},
        "mc": {"count": 2000, "steps": 1024, "seed": 9},
    }
    cfg["out"] = {"dir": str(tmp_path / "a")}
    assert _run(tmp_path, cfg, name="a.json") == 0
    cfg["out"] = {"dir": str(tmp_path / "b")}
    assert _run(tmp_path, cfg, name="b.json") == 0
    assert (tmp_path / "a" / "samples.bin").read_bytes() == \
        (tmp_path / "b" / "samples.bin").read_bytes()


# ----------------------------------------------------------------------
# verify task
# ----------------------------------------------------------------------


def _area_verify_cfg(out_dir, seed=11):
    return {
        "task": "verify",
        "model": {"variant": "levy_area", "T": math.pi},
        "bound": {"name": "levy_area", "variant": "lipschitz",
                  "n": 1, "lip_c": 1.0},
        "grid": {"x_lo": 1.0, "x_hi": 8.0, "points": 15},
        "mc": {"count": 100_000, "steps": 1024, "seed": seed},
        "out": {"dir": str(out_dir)},
    }


def test_verify_task_pass(tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(tmp_path, _area_verify_cfg(out)) == 0
    assert "verdict=PASS" in capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["config"]["mc"]["seed"] == 11
    assert report["decision"]["audited_points"] > 0
    header, rows = _read_csv(out / "verify_curve.csv")
    assert header == "x,p_hat,ci_lo,ci_hi,bound,verdict"
    assert len(rows) == 15


def test_verify_rerun_byte_identical(tmp_path):
    assert _run(tmp_path, _area_verify_cfg(tmp_path / "a"), name="a.json") == 0
    assert _run(tmp_path, _area_verify_cfg(tmp_path / "b"), name="b.json") == 0
    assert (tmp_path / "a" / "verify_curve.csv").read_bytes() == \
        (tmp_path / "b" / "verify_curve.csv").read_bytes()
    ja = json.loads((tmp_path / "a" / "verify_report.json").read_text())
    jb = json.loads((tmp_path / "b" / "verify_report.json").read_text())
    ja["config"]["out"] = jb["config"]["out"] = None
    assert ja == jb


def test_verify_violation_exits_two(tmp_path, capsys):
    # a heavy (polynomial) tail audited against a light (Bennett) bound:
    # the band clears the bound by orders of magnitude at moderate x
    cfg = {
        "task": "verify",
        "model": {"variant": "stable", "alpha": 1.2, "sigma_total": 1.0},
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 4.0, "x_hi": 14.0, "points": 11},
        "mc": {"count": 50_000, "seed": 5},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 2
    assert "verdict=VIOLATION" in capsys.readouterr().out


def test_verify_median_centered_bound(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "task": "verify",
        "model": {"variant": "stable", "alpha": 1.2, "sigma_total": 1.0},
        "bound": {"name": "id_lower"},
        "grid": {"x_lo": 2.0, "x_hi": 30.0, "points": 15},
        "mc": {"count": 100_000, "seed": 2},
        "out": {"dir": str(out)},
    }
    assert _run(tmp_path, cfg) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["center"] == "median"
    assert "median" in report["estimates"]


# ----------------------------------------------------------------------
# overrides
# ----------------------------------------------------------------------


def test_overrides_echoed_and_applied(tmp_path, capsys):
    out = tmp_path / "other"
    cfg = {
        "task": "simulate",
        "model": {"variant": "stable", "alpha": 1.5, "sigma_total": 1.0},
        "mc": {"count": 1000, "seed": 1},
        "out": {"dir": str(tmp_path / "orig")},
    }
    assert _run(tmp_path, cfg, "--seed", "123", "--count", "2000",
                "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "override mc.seed=123" in stdout
    assert "override mc.count=2000" in stdout
    assert f"override out.dir={out}" in stdout
    summary = json.loads((out / "simulate_summary.json").read_text())
    assert summary["config"]["mc"]["seed"] == 123
    assert summary["count"] == 2000
    assert not (tmp_path / "orig").exists()


def test_readme_config_examples_run(tmp_path):
    # The README's example configs must stay valid under the schema.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text("utf-8"),
                        re.S)
    assert len(blocks) == 3
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        code = main([str(path), "--count", "20000",
                     "--out", str(tmp_path / f"out_{i}")])
        assert code == 0, block


# ----------------------------------------------------------------------
# sweep task
# ----------------------------------------------------------------------


def test_sweep_cartesian_product(tmp_path):
    out = tmp_path / "run"
    cfg = {
        "task": "sweep",
        "run": "bound",
        "over": {"bound.K": [0.5, 1.0], "bound.alpha2": [1.0, 2.0, 4.0]},
        "bound": {"name": "bennett"},
        "grid": {"x_lo": 0.25, "x_hi": 5.0, "points": 10},
        "out": {"dir": str(out)},
    }
    assert _run(tmp_path, cfg) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert len(summary["cells"]) == 6
    overrides = [c["overrides"] for c in summary["cells"]]
    assert {"bound.K": 0.5, "bound.alpha2": 1.0} in overrides
    assert {"bound.K": 1.0, "bound.alpha2": 4.0} in overrides
    for cell in summary["cells"]:
        curve = out / cell["dir"] / "bound_curve.csv"
        cell_cfg = json.loads(
            (out / cell["dir"] / "bound_summary.json").read_text())["config"]
        assert curve.exists()
        assert cell_cfg["bound"]["K"] == cell["overrides"]["bound.K"]


def test_sweep_validation(tmp_path, capsys):
    cfg = {
        "task": "sweep",
        "run": "bound",
        "over": {"task": ["bound"]},
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 5},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 1
    assert "over.task" in capsys.readouterr().err


def test_sweep_run_must_be_subtask_name(tmp_path, capsys):
    cfg = {
        "task": "sweep",
        "run": {"task": "bound"},
        "over": {"bound.K": [1.0, 2.0]},
        "bound": {"name": "bennett", "K": 1.0, "alpha2": 1.0},
        "grid": {"x_lo": 0.5, "x_hi": 5.0, "points": 5},
        "out": {"dir": str(tmp_path / "run")},
    }
    assert _run(tmp_path, cfg) == 1
    err = capsys.readouterr().err
    # Top-level keys are reported bare, with no leading dot.
    assert "run: must be a string" in err
    assert ".run" not in err
