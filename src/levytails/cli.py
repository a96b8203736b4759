"""Declarative command-line driver: bound curves, simulations, audits, sweeps.

Usage::

    levytails CONFIG.json [--seed N] [--count N] [--out DIR]

The config file is one JSON object.  Recognized keys:

    task    "bound" | "simulate" | "verify" | "sweep"
    model   {"variant": <variant>, ...}  stable, levy_area, log_kernel and
            gauss_kernel take their model class's fields, all numbers
            (alpha, sigma_total; T; sigma_total; sigma_total);
            brownian_square_norm and brownian_sample_variance take "T";
            quadratic takes exactly one of "eigs": [floats] and
            "generator": {"kind": "energy"|"centered", "T": float, "N": int
            (capped at 10**6), "convention": "spectral"|"pathwise"}
    bound   {"name": <name>, ...keys}  An omitted key takes the default of
            the catalog function it feeds; K, alpha2, C and C_prime are
            required, and "dev_nico" is an alias of "bennett".  Keys:
              bennett K alpha2 | two_regime K alpha2 alpha3 alpha4 variant
              quad_wiener lip_c form target | quad_euclid mean_abs b
              quad_wiener_lower target b T n | median_linear C C_prime
              levy_area variant n lip_c b mean_abs | id_lower (none)
              stable_median lip_c variant epsilon b
            A key that the chosen target or variant never reads is
            refused (e.g. quad_wiener_lower's T and n outside "area").
    grid    {"x_lo": float, "x_hi": float, "points": int}
            (deviation units; verify audits are capped at 20 points)
    mc      {"count": int, "steps": int, "seed": int, "stream": int}
            (count is capped at 10**8, steps at 2**20)
    out     {"dir": str}
    run     inner task of a sweep ("bound" | "simulate" | "verify")
    over    {"dotted.path": [values, ...]} sweep axes (Cartesian product),
            paths rooted at model/bound/grid/mc

Flags --seed, --count, --out override mc.seed, mc.count, out.dir; every
override is echoed on stdout and the post-override config is embedded in
every JSON artifact, so a report always names the exact parameters that
produced it.

Artifacts (under out.dir):
    bound     bound_curve.csv (x,bound,regime,valid), bound_summary.json
    simulate  samples.bin (binary batch), simulate_summary.json
    verify    verify_report.json, verify_curve.csv
              (x,p_hat,ci_lo,ci_hi,bound,verdict)
    sweep     sweep_summary.json + one cell_NNN/ directory per cell

Exit codes: 0 = ran clean (all verdicts PASS/INCONCLUSIVE), 2 = some
audit returned VIOLATION, 1 = configuration or execution error
(including arithmetic overflow or division by zero).  Reruns
with the same config and seed produce byte-identical CSV payloads.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import itertools
import json
import math
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .catalog import (
    QuadraticSpec,
    StableSpec,
    bennett_bound,
    id_lower_curve,
    levy_area_bound,
    median_bound_linear,
    quad_euclid_iid_bound,
    quad_wiener_bound,
    quad_wiener_lower,
    stable_median_bound,
    two_regime_bound,
)
from .errors import ConfigError, LevytailsError
from .models import (
    GaussKernel,
    LevyArea,
    LogKernel,
    QuadraticSpectral,
    Stable,
    chaos_eigenvalues,
)
from .simulate import (
    RngContract,
    sample_brownian_quadratic,
    sample_chaos2,
    sample_levy_area,
    sample_stable,
    save_batch,
)
from .verify import (
    _MAX_AUDIT_POINTS,
    audit_bound,
    deviation_values,
    empirical_median,
    empirical_tail,
)

_TASKS = ("bound", "simulate", "verify", "sweep")
_TOP_KEYS = {"task", "model", "bound", "grid", "mc", "out", "run", "over"}
_MAX_SWEEP_CELLS = 1000
_MAX_BOUND_POINTS = 100_000
# 10x the largest Monte-Carlo count the acceptance runs use; 8e8 bytes of
# draws, so a larger count ends in a ConfigError, not a MemoryError.
_MAX_COUNT = 10 ** 8
# 2000x the N = 500 spectra the benchmarks use (8 MB of eigenvalues), and 8 MB
# per Brownian path (the default is 4096 steps for the area): past these a
# config ends in a ConfigError, not a MemoryError.
_MAX_EIGS = 10 ** 6
_MAX_STEPS = 2 ** 20
_MISSING = object()


# ----------------------------------------------------------------------
# Config access with field-path errors
# ----------------------------------------------------------------------


def _loc(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _section(cfg: dict, key: str, required: bool) -> dict:
    if key not in cfg:
        if required:
            raise ConfigError(f"{key}: required for this task")
        return {}
    val = cfg[key]
    if not isinstance(val, dict):
        raise ConfigError(f"{key}: must be an object")
    return val


def _check_keys(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"{_loc(path, key)}: unknown key "
                              f"(allowed: {', '.join(sorted(allowed))})")


def _is_finite_number(val) -> bool:
    """JSON numbers only: no booleans, no Infinity or NaN literals, and no
    integers beyond the float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _num(section: dict, key: str, path: str) -> float:
    if key not in section:
        raise ConfigError(f"{_loc(path, key)}: required")
    val = section[key]
    if not _is_finite_number(val):
        raise ConfigError(
            f"{_loc(path, key)}: must be a finite number, got {val!r}")
    return float(val)


def _int(section: dict, key: str, path: str, default=_MISSING, minimum=None,
         maximum=None):
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"{_loc(path, key)}: required")
        return default
    val = section[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(
            f"{_loc(path, key)}: must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(
            f"{_loc(path, key)}: must be >= {minimum}, got {val}")
    if maximum is not None and val > maximum:
        raise ConfigError(
            f"{_loc(path, key)}: capped at {maximum}, got {val}")
    return val


def _str(section: dict, key: str, path: str, default=_MISSING, choices=None):
    if key not in section:
        if default is _MISSING:
            raise ConfigError(f"{_loc(path, key)}: required")
        return default
    val = section[key]
    if not isinstance(val, str):
        raise ConfigError(f"{_loc(path, key)}: must be a string, got {val!r}")
    if choices is not None and val not in choices:
        raise ConfigError(f"{_loc(path, key)}: must be one of "
                          f"{', '.join(sorted(choices))}; got {val!r}")
    return val


def _dump_json(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


# ----------------------------------------------------------------------
# Model construction
# ----------------------------------------------------------------------

_MODEL_VARIANTS = ("stable", "quadratic", "levy_area", "log_kernel",
                   "gauss_kernel", "brownian_square_norm",
                   "brownian_sample_variance")
# Levy models whose config section is the class's fields, each a number.
_MODEL_CLASSES = {"stable": Stable, "levy_area": LevyArea,
                  "log_kernel": LogKernel, "gauss_kernel": GaussKernel}


def build_model(model_cfg: dict):
    """Config section -> Levy model object (None for the brownian path
    functionals, which are samplers rather than Levy measures)."""
    variant = _str(model_cfg, "variant", "model", choices=_MODEL_VARIANTS)
    if variant in _MODEL_CLASSES:
        cls = _MODEL_CLASSES[variant]
        names = [f.name for f in dataclasses.fields(cls)]
        _check_keys(model_cfg, {"variant", *names}, "model")
        return cls(**{key: _num(model_cfg, key, "model") for key in names})
    if variant != "quadratic":  # a brownian path functional
        _check_keys(model_cfg, {"variant", "T"}, "model")
        _num(model_cfg, "T", "model")  # validate presence/type
        return None
    # quadratic: explicit eigs XOR generator
    _check_keys(model_cfg, {"variant", "eigs", "generator"}, "model")
    has_eigs = "eigs" in model_cfg
    has_gen = "generator" in model_cfg
    if has_eigs == has_gen:
        raise ConfigError(
            "model.eigs: quadratic needs exactly one of eigs / generator")
    if has_eigs:
        eigs = model_cfg["eigs"]
        if (not isinstance(eigs, list) or not eigs
                or not all(_is_finite_number(a) for a in eigs)):
            raise ConfigError(
                "model.eigs: must be a nonempty list of finite numbers")
        return QuadraticSpectral(tuple(float(a) for a in eigs))
    gen = model_cfg["generator"]
    if not isinstance(gen, dict):
        raise ConfigError("model.generator: must be an object")
    _check_keys(gen, {"kind", "T", "N", "convention"}, "model.generator")
    return chaos_eigenvalues(
        _str(gen, "kind", "model.generator", choices=("energy", "centered")),
        _num(gen, "T", "model.generator"),
        _int(gen, "N", "model.generator", minimum=1, maximum=_MAX_EIGS),
        _str(gen, "convention", "model.generator", default="spectral",
             choices=("spectral", "pathwise")),
    )


# ----------------------------------------------------------------------
# Bound construction
# ----------------------------------------------------------------------

_pos_int = partial(_int, minimum=1)


def _one_of(*choices):
    return partial(_str, choices=choices)


# bound name -> {key: reader}. A key the section omits is not passed on, so
# it takes the catalog function's default; only _REQUIRED keys must be set.
_BOUND_KEYS = {
    "bennett": {"K": _num, "alpha2": _num},
    "quad_wiener": {"lip_c": _num,
                    "form": _one_of("exact_h", "log_form", "min_form"),
                    "target": _one_of("lipschitz", "sup")},
    "quad_wiener_lower": {"target": _one_of("inf_norm", "sup", "area"),
                          "b": _num, "T": _num, "n": _pos_int},
    "quad_euclid": {"mean_abs": _num, "b": _num},
    "levy_area": {"variant": _one_of("lipschitz", "euclid"), "n": _pos_int,
                  "lip_c": _num, "b": _num, "mean_abs": _num},
    "id_lower": {},
    "median_linear": {"C": _num, "C_prime": _num},
    "stable_median": {"lip_c": _num,
                      "variant": _one_of("general", "uniform", "sharp",
                                         "near2_exp", "near2_log"),
                      "epsilon": _num, "b": _num},
    "two_regime": {"K": _num, "alpha2": _num, "alpha3": _num, "alpha4": _num,
                   "variant": _one_of("third_moment", "fourth_moment")},
}
_REQUIRED = {"K", "alpha2", "C", "C_prime"}
# bound name -> (catalog function, the key that picks its target or variant,
# {key: the choices that read it}); under another choice the key is refused.
_VARIANT_READS = {
    "quad_wiener": (quad_wiener_bound, "target", {"lip_c": ("lipschitz",)}),
    "quad_wiener_lower": (quad_wiener_lower, "target",
                          {"T": ("area",), "n": ("area",)}),
    "levy_area": (levy_area_bound, "variant", {"b": ("euclid",),
                  "mean_abs": ("euclid",), "lip_c": ("lipschitz",)}),
    "stable_median": (stable_median_bound, "variant", {
        "epsilon": ("near2_exp", "near2_log"), "b": ("near2_log",)}),
    "two_regime": (two_regime_bound, "variant",
                   {"alpha4": ("fourth_moment",)}),
}
_BOUND_ALIASES = {"dev_nico": "bennett"}

# The model each bound reads: a variant, or any Levy-measure model. The
# latter excludes None, which build_model returns without a model section
# and for the brownian variants (path functionals, not Levy measures).
_BOUND_MODEL = {"quad_wiener": "quadratic", "quad_wiener_lower": "quadratic",
                "quad_euclid": "quadratic", "levy_area": "levy_area",
                "stable_median": "stable", "id_lower": "any",
                "median_linear": "any"}
_NEEDS_LEVY_MODEL = "needs a Levy-measure model (model.variant one of {})".format(
    ", ".join(v for v in _MODEL_VARIANTS if not v.startswith("brownian_")))


def _bound_model(name: str, model, bound_cfg: dict):
    """The model the bound reads, checked; None if it reads none."""
    variant = _BOUND_MODEL.get(name)
    if variant is None or (name == "quad_wiener_lower"
                           and bound_cfg.get("target") == "area"):
        return None
    if variant == "any" and model is None:
        raise ConfigError(f"bound.name: {name} {_NEEDS_LEVY_MODEL}")
    cls = _MODEL_CLASSES.get(variant, QuadraticSpectral)
    if variant != "any" and not isinstance(model, cls):
        raise ConfigError(
            f"bound.name: {name} needs model.variant = {variant}")
    return model


def _routed(kwargs: dict, key: str) -> dict:
    """The key, if the section set it, moved out of kwargs."""
    return {key: kwargs.pop(key)} if key in kwargs else {}


def build_bound(bound_cfg: dict, model):
    """Config section + model -> catalog TailBound."""
    name = _str(bound_cfg, "name", "bound")
    name = _BOUND_ALIASES.get(name, name)
    if name not in _BOUND_KEYS:
        raise ConfigError(
            f"bound.name: unknown bound {bound_cfg['name']!r} "
            f"(catalog: {', '.join(sorted(_BOUND_KEYS))})")
    readers = _BOUND_KEYS[name]
    _check_keys(bound_cfg, {"name", *readers}, "bound")
    model = _bound_model(name, model, bound_cfg)
    kw = {key: read(bound_cfg, key, "bound") for key, read in readers.items()
          if key in bound_cfg or key in _REQUIRED}
    func, by, reads = _VARIANT_READS.get(name, (None, None, {}))
    for key in bound_cfg:
        if key not in reads:
            continue
        choice = kw.get(by) or inspect.signature(func).parameters[by].default
        if choice not in reads[key]:
            raise ConfigError(f"bound.{key}: {name} with {by} {choice!r} "
                              "never reads it")
    if name == "bennett":
        return bennett_bound(**kw)
    if name == "two_regime":
        return two_regime_bound(**kw)
    if name == "id_lower":
        return id_lower_curve(model)
    if name == "median_linear":
        return median_bound_linear(model, **kw)
    if name == "levy_area":
        return levy_area_bound(model.T, **kw)
    if name == "stable_median":
        return stable_median_bound(
            StableSpec(model.alpha, model.sigma_total,
                       **_routed(kw, "lip_c")), **kw)
    spec = None if model is None else QuadraticSpec(
        (model.eigs,), **_routed(kw, "mean_abs"))
    if name == "quad_wiener":
        return quad_wiener_bound(spec, **kw)
    if name == "quad_wiener_lower":
        return quad_wiener_lower(spec, **kw)
    return quad_euclid_iid_bound(spec, **kw)


# ----------------------------------------------------------------------
# Shared pieces: grid, mc, simulation dispatch
# ----------------------------------------------------------------------


def _parse_grid(cfg: dict, audit: bool) -> np.ndarray:
    grid = _section(cfg, "grid", required=True)
    _check_keys(grid, {"x_lo", "x_hi", "points"}, "grid")
    x_lo = _num(grid, "x_lo", "grid")
    x_hi = _num(grid, "x_hi", "grid")
    points = _int(grid, "points", "grid", minimum=2)
    if not x_lo < x_hi:
        raise ConfigError(f"grid.x_hi: must exceed x_lo, got "
                          f"[{x_lo}, {x_hi}]")
    if audit and points > _MAX_AUDIT_POINTS:
        raise ConfigError(
            f"grid.points: audit tasks are capped at {_MAX_AUDIT_POINTS} "
            f"points, got {points}")
    if points > _MAX_BOUND_POINTS:
        raise ConfigError(
            f"grid.points: bound tasks are capped at {_MAX_BOUND_POINTS} "
            f"points, got {points}")
    return np.linspace(x_lo, x_hi, points)


def _parse_mc(cfg: dict) -> dict:
    mc = _section(cfg, "mc", required=True)
    _check_keys(mc, {"count", "steps", "seed", "stream"}, "mc")
    return {
        "count": _int(mc, "count", "mc", minimum=1, maximum=_MAX_COUNT),
        "steps": _int(mc, "steps", "mc", default=None, minimum=1,
                      maximum=_MAX_STEPS),
        "seed": _int(mc, "seed", "mc", default=0, minimum=0),
        "stream": _int(mc, "stream", "mc", default=0, minimum=0),
    }


def _run_sampler(model_cfg: dict, model, mc: dict):
    variant = model_cfg["variant"]
    rng = RngContract(mc["seed"])
    count, stream = mc["count"], mc["stream"]
    if variant == "quadratic":
        return sample_chaos2(model, count, rng, stream_id=stream)
    if variant == "levy_area":
        steps = mc["steps"] if mc["steps"] is not None else 4096
        return sample_levy_area(model.T, steps, count, rng, stream_id=stream)
    if variant == "stable":
        return sample_stable(model.alpha, 1, "uniform", count, rng,
                             stream_id=stream, sigma_total=model.sigma_total)
    if variant in ("brownian_square_norm", "brownian_sample_variance"):
        kind = variant[len("brownian_"):]
        steps = mc["steps"] if mc["steps"] is not None else 256
        return sample_brownian_quadratic(kind, float(model_cfg["T"]), steps,
                                         count, rng, stream_id=stream)
    raise ConfigError(
        f"model.variant: {variant!r} has no command-line sampler "
        "(compound-Poisson sampling is available through the Python API)")


# ----------------------------------------------------------------------
# Task runners (each returns an exit code and writes its artifacts)
# ----------------------------------------------------------------------


def _run_bound(cfg: dict, out_dir: Path, phase: dict) -> int:
    phase["op"] = "bound/build"
    model = build_model(_section(cfg, "model", required=False)) \
        if "model" in cfg else None
    bound = build_bound(_section(cfg, "bound", required=True), model)
    xs = _parse_grid(cfg, audit=False)
    phase["op"] = "bound/evaluate"
    values, regimes, valid = bound.evaluate_grid(xs)
    rows = ["x,bound,regime,valid"]
    for x, v, reg, ok in zip(xs, values, regimes, valid):
        rows.append(f"{x:.17g},{v:.17g},{reg},{int(ok)}")
    phase["op"] = "bound/emit"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bound_curve.csv").write_text("\n".join(rows) + "\n")
    _dump_json({
        "task": "bound",
        "config": cfg,
        "bound": bound.name,
        "direction": bound.direction,
        "center": bound.center,
        "points": len(xs),
        "valid_points": int(np.count_nonzero(valid)),
    }, out_dir / "bound_summary.json")
    print(f"task=bound bound={bound.name} points={len(xs)} "
          f"out={out_dir / 'bound_curve.csv'}")
    return 0


def _run_simulate(cfg: dict, out_dir: Path, phase: dict) -> int:
    phase["op"] = "simulate/build"
    model_cfg = _section(cfg, "model", required=True)
    model = build_model(model_cfg)
    mc = _parse_mc(cfg)
    phase["op"] = "simulate/sample"
    batch = _run_sampler(model_cfg, model, mc)
    phase["op"] = "simulate/emit"
    out_dir.mkdir(parents=True, exist_ok=True)
    sample_path = out_dir / "samples.bin"
    save_batch(batch, str(sample_path))
    values = batch.values
    _dump_json({
        "task": "simulate",
        "config": cfg,
        "count": batch.count,
        "seed": batch.seed,
        "stream_id": batch.stream_id,
        "mean": float(values.mean()),
        "se": float(values.std() / np.sqrt(values.shape[0])),
        "min": float(values.min()),
        "max": float(values.max()),
        "meta": batch.meta,
    }, out_dir / "simulate_summary.json")
    print(f"task=simulate count={batch.count} seed={batch.seed} "
          f"out={sample_path}")
    return 0


def _run_verify(cfg: dict, out_dir: Path, phase: dict) -> int:
    phase["op"] = "verify/build"
    model_cfg = _section(cfg, "model", required=True)
    model = build_model(model_cfg)
    bound = build_bound(_section(cfg, "bound", required=True), model)
    grid = _parse_grid(cfg, audit=True)
    mc = _parse_mc(cfg)
    phase["op"] = "verify/sample"
    batch = _run_sampler(model_cfg, model, mc)
    phase["op"] = "verify/center"
    center_se = None
    if bound.center == "median":
        med = empirical_median(batch)
        center = med["median"]
        estimates = {"median": med["median"], "median_ci_lo": med["ci_lo"],
                     "median_ci_hi": med["ci_hi"]}
    else:
        # A shifted mean is a multiple of the mean deviation at center 0.
        base = deviation_values(batch, bound, 0.0)[0] \
            if bound.center == "shifted_mean" else batch.values
        center = float(base.mean())
        center_se = float(base.std() / np.sqrt(base.shape[0]))
        estimates = {"mean": center, "mean_se": center_se}
    phase["op"] = "verify/audit"
    deviations, meta = deviation_values(batch, bound, center)
    curve = empirical_tail(deviations, grid, meta=meta)
    report = audit_bound(curve, bound, center, center_se=center_se,
                         estimates=estimates)
    phase["op"] = "verify/emit"
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads(report.to_json())
    doc["task"] = "verify"
    doc["config"] = cfg
    doc["seed"] = batch.seed
    _dump_json(doc, out_dir / "verify_report.json")
    (out_dir / "verify_curve.csv").write_text(
        "\n".join(report.csv_rows()) + "\n")
    print(f"task=verify bound={bound.name} verdict={report.verdict} "
          f"out={out_dir / 'verify_report.json'}")
    return 2 if report.verdict == "VIOLATION" else 0


def _set_path(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    if parts[0] not in ("model", "bound", "grid", "mc") or len(parts) < 2:
        raise ConfigError(
            f"over.{dotted}: sweep axes must point into model/bound/grid/mc")
    node = cfg
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"over.{dotted}: {part} is not an object")
        node = nxt
    node[parts[-1]] = value


def _run_sweep(cfg: dict, out_dir: Path, phase: dict) -> int:
    phase["op"] = "sweep/config"
    run = _str(cfg, "run", "", choices=("bound", "simulate", "verify"))
    over = cfg.get("over")
    if not isinstance(over, dict) or not over:
        raise ConfigError("over: sweep needs a nonempty {path: [values]} map")
    paths = sorted(over)
    axes = []
    for path in paths:
        vals = over[path]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"over.{path}: must be a nonempty list")
        axes.append(vals)
    n_cells = 1
    for axis in axes:
        n_cells *= len(axis)
    if n_cells > _MAX_SWEEP_CELLS:
        raise ConfigError(
            f"over: sweep would produce {n_cells} cells "
            f"(cap {_MAX_SWEEP_CELLS})")
    base = {k: v for k, v in cfg.items() if k not in ("task", "run", "over",
                                                      "out")}
    runner = {"bound": _run_bound, "simulate": _run_simulate,
              "verify": _run_verify}[run]
    cells = []
    worst = 0
    for idx, combo in enumerate(itertools.product(*axes)):
        cell_cfg = copy.deepcopy(base)
        cell_cfg["task"] = run
        for path, val in zip(paths, combo):
            _set_path(cell_cfg, path, val)
        cell_dir = out_dir / f"cell_{idx:03d}"
        phase["op"] = f"sweep/cell_{idx:03d}"
        code = runner(cell_cfg, cell_dir, phase)
        worst = max(worst, code)
        cells.append({"index": idx,
                      "overrides": dict(zip(paths, combo)),
                      "exit": code,
                      "dir": cell_dir.name})
    phase["op"] = "sweep/emit"
    out_dir.mkdir(parents=True, exist_ok=True)
    _dump_json({
        "task": "sweep",
        "config": cfg,
        "run": run,
        "cells": cells,
        "exit": worst,
    }, out_dir / "sweep_summary.json")
    print(f"task=sweep run={run} cells={len(cells)} exit={worst} "
          f"out={out_dir / 'sweep_summary.json'}")
    return worst


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levytails",
        description="Evaluate tail bounds, run seeded simulations, and "
                    "audit bounds against Monte-Carlo tails from a JSON "
                    "config.")
    parser.add_argument("config", help="path to the JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override mc.seed")
    parser.add_argument("--count", type=int, default=None,
                        help="override mc.count")
    parser.add_argument("--out", default=None, help="override out.dir")
    args = parser.parse_args(argv)
    # Numeric warnings would add lines to the one-line error report.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _main(args)


def _main(args) -> int:
    phase = {"op": "config"}
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
        _check_keys(cfg, _TOP_KEYS, "config")
        for flag, path in (("seed", ("mc", "seed")),
                           ("count", ("mc", "count"))):
            val = getattr(args, flag)
            if val is not None:
                cfg.setdefault(path[0], {})[path[1]] = val
                print(f"override {path[0]}.{path[1]}={val}")
        if args.out is not None:
            cfg.setdefault("out", {})["dir"] = args.out
            print(f"override out.dir={args.out}")
        task = _str(cfg, "task", "", choices=_TASKS)
        out_cfg = _section(cfg, "out", required=False)
        _check_keys(out_cfg, {"dir"}, "out")
        out_dir = Path(_str(out_cfg, "dir", "out", default="."))
        runner = {"bound": _run_bound, "simulate": _run_simulate,
                  "verify": _run_verify, "sweep": _run_sweep}[task]
        return runner(cfg, out_dir, phase)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LevytailsError, ArithmeticError) as exc:
        print(f"error [{phase['op']}] {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [{phase['op']}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
