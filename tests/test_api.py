"""The public contract's settable options and the CLI config schema,
listed by name.

A settable option is a parameter with a default of a callable in
``levytails.__all__`` (functions and dataclass constructors), as
``inspect.signature`` reports it.  Adding or removing one is a contract
change: update ``OPTIONS`` and the count in ROADMAP.md together.
"""

import dataclasses
import inspect
import re

import pytest

import levytails
from levytails import cli
from levytails.errors import ConfigError

OPTIONS = {
    "HFunction": ["t_end", "h_sup", "name", "legendre"],
    "TailBound": ["center", "direction", "valid_lo", "valid_hi", "regime_fn",
                  "meta", "grid_fn"],
    "FunctionalProfile": ["beta", "lip_c", "n"],
    "QuadraticSpec": ["mean_abs"],
    "StableSpec": ["lip_c"],
    "dimension_free_bound": ["mode", "mean_norm", "truncation"],
    "levy_area_bound": ["n", "lip_c", "b", "variant", "mean_abs"],
    "product_h": ["truncation"],
    "quad_euclid_iid_bound": ["b"],
    "quad_wiener_bound": ["lip_c", "form", "target"],
    "quad_wiener_lower": ["spec", "b", "target", "T", "n"],
    "stable_median_bound": ["variant", "epsilon", "b"],
    "two_regime_bound": ["alpha3", "alpha4", "variant"],
    "SampleBatch": ["meta"],
    "sample_brownian_quadratic": ["stream_id"],
    "sample_chaos2": ["stream_id"],
    "sample_id_compound": ["stream_id", "gauss_smalljump", "center"],
    "sample_levy_area": ["stream_id"],
    "sample_stable": ["stream_id", "sigma_total", "atoms"],
    "SlopeFit": ["mode", "n_points"],
    "TailCurve": ["meta"],
    "VerificationReport": ["bound_params", "estimates", "sensitivity",
                           "decision", "curve"],
    "audit_bound": ["center_se", "estimates"],
    "empirical_tail": ["meta"],
    "fit_log_slope": ["mode"],
}


def _settable_options():
    found = set()
    for name in levytails.__all__:
        obj = getattr(levytails, name)
        if not callable(obj):
            continue
        for param in inspect.signature(obj).parameters.values():
            if param.default is not inspect.Parameter.empty:
                found.add(f"{name}.{param.name}")
    return found


def test_settable_options_are_the_listed_62():
    listed = {f"{name}.{opt}" for name, opts in OPTIONS.items()
              for opt in opts}
    found = _settable_options()
    assert found == listed, (
        f"added: {sorted(found - listed)}; removed: {sorted(listed - found)}")
    assert len(listed) == 62


# The command-line config schema, listed by name. A model section holds the
# model class's fields; a bound section feeds the catalog function below
# (lip_c of stable_median goes to StableSpec, mean_abs of quad_euclid to
# QuadraticSpec). Renaming a model field or a catalog parameter fails here.
MODEL_KEYS = {
    "stable": ["alpha", "sigma_total"],
    "quadratic": ["eigs", "generator"],
    "levy_area": ["T"],
    "log_kernel": ["sigma_total"],
    "gauss_kernel": ["sigma_total"],
    "brownian_square_norm": ["T"],
    "brownian_sample_variance": ["T"],
}
BOUND_KEYS = {
    "bennett": ("bennett_bound", ["K", "alpha2"]),
    "quad_wiener": ("quad_wiener_bound", ["lip_c", "form", "target"]),
    "quad_wiener_lower": ("quad_wiener_lower", ["target", "b", "T", "n"]),
    "quad_euclid": ("quad_euclid_iid_bound", ["mean_abs", "b"]),
    "levy_area": ("levy_area_bound",
                  ["variant", "n", "lip_c", "b", "mean_abs"]),
    "id_lower": ("id_lower_curve", []),
    "median_linear": ("median_bound_linear", ["C", "C_prime"]),
    "stable_median": ("stable_median_bound",
                      ["lip_c", "variant", "epsilon", "b"]),
    "two_regime": ("two_regime_bound",
                   ["K", "alpha2", "alpha3", "alpha4", "variant"]),
}
ROUTED = {("stable_median", "lip_c"): "StableSpec",
          ("quad_euclid", "mean_abs"): "QuadraticSpec"}


def _allowed_keys(build, section, *args):
    """The keys a CLI section accepts, as its unknown-key error lists them."""
    with pytest.raises(ConfigError, match="unknown key") as exc:
        build({**section, "not_a_key": 1}, *args)
    return set(re.search(r"\(allowed: (.*)\)$", str(exc.value))
               .group(1).split(", "))


def test_cli_model_sections_are_the_listed_keys():
    assert list(cli._MODEL_VARIANTS) == list(MODEL_KEYS)
    for variant, keys in MODEL_KEYS.items():
        assert _allowed_keys(cli.build_model, {"variant": variant}) == \
            {"variant", *keys}, variant
    for variant, cls in cli._MODEL_CLASSES.items():
        assert [f.name for f in dataclasses.fields(cls)] == \
            MODEL_KEYS[variant]


def test_cli_bound_keys_are_the_listed_parameters():
    assert set(cli._BOUND_KEYS) == set(BOUND_KEYS)
    for name, (func, keys) in BOUND_KEYS.items():
        assert list(cli._BOUND_KEYS[name]) == keys, name
        assert _allowed_keys(cli.build_bound, {"name": name}, None) == \
            {"name", *keys}, name
        for key in keys:
            target = ROUTED.get((name, key), func)
            params = inspect.signature(getattr(levytails, target)).parameters
            assert key in params, f"{name}.{key} is no parameter of {target}"
