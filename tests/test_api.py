"""The public contract's settable options, its consumers and the CLI
config schema, listed by name.

A settable option is a parameter with a default of a callable in
``levytails.__all__`` (functions and dataclass constructors), as
``inspect.signature`` reports it.  Adding or removing one is a contract
change: update ``OPTIONS`` and the count in ROADMAP.md together.
"""

import ast
import dataclasses
import inspect
import re
import textwrap
from pathlib import Path

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
    "SlopeFit": ["n_points"],
    "TailCurve": ["meta"],
    "VerificationReport": ["bound_params", "estimates", "sensitivity",
                           "decision", "curve"],
    "audit_bound": ["center_se", "estimates"],
    "empirical_tail": ["meta"],
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


def test_settable_options_are_the_listed_60():
    listed = {f"{name}.{opt}" for name, opts in OPTIONS.items()
              for opt in opts}
    found = _settable_options()
    assert found == listed, (
        f"added: {sorted(found - listed)}; removed: {sorted(listed - found)}")
    assert len(listed) == 60


# Each public name's consumer outside the unit tests: the CLI, a bench
# workload or an acceptance criterion (a file), an audit test
# ("file::test"), or another public name whose source uses it and which
# has a consumer itself. A name added to __all__ needs an entry here or in
# AWAITING_CONSUMER.
ROOT = Path(__file__).resolve().parent.parent
CONSUMER_FILES = ("src/levytails/cli.py", "bench/workloads.py",
                  "tests/test_acceptance.py")
CLI, BENCH, ACCEPTANCE = CONSUMER_FILES
CONSUMERS = {
    "HFunction": BENCH,
    "TailBound": "tail_bound_from_h",
    "chernoff_min": BENCH,
    "entropy_integral": BENCH,
    "evaluate_entropy_grid": BENCH,
    "tail_bound_from_h": BENCH,
    "FunctionalProfile": BENCH,
    "QuadraticSpec": CLI,
    "StableSpec": CLI,
    "asymptotic_slope": ACCEPTANCE,
    "bennett_bound": CLI,
    "dimension_free_bound": "tests/test_verify.py::"
                            "test_dimension_free_bound_holds_on_iid_chaoses",
    "id_lower_bound": "id_lower_curve",
    "id_lower_curve": CLI,
    "levy_area_bound": CLI,
    "median_bound_linear": CLI,
    "product_h": BENCH,
    "quad_euclid_iid_bound": CLI,
    "quad_wiener_bound": CLI,
    "quad_wiener_lower": CLI,
    "stable_median_bound": CLI,
    "two_regime_bound": CLI,
    "RngContract": CLI,
    "SampleBatch": "sample_chaos2",
    "load_batch": BENCH,
    "sample_brownian_quadratic": CLI,
    "sample_chaos2": CLI,
    "sample_id_compound": BENCH,
    "sample_levy_area": CLI,
    "sample_stable": CLI,
    "save_batch": CLI,
    "SlopeFit": "fit_log_slope",
    "TailCurve": "empirical_tail",
    "VerificationReport": "audit_bound",
    "audit_bound": CLI,
    "deviation_values": CLI,
    "empirical_median": CLI,
    "empirical_tail": CLI,
    "fit_log_slope": ACCEPTANCE,
}
# Public names with no consumer yet, each with the ROADMAP item that is to
# give it one (or remove it).
AWAITING_CONSUMER = {
    "median_bound_general": "item 12",
}


def _uses(tree, name):
    return any(isinstance(node, ast.Name) and node.id == name
               or isinstance(node, ast.Attribute) and node.attr == name
               for node in ast.walk(tree))


def _consumer_tree(consumer):
    """The syntax tree in which a CONSUMERS entry must use its name."""
    if consumer in levytails.__all__:
        source = inspect.getsource(getattr(levytails, consumer))
        return ast.parse(textwrap.dedent(source))
    path, _, test = consumer.partition("::")
    assert path in CONSUMER_FILES or (
        path.startswith("tests/") and test.startswith("test_")), consumer
    tree = ast.parse((ROOT / path).read_text())
    if not test:
        return tree
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == test)


def test_every_public_name_has_a_consumer():
    public = set(levytails.__all__)
    assert not set(CONSUMERS) & set(AWAITING_CONSUMER)
    assert set(CONSUMERS) | set(AWAITING_CONSUMER) == public, (
        f"unmapped: {sorted(public - set(CONSUMERS) - set(AWAITING_CONSUMER))}"
        f"; not public: "
        f"{sorted((set(CONSUMERS) | set(AWAITING_CONSUMER)) - public)}")
    for name, consumer in CONSUMERS.items():
        assert consumer != name and consumer not in AWAITING_CONSUMER, name
        assert _uses(_consumer_tree(consumer), name), (
            f"{consumer} does not use {name}")


# No module of the package imports a name it never uses. __init__ only
# re-exports; a name a module lists in its own __all__ counts as used.
@pytest.mark.parametrize("module", sorted(
    path.name for path in (ROOT / "src" / "levytails").glob("*.py")
    if path.name != "__init__.py"))
def test_no_unused_imports(module):
    tree = ast.parse((ROOT / "src" / "levytails" / module).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {elt.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                for elt in node.value.elts}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used | exported)
    assert not unused, f"{module} imports unused {unused}"


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
