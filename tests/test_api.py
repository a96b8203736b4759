"""The public contract's settable options, listed by name.

A settable option is a parameter with a default of a callable in
``levytails.__all__`` (functions and dataclass constructors), as
``inspect.signature`` reports it.  Adding or removing one is a contract
change: update ``OPTIONS`` and the count in ROADMAP.md together.
"""

import inspect

import levytails

OPTIONS = {
    "HFunction": ["t_end", "h_sup", "name"],
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


def test_settable_options_are_the_listed_61():
    listed = {f"{name}.{opt}" for name, opts in OPTIONS.items()
              for opt in opts}
    found = _settable_options()
    assert found == listed, (
        f"added: {sorted(found - listed)}; removed: {sorted(listed - found)}")
    assert len(listed) == 61
