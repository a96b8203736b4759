"""levytails: deviation bounds for Poisson functionals and infinitely
divisible vectors, with Monte-Carlo verification tooling.

Subpackage map:
    engine    -- h-function inversion, entropy integral, Chernoff minimum
    models    -- Levy-measure models and their moment/tail functionals
    catalog   -- named closed-form bounds (upper and lower) as TailBound
    simulate  -- seeded Monte-Carlo samplers for the target laws
    verify    -- empirical tail curves, bound audits, slope fits
    cli       -- JSON-config command line driver
"""

from .engine import (
    HFunction,
    TailBound,
    chernoff_min,
    entropy_integral,
    evaluate_entropy_grid,
    tail_bound_from_h,
)
from .catalog import (
    FunctionalProfile,
    QuadraticSpec,
    StableSpec,
    asymptotic_slope,
    bennett_bound,
    dimension_free_bound,
    id_lower_bound,
    id_lower_curve,
    levy_area_bound,
    median_bound_general,
    median_bound_linear,
    product_h,
    quad_euclid_iid_bound,
    quad_wiener_bound,
    quad_wiener_lower,
    stable_median_bound,
    two_regime_bound,
)
from .simulate import (
    RngContract,
    SampleBatch,
    load_batch,
    sample_brownian_quadratic,
    sample_chaos2,
    sample_id_compound,
    sample_levy_area,
    sample_stable,
    save_batch,
)
from .verify import (
    SlopeFit,
    TailCurve,
    VerificationReport,
    audit_bound,
    deviation_values,
    empirical_median,
    empirical_tail,
    fit_log_slope,
)

__all__ = [
    "HFunction",
    "TailBound",
    "chernoff_min",
    "entropy_integral",
    "evaluate_entropy_grid",
    "tail_bound_from_h",
    "FunctionalProfile",
    "QuadraticSpec",
    "StableSpec",
    "asymptotic_slope",
    "bennett_bound",
    "dimension_free_bound",
    "id_lower_bound",
    "id_lower_curve",
    "levy_area_bound",
    "median_bound_general",
    "median_bound_linear",
    "product_h",
    "quad_euclid_iid_bound",
    "quad_wiener_bound",
    "quad_wiener_lower",
    "stable_median_bound",
    "two_regime_bound",
    "RngContract",
    "SampleBatch",
    "load_batch",
    "sample_brownian_quadratic",
    "sample_chaos2",
    "sample_id_compound",
    "sample_levy_area",
    "sample_stable",
    "save_batch",
    "SlopeFit",
    "TailCurve",
    "VerificationReport",
    "audit_bound",
    "deviation_values",
    "empirical_median",
    "empirical_tail",
    "fit_log_slope",
]

__version__ = "0.1.0"
