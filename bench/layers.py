"""Per-layer metrics of a traced run, computed from its spans and counts.

Span names are ``<layer>.<call>``; the engine's self time is its spans'
time minus the h-function calls made inside them (catalog.h for the numpy
quadratic h, models.h for product h-functions, bench.h for the harness's
own Poisson h).
"""

SAMPLERS = ("chaos2", "levy_area", "stable", "brownian", "id_compound")
CLI_KINDS = ("bound", "simulate", "verify", "sweep", "error")


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tr, untraced_s, traced_s, probe_failures):
    t, c = tr.total, tr.counts
    h_calls = c["engine.h_calls"]
    engine_self = tr.self_time("engine.")
    m = {
        "engine.grid_s": (t["engine.grid"], "s"),
        "engine.self_s": (engine_self, "s"),
        "engine.us_per_h_call": (_ratio(engine_self, h_calls, 1e6), "us"),
        "engine.h_calls": (h_calls, "count"),
        "engine.h_calls_per_point": (
            _ratio(h_calls, c["engine.points"]), "count"),
        "engine.entropy_integral_s": (t["engine.entropy_integral"], "s"),
        "engine.chernoff_min_s": (t["engine.chernoff_min"], "s"),
        "catalog.build_s": (t["catalog.build"], "s"),
        "catalog.h_s": (t["catalog.h"], "s"),
        "models.h_s": (t["models.h"], "s"),
        "models.ms_per_moment": (
            _ratio(t["models.moment"], c["models.moments"], 1e3), "ms"),
        "models.spectrum_s": (t["models.spectrum"], "s"),
    }
    for name in SAMPLERS:
        seconds = t[f"simulate.{name}"]
        m[f"simulate.{name}.s"] = (seconds, "s")
        m[f"simulate.{name}.ns_per_draw"] = (
            _ratio(seconds, c[f"simulate.{name}.draws"], 1e9), "ns")
    m["simulate.draws"] = (c["simulate.draws"], "count")
    for name in ("median", "deviation", "tail", "audit"):
        m[f"verify.{name}_s"] = (t[f"verify.{name}"], "s")
    m["verify.sorted_values"] = (c["verify.sorted_values"], "count")
    m["verify.audited_points"] = (c["verify.audited_points"], "count")
    for kind in CLI_KINDS:
        m[f"cli.{kind}.s"] = (t[f"cli.{kind}"], "s")
    m["cli.bytes_written"] = (c["cli.bytes_written"], "B")
    m["cli.probe_failures"] = (probe_failures, "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_pct"] = (_ratio(traced_s - untraced_s, untraced_s,
                                      100.0), "%")
    return m
