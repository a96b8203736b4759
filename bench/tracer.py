"""Spans and counters recorded from the benchmark's side of each layer call.

A span is the wall time of one call into a layer; nested spans charge their
time to the enclosing span's child total, so self time = total - children.
Counters record work done (h evaluations, draws, sorted values, ...), which
repeats exactly for a fixed seed and schedule.

``NullTracer`` is used for untraced runs: spans and counters cost one
no-op call, and no library function is wrapped or patched.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, n=1):
        pass

    def wrap(self, name, fn):
        return fn


class Tracer:
    enabled = True

    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def _enter(self):
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, name, t0):
        dt = time.perf_counter() - t0
        self.total[name] += dt
        self.child[name] += self._stack.pop()
        if self._stack:
            self._stack[-1] += dt

    @contextlib.contextmanager
    def span(self, name):
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(name, t0)

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, t0)
        return traced

    def self_time(self, prefix):
        """Summed self time of every span whose name starts with prefix."""
        return sum(self.total[k] - self.child[k]
                   for k in list(self.total) if k.startswith(prefix))


def instrument_h(tr, h, layer):
    """Count and time every call of an HFunction's eval_fn, in place.

    The bound built from ``h`` holds the same HFunction object, so swapping
    its (frozen) eval_fn reaches every evaluation the engine makes.  Returns
    an uninstrumented copy of ``h`` for reference computations.
    """
    plain = dataclasses.replace(h)
    if not tr.enabled:
        return plain
    inner = tr.wrap(layer, h.eval_fn)

    def counted(t):
        tr.counts["engine.h_calls"] += 1
        return inner(t)

    object.__setattr__(h, "eval_fn", counted)
    return plain


def engine_backed(bound):
    """True for bounds evaluated through the h-function engine."""
    return "h" in bound.meta or "h_name" in bound.meta


def instrument_bound(tr, bound):
    """Trace an engine-backed bound's pointwise evaluations (CLI jobs)."""
    if not (tr.enabled and engine_backed(bound)):
        return bound
    if "h" in bound.meta:
        instrument_h(tr, bound.meta["h"], "catalog.h")
    inner = tr.wrap("engine.grid", bound.fn)

    def fn(x):
        tr.counts["engine.points"] += 1
        return inner(x)

    return dataclasses.replace(bound, fn=fn)


_SAMPLERS = {
    "sample_chaos2": "chaos2",
    "sample_levy_area": "levy_area",
    "sample_stable": "stable",
    "sample_brownian_quadratic": "brownian",
    "sample_id_compound": "id_compound",
}
_VERIFY = {
    "empirical_median": "median",
    "deviation_values": "deviation",
    "empirical_tail": "tail",
    "audit_bound": "audit",
}
_CATALOG = ("bennett_bound", "quad_wiener_bound", "quad_wiener_lower",
            "levy_area_bound", "stable_median_bound", "id_lower_curve",
            "median_bound_linear", "quad_euclid_iid_bound",
            "two_regime_bound")


def sampler(tr, lt, name):
    """A library sampler wrapped in its simulate span and draw counters."""
    fn = getattr(lt, name)
    if not tr.enabled:
        return fn
    short = _SAMPLERS[name]
    inner = tr.wrap(f"simulate.{short}", fn)

    def traced(*args, **kwargs):
        batch = inner(*args, **kwargs)
        tr.count(f"simulate.{short}.draws", batch.count)
        tr.count("simulate.draws", batch.count)
        return batch
    return traced


def verifier(tr, lt, name):
    """A library verify function wrapped in its span and work counters."""
    fn = getattr(lt, name)
    if not tr.enabled:
        return fn
    inner = tr.wrap(f"verify.{_VERIFY[name]}", fn)

    def traced(*args, **kwargs):
        out = inner(*args, **kwargs)
        if name == "empirical_median":
            tr.count("verify.sorted_values", out["count"])
        elif name == "empirical_tail":
            tr.count("verify.sorted_values", out.count)
        elif name == "audit_bound":
            tr.count("verify.audited_points",
                     out.decision.get("audited_points", 0))
        return out
    return traced


def constructor(tr, fn):
    """A catalog constructor wrapped in catalog.build; engine-backed results
    get their h and pointwise evaluations traced."""
    if not tr.enabled:
        return fn
    inner = tr.wrap("catalog.build", fn)

    def traced(*args, **kwargs):
        return instrument_bound(tr, inner(*args, **kwargs))
    return traced


class TracedLib:
    """The library's simulate and verify entry points, traced when on."""

    def __init__(self, tr, lt):
        for name in _SAMPLERS:
            setattr(self, name, sampler(tr, lt, name))
        for name in _VERIFY:
            setattr(self, name, verifier(tr, lt, name))


@contextlib.contextmanager
def patch_cli(tr, cli_module, lt):
    """Trace the library calls the CLI makes through its module globals."""
    if not tr.enabled:
        yield
        return
    saved = {}
    replacements = {}
    for name in _SAMPLERS:
        if hasattr(cli_module, name):  # the CLI has no compound sampler
            replacements[name] = sampler(tr, lt, name)
    for name in _VERIFY:
        replacements[name] = verifier(tr, lt, name)
    for name in _CATALOG:
        replacements[name] = constructor(tr, getattr(cli_module, name))
    replacements["chaos_eigenvalues"] = tr.wrap(
        "models.spectrum", cli_module.chaos_eigenvalues)
    for name, fn in replacements.items():
        saved[name] = getattr(cli_module, name)
        setattr(cli_module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cli_module, name, fn)


@contextlib.contextmanager
def patch_moments(tr, models_module):
    """Count and time exp_weighted_moment, which product h-functions call
    through the models module."""
    if not tr.enabled:
        yield
        return
    orig = models_module.exp_weighted_moment
    inner = tr.wrap("models.moment", orig)

    def traced(*args, **kwargs):
        tr.counts["models.moments"] += 1
        return inner(*args, **kwargs)

    models_module.exp_weighted_moment = traced
    try:
        yield
    finally:
        models_module.exp_weighted_moment = orig
