"""Seeded Monte-Carlo samplers for the functionals the bounds catalog covers.

Everything here is built on numpy ``Generator`` streams derived from a single
64-bit root seed through ``SeedSequence``: a batch is reproducible
bit-for-bit from ``(root_seed, stream_id, parameters)``, and distinct
``stream_id`` values give statistically independent, collision-free streams,
so batches drawn on distinct stream ids are independent, whatever order
they are drawn in.

Samplers
--------
``sample_chaos2``
    second-chaos series  F = (1/2) sum_k a_k (Z_k^2 - 1)  truncated to N
    eigenvalues, with a remainder guard when the spectrum carries one; the
    smallest eigenvalues (at most 1e-6 of the energy) share one Gaussian.
``sample_brownian_quadratic``
    trapezoidal discretizations of the centered quadratic Brownian
    functionals  int_0^T B^2 dt - T^2/2  and  int_0^T (B - Bbar)^2 dt - T^2/6.
``sample_levy_area``
    midpoint discretization of the stochastic area
    (1/2) sum_k (B^1 Delta B^2 - B^2 Delta B^1) on two independent grids,
    either step by step or through an exact-in-law dyadic refinement.
``sample_stable``
    alpha-stable vectors with a prescribed spherical decomposition of the
    Levy measure (uniform, axes, or discrete atoms), amplitudes through the
    uniform-exponential (Chambers-Mallows-Stuck / Weron) transform.
``sample_id_compound``
    compound-Poisson approximation of an infinitely divisible law: jumps
    with |y| > eps from the normalized restricted Levy measure, unit-ball
    compensation, and an optional Gaussian surrogate for the small jumps.

Centering conventions
---------------------
Each sampler documents its centering in ``meta["centering"]``.  The chaos,
Brownian-quadratic and area samplers are mean-centered by construction.
``sample_stable`` uses the natural centering of the stable family: no shift
for symmetric laws, the pure-jump (positive) representation for totally
skewed alpha < 1, full mean compensation for alpha > 1, and the standard
log-corrected centering on the delicate alpha = 1 skewed branch (exact in
law up to translation; scale-induced drift is *not* added there, which is
documented rather than hidden).  ``sample_id_compound`` defaults to the
unit-ball compensation  - int_{eps<|y|<=1} y nu(dy)  and can optionally
center at the mean or not at all.

Stream layout
-------------
Every stream is one SFC64 generator seeded through ``SeedSequence``.
A sampler takes its parent stream from ``RngContract.stream(stream_id)``
(any other ``rng`` raises ``PreconditionViolated``), cuts the batch into
fixed blocks of ``_BLOCK`` draws (Brownian paths: ``2**20 // steps`` per
block; compound draws: at most ``2**22 // ceil(rate)``) and fills block b
from child b of ``parent.spawn(n_blocks)``, each into its own slice of one
output array.
The blocks run on a pool of threads, one per CPU this process may use;
numpy releases the GIL inside its fills and ufuncs.  The layout is fixed,
so a batch's values do not depend on the number of workers.  No variance
reduction is attempted: every draw is i.i.d., as the auditor assumes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from math import gamma as _gamma_fn
from math import pi

import numpy as np

from .errors import (
    BudgetExceeded,
    EmptyBatch,
    InvalidProfile,
    PreconditionViolated,
    TruncationTooCoarse,
)
from . import models as _models
from .models import _interior_uniform

__all__ = [
    "RngContract",
    "SampleBatch",
    "save_batch",
    "load_batch",
    "sample_chaos2",
    "sample_brownian_quadratic",
    "sample_levy_area",
    "sample_stable",
    "sample_id_compound",
]

# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------

_MAX_SEED = 2 ** 64


@dataclass(frozen=True)
class RngContract:
    """Reproducible stream factory.

    ``stream(stream_id)`` returns a fresh ``numpy.random.Generator`` on an
    SFC64 bit generator seeded from the key ``(root_seed, stream_id, 0)``
    through ``SeedSequence``, which hashes distinct keys into independent,
    collision-free states.  So batches drawn on distinct ``stream_id``
    values are independent, whatever order they are drawn in.
    The generator is fixed (batch files do not record one); SFC64 fills
    normals about twice as fast as PCG64.
    """

    root_seed: int

    def __post_init__(self):
        if not isinstance(self.root_seed, (int, np.integer)):
            raise PreconditionViolated("root_seed must be an integer")
        if not (0 <= int(self.root_seed) < _MAX_SEED):
            raise PreconditionViolated("root_seed must fit in 64 bits")

    def stream(self, stream_id: int = 0) -> np.random.Generator:
        if stream_id < 0:
            raise PreconditionViolated("stream_id must be >= 0")
        # The trailing 0 is the replicate index streams once took; keeping
        # it in the key keeps every stream's draws as they were.
        ss = np.random.SeedSequence((int(self.root_seed), int(stream_id), 0))
        return np.random.Generator(np.random.SFC64(ss))


def _resolve_rng(rng, stream_id: int):
    """Returns ``(rng.stream(stream_id), rng.root_seed)`` for an RngContract.

    Nothing else is accepted: a batch's header must name the stream its
    draws came from, so that batches on distinct streams are independent.
    """
    if not isinstance(rng, RngContract):
        raise PreconditionViolated("rng must be an RngContract")
    return rng.stream(stream_id), int(rng.root_seed)


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------


@dataclass
class SampleBatch:
    """A finished Monte-Carlo batch.

    ``values`` is a float64 array of shape ``(count,)`` for scalar
    functionals or ``(count, n)`` for vectors.  ``meta`` records the sampler
    name and the full parameter set needed to regenerate the batch.
    """

    values: np.ndarray
    count: int
    seed: int
    stream_id: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ValueError("values must be a 1-D or 2-D array")
        if self.count != self.values.shape[0]:
            raise ValueError(
                f"count={self.count} does not match len(values)="
                f"{self.values.shape[0]}"
            )
        if self.count == 0:
            raise EmptyBatch("batch contains no samples")


# ---------------------------------------------------------------------------
# Serialization: CSV (portable) and flat binary (exact, compact)
# ---------------------------------------------------------------------------

_BIN_MAGIC = b"LTBATCH1"


def _meta_header(batch: SampleBatch) -> dict:
    return {
        "sampler": batch.meta.get("sampler", "unknown"),
        "params": {k: v for k, v in batch.meta.items() if k != "sampler"},
        "seed": batch.seed,
        "stream_id": batch.stream_id,
        "count": batch.count,
        "shape": list(batch.values.shape),
    }


def save_batch(batch: SampleBatch, path: str) -> None:
    """Write a batch to ``path``; ``.csv`` is text, anything else binary.

    Both formats round-trip float64 exactly (CSV uses 17 significant
    digits) and carry the sampler name, parameters, seed and count in the
    header, so a saved batch is self-describing.
    """
    header = json.dumps(_meta_header(batch), sort_keys=True,
                        default=str)
    if str(path).endswith(".csv"):
        cols = batch.values if batch.values.ndim == 2 else batch.values[:, None]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# levytails-batch v1\n")
            fh.write("# " + header + "\n")
            for row in cols:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    else:
        payload = header.encode("utf-8")
        data = np.ascontiguousarray(batch.values, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(_BIN_MAGIC)
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
            fh.write(data.tobytes())


def load_batch(path: str) -> SampleBatch:
    """Read a batch written by :func:`save_batch`.

    A truncated file raises :class:`InvalidProfile` with the expected and
    the found size of its float64 data; a corrupt header (a missing or
    mistyped field, a count that does not match the shape) raises
    :class:`InvalidProfile` as well.
    """
    try:
        if str(path).endswith(".csv"):
            with open(path, "r", encoding="utf-8") as fh:
                if not fh.readline().startswith("# levytails-batch"):
                    raise InvalidProfile(f"{path}: not a levytails batch CSV")
                header = json.loads(fh.readline().lstrip("# ").strip())
                data = np.loadtxt(fh, delimiter=",", ndmin=2,
                                  dtype="<f8").tobytes()
        else:
            with open(path, "rb") as fh:
                if fh.read(len(_BIN_MAGIC)) != _BIN_MAGIC:
                    raise InvalidProfile(
                        f"{path}: bad magic, not a levytails batch")
                (hlen,) = struct.unpack("<I", fh.read(4))
                header = json.loads(fh.read(hlen).decode("utf-8"))
                data = fh.read()
        shape = tuple(header.get("shape", [header["count"]]))
        if len(data) != 8 * math.prod(shape):
            raise InvalidProfile(
                f"{path}: shape {list(shape)} needs {8 * math.prod(shape)} "
                f"bytes of float64 data, found {len(data)}")
        values = np.frombuffer(data, dtype="<f8").astype(np.float64)
        meta = {"sampler": header.get("sampler", "unknown")}
        meta.update(header.get("params", {}))
        return SampleBatch(
            values=values.reshape(shape),
            count=header["count"],
            seed=header["seed"],
            stream_id=header["stream_id"],
            meta=meta,
        )
    except (ValueError, KeyError, TypeError, AttributeError,
            struct.error) as exc:
        raise InvalidProfile(f"{path}: corrupt batch file ({exc})") from None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _check_count(count) -> int:
    count = int(count)
    if count < 1:
        raise PreconditionViolated("count must be >= 1")
    return count


# Draws per block.  The block layout is part of the stream contract (see the
# module docstring), so it is a constant, not an option.
_BLOCK = 16384


# Worker threads: the CPUs this process may use.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@functools.cache
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(workers, thread_name_prefix="levytails-sim")


# A forked child inherits the pool object but not its threads.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _fill_blocks(gen, count: int, block: int, fill) -> None:
    """Call ``fill(child, rows)`` for every block of ``range(count)``.

    Block b covers ``rows = slice(b * block, min((b + 1) * block, count))``
    and draws from ``child = gen.spawn(n_blocks)[b]``; ``fill`` writes into
    those rows of its preallocated output.  Every batch runs on the worker
    pool, whatever its number of blocks or workers.  Exceptions propagate
    to the caller.
    """
    n_blocks = -(-count // block)
    jobs = [(child, slice(b * block, min((b + 1) * block, count)))
            for b, child in enumerate(gen.spawn(n_blocks))]
    for _ in _executor(_WORKERS).map(lambda job: fill(*job), jobs):
        pass


# ---------------------------------------------------------------------------
# Second chaos: F = (1/2) sum a_k (Z_k^2 - 1)
# ---------------------------------------------------------------------------


# Largest stored tail spectral energy of a truncated spectrum that
# sample_chaos2 accepts before it raises TruncationTooCoarse.
_REMAINDER_TOL = 1e-6

# Share of the retained spectral energy sum a^2 that sample_chaos2 leaves to
# one moment-matched Gaussian column.  It is relative, so the split does not
# depend on the scale of the spectrum, and like _BLOCK it is part of the law
# drawn, so it is a constant, not an option.
_GAUSS_TAIL = 1e-6


def _split_gauss_tail(a: np.ndarray):
    """Split nonzero eigenvalues into those drawn exactly and a Gaussian.

    The carried ones are the longest run of the smallest |a| (stable sort)
    whose summed a^2 is at most ``_GAUSS_TAIL`` times that of all of them;
    (1/2) sum a_k (Z_k^2 - 1) over them is replaced by N(0, (1/2) sum a_k^2),
    which matches its mean and variance.  Returns the exact eigenvalues in
    index order, the Gaussian's standard deviation and the carried sum a^2.
    """
    if a.size == 0:
        return a, 0.0, 0.0
    a_max = float(np.max(np.abs(a)))
    order = np.argsort(np.abs(a), kind="stable")
    energy = np.cumsum(np.square(a[order] / a_max))    # scaled: no overflow
    n_carried = int(np.searchsorted(energy, _GAUSS_TAIL * energy[-1],
                                    side="right"))
    if n_carried == 0:
        return a, 0.0, 0.0
    root = a_max * math.sqrt(float(energy[n_carried - 1]))   # sqrt(sum a^2)
    return np.delete(a, order[:n_carried]), root * math.sqrt(0.5), root * root


def sample_chaos2(eigs, count, rng, *, stream_id: int = 0) -> SampleBatch:
    """Draw the truncated second-chaos series (1/2) sum_k a_k (Z_k^2 - 1).

    ``eigs`` is either a plain sequence of eigenvalues or a
    :class:`~levytails.models.QuadraticSpectral`; in the latter case the
    spectrum's stored tail energy ``remainder_sq`` must stay at or below
    ``_REMAINDER_TOL`` = 1e-6 or :class:`TruncationTooCoarse` is raised.  Zero eigenvalues contribute
    exactly zero and consume no random variates.

    The smallest eigenvalues that hold at most ``_GAUSS_TAIL`` of the
    retained sum a^2 are carried by one N(0, (1/2) sum a^2) column, which
    each block draws first; the others are drawn exactly, one normal each,
    in index order.  ``meta`` records ``n_exact``, the carried sum a^2
    as ``gauss_sq``, and ``eigs_sha256``, the SHA-256 of the float64 bytes
    of the eigenvalues, which identifies the law in the batch header.
    """
    count = _check_count(count)
    # A QuadraticSpectral guards its stored tail energy; a sequence has none.
    remainder = getattr(eigs, "remainder_sq", None)
    guarded = remainder is not None
    a = np.asarray(list(getattr(eigs, "eigs", eigs)), dtype=np.float64)
    remainder = float(remainder or 0.0)
    if guarded and remainder > _REMAINDER_TOL:
        raise TruncationTooCoarse(
            f"tail spectral energy {remainder:.3e} exceeds "
            f"the tolerance {_REMAINDER_TOL:.3e}"
        )
    gen, seed = _resolve_rng(rng, stream_id)
    nonzero = a[a != 0.0]
    exact, gauss_sd, gauss_sq = _split_gauss_tail(nonzero)
    half_a = 0.5 * exact
    carries = exact.size < nonzero.size

    vals = np.empty(count, dtype=np.float64)

    def fill(g, rows):
        out = vals[rows]
        if carries:
            g.standard_normal(out=out)
            out *= gauss_sd
        else:
            out[:] = 0.0
        z = np.empty(out.size, dtype=np.float64)
        for h in half_a:
            g.standard_normal(out=z)
            np.square(z, out=z)
            z -= 1.0
            z *= h
            out += z

    _fill_blocks(gen, count, _BLOCK, fill)

    meta = {
        "sampler": "chaos2",
        "n_eigs": int(a.size),
        "n_exact": int(half_a.size),
        "gauss_sq": gauss_sq,
        "remainder_sq": remainder,
        "eigs_sha256": hashlib.sha256(a.astype("<f8").tobytes()).hexdigest(),
        "centering": "mean",
    }
    return SampleBatch(vals, count, seed, stream_id, meta)


# ---------------------------------------------------------------------------
# Quadratic Brownian functionals by trapezoidal discretization
# ---------------------------------------------------------------------------

_BROWNIAN_KINDS = ("square_norm", "sample_variance")


def sample_brownian_quadratic(kind: str, T: float, steps: int, count, rng, *,
                              stream_id: int = 0) -> SampleBatch:
    """Discretize a centered quadratic Brownian functional on [0, T].

    ``kind="square_norm"`` gives  int_0^T B_t^2 dt - T^2/2  and
    ``kind="sample_variance"`` gives  int_0^T (B_t - Bbar)^2 dt - T^2/6
    with  Bbar = (1/T) int_0^T B_t dt.  The path uses ``steps`` increments
    sqrt(T/steps) * Z and both time integrals use the trapezoidal rule,
    which makes the mean of the square-norm functional exactly zero at any
    step count.
    """
    if kind not in _BROWNIAN_KINDS:
        raise PreconditionViolated(
            f"kind must be one of {_BROWNIAN_KINDS}, got {kind!r}"
        )
    if not (T > 0.0):
        raise PreconditionViolated("T must be > 0")
    steps = int(steps)
    if steps < 100:
        raise PreconditionViolated("steps must be >= 100")
    count = _check_count(count)
    gen, seed = _resolve_rng(rng, stream_id)
    dt = T / steps
    vals = np.empty(count, dtype=np.float64)

    def fill(g, rows):
        # Unit-variance partial sums at grid points 1..steps; B_0 = 0 drops
        # out of the trapezoid, whose weights are 1 except 1/2 at the end.
        c = g.standard_normal((rows.stop - rows.start, steps))
        np.cumsum(c, axis=1, out=c)
        if kind == "sample_variance":
            bbar_t = dt ** 1.5 * (c.sum(axis=1) - 0.5 * c[:, -1])  # T * Bbar
        np.square(c, out=c)
        sq = dt * dt * (c.sum(axis=1) - 0.5 * c[:, -1])   # trapezoid of B^2
        if kind == "square_norm":
            vals[rows] = sq - 0.5 * T * T
        else:
            vals[rows] = sq - bbar_t * bbar_t / T - T * T / 6.0

    # Blocks of about 2^20 variates keep each block's path array at 8 MB.
    _fill_blocks(gen, count, max(1, 2 ** 20 // steps), fill)

    meta = {
        "sampler": "brownian_quadratic",
        "kind": kind,
        "T": float(T),
        "steps": steps,
        "centering": "mean",
    }
    return SampleBatch(vals, count, seed, stream_id, meta)


# ---------------------------------------------------------------------------
# Levy stochastic area by midpoint discretization
# ---------------------------------------------------------------------------


def _area_direct(gen, T: float, steps: int, out: np.ndarray) -> None:
    """Step-by-step midpoint sums (1/2) sum (B^1 dB^2 - B^2 dB^1) into ``out``.

    For this antisymmetric integrand the midpoint and left-point sums agree
    exactly: ((B_k + B_{k+1}) dB' - (B'_k + B'_{k+1}) dB)/2 =
    B_k dB' - B'_k dB, because the dB dB' cross terms cancel.  The loop
    therefore accumulates left-point products in unit scale and applies the
    (1/2) dt factor once at the end.
    """
    m = out.size
    b1 = np.zeros(m)
    b2 = np.zeros(m)
    s = np.zeros(m)
    db = np.empty((2, m))
    tmp = np.empty(m)
    for _ in range(steps):
        gen.standard_normal(out=db)
        np.multiply(b1, db[1], out=tmp)
        s += tmp
        np.multiply(b2, db[0], out=tmp)
        s -= tmp
        b1 += db[0]
        b2 += db[1]
    np.multiply(s, 0.5 * (T / steps), out=out)


def _area_recursive(gen, T: float, steps: int, out: np.ndarray) -> None:
    """Exact-in-law dyadic refinement of the midpoint area, O(log steps).

    Split every step pair (xi_{2i}, xi_{2i+1}) into the orthogonal rotation
    u = (xi_{2i}+xi_{2i+1})/sqrt(2), v = (xi_{2i}-xi_{2i+1})/sqrt(2).  The
    u's reproduce the half-resolution scheme and the fine-level correction
    to the (unhalved) bilinear sum is  sum_i (v^1_i u^2_i - v^2_i u^1_i),
    which conditionally on the coarse increments is Gaussian with variance
    dt_fine * Q/2 where Q is the coarse sum of squared increments of both
    components.  Writing zeta for the standardized correction, the fine
    sum of squares satisfies exactly

        Q_fine = Q/2 + dt_fine * (zeta^2 + X),    X ~ chi^2(2K - 1),

    with X independent of everything coarser (the component of v along the
    correction direction has squared length dt_fine * zeta^2; the rest is an
    independent chi square).  Iterating from one step (where the midpoint
    area is identically zero) up to ``steps = 2^L`` therefore reproduces the
    exact joint law of the discretized area at a cost of O(L) variates per
    draw instead of O(steps).  The sampled law equals the direct scheme's
    law exactly -- e.g. both have variance (T^2/4)(1 - 1/steps).
    """
    L = steps.bit_length() - 1
    count = out.size
    z = gen.standard_normal((2, count))
    q = T * (z[0] ** 2 + z[1] ** 2)     # sum of squared increments, 1 step
    s = np.zeros(count, dtype=np.float64)
    zeta = np.empty(count, dtype=np.float64)
    tmp = np.empty(count, dtype=np.float64)
    x = np.empty(count, dtype=np.float64)
    for j in range(L):
        dt_fine = T / float(2 ** (j + 1))
        gen.standard_normal(out=zeta)
        # s += zeta * sqrt(dt_fine * q / 2)
        np.multiply(q, 0.5 * dt_fine, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp *= zeta
        s += tmp
        if j == L - 1:
            break                       # the finest level's Q is not read
        # X ~ chi^2(2^(j+1) - 1) drawn as numpy's chisquare draws it:
        # twice a standard gamma of half the degrees of freedom.
        gen.standard_gamma(2.0 ** j - 0.5, out=x)
        x *= 2.0
        np.square(zeta, out=tmp)
        x += tmp
        q *= 0.5
        q += dt_fine * x
    np.multiply(s, 0.5, out=out)


def sample_levy_area(T: float, steps: int, count, rng, *,
                     stream_id: int = 0) -> SampleBatch:
    """Sample the discretized Levy stochastic area on [0, T].

    Two independent Brownian grids with ``steps`` increments each feed the
    midpoint sums (1/2) sum (B^1 dB^2 - B^2 dB^1).  The route follows
    ``steps``: a power of two draws from the exact law of the scheme
    through the dyadic refinement of :func:`_area_recursive`, hundreds of
    times faster at large step counts; any other count runs the scheme
    step by step (:func:`_area_direct`, also the reference the recursive
    route is tested against).  The routes consume the stream differently;
    ``meta["method"]`` records the one used.
    """
    if not (T > 0.0):
        raise PreconditionViolated("T must be > 0")
    steps = int(steps)
    if steps < 1000:
        raise PreconditionViolated("steps must be >= 1000")
    count = _check_count(count)
    method = "recursive" if steps & (steps - 1) == 0 else "direct"
    gen, seed = _resolve_rng(rng, stream_id)

    area = _area_direct if method == "direct" else _area_recursive
    vals = np.empty(count, dtype=np.float64)
    _fill_blocks(gen, count, _BLOCK,
                 lambda g, rows: area(g, T, steps, vals[rows]))

    meta = {
        "sampler": "levy_area",
        "T": float(T),
        "steps": steps,
        "method": method,
        "centering": "mean",
    }
    return SampleBatch(vals, count, seed, stream_id, meta)


# ---------------------------------------------------------------------------
# Stable vectors
# ---------------------------------------------------------------------------

_ALPHA_ONE_TOL = 1e-9


def _levy_amplitude_const(alpha: float) -> float:
    """K_alpha with sigma^alpha = (c_+ + c_-) K_alpha for a 1-D stable law.

    Here sigma is the scale in the characteristic function
    exp(-sigma^alpha |t|^alpha (1 - i beta tan(pi alpha/2) sgn t)) and
    c_{+-} are the Levy density coefficients c_{+-} |y|^{-1-alpha}.  By the
    reflection formula  -Gamma(-alpha) cos(pi alpha/2) reduces to
    K_alpha = pi / (2 Gamma(1+alpha) sin(pi alpha/2)), which is continuous
    through alpha = 1 (value pi/2).
    """
    return pi / (2.0 * _gamma_fn(1.0 + alpha) * math.sin(pi * alpha / 2.0))


def _stable_standard(gen, alpha: float, beta: float, count: int) -> np.ndarray:
    """Standard stable draws S(alpha, beta; 1) by the CMS/Weron transform.

    Uniform angle Theta on (-pi/2, pi/2) and unit exponential W; both are
    drawn strictly inside their ranges.  ``beta=0`` at alpha=1 reduces to
    the exact Cauchy ``tan Theta``; skewed alpha=1 uses the log-corrected
    branch, which is exact in law but numerically delicate (documented to
    roughly 1e-3 near the boundary).
    """
    theta = (_interior_uniform(gen, count) - 0.5) * pi
    w = gen.standard_exponential(count)

    if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
        if beta == 0.0:
            return np.tan(theta)
        half_pi = 0.5 * pi
        a = half_pi + beta * theta
        x = a * np.tan(theta) - beta * np.log(
            half_pi * w * np.cos(theta) / a
        )
        return x / half_pi
    if beta == 0.0:
        inv_a = 1.0 / alpha
        x = np.sin(alpha * theta) / np.cos(theta) ** inv_a
        x *= (np.cos((alpha - 1.0) * theta) / w) ** ((1.0 - alpha) * inv_a)
        return x
    b0 = math.atan(beta * math.tan(pi * alpha / 2.0)) / alpha
    s_f = (1.0 + (beta * math.tan(pi * alpha / 2.0)) ** 2) ** (1.0 / (2.0 * alpha))
    inv_a = 1.0 / alpha
    shifted = alpha * (theta + b0)
    x = s_f * np.sin(shifted) / np.cos(theta) ** inv_a
    x *= (np.cos(theta - shifted) / w) ** ((1.0 - alpha) * inv_a)
    return x


def _uniform_sphere_moment(alpha: float, n: int) -> float:
    """E |<e, Theta>|^alpha for Theta uniform on S^{n-1}."""
    return (_gamma_fn(n / 2.0) * _gamma_fn((alpha + 1.0) / 2.0)
            / (math.sqrt(pi) * _gamma_fn((n + alpha) / 2.0)))


def sample_stable(alpha: float, n: int, spherical, count, rng, *,
                  stream_id: int = 0, sigma_total: float | None = None,
                  atoms=None) -> SampleBatch:
    """Sample an alpha-stable vector whose Levy measure is
    sigma(d theta) r^{-1-alpha} dr with the requested spherical part.

    ``spherical`` is one of:

    ``"uniform"``
        isotropic law, total spherical mass ``sigma_total`` (for n = 1 the
        two-point symmetric law); realized for n >= 2 through the
        sub-Gaussian representation sqrt(Lambda) * N(0, s^2 I) with a
        totally skewed alpha/2 subordinator, so alpha = 1 needs no special
        branch there.
    ``"axes"``
        n independent symmetric coordinates, each carrying spherical mass
        ``sigma_total / n`` split over the two axis directions.
    ``"custom"``
        discrete spherical measure sum_j w_j delta_{xi_j} given as
        ``atoms = [(xi_j, w_j), ...]`` with unit vectors xi_j (scalars
        +-1 for n = 1); the draw is sum_j xi_j Y_j with independent totally
        skewed amplitudes Y_j.  ``sigma_total``, if given, must equal
        sum_j w_j.

    Scales follow sigma_j^alpha = (Levy mass) * K_alpha with
    K_alpha = pi / (2 Gamma(1+alpha) sin(pi alpha / 2)); amplitudes come
    from the uniform-exponential (CMS/Weron) transform.  Centering: none
    for symmetric laws, pure-jump for totally skewed alpha < 1, mean for
    alpha > 1, log-corrected standard centering at alpha = 1 with skew.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0):
        raise PreconditionViolated("alpha must lie in (0, 2)")
    n = int(n)
    if n < 1:
        raise PreconditionViolated("n must be >= 1")
    count = _check_count(count)
    if spherical not in ("uniform", "axes", "custom"):
        raise PreconditionViolated(
            f"spherical must be 'uniform', 'axes' or 'custom', got {spherical!r}"
        )
    k_alpha = _levy_amplitude_const(alpha)

    if spherical == "custom":
        if not atoms:
            raise InvalidProfile("spherical='custom' requires atoms")
        dirs = []
        weights = []
        for xi, wgt in atoms:
            xi_vec = np.atleast_1d(np.asarray(xi, dtype=np.float64))
            if xi_vec.shape != (n,):
                raise InvalidProfile(
                    f"atom direction of shape {xi_vec.shape} does not match n={n}"
                )
            norm = float(np.linalg.norm(xi_vec))
            if abs(norm - 1.0) > 1e-9:
                raise InvalidProfile("atom directions must be unit vectors")
            if not (wgt > 0.0):
                raise InvalidProfile("atom weights must be > 0")
            dirs.append(xi_vec)
            weights.append(float(wgt))
        total = sum(weights)
        if sigma_total is not None and abs(sigma_total - total) > 1e-12 * max(
                1.0, total):
            raise InvalidProfile(
                f"sigma_total={sigma_total} != sum of atom weights {total}"
            )
        sigma_total = total
    else:
        if atoms is not None:
            raise InvalidProfile("atoms are only used with spherical='custom'")
        sigma_total = 1.0 if sigma_total is None else float(sigma_total)
        if not (sigma_total > 0.0):
            raise PreconditionViolated("sigma_total must be > 0")

    gen, seed = _resolve_rng(rng, stream_id)

    if spherical == "uniform" and n >= 2:
        # Sub-Gaussian route: X = sqrt(Lambda) * s * Z.  Lambda is totally
        # skewed alpha/2-stable with Laplace transform e^{-u^(alpha/2)}, i.e.
        # scale cos(pi alpha / 4)^(2 / alpha) (alpha/2 < 1: no log branch).
        sub_scale = math.cos(pi * alpha / 4.0) ** (2.0 / alpha)
        scale = math.sqrt(2.0) * (sigma_total * k_alpha
                                  * _uniform_sphere_moment(alpha, n)) ** (
                                      1.0 / alpha)

        def fill_rows(g, out):
            lam = sub_scale * _stable_standard(g, alpha / 2.0, 1.0,
                                               out.shape[0])
            out[:] = scale * np.sqrt(lam)[:, None] * g.standard_normal(
                out.shape)
    elif spherical == "custom":
        sigmas = [(wgt * k_alpha) ** (1.0 / alpha) for wgt in weights]

        def fill_rows(g, out):
            out[:] = 0.0
            for xi_vec, sigma_j in zip(dirs, sigmas):
                y = sigma_j * _stable_standard(g, alpha, 1.0, out.shape[0])
                out += y[:, None] * xi_vec[None, :]
    else:
        # "axes", and n = 1 "uniform": n independent symmetric coordinates,
        # each with c_+ + c_- = sigma_total / n.
        sigma_coord = (sigma_total / n * k_alpha) ** (1.0 / alpha)

        def fill_rows(g, out):
            for col in range(n):
                out[:, col] = sigma_coord * _stable_standard(
                    g, alpha, 0.0, out.shape[0])

    vals = np.empty(count if n == 1 else (count, n), dtype=np.float64)
    _fill_blocks(gen, count, _BLOCK, lambda g, rows: fill_rows(
        g, vals[rows].reshape(rows.stop - rows.start, n)))

    if spherical == "custom":
        if abs(alpha - 1.0) < _ALPHA_ONE_TOL:
            centering = "log-corrected"
        elif alpha < 1.0:
            centering = "pure-jump"
        else:
            centering = "mean"
    else:
        centering = "symmetric"

    meta = {
        "sampler": "stable",
        "alpha": alpha,
        "n": n,
        "spherical": spherical,
        "sigma_total": float(sigma_total),
        "atoms": None if atoms is None else [
            (np.atleast_1d(xi).tolist(), float(wgt)) for xi, wgt in atoms
        ],
        "centering": centering,
    }
    return SampleBatch(vals, count, seed, stream_id, meta)


# ---------------------------------------------------------------------------
# Compound-Poisson approximation of an ID law
# ---------------------------------------------------------------------------

# Jump rate nu(|y| > eps) per draw from which sample_id_compound raises
# BudgetExceeded: at this rate every draw holds about 1e7 jumps (80 MB).
_JUMP_BUDGET = 1e7


def sample_id_compound(model, eps: float, count, rng, *, stream_id: int = 0,
                       gauss_smalljump: bool = False,
                       center: str = "unit") -> SampleBatch:
    """Compound-Poisson approximation of the ID law with Levy measure ``model``.

    Jumps with |y| > eps arrive Poisson(nu(|y| > eps)) per draw and are
    drawn from the normalized restricted measure; the drift follows
    ``center``:

    ``"unit"``  (default, the classical ID triplet convention)
        subtract int_{eps<|y|<=1} y nu(dy);
    ``"mean"``
        subtract int_{|y|>eps} y nu(dy)  (raises :class:`Divergent` when the
        absolute first moment is infinite), so the draw has mean zero;
    ``"none"``
        no drift: the natural pure-jump sum.

    With ``gauss_smalljump=True`` an independent Gaussian with variance
    int_{|y|<=eps} y^2 nu(dy) stands in for the removed small jumps.
    A rate nu(|y| > eps) of ``_JUMP_BUDGET`` = 1e7 jumps per draw or more
    raises :class:`BudgetExceeded`.  ``meta`` names the model's class and,
    as ``model_params``, its fields, which identify the law in the batch
    header.
    Radial models are symmetric (sign by fair coin), QuadraticSpectral jumps
    carry their eigenvalue's sign; amplitudes come from closed-form inverses
    where available (Stable) and a tabulated monotone inverse of the exact
    tail-mass function otherwise (interpolation error around 1e-4 relative
    in the radius, far inside Monte-Carlo resolution).
    """
    if not (eps > 0.0):
        raise PreconditionViolated("eps must be > 0")
    if center not in ("unit", "mean", "none"):
        raise PreconditionViolated(
            f"center must be 'unit', 'mean' or 'none', got {center!r}"
        )
    count = _check_count(count)
    lam = float(_models.tail_mass(model, eps))
    if not (lam < _JUMP_BUDGET):
        raise BudgetExceeded(
            f"nu(|y|>eps) = {lam:.3e} exceeds the per-draw budget "
            f"{_JUMP_BUDGET:.3e}"
        )
    gen, seed = _resolve_rng(rng, stream_id)

    drift = 0.0 if center == "none" else model.compensation(
        eps, 1.0 if center == "unit" else math.inf)
    draw_amplitudes = model.amplitude_sampler(eps, lam)
    small_var = (float(_models.truncated_abs_moment(model, 2, eps))
                 if gauss_smalljump else 0.0)

    # --- assemble draws block by block -------------------------------------
    vals = np.empty(count, dtype=np.float64)

    def fill(g, rows):
        m = rows.stop - rows.start
        counts = g.poisson(lam, size=m)
        total = int(counts.sum())
        if total:
            amps = draw_amplitudes(g, total)
            owners = np.repeat(np.arange(m), counts)
            sums = np.bincount(owners, weights=amps, minlength=m)
        else:
            sums = np.zeros(m)
        sums += drift
        if small_var > 0.0:
            sums += math.sqrt(small_var) * g.standard_normal(m)
        vals[rows] = sums

    # A block holds at most about 2^22 jumps on average.
    block = min(_BLOCK, max(1, 2 ** 22 // max(1, math.ceil(lam))))
    _fill_blocks(gen, count, block, fill)

    meta = {
        "sampler": "id_compound",
        "model": type(model).__name__,
        "model_params": dataclasses.asdict(model),
        "eps": float(eps),
        "rate": lam,
        "center": center,
        "drift": drift,
        "gauss_smalljump": gauss_smalljump,
        "smalljump_var": small_var,
        "centering": {"unit": "unit-ball", "mean": "mean", "none": "none"}[center],
    }
    return SampleBatch(vals, count, seed, stream_id, meta)
