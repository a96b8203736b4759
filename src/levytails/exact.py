"""Exact distribution function of a second-chaos law, as a test oracle.

The law is  X = (1/2) sum_k a_k (Z_k^2 - 1) + N(0, g)  with i.i.d. standard
normals.  Its characteristic function is

    phi(t) = exp(-g t^2/2) prod_k (1 - i a_k t)^{-1/2} e^{-i a_k t/2},

and the Gil-Pelaez (1951) / Imhof (1961) inversion gives

    P(X < x) = 1/2 - (1/pi) int_0^inf Im[e^{-itx} phi(t)] / t dt.

The integral is taken by the midpoint rule on t_k = (k + 1/2) D (Davies,
1973): since sum_k sin((k + 1/2) D u)/(k + 1/2) = (pi/2) sign(sin(D u/2)),
the infinite sum is exactly E[1{X < x}] except on |X - x| >= 2 pi/D, so D
is set from a sub-gamma tail bound on X; the sum stops where a bound on the
rest of |phi(t)|/t falls below the tolerance.  The nodes are fixed once per
call and evaluated as arrays, a chunk at a time.

``cdf_difference`` sums Im[e^{-itx} (phi_1 - phi_2)] / t on shared nodes,
with phi_1 - phi_2 = phi_2 expm1(log phi_1 - log phi_2), so a difference
near 1e-8 keeps its digits.

This module shares no code with the samplers; it is not part of
``levytails.__all__``.
"""

from __future__ import annotations

import math

import numpy as np

# Nodes x eigenvalues (or x points) per chunk of the node sweep.
_CHUNK_CELLS = 2 ** 21
# Refuse node counts beyond this: |phi(t)| of the law decays too slowly for
# the requested tol (a tol too tight, or a law too close to a point mass).
_MAX_NODES = 2 ** 26


def _law(eigs, gauss_var):
    a = np.asarray(eigs, dtype=np.float64).ravel()
    a = a[a != 0.0]
    g = float(gauss_var)
    if not (np.all(np.isfinite(a)) and math.isfinite(g) and g >= 0.0):
        raise ValueError("eigenvalues must be finite and gauss_var >= 0")
    values, counts = np.unique(a, return_counts=True)
    return values, counts.astype(np.float64), g


def _variance(law):
    a, m, g = law
    return 0.5 * float(np.sum(m * a * a)) + g


def _log_cf(t, law):
    """log phi(t) on nodes t: real part log|phi|, imaginary part its phase."""
    a, m, g = law
    at = np.multiply.outer(a, t)
    real = -0.5 * g * t * t - 0.25 * (m @ np.log1p(at * at))
    imag = 0.5 * (m @ (np.arctan(at) - at))
    return real + 1j * imag


def _tail_width(law, tol):
    """w_+, w_- with P(X > w_+), P(X < -w_-) <= tol / 4 (sub-gamma bound)."""
    a, m, g = law
    v = _variance(law)
    s = math.log(4.0 / tol)
    base = math.sqrt(2.0 * v * s)
    c_pos = float(a.max()) if a.size and a.max() > 0 else 0.0
    c_neg = float(-a.min()) if a.size and a.min() < 0 else 0.0
    return base + c_pos * s, base + c_neg * s


def _truncation_bound(u, law):
    """Bound on int_u^inf |phi(t)|/t dt."""
    a, m, g = law
    au2 = (a * u) ** 2
    log_r = -0.5 * g * u * u - 0.25 * float(np.sum(m * np.log1p(au2)))
    best = math.inf
    if g > 0.0:
        best = 1.0 / (g * u * u)
    big = au2 >= 1.0
    n = float(np.sum(m[big]))
    if n > 0.0:
        # (1 + a^2 t^2) >= (1 + a^2 u^2) (t/u)^2 rho, rho = a^2u^2/(1+a^2u^2)
        log_rho = np.log(au2[big]) - np.log1p(au2[big])
        best = min(best, math.exp(-0.25 * float(np.sum(m[big] * log_rho)))
                   * 2.0 / n)
    return math.exp(log_r) * best if best < math.inf else math.inf


def _nodes(laws, x, tol):
    """Midpoint nodes t_k and weights 1/(pi (k + 1/2)) shared by ``laws``."""
    reach = 0.0
    for law in laws:
        w_pos, w_neg = _tail_width(law, tol)
        reach = max(reach, w_pos - float(x.min()), w_neg + float(x.max()))
    step = 2.0 * math.pi / reach
    u = 1.0
    while max(_truncation_bound(u, law) for law in laws) > 0.25 * math.pi * tol:
        u *= 1.25
        if u / step > _MAX_NODES:
            raise ValueError(
                f"tol={tol!r} needs more than 2**26 inversion nodes for this "
                "law; use a larger tol")
    k = np.arange(int(math.ceil(u / step)) + 1, dtype=np.float64) + 0.5
    return k * step, 1.0 / (math.pi * k)


def _prepare(x, laws):
    x = np.asarray(x, dtype=np.float64)
    laws = [_law(*law) for law in laws]
    s = math.sqrt(max(_variance(law) for law in laws))
    if s == 0.0:
        raise ValueError("the law is a point mass")
    return (x.ravel() / s, [(a / s, m, g / (s * s)) for a, m, g in laws],
            x.shape)


def _sweep(x, laws, tol, term):
    """sum_k w_k Im[e^{-i t_k x} term(log phi_1(t_k), ...)] over all nodes."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")
    t_all, w_all = _nodes(laws, x, tol)
    total = np.zeros(x.size)
    step = max(1, _CHUNK_CELLS // max(x.size, max(law[0].size for law in laws)))
    for lo in range(0, t_all.size, step):
        t, w = t_all[lo:lo + step], w_all[lo:lo + step]
        c = w * term(*(_log_cf(t, law) for law in laws))
        phase = np.multiply.outer(x, t)
        total += np.cos(phase) @ c.imag - np.sin(phase) @ c.real
    return total


def cdf(x, eigs, gauss_var: float = 0.0, *, tol: float = 1e-11):
    """P(X <= x) for X = (1/2) sum a_k (Z_k^2 - 1) + N(0, gauss_var).

    Accurate to about ``tol`` (aliasing plus truncation) at every x.
    Raises ValueError unless 0 < tol < 1, and when the tol needs more than
    2**26 inversion nodes for the law.
    """
    xs, laws, shape = _prepare(x, [(eigs, gauss_var)])
    return (0.5 - _sweep(xs, laws, tol, np.exp)).reshape(shape)


def cdf_difference(x, law, other, *, tol: float = 1e-11):
    """P(X <= x) - P(Y <= x) for two laws given as (eigs, gauss_var) pairs."""
    xs, laws, shape = _prepare(x, [law, other])
    return (-_sweep(xs, laws, tol,
                    lambda l1, l2: np.exp(l2) * np.expm1(l1 - l2))
            ).reshape(shape)
