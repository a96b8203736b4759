"""Tests for the Monte-Carlo samplers.

Each sampler is checked against an independent analytic oracle:

* second chaos: Var F = (1/2) sum a_k^2 and the trivial all-zero spectrum;
* Brownian quadratics: E = 0 exactly (trapezoid), Var(h_T) = T^4/3,
  Var(v_T) = T^4/45, and the Karhunen-Loeve cross-check against the chaos
  series via two-sample KS;
* stochastic area: Var = (T^2/4)(1 - 1/steps) exactly for the midpoint
  scheme, the closed tail law P(S >= x) = (2/pi) arctan(e^{-pi x/T}) in the
  continuum limit, and agreement of the direct and recursive methods;
* stable: closed Cauchy and Levy(1/2) distribution functions, regular
  variation x^alpha P(|X|>x) -> sigma/alpha, and the sub-Gaussian route's
  marginal against the direct one-dimensional sampler;
* compound Poisson: the no-jump frequency e^{-lam} and Campbell's mean of a
  pure compound-Poisson sum, variance against the chaos oracle as eps -> 0,
  and the full approximation against the exact stochastic-area law through
  the tabulated radial inverse.
"""

import hashlib
import json
import math
import os
import struct
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import erfc

from levytails import exact
from levytails import models as m
from levytails import simulate as sim
from levytails.errors import (
    BudgetExceeded,
    Divergent,
    InvalidProfile,
    PreconditionViolated,
    TruncationTooCoarse,
)

RC = sim.RngContract(20260816)

# Two-sample / one-sample KS rejection level used throughout (0.1%).
KS_LEVEL = 1e-3


def median_ci(values, level=0.99):
    """Order-statistic confidence interval for the median."""
    v = np.sort(np.asarray(values))
    n = v.size
    z = stats.norm.ppf(0.5 + level / 2.0)
    d = int(math.ceil(z * math.sqrt(n) / 2.0)) + 1
    mid = n // 2
    return v[max(mid - d, 0)], v[min(mid + d, n - 1)]


# ---------------------------------------------------------------------------
# RNG contract and batch plumbing
# ---------------------------------------------------------------------------


def test_rng_contract_reproducible_and_stream_separated():
    a1 = sim.RngContract(42).stream(3).standard_normal(8)
    a2 = sim.RngContract(42).stream(3).standard_normal(8)
    b = sim.RngContract(42).stream(4).standard_normal(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_rng_contract_validation():
    with pytest.raises(PreconditionViolated):
        sim.RngContract(-1)
    with pytest.raises(PreconditionViolated):
        sim.RngContract(2 ** 64)
    with pytest.raises(PreconditionViolated):
        sim.RngContract(1).stream(-2)


def test_batch_count_must_match_values():
    with pytest.raises(ValueError):
        sim.SampleBatch(np.zeros(5), 4, 0, 0, {})


def test_merge_batches_order_independent():
    b1 = sim.sample_chaos2([1.0], 100, sim.RngContract(7), stream_id=0)
    b2 = sim.sample_chaos2([1.0], 150, sim.RngContract(7), stream_id=1)
    m12 = sim.merge_batches([b1, b2])
    m21 = sim.merge_batches([b2, b1])
    assert np.array_equal(m12.values, m21.values)
    assert m12.count == 250
    with pytest.raises(InvalidProfile):
        sim.merge_batches([b1, sim.sample_chaos2([1.0], 10, sim.RngContract(8))])
    with pytest.raises(InvalidProfile):
        sim.merge_batches([b1, b1])


def test_merge_of_merged_batches_tracks_every_stream():
    r = sim.RngContract(1)
    b0, b1, b2 = (sim.sample_chaos2([1.0], 3, r, stream_id=i)
                  for i in range(3))
    m02 = sim.merge_batches([b0, b2])
    assert m02.meta["merged_stream_ids"] == [0, 2]
    # stream 2 is held by both inputs
    with pytest.raises(InvalidProfile, match="stream"):
        sim.merge_batches([m02, b2])
    with pytest.raises(InvalidProfile, match="stream"):
        sim.merge_batches([b2, sim.merge_batches([b1, b2])])
    # every stream is listed, in the order of the values, for either order
    for inputs in ([b1, m02], [m02, b1]):
        merged = sim.merge_batches(inputs)
        assert merged.meta["merged_stream_ids"] == [0, 2, 1]
        assert merged.stream_id == 0
        assert merged.values.tobytes() == np.concatenate(
            [b0.values, b2.values, b1.values]).tobytes()


def test_batch_file_with_replicate_entry_merges_with_new_batch(tmp_path):
    # Batch headers once carried "replicate": 0; such a file still loads
    # and merges with a batch drawn now, in either order.
    old = sim.sample_chaos2([1.0], 100, sim.RngContract(7), stream_id=0)
    assert "replicate" not in old.meta
    path = str(tmp_path / "old.bin")
    sim.save_batch(sim.SampleBatch(old.values, old.count, old.seed,
                                   old.stream_id,
                                   {**old.meta, "replicate": 0}), path)
    back = sim.load_batch(path)
    assert back.meta["replicate"] == 0
    new = sim.sample_chaos2([1.0], 150, sim.RngContract(7), stream_id=1)
    for inputs in ([back, new], [new, back]):
        merged = sim.merge_batches(inputs)
        assert merged.meta["merged_stream_ids"] == [0, 1]
        assert merged.values.tobytes() == np.concatenate(
            [old.values, new.values]).tobytes()
    with pytest.raises(InvalidProfile, match="stream"):
        sim.merge_batches([back, old])


def test_merge_batches_refuses_mixed_laws(tmp_path):
    b1 = sim.sample_chaos2([1.0], 100, sim.RngContract(7), stream_id=0)
    # a batch read back from its file merges with a fresh one of its law
    sim.save_batch(b1, str(tmp_path / "b1.bin"))
    b2 = sim.sample_chaos2([1.0], 150, sim.RngContract(7), stream_id=1)
    assert sim.merge_batches(
        [sim.load_batch(str(tmp_path / "b1.bin")), b2]).count == 250
    # another sampler, and a per-draw shape of (2,) against ()
    vector = sim.sample_stable(1.5, 2, "uniform", 50, sim.RngContract(7),
                               stream_id=1)
    with pytest.raises(InvalidProfile, match="samplers"):
        sim.merge_batches([b1, vector])
    with pytest.raises(InvalidProfile, match="shapes"):
        sim.merge_batches([b1, sim.SampleBatch(np.zeros((5, 2)), 5, 7, 1,
                                               dict(b1.meta))])
    # the same sampler with other eigenvalues (the header records their
    # number, not their values)
    other = sim.sample_chaos2([1.0, 0.5], 100, sim.RngContract(7),
                              stream_id=1)
    with pytest.raises(InvalidProfile, match="parameters"):
        sim.merge_batches([b1, other])
    with pytest.raises(InvalidProfile, match="parameters"):
        sim.merge_batches([other, b1])


def test_save_load_round_trip_exact():
    scalar = sim.sample_chaos2([2.0, -1.0], 257, sim.RngContract(11), stream_id=5)
    vector = sim.sample_stable(1.5, 2, "uniform", 64, sim.RngContract(12))
    for batch in (scalar, vector):
        for ext in (".csv", ".bin"):
            path = tempfile.mktemp(suffix=ext)
            try:
                sim.save_batch(batch, path)
                back = sim.load_batch(path)
                assert np.array_equal(back.values, batch.values)
                assert back.count == batch.count
                assert back.seed == batch.seed
                assert back.stream_id == batch.stream_id
                assert back.meta["sampler"] == batch.meta["sampler"]
            finally:
                os.unlink(path)


def test_load_rejects_foreign_files():
    path = tempfile.mktemp(suffix=".csv")
    with open(path, "w") as fh:
        fh.write("x,y\n1,2\n")
    try:
        with pytest.raises(InvalidProfile):
            sim.load_batch(path)
    finally:
        os.unlink(path)


def test_load_truncated_or_corrupt_batch(tmp_path):
    batch = sim.sample_chaos2([2.0, -1.0], 100, sim.RngContract(11))
    path = str(tmp_path / "batch.bin")
    sim.save_batch(batch, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    for cut in (8, 3):
        with open(path, "wb") as fh:
            fh.write(blob[:-cut])
        with pytest.raises(InvalidProfile) as err:
            sim.load_batch(path)
        msg = str(err.value)
        assert path in msg and "800" in msg and str(800 - cut) in msg
    with open(path, "wb") as fh:
        fh.write(blob[:20])              # cut inside the JSON header
    with pytest.raises(InvalidProfile, match="corrupt"):
        sim.load_batch(path)
    csv = str(tmp_path / "batch.csv")
    sim.save_batch(batch, csv)
    with open(csv) as fh:
        lines = fh.readlines()
    with open(csv, "w") as fh:
        fh.writelines(lines[:-1])
    with pytest.raises(InvalidProfile, match="found 792"):
        sim.load_batch(csv)


@pytest.mark.parametrize("edit", [
    lambda h: h.pop("seed"),
    lambda h: h.update(count=h["count"] - 1),
    lambda h: h.update(params=[1, 2]),
], ids=["no_seed", "count_not_shape", "params_list"])
def test_load_corrupt_header_raises_invalid_profile(tmp_path, edit):
    batch = sim.sample_chaos2([2.0, -1.0], 100, sim.RngContract(11))
    header = sim._meta_header(batch)
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    path = str(tmp_path / "batch.bin")
    with open(path, "wb") as fh:
        fh.write(sim._BIN_MAGIC + struct.pack("<I", len(payload)) + payload
                 + batch.values.astype("<f8").tobytes())
    with pytest.raises(InvalidProfile, match="corrupt"):
        sim.load_batch(path)


# ---------------------------------------------------------------------------
# Block layout: a batch's values depend on its seed and parameters only
# ---------------------------------------------------------------------------

LAYOUT_RC = sim.RngContract(20261018)
BROWNIAN_BLOCK = 2 ** 20 // 128          # paths per block at 128 steps

LAYOUT_SAMPLERS = {
    "chaos2": lambda n: sim.sample_chaos2([2.0, -1.0, 0.5], n, LAYOUT_RC,
                                          stream_id=50),
    "chaos2_energy": lambda n: sim.sample_chaos2(
        m.chaos_eigenvalues("energy", 1.0, 500), n, LAYOUT_RC, stream_id=61),
    "brownian": lambda n: sim.sample_brownian_quadratic(
        "sample_variance", 1.0, 128, n, LAYOUT_RC, stream_id=51),
    "levy_area": lambda n: sim.sample_levy_area(math.pi, 1024, n, LAYOUT_RC,
                                                stream_id=52),
    "stable": lambda n: sim.sample_stable(1.3, 2, "uniform", n, LAYOUT_RC,
                                          stream_id=53),
    "id_compound": lambda n: sim.sample_id_compound(
        m.QuadraticSpectral(eigs=(2.0, -0.7)), 1e-2, n, LAYOUT_RC,
        stream_id=54),
    "id_compound_stable": lambda n: sim.sample_id_compound(
        m.Stable(alpha=1.2, sigma_total=1.0), 0.5, n, LAYOUT_RC,
        stream_id=57, center="mean"),
    "id_compound_area": lambda n: sim.sample_id_compound(
        m.LevyArea(T=math.pi), 0.5, n, LAYOUT_RC, stream_id=58,
        gauss_smalljump=True),
    "id_compound_log": lambda n: sim.sample_id_compound(
        m.LogKernel(sigma_total=1.0), 0.5, n, LAYOUT_RC, stream_id=59),
    "id_compound_gauss": lambda n: sim.sample_id_compound(
        m.GaussKernel(sigma_total=1.0), 0.5, n, LAYOUT_RC, stream_id=60,
        center="none"),
}

# First and last three entries of values.ravel() for three full blocks
# plus 100 draws.  Compared at rel 1e-12, not bitwise: numpy's SIMD
# transcendentals may differ by an ulp between CPUs.
FROZEN = {
    "brownian": (
        [-0.10676618615426949, 0.06332610230089306, -0.06652907817503687],
        [-0.13638999299179727, -0.06235556789855631, 0.006520733568841808]),
    "chaos2": (
        [-1.1295235439452607, -0.831620658790102, -0.6910314221933088],
        [-0.07536845112105647, -0.43912456962074037, 2.2963717551054654]),
    "chaos2_energy": (
        [-0.004479057576629168, -0.19668584448221346, 0.9161505622804674],
        [0.03655051458360655, 0.30012784690642064, -0.19510067131395212]),
    "id_compound": (
        [3.7385274077459982, 4.924946980379704, 0.5947427487997874],
        [-0.14444145824459706, 0.7451289886956374, 1.3137478613221445]),
    "id_compound_area": (
        [-0.4348945387947991, 0.18597945153895998, -0.5838241501715329],
        [1.3350781184383196, -0.9345703573288116, -1.1143317998258626]),
    "id_compound_gauss": (
        [0.0, -0.7370584992757859, 2.339045373463544],
        [2.3243501784853198, 16.61090597397234, 0.0]),
    "id_compound_log": (
        [0.5537169472860133, -22.549413009120148, 0.0],
        [-0.027256886422888704, -7.6646419657838925, 0.5744828377597332]),
    "id_compound_stable": (
        [0.0, -0.01581329271135612, -3.6782703744157677],
        [0.0, 2.053379341440027, 9.713485387643797]),
    "levy_area": (
        [-3.415278498592648, -2.211324796589573, 0.5751326746735981],
        [-1.3056480660267065, -0.6581978714212489, -0.9362018544704593]),
    "stable": (
        [-1.391951158704415, -1.2610615615410048, 2.3539873348338736],
        [0.3128991107740848, -1.2624600837630566, -0.005739030748650321]),
}


def _at_workers(monkeypatch, workers, draw):
    monkeypatch.setattr(sim, "_WORKERS", workers)
    return draw()


def _same_batch(b1, b2):
    assert b1.values.tobytes() == b2.values.tobytes()


@pytest.mark.parametrize("name", sorted(LAYOUT_SAMPLERS))
def test_block_layout_independent_of_workers(monkeypatch, name):
    sample = LAYOUT_SAMPLERS[name]
    block = BROWNIAN_BLOCK if name == "brownian" else sim._BLOCK
    count = 3 * block + 100
    one = _at_workers(monkeypatch, 1, lambda: sample(count))
    two = _at_workers(monkeypatch, 2, lambda: sample(count))
    _same_batch(one, two)
    flat = one.values.ravel()
    first, last = FROZEN[name]
    assert flat[:3] == pytest.approx(first, rel=1e-12, abs=0.0)
    assert flat[-3:] == pytest.approx(last, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", sorted(LAYOUT_SAMPLERS) + ["area_direct"])
def test_block_boundary_counts(monkeypatch, name):
    # Block b always draws from child b of the parent stream, so a batch of
    # _BLOCK + 1 starts with the batch of _BLOCK, whatever the workers.
    sample = LAYOUT_SAMPLERS.get(name) or (
        lambda n: sim.sample_levy_area(math.pi, 1000, n, LAYOUT_RC,
                                       stream_id=55))
    full = _at_workers(monkeypatch, 1, lambda: sample(sim._BLOCK))
    one = _at_workers(monkeypatch, 1, lambda: sample(sim._BLOCK + 1))
    two = _at_workers(monkeypatch, 2, lambda: sample(sim._BLOCK + 1))
    _same_batch(one, two)
    assert one.count == sim._BLOCK + 1
    assert one.values[:-1].tobytes() == full.values.tobytes()
    assert np.all(np.isfinite(one.values))


def test_blocks_survive_thread_stress(monkeypatch):
    # More workers than cores and a tiny switch interval: a lost or
    # misplaced block write would change the bytes.
    def draw():
        return LAYOUT_SAMPLERS["id_compound"](5 * sim._BLOCK + 7)

    ref = _at_workers(monkeypatch, 1, draw)
    monkeypatch.setattr(sim, "_WORKERS", 8)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: out.append(draw()))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(out) == 1
    _same_batch(ref, out[0])


def test_brownian_blocks_match_matrix_trapezoid():
    # Reference: block b draws its (paths, steps) normals from child b of
    # the parent stream, and the trapezoid is the weighted matrix product.
    T, steps, count = 2.0, 128, BROWNIAN_BLOCK + 10
    batch = sim.sample_brownian_quadratic("square_norm", T, steps, count,
                                          LAYOUT_RC, stream_id=56)
    w = np.ones(steps)
    w[-1] = 0.5
    dt = T / steps
    children = LAYOUT_RC.stream(56).spawn(2)
    ref = np.concatenate([
        dt * dt * (np.square(np.cumsum(child.standard_normal((m, steps)),
                                       axis=1)) @ w) - 0.5 * T * T
        for child, m in zip(children, (BROWNIAN_BLOCK, 10))
    ])
    np.testing.assert_allclose(batch.values, ref, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# Second chaos
# ---------------------------------------------------------------------------


def test_chaos2_zero_spectrum_is_identically_zero():
    batch = sim.sample_chaos2([0.0, 0.0, 0.0], 1000, RC, stream_id=1)
    assert np.all(batch.values == 0.0)


def test_chaos2_single_eigenvalue_moments():
    # Var = a^2/2 = 2; SE of the mean is sqrt(2/n).
    n = 1_000_000
    batch = sim.sample_chaos2([2.0], n, RC, stream_id=2)
    se = math.sqrt(2.0 / n)
    assert abs(batch.values.mean()) < 4.0 * se
    assert abs(batch.values.var() - 2.0) < 0.05 * 2.0


def test_chaos2_variance_matches_spectrum():
    spec = m.chaos_eigenvalues("energy", 1.0, 300, convention="spectral")
    batch = sim.sample_chaos2(spec, 200_000, RC, stream_id=3)
    target = 0.5 * (float(np.sum(np.asarray(spec.eigs) ** 2))
                    + spec.remainder_sq)
    assert abs(batch.values.var() - target) < 0.05 * target


def test_chaos2_remainder_guard():
    # N = 200 keeps the tail energy below 1e-8 for the T = 1 spectrum.
    spec = m.chaos_eigenvalues("energy", 1.0, 200, convention="spectral")
    assert spec.remainder_sq < 1e-8
    batch = sim.sample_chaos2(spec, 100, RC, stream_id=4)
    assert batch.meta["remainder_sq"] < 1e-8
    # A three-eigenvalue truncation is too coarse for the default tolerance.
    coarse = m.chaos_eigenvalues("energy", 1.0, 3, convention="spectral")
    with pytest.raises(TruncationTooCoarse):
        sim.sample_chaos2(coarse, 100, RC, stream_id=4)


@pytest.mark.parametrize("kind, T, N, n_exact", [
    ("energy", 1.0, 500, 28), ("energy", 0.01, 500, 28),
    ("centered", 1.0, 400, 67)])
@pytest.mark.parametrize("convention", ["spectral", "pathwise"])
def test_chaos2_gaussian_tail_split(kind, T, N, n_exact, convention):
    # The smallest eigenvalues holding at most 1e-6 of sum a^2 share one
    # Gaussian; the split is relative, so T does not move it.
    spec = m.chaos_eigenvalues(kind, T, N, convention=convention)
    meta = sim.sample_chaos2(spec, 10, RC, stream_id=17).meta
    a = np.asarray(spec.eigs)
    by_size = np.sort(np.abs(a))
    carried_sq = np.sum(by_size[:N - n_exact] ** 2)
    budget = sim._GAUSS_TAIL * np.sum(a ** 2)
    assert meta["n_eigs"] == N and meta["n_exact"] == n_exact
    assert meta["gauss_sq"] == pytest.approx(carried_sq, rel=1e-12)
    assert carried_sq <= budget < carried_sq + by_size[N - n_exact] ** 2


@pytest.mark.parametrize("eigs", [[2.0, -1.0, 0.5], [1e-4], [1.0, 0.0, 2e-3],
                                  [1e308, -1e308]])
def test_chaos2_short_spectra_carry_nothing(eigs):
    meta = sim.sample_chaos2(eigs, 10, RC, stream_id=18).meta
    assert meta["n_exact"] == np.count_nonzero(eigs)
    assert meta["gauss_sq"] == 0.0


def test_chaos2_gaussian_column_drawn_first():
    # One dominant eigenvalue and 1000 tiny ones: block b draws the
    # N(0, (1/2) sum a^2) column from child b first, then the exact one.
    n = sim._BLOCK + 10
    batch = sim.sample_chaos2([1.0] + [1e-6] * 1000, n, RC, stream_id=19)
    assert batch.meta["n_exact"] == 1
    assert batch.meta["gauss_sq"] == pytest.approx(1e-9, rel=1e-12)
    ref = []
    for child, size in zip(RC.stream(19).spawn(2), (sim._BLOCK, 10)):
        gauss = child.standard_normal(size) * math.sqrt(0.5e-9)
        ref.append(gauss + 0.5 * (np.square(child.standard_normal(size)) - 1))
    np.testing.assert_allclose(batch.values, np.concatenate(ref),
                               rtol=1e-12, atol=1e-15)


def test_chaos2_deterministic():
    b1 = sim.sample_chaos2([2.0, -1.0], 4000, sim.RngContract(5), stream_id=9)
    b2 = sim.sample_chaos2([2.0, -1.0], 4000, sim.RngContract(5), stream_id=9)
    assert np.array_equal(b1.values, b2.values)


# ---------------------------------------------------------------------------
# Brownian quadratic functionals
# ---------------------------------------------------------------------------


def test_brownian_preconditions():
    with pytest.raises(PreconditionViolated):
        sim.sample_brownian_quadratic("cubic", 1.0, 128, 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_brownian_quadratic("square_norm", 1.0, 99, 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_brownian_quadratic("square_norm", 0.0, 128, 10, RC)


def test_brownian_tiny_horizon_collapses_to_center():
    # With T = 1e-3 the raw integral is O(T^2), so every centered sample
    # sits within 1e-5 of -T^2/2, i.e. the values are within 1e-5 of zero.
    batch = sim.sample_brownian_quadratic("square_norm", 1e-3, 128, 500,
                                          RC, stream_id=10)
    assert np.max(np.abs(batch.values)) < 1e-5


def test_brownian_moments():
    n = 200_000
    b1 = sim.sample_brownian_quadratic("square_norm", 1.0, 256, n, RC,
                                       stream_id=11)
    # Var(int B^2 - T^2/2) = T^4/3; its mean is exactly zero under the
    # trapezoid rule, so 4 SE covers the Monte-Carlo error alone.
    se = math.sqrt(b1.values.var() / n)
    assert abs(b1.values.mean()) < 4.0 * se
    assert abs(b1.values.var() - 1.0 / 3.0) < 0.05 / 3.0

    b2 = sim.sample_brownian_quadratic("sample_variance", 1.0, 256, n, RC,
                                       stream_id=12)
    se = math.sqrt(b2.values.var() / n)
    assert abs(b2.values.mean()) < 4.0 * se
    assert abs(b2.values.var() - 1.0 / 45.0) < 0.05 / 45.0


def test_brownian_matches_chaos_series():
    # Karhunen-Loeve: int_0^T B^2 dt - T^2/2 = (1/2) sum 2 lambda_k (Z_k^2-1)
    # with lambda_k = 4T^2/((2k+1)^2 pi^2) -- the "pathwise" convention.
    n = 100_000
    spec = m.chaos_eigenvalues("energy", 1.0, 500, convention="pathwise")
    chaos = sim.sample_chaos2(spec, n, RC, stream_id=13)
    brown = sim.sample_brownian_quadratic("square_norm", 1.0, 2048, n, RC,
                                          stream_id=14)
    assert stats.ks_2samp(chaos.values, brown.values).pvalue > KS_LEVEL

    spec_v = m.chaos_eigenvalues("centered", 1.0, 400, convention="pathwise")
    chaos_v = sim.sample_chaos2(spec_v, n, RC, stream_id=15)
    brown_v = sim.sample_brownian_quadratic("sample_variance", 1.0, 1024, n,
                                            RC, stream_id=16)
    assert stats.ks_2samp(chaos_v.values, brown_v.values).pvalue > KS_LEVEL


# ---------------------------------------------------------------------------
# Stochastic area
# ---------------------------------------------------------------------------


def test_area_preconditions():
    with pytest.raises(PreconditionViolated):
        sim.sample_levy_area(math.pi, 999, 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_levy_area(0.0, 1024, 10, RC)


def _direct_area_values(T, steps, count, stream_id):
    """The step-by-step route at any step count, laid out in blocks as
    sample_levy_area lays out its batches."""
    vals = np.empty(count)
    sim._fill_blocks(RC.stream(stream_id), count, sim._BLOCK,
                     lambda g, rows: sim._area_direct(g, T, steps, vals[rows]))
    return vals


def test_area_route_follows_steps():
    assert sim.sample_levy_area(1.0, 1024, 10, RC).meta["method"] == \
        "recursive"
    assert sim.sample_levy_area(1.0, 1000, 10, RC).meta["method"] == "direct"


def test_area_variance_exact_small_scale():
    # The midpoint scheme has Var = (T^2/4)(1 - 1/steps) exactly; both
    # routes must agree with it.
    T, steps, n = math.pi, 1024, 150_000
    target = (T * T / 4.0) * (1.0 - 1.0 / steps)
    rec = sim.sample_levy_area(T, steps, n, RC, stream_id=17)
    assert rec.meta["method"] == "recursive"
    assert abs(rec.values.var() - target) < 0.05 * target
    direct = _direct_area_values(T, steps, 40_000, stream_id=18)
    assert abs(direct.var() - target) < 0.10 * target


def test_area_recursive_matches_direct():
    # The dyadic refinement must reproduce the direct scheme's law exactly.
    T, steps = math.pi, 1024
    rec = sim.sample_levy_area(T, steps, 100_000, RC, stream_id=19)
    direct = _direct_area_values(T, steps, 40_000, stream_id=20)
    assert stats.ks_2samp(rec.values, direct).pvalue > KS_LEVEL


def test_area_median_and_exact_tail_law():
    T = math.pi
    batch = sim.sample_levy_area(T, 2048, 1_000_000, RC, stream_id=21)
    lo, hi = median_ci(batch.values)
    assert lo <= 0.0 <= hi
    # Continuum law: P(S >= x) = (2/pi) arctan(e^{-pi x / T}).
    for x in (1.0, 2.0, 4.0):
        p = 2.0 / math.pi * math.atan(math.exp(-math.pi * x / T))
        p_hat = float(np.mean(batch.values >= x))
        se = math.sqrt(p * (1.0 - p) / batch.count)
        # allow the O(1/steps) discretization gap on top of 4 SE
        assert abs(p_hat - p) < 4.0 * se + 2.0 * p / 2048


def _area_eigenvalues(T, steps):
    """Spectrum of the midpoint area with ``steps`` steps: its law is
    (1/2) sum a_k (Z_k^2 - 1) with a = +-(T/(2 steps)) cot((2k - 1) pi /
    (2 steps)), k = 1..steps/2, each sign twice."""
    k = np.arange(1, steps // 2 + 1)
    a = T / (2.0 * steps) / np.tan((2 * k - 1) * math.pi / (2.0 * steps))
    return np.concatenate([a, a, -a, -a])


@pytest.mark.parametrize("steps, method", [(4096, "recursive"),
                                           (1000, "direct")])
def test_area_matches_exact_discrete_law(steps, method):
    # One-sample DKW check against the exact law of the n-step scheme:
    # sup |F_n - F| <= sqrt(log(2/level) / (2n)) with prob. 1 - level.
    T, n = math.pi, 20_000
    eigs = _area_eigenvalues(T, steps)
    var = (T * T / 4.0) * (1.0 - 1.0 / steps)
    assert 0.5 * np.sum(eigs ** 2) == pytest.approx(var, rel=1e-13)
    batch = sim.sample_levy_area(T, steps, n, RC, stream_id=25)
    assert batch.meta["method"] == method
    xs = np.linspace(-3.5, 3.5, 64) * math.sqrt(var)
    ecdf = np.searchsorted(np.sort(batch.values), xs, side="right") / n
    dist = float(np.max(np.abs(ecdf - exact.cdf(xs, eigs))))
    assert dist < math.sqrt(math.log(2.0 / KS_LEVEL) / (2.0 * n)), dist


def test_area_step_doubling_consistency():
    # P(S >= x) from steps and 2*steps agree within 10% relative.
    T, x, n = math.pi, 4.0, 1_000_000
    p1 = float(np.mean(
        sim.sample_levy_area(T, 1024, n, RC, stream_id=22).values >= x))
    p2 = float(np.mean(
        sim.sample_levy_area(T, 2048, n, RC, stream_id=23).values >= x))
    assert abs(p1 - p2) <= 0.10 * max(p1, p2)


def test_area_log_tail_slope():
    # log P(S >= x) has slope -pi/T; fit on x in [4, 7] at T = pi.
    T, n = math.pi, 2_000_000
    batch = sim.sample_levy_area(T, 2048, n, RC, stream_id=24)
    xs = np.linspace(4.0, 7.0, 7)
    p = np.array([np.mean(batch.values >= x) for x in xs])
    assert p.min() * n > 50  # enough tail mass to fit
    slope = np.polyfit(xs, np.log(p), 1)[0]
    assert abs(slope - (-math.pi / T)) < 0.15 * (math.pi / T)


# ---------------------------------------------------------------------------
# Stable vectors
# ---------------------------------------------------------------------------


def test_stable_preconditions():
    with pytest.raises(PreconditionViolated):
        sim.sample_stable(2.0, 1, "uniform", 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_stable(0.0, 1, "uniform", 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_stable(1.5, 0, "uniform", 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_stable(1.5, 1, "spherical-cow", 10, RC)
    with pytest.raises(InvalidProfile):
        sim.sample_stable(1.5, 1, "custom", 10, RC)  # no atoms
    with pytest.raises(InvalidProfile):
        sim.sample_stable(1.5, 1, "uniform", 10, RC, atoms=[(1.0, 1.0)])
    with pytest.raises(InvalidProfile):
        sim.sample_stable(1.5, 1, "custom", 10, RC, atoms=[(2.0, 1.0)])
    with pytest.raises(InvalidProfile):
        sim.sample_stable(1.5, 1, "custom", 10, RC, atoms=[(1.0, -1.0)])
    with pytest.raises(InvalidProfile):
        sim.sample_stable(1.5, 1, "custom", 10, RC, atoms=[(1.0, 1.0)],
                          sigma_total=2.0)


def test_stable_symmetric_median_zero():
    for alpha, sid in ((0.7, 25), (1.0, 26), (1.2, 27), (1.8, 28)):
        batch = sim.sample_stable(alpha, 1, "uniform", 400_000, RC,
                                  stream_id=sid)
        lo, hi = median_ci(batch.values)
        assert lo <= 0.0 <= hi, f"alpha={alpha}"


def test_stable_cauchy_closed_form():
    # alpha = 1, sigma_total = 1: scale sigma = K_1 = pi/2, an exact Cauchy.
    batch = sim.sample_stable(1.0, 1, "uniform", 200_000, RC, stream_id=29)
    res = stats.kstest(batch.values, stats.cauchy(scale=math.pi / 2).cdf)
    assert res.pvalue > KS_LEVEL


def test_stable_levy_half_closed_form():
    # One atom at +1, weight 1, alpha = 1/2: the totally skewed stable is
    # the Levy(c) law with c = sigma_s = (K_{1/2})^2 = 2 pi, whose CDF is
    # erfc(sqrt(c / 2x)) = erfc(sqrt(pi / x)).
    batch = sim.sample_stable(0.5, 1, "custom", 200_000, RC, stream_id=30,
                              atoms=[(1.0, 1.0)])
    assert batch.values.min() > 0.0  # pure-jump, one-sided
    res = stats.kstest(batch.values,
                       lambda x: erfc(np.sqrt(math.pi / np.maximum(x, 1e-300))))
    assert res.pvalue > KS_LEVEL


def test_stable_regular_variation():
    # x^alpha P(|X| > x) is flat near sigma_total/alpha over x in [10, 50].
    alpha, n = 1.5, 2_000_000
    batch = sim.sample_stable(alpha, 1, "uniform", n, RC, stream_id=31)
    xs = np.array([10.0, 20.0, 30.0, 50.0])
    consts = np.array([x ** alpha * np.mean(np.abs(batch.values) > x)
                       for x in xs])
    assert consts.max() / consts.min() < 1.3
    heuristic = 1.0 / alpha  # sigma_total / alpha
    assert 0.5 * heuristic < consts.mean() < 1.5 * heuristic


def test_stable_axes_matches_independent_coordinates():
    # spherical="axes" gives n iid symmetric coordinates with per-coordinate
    # spherical mass sigma_total/n.
    batch = sim.sample_stable(1.3, 2, "axes", 150_000, RC, stream_id=32,
                              sigma_total=2.0)
    assert batch.values.shape == (150_000, 2)
    one_d = sim.sample_stable(1.3, 1, "uniform", 150_000, RC, stream_id=33,
                              sigma_total=1.0)
    for col in range(2):
        res = stats.ks_2samp(batch.values[:, col], one_d.values)
        assert res.pvalue > KS_LEVEL


def test_stable_isotropic_marginal_consistency():
    # The sub-Gaussian route's marginal is 1-D symmetric stable with
    # sigma^alpha = sigma_total * M_{alpha,n} * K_alpha, matched here by a
    # direct CMS draw with rescaled spherical mass (internal consistency of
    # the two independent constructions).
    alpha, n = 1.2, 3
    iso = sim.sample_stable(alpha, n, "uniform", 150_000, RC, stream_id=34)
    m_const = sim._uniform_sphere_moment(alpha, n)
    ref = sim.sample_stable(alpha, 1, "uniform", 150_000, RC, stream_id=35,
                            sigma_total=m_const)
    res = stats.ks_2samp(iso.values[:, 0], ref.values)
    assert res.pvalue > KS_LEVEL


def test_stable_alpha_one_skew_branch():
    # The log-corrected branch itself runs and produces finite draws.
    batch = sim.sample_stable(1.0, 1, "custom", 10_000, RC, stream_id=36,
                              atoms=[(1.0, 1.0)])
    assert np.all(np.isfinite(batch.values))
    assert batch.meta["centering"] == "log-corrected"
    # Symmetric alpha = 1 never needs the branch.
    sym = sim.sample_stable(1.0, 1, "uniform", 100, RC, stream_id=37)
    assert np.all(np.isfinite(sym.values))


def test_stable_custom_two_sided_matches_uniform():
    # Two atoms +-1 with equal weights reproduce the symmetric law.
    two = sim.sample_stable(1.5, 1, "custom", 150_000, RC, stream_id=39,
                            atoms=[(1.0, 0.5), (-1.0, 0.5)])
    one = sim.sample_stable(1.5, 1, "uniform", 150_000, RC, stream_id=40)
    assert stats.ks_2samp(two.values, one.values).pvalue > KS_LEVEL


# ---------------------------------------------------------------------------
# Compound-Poisson approximation
# ---------------------------------------------------------------------------


def test_compound_preconditions():
    qs = m.QuadraticSpectral(eigs=(2.0,))
    with pytest.raises(PreconditionViolated):
        sim.sample_id_compound(qs, 0.0, 10, RC)
    with pytest.raises(PreconditionViolated):
        sim.sample_id_compound(qs, 0.5, 10, RC, center="left")
    with pytest.raises(BudgetExceeded):
        sim.sample_id_compound(m.Stable(alpha=1.2, sigma_total=1.0), 1e-7,
                               10, RC)


def test_compound_pure_cp_poisson_counts():
    # eps > 1 empties the compensation band: a pure compound-Poisson sum
    # whose jump counts are Poisson(tail_mass(eps)).  Jumps are positive,
    # so a draw is 0 exactly when no jump fell: P(0) = e^{-lam}.  The mean
    # is Campbell's int_{y>eps} y nu(dy) = (a/2) e^{-eps/a}.
    a = 2.0
    qs = m.QuadraticSpectral(eigs=(a,))
    eps = 1.5
    lam = m.tail_mass(qs, eps)
    batch = sim.sample_id_compound(qs, eps, 200_000, RC, stream_id=41)
    assert batch.meta["drift"] == 0.0
    n = batch.count
    p0 = math.exp(-lam)
    se_p0 = math.sqrt(p0 * (1.0 - p0) / n)
    assert abs(np.mean(batch.values == 0.0) - p0) < 4.0 * se_p0
    se_mean = math.sqrt(batch.values.var() / n)
    assert abs(batch.values.mean() - 0.5 * a * math.exp(-eps / a)) < (
        4.0 * se_mean)


def test_compound_single_eigenvalue_variance():
    # As eps -> 0 with the Gaussian surrogate, the compound draw converges
    # to the chaos law (1/2) a (Z^2 - 1): variance a^2/2 = 2 within 5%.
    qs = m.QuadraticSpectral(eigs=(2.0,))
    batch = sim.sample_id_compound(qs, 1e-4, 200_000, RC, stream_id=42,
                                   gauss_smalljump=True, center="mean")
    assert abs(batch.values.var() - 2.0) < 0.05 * 2.0
    se = math.sqrt(2.0 / batch.count)
    assert abs(batch.values.mean()) < 4.0 * se


def test_compound_matches_chaos_ks():
    qs = m.QuadraticSpectral(eigs=(2.0,))
    comp = sim.sample_id_compound(qs, 1e-4, 100_000, RC, stream_id=43,
                                  gauss_smalljump=True, center="mean")
    chaos = sim.sample_chaos2([2.0], 100_000, RC, stream_id=44)
    assert stats.ks_2samp(comp.values, chaos.values).pvalue > KS_LEVEL


def test_compound_signed_spectrum_mean_compensation():
    # Asymmetric spectrum: the mean-centered compound sum has mean zero.
    qs = m.QuadraticSpectral(eigs=(2.0, -0.7))
    batch = sim.sample_id_compound(qs, 1e-3, 200_000, RC, stream_id=45,
                                   gauss_smalljump=True, center="mean")
    se = math.sqrt(batch.values.var() / batch.count)
    assert abs(batch.values.mean()) < 4.0 * se
    # Unit-ball and mean compensations differ by the closed-form tail mean.
    unit = sim.sample_id_compound(qs, 1e-3, 10, RC, stream_id=46)
    a = np.array([2.0, -0.7])
    expect_unit = -float(np.sum(
        0.5 * np.sign(a) * np.abs(a)
        * (np.exp(-1e-3 / np.abs(a)) - np.exp(-1.0 / np.abs(a)))))
    assert unit.meta["drift"] == pytest.approx(expect_unit, rel=1e-12)
    expect_mean = -float(np.sum(
        0.5 * np.sign(a) * np.abs(a) * np.exp(-1e-3 / np.abs(a))))
    assert batch.meta["drift"] == pytest.approx(expect_mean, rel=1e-12)


def test_compound_mean_center_divergent_models():
    with pytest.raises(Divergent):
        sim.sample_id_compound(m.LogKernel(sigma_total=1.0), 0.5, 10, RC,
                               center="mean")
    with pytest.raises(Divergent):
        sim.sample_id_compound(m.Stable(alpha=0.8, sigma_total=1.0), 0.5, 10,
                               RC, center="mean")
    # Symmetric stable with alpha > 1 has a finite mean: allowed, drift 0.
    batch = sim.sample_id_compound(m.Stable(alpha=1.5, sigma_total=1.0), 0.5,
                                   10, RC, center="mean")
    assert batch.meta["drift"] == 0.0


def test_compound_radial_inverse_table_round_trip():
    # The tabulated inverse must reproduce tail_mass^{-1} to a few 1e-4
    # relative (the worst spot is LogKernel's curvature near r = 1); that
    # is orders of magnitude inside Monte-Carlo resolution.  The Gaussian
    # kernel is probed from eps = 0.5: below radius ~0.12 its tail mass
    # saturates in double precision (density ~e^{-200}), so smaller radii
    # are not distinguishable by mass -- nor ever drawn.
    cases = [
        (m.LevyArea(T=math.pi), 0.05),
        (m.LogKernel(sigma_total=1.0), 0.05),
        (m.GaussKernel(sigma_total=1.0), 0.5),
    ]
    for model, eps in cases:
        lam = m.tail_mass(model, eps)
        log_y, log_m = m._radial_inverse_table(
            np.vectorize(model.tail_mass, otypes=[np.float64]), eps, lam)
        y_true = np.geomspace(eps * 1.01, 50.0, 40)
        targets = np.array([m.tail_mass(model, y) for y in y_true])
        y_back = m._invert_radial(log_y, log_m, targets)
        assert np.max(np.abs(y_back / y_true - 1.0)) < 5e-4, type(model).__name__


def _unsorted_invert_radial(log_y, log_m, targets):
    """The table lookup in the targets' own order: the oracle that
    _invert_radial's ascending-order lookup must equal bit for bit."""
    return np.exp(np.interp(-np.log(targets), -log_m, log_y))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 3.0)),
                min_size=2, max_size=40), st.data())
def test_invert_radial_equals_the_unsorted_lookup(steps, data):
    # A random monotone table; targets with ties, at the nodes' masses and
    # past both ends of the table.
    log_y = np.cumsum([dy for dy, _ in steps]) - 3.0
    log_m = 2.0 - np.cumsum([dm for _, dm in steps])
    nodes = data.draw(st.lists(st.integers(0, len(steps) - 1), max_size=5))
    pool = data.draw(st.lists(st.floats(log_m[-1] - 5.0, log_m[0] + 5.0),
                              min_size=1, max_size=10)) + [
        log_m[j] for j in nodes]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=200))
    targets = np.exp(np.array(pool)[picks])
    assert m._invert_radial(log_y, log_m, targets).tobytes() == (
        _unsorted_invert_radial(log_y, log_m, targets).tobytes())


COMPOUND_VARIANTS = {
    "spectral_one": lambda: sim.sample_id_compound(
        m.QuadraticSpectral((2.0,)), 1e-4, 20_000, LAYOUT_RC, stream_id=66,
        center="mean", gauss_smalljump=True),
    "spectral_several": lambda: sim.sample_id_compound(
        m.QuadraticSpectral((2.0, -0.7, 0.3)), 1e-3, 20_000, LAYOUT_RC,
        stream_id=67),
    **{name: lambda name=name: LAYOUT_SAMPLERS[name](20_000) for name in (
        "id_compound", "id_compound_area", "id_compound_log",
        "id_compound_gauss", "id_compound_stable")},
}


@pytest.mark.parametrize("name", sorted(COMPOUND_VARIANTS))
def test_compound_bytes_equal_the_unsorted_lookup(monkeypatch, name):
    draw = COMPOUND_VARIANTS[name]
    batch = draw()
    monkeypatch.setattr(m, "_invert_radial", _unsorted_invert_radial)
    assert batch.values.tobytes() == draw().values.tobytes()


def test_compound_area_model_matches_exact_law():
    # End-to-end check of the generic radial path: the compound-Poisson
    # approximation of the stochastic-area Levy measure reproduces the
    # closed law P(S <= x) = 1 - (2/pi) arctan(e^{-x}) at T = pi.
    model = m.LevyArea(T=math.pi)
    batch = sim.sample_id_compound(model, 0.01, 50_000, RC, stream_id=47,
                                   gauss_smalljump=True)
    assert batch.meta["drift"] == 0.0  # symmetric model

    def cdf(x):
        return 1.0 - 2.0 / math.pi * np.arctan(np.exp(-np.asarray(x)))

    assert stats.kstest(batch.values, cdf).pvalue > KS_LEVEL


def test_compound_deterministic():
    qs = m.QuadraticSpectral(eigs=(2.0, -0.7))
    b1 = sim.sample_id_compound(qs, 1e-3, 5000, sim.RngContract(3), stream_id=2)
    b2 = sim.sample_id_compound(qs, 1e-3, 5000, sim.RngContract(3), stream_id=2)
    assert np.array_equal(b1.values, b2.values)


def test_compound_header_names_model_params():
    # Mirrored spectra at center="none": same class, rate and drift, but
    # means +1 and -1, so the merge must refuse them.
    plus = sim.sample_id_compound(m.QuadraticSpectral((2.0,)), 1e-3, 1000,
                                  RC, stream_id=62, center="none")
    minus = sim.sample_id_compound(m.QuadraticSpectral((-2.0,)), 1e-3, 1000,
                                   RC, stream_id=63, center="none")
    assert plus.meta["model_params"] == {"eigs": (2.0,), "remainder_sq": 0.0}
    with pytest.raises(InvalidProfile, match="parameters"):
        sim.merge_batches([plus, minus])


@pytest.mark.parametrize("ext", [".bin", ".csv"])
def test_compound_saved_batch_merges_with_fresh(tmp_path, ext):
    model = m.QuadraticSpectral((2.0, -0.7))
    saved = sim.sample_id_compound(model, 1e-2, 100, RC, stream_id=64)
    path = str(tmp_path / f"saved{ext}")
    sim.save_batch(saved, path)
    fresh = sim.sample_id_compound(model, 1e-2, 50, RC, stream_id=65)
    merged = sim.merge_batches([fresh, sim.load_batch(path)])
    assert merged.values.tobytes() == np.concatenate(
        [saved.values, fresh.values]).tobytes()
    # A file written before the header named its model's fields still loads.
    old_meta = {k: v for k, v in saved.meta.items() if k != "model_params"}
    sim.save_batch(sim.SampleBatch(saved.values, saved.count, saved.seed,
                                   saved.stream_id, old_meta), path)
    back = sim.load_batch(path)
    assert "model_params" not in back.meta
    assert back.values.tobytes() == saved.values.tobytes()


@pytest.mark.parametrize("rng", [20260816, np.int64(20260816),
                                 np.random.default_rng(1)],
                         ids=["int", "np_int", "generator"])
def test_samplers_take_only_an_rng_contract(rng):
    draws = [
        lambda: sim.sample_chaos2([1.0], 5, rng, stream_id=1),
        lambda: sim.sample_brownian_quadratic("square_norm", 1.0, 100, 5, rng),
        lambda: sim.sample_levy_area(1.0, 1024, 5, rng),
        lambda: sim.sample_stable(1.2, 1, "uniform", 5, rng),
        lambda: sim.sample_id_compound(m.QuadraticSpectral((2.0,)), 0.5, 5,
                                       rng),
    ]
    for draw in draws:
        with pytest.raises(PreconditionViolated, match="RngContract"):
            draw()


def test_chaos2_header_digests_its_eigenvalues(tmp_path):
    one = sim.sample_chaos2([1.0], 100, sim.RngContract(7), stream_id=0)
    two = sim.sample_chaos2([2.0], 100, sim.RngContract(7), stream_id=1)
    assert one.meta["eigs_sha256"] == hashlib.sha256(
        np.array([1.0], dtype="<f8").tobytes()).hexdigest()
    with pytest.raises(InvalidProfile, match="parameters"):
        sim.merge_batches([one, two])
    # A batch file written before the digest was recorded still loads.
    old_meta = {k: v for k, v in one.meta.items() if k != "eigs_sha256"}
    path = str(tmp_path / "old.bin")
    sim.save_batch(sim.SampleBatch(one.values, one.count, one.seed,
                                   one.stream_id, old_meta), path)
    back = sim.load_batch(path)
    assert "eigs_sha256" not in back.meta
    assert back.values.tobytes() == one.values.tobytes()
