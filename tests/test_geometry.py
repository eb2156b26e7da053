"""Exclusion thetas, the admissible domain, and rejection sampling."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsgas import geometry
from hsgas.geometry import (
    HardSphereModel,
    NBodyConfig,
    close_pairs,
    ensemble_theta,
    maxwell_velocities,
    uniform_admissible_sample,
    wall_theta,
)

# Analytic probability that a wall-admissible uniform point clears a ball of
# radius sigma centred in the bulk: 1 - (4pi/3) sigma^3 / (box - sigma)^3.
CLEAR_RATIO_SIGMA_010 = 0.9942540600757388
CLEAR_RATIO_SIGMA_008 = 0.9972458024461008


def test_model_properties():
    m = HardSphereModel(n=16, sigma=0.1, box=2.0)
    assert m.epsilon == 1.0 / 16.0
    assert m.wall_box == (0.05, 1.95)
    assert m.wall_volume == pytest.approx(1.9 ** 3, rel=1e-15)


def test_model_validation():
    with pytest.raises(ValueError):
        HardSphereModel(n=0, sigma=0.1, box=1.0)
    with pytest.raises(ValueError):
        HardSphereModel(n=4, sigma=-0.1, box=1.0)
    with pytest.raises(ValueError):
        HardSphereModel(n=4, sigma=0.5, box=1.0)


def test_wall_theta_literals():
    m = HardSphereModel(n=2, sigma=0.2, box=1.0)
    assert wall_theta([0.5, 0.5, 0.5], m) == 1
    # strong convention: exact clearance sigma/2 is inadmissible
    assert wall_theta([0.1, 0.5, 0.5], m) == 0
    assert wall_theta([0.100001, 0.5, 0.5], m) == 1
    assert wall_theta([0.5, 0.5, 0.95], m) == 0
    arr = wall_theta(np.array([[0.5, 0.5, 0.5], [0.0, 0.5, 0.5]]), m)
    assert arr.tolist() == [1, 0]


def test_two_sphere_theta_literals():
    # dyadic coordinates, so the contact distance is exactly sigma
    m = HardSphereModel(n=2, sigma=0.125, box=1.0)
    a = [0.5, 0.5, 0.5]
    assert ensemble_theta([a, [0.75, 0.5, 0.5]], m) == 1
    assert ensemble_theta([a, [0.5625, 0.5, 0.5]], m) == 0
    # strong convention: exact contact counts as overlap
    assert ensemble_theta([a, [0.625, 0.5, 0.5]], m) == 0
    assert ensemble_theta([a, [0.5, 0.375, 0.5]], m) == 0
    assert ensemble_theta([a, [0.5, 0.5, 0.6250001]], m) == 1


def test_two_sphere_theta_symmetry():
    m = HardSphereModel(n=2, sigma=0.05, box=1.0)
    b = [0.31, 0.3, 0.3]
    for a, theta in (([0.3, 0.3, 0.3], 0), ([0.5, 0.5, 0.5], 1)):
        assert ensemble_theta([a, b], m) == ensemble_theta([b, a], m) == theta


@given(st.integers(0, 10 ** 6))
def test_ensemble_theta_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    m = HardSphereModel(n=6, sigma=0.15, box=1.0)
    pos = rng.uniform(0.0, 1.0, size=(6, 3))
    cfg = NBodyConfig(pos, np.zeros_like(pos))
    base = ensemble_theta(cfg, m)
    perm = rng.permutation(6)
    assert ensemble_theta(NBodyConfig(pos[perm], np.zeros_like(pos)), m) == base


def _all_pairs(pos, cutoff):
    """Oracle: {(i, j): d2} over all i < j with d2 <= cutoff^2."""
    i, j = np.triu_indices(len(pos), k=1)
    d = pos[i] - pos[j]
    d2 = (d * d).sum(axis=-1)
    keep = d2 <= float(cutoff) ** 2
    return dict(zip(zip(i[keep].tolist(), j[keep].tolist()),
                    d2[keep].tolist()))


def _close_pairs_dict(pos, cutoff):
    i, j, d2 = close_pairs(pos, cutoff)
    assert np.all(i < j)
    out = dict(zip(zip(i.tolist(), j.tolist()), d2.tolist()))
    assert len(out) == len(d2)  # no pair twice
    return out


@given(st.integers(0, 10 ** 6), st.integers(0, 60),
       st.floats(0.0, 1.5), st.sampled_from([None, 1, 4]))
def test_close_pairs_is_the_all_pairs_cut(seed, n, cutoff, x_levels):
    # x_levels quantises x so that many centres share one x coordinate
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, 3))
    if x_levels is not None:
        pos[:, 0] = rng.integers(0, x_levels, size=n) / 7.0
    # dict equality compares d2 with ==, i.e. bit for bit
    assert _close_pairs_dict(pos, cutoff) == _all_pairs(pos, cutoff)


def test_close_pairs_keeps_a_lattice_at_exactly_the_cutoff():
    h = 0.125  # exact in binary, so every neighbour sits at d2 == h^2
    g = np.arange(5) * h
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    got = _close_pairs_dict(pos, h)
    assert len(got) == 3 * 4 * 25  # nearest neighbours only
    assert set(got.values()) == {h * h}
    assert got == _all_pairs(pos, h)
    # the diagonal neighbours join at sqrt(2) h
    assert len(_close_pairs_dict(pos, h * math.sqrt(2.0) * (1 + 1e-12))) \
        == 3 * 4 * 25 + 6 * 4 * 4 * 5


def test_close_pairs_small_and_degenerate():
    for n in (0, 1):
        i, j, d2 = close_pairs(np.zeros((n, 3)), 1.0)
        assert len(i) == len(j) == len(d2) == 0
    two = np.array([[0.125, 0.25, 0.5], [0.5, 0.25, 0.5]])
    assert _close_pairs_dict(two, 0.375) == {(0, 1): 0.140625}
    assert _close_pairs_dict(two[::-1], 0.375) == {(0, 1): 0.140625}
    assert _close_pairs_dict(two, 0.37) == {}
    # cutoff 0 keeps only coincident centres
    same = np.array([[0.5, 0.5, 0.5], [0.1, 0.5, 0.5], [0.5, 0.5, 0.5]])
    assert _close_pairs_dict(same, 0.0) == {(0, 2): 0.0}


def test_close_pairs_at_ten_thousand_stays_small():
    # the all-pairs form would hold C(10^4, 2) doubles, about 400 MB per array
    n = 10_000
    sigma = math.sqrt(0.2 / n)
    pos = np.random.default_rng(3).uniform(0.0, 1.0, size=(n, 3))
    tracemalloc.start()
    try:
        _, _, d2 = close_pairs(pos, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert np.all(d2 <= sigma ** 2)


def test_ensemble_theta_point_particles_ignore_pairs():
    m = HardSphereModel(n=3, sigma=0.0, box=1.0)
    pos = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.2, 0.2, 0.2]])
    assert ensemble_theta(NBodyConfig(pos, np.zeros_like(pos)), m) == 1
    edge = np.array([[0.0, 0.5, 0.5], [0.4, 0.5, 0.5], [0.2, 0.2, 0.2]])
    # sigma = 0 keeps the wall factor strict at the boundary itself
    assert ensemble_theta(NBodyConfig(edge, np.zeros_like(edge)), m) == 0


def test_uniform_admissible_sample_is_admissible_and_deterministic():
    m = HardSphereModel(n=24, sigma=0.06, box=1.0)
    cfg1 = uniform_admissible_sample(m, 123)
    cfg2 = uniform_admissible_sample(m, 123)
    assert ensemble_theta(cfg1, m) == 1
    np.testing.assert_array_equal(cfg1.positions, cfg2.positions)
    np.testing.assert_array_equal(cfg1.velocities, cfg2.velocities)
    assert uniform_admissible_sample(m, 124).positions[0, 0] != \
        cfg1.positions[0, 0]


def test_too_dense_sampling_names_the_keys(monkeypatch):
    monkeypatch.setattr(geometry, "MAX_SAMPLE_TRIES", 3)
    m = HardSphereModel(n=50, sigma=0.3, box=1.0)
    with pytest.raises(RuntimeError, match="packing too dense") as exc:
        uniform_admissible_sample(m, 1)
    assert "model.n" in str(exc.value)
    assert "model.sigma" in str(exc.value)


def test_uniform_admissible_sample_velocity_moments():
    m = HardSphereModel(n=400, sigma=0.01, box=1.0)
    cfg = uniform_admissible_sample(m, 7, v_th=1.3)
    v = cfg.velocities
    n = v.size
    # mean ~ N(0, v_th/sqrt(n)), second moment ~ v_th^2 (1 +- sqrt(2/n))
    assert abs(v.mean()) < 4 * 1.3 / math.sqrt(n)
    assert abs((v ** 2).mean() - 1.3 ** 2) < 4 * 1.3 ** 2 * math.sqrt(2.0 / n)


def test_bulk_clearance_probability_matches_analytic():
    # MC estimate of P[wall-conditioned point clears a bulk-centred ball]
    for sigma, frozen in ((0.1, CLEAR_RATIO_SIGMA_010),
                          (0.08, CLEAR_RATIO_SIGMA_008)):
        m = HardSphereModel(n=2, sigma=sigma, box=1.0)
        analytic = 1.0 - (4 * math.pi / 3) * sigma ** 3 / (1.0 - sigma) ** 3
        assert analytic == pytest.approx(frozen, abs=1e-15)
        rng = np.random.default_rng(42)
        lo, hi = m.wall_box
        pts = rng.uniform(lo, hi, size=(400_000, 3))
        # the centre is row 0 of each chunk; its pairs are the overlaps
        overlaps = sum(
            (close_pairs(np.vstack([[0.5, 0.5, 0.5], chunk]), sigma)[0]
             == 0).sum() for chunk in np.array_split(pts, 8000))
        phat = 1.0 - overlaps / len(pts)
        se = math.sqrt(phat * (1 - phat) / len(pts))
        assert abs(phat - frozen) < 4 * se


def test_maxwell_velocities_shape_and_scale():
    rng = np.random.default_rng(0)
    v = maxwell_velocities(50_000, 0.7, rng)
    assert v.shape == (50_000, 3)
    assert abs((v ** 2).mean() - 0.49) < 0.49 * 4 * math.sqrt(2.0 / v.size)
