"""Exclusion thetas, the admissible domain, and rejection sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsgas.geometry import (
    HardSphereModel,
    NBodyConfig,
    ensemble_theta,
    maxwell_velocities,
    pair_theta,
    pair_sq_distances,
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


def test_pair_theta_literals():
    assert pair_theta([0, 0, 0], [0.2, 0, 0], 0.1) == 1
    assert pair_theta([0, 0, 0], [0.05, 0, 0], 0.1) == 0
    # strong convention: exact contact counts as overlap
    assert pair_theta([0, 0, 0], [0.1, 0, 0], 0.1) == 0
    assert pair_theta([0, 0, 0], [0, 0, 0], 0.0) == 0


def test_pair_theta_symmetry_and_batch():
    a = np.array([[0.3, 0.3, 0.3], [0.5, 0.5, 0.5]])
    b = np.array([0.31, 0.3, 0.3])
    out = pair_theta(a, b, 0.05)
    assert out.tolist() == [0, 1]
    assert pair_theta(a[0], b, 0.05) == pair_theta(b, a[0], 0.05)


@given(st.integers(0, 10 ** 6))
def test_ensemble_theta_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    m = HardSphereModel(n=6, sigma=0.15, box=1.0)
    pos = rng.uniform(0.0, 1.0, size=(6, 3))
    cfg = NBodyConfig(pos, np.zeros_like(pos))
    base = ensemble_theta(cfg, m)
    perm = rng.permutation(6)
    assert ensemble_theta(NBodyConfig(pos[perm], np.zeros_like(pos)), m) == base


def test_pair_sq_distances_order_and_values():
    pos = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0],
                    [0.0, 4.0, 0.0], [0.0, 0.0, 0.5]])
    # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    np.testing.assert_array_equal(pair_sq_distances(pos),
                                  [9.0, 16.0, 0.25, 25.0, 9.25, 16.25])
    assert pair_sq_distances(pos[:1]).shape == (0,)
    # bitwise equal to the dense n x n form it replaces
    rng = np.random.default_rng(5)
    pos = rng.uniform(0.0, 1.0, size=(30, 3))
    d = pos[:, None, :] - pos[None, :, :]
    dense = (d * d).sum(axis=-1)[np.triu_indices(30, k=1)]
    np.testing.assert_array_equal(pair_sq_distances(pos), dense)


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
        hits = pair_theta(pts, np.array([0.5, 0.5, 0.5]), sigma)
        phat = hits.mean()
        se = math.sqrt(phat * (1 - phat) / len(pts))
        assert abs(phat - frozen) < 4 * se


def test_maxwell_velocities_shape_and_scale():
    rng = np.random.default_rng(0)
    v = maxwell_velocities(50_000, 0.7, rng)
    assert v.shape == (50_000, 3)
    assert abs((v ** 2).mean() - 0.49) < 0.49 * 4 * math.sqrt(2.0 / v.size)
