"""Velocity-box, sphere, and hemisphere quadrature rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hsgas.quadrature import (
    QuadratureSpec,
    gauss_legendre,
    hemisphere_rule,
    orthonormal_frames,
    sphere_grid,
    velocity_grid,
)


def hemisphere_nodes(g, angle_nodes=64):
    """Unit vectors e with g.e > 0 plus their dOmega weights."""
    u, wu, phi, wphi, _ = hemisphere_rule(angle_nodes)
    ghat, e1, e2 = orthonormal_frames(np.asarray(g, float)[None, :])
    ghat, e1, e2 = ghat[0], e1[0], e2[0]
    s = np.sqrt(1.0 - u ** 2)
    e = (u[:, None, None] * ghat
         + s[:, None, None] * (np.cos(phi)[None, :, None] * e1
                               + np.sin(phi)[None, :, None] * e2))
    w = (wu[:, None] * wphi[None, :])
    return e.reshape(-1, 3), w.reshape(-1)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(v_max=3.0)
    with pytest.raises(ValueError):
        QuadratureSpec(velocity_nodes=4)
    with pytest.raises(ValueError):
        QuadratureSpec(angle_nodes=4)
    with pytest.raises(ValueError):
        QuadratureSpec(mode="magic")
    spec = QuadratureSpec()
    assert spec.coarsened().velocity_nodes == max(8, 2 * spec.velocity_nodes // 3)


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre(4, 0.0, 1.0)
    assert (w * x ** 2).sum() == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert (w * x ** 7).sum() == pytest.approx(1.0 / 8.0, abs=1e-14)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)


def test_velocity_grid_integrates_maxwellian():
    spec = QuadratureSpec(velocity_nodes=24, v_max=6.0)
    V, W = velocity_grid(spec, v_th=1.0)
    f = (2 * math.pi) ** -1.5 * np.exp(-0.5 * (V ** 2).sum(axis=1))
    assert (W * f).sum() == pytest.approx(1.0, abs=1e-7)
    # centred grid: same mass for a drifted Maxwellian
    V2, W2 = velocity_grid(spec, v_th=1.0, center=(0.7, -0.2, 0.1))
    g = (2 * math.pi) ** -1.5 * np.exp(
        -0.5 * ((V2 - np.array([0.7, -0.2, 0.1])) ** 2).sum(axis=1))
    assert (W2 * g).sum() == pytest.approx(1.0, abs=1e-7)


def test_hemisphere_rule_total_solid_angle():
    u, wu, phi, wphi, realized = hemisphere_rule(302)
    assert realized >= 302 // 2
    assert wu.sum() * wphi.sum() == pytest.approx(2 * math.pi, rel=1e-13)
    assert np.all(u > 0) and np.all(u <= 1)


def test_hemisphere_flux_identities():
    # for any g: int_{g.e>0} (g.e) dOmega = pi |g|
    #            int_{g.e>0} (g.e)^2 e dOmega = (pi/2) |g|^2 ghat
    #            int_{g.e>0} (g.e)^3 dOmega = (pi/2) |g|^3
    g = np.array([0.3, -1.2, 0.7])
    gn = np.linalg.norm(g)
    e, w = hemisphere_nodes(g, 64)
    proj = e @ g
    assert np.all(proj > 0)
    assert (w * proj).sum() == pytest.approx(math.pi * gn, rel=1e-12)
    vec = (w[:, None] * proj[:, None] ** 2 * e).sum(axis=0)
    np.testing.assert_allclose(vec, (math.pi / 2) * gn ** 2 * g / gn,
                               rtol=1e-12, atol=1e-13)
    assert (w * proj ** 3).sum() == pytest.approx(
        (math.pi / 2) * gn ** 3, rel=1e-12)


def test_hemisphere_rule_budgets_agree_on_a_gaussian():
    # two budgets with other nodes integrate a smooth function alike
    assert len(hemisphere_rule(110)[0]) > len(hemisphere_rule(64)[0])
    g = np.array([1.0, 0.25, -0.4])
    e1, w1 = hemisphere_nodes(g, 64)
    e2, w2 = hemisphere_nodes(g, 110)
    a = (w1 * np.exp(-(e1 @ g) ** 2)).sum()
    b = (w2 * np.exp(-(e2 @ g) ** 2)).sum()
    assert a == pytest.approx(b, rel=1e-5)


def test_sphere_grid_symmetry_and_moments():
    nodes, w, realized = sphere_grid(302)
    assert realized >= 302
    assert w.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    # antipodal closure: -nodes is the same set (match by rounded rows)
    def rounded_set(arr):
        snapped = np.where(np.abs(arr) < 1e-12, 0.0, np.round(arr, 9))
        return {tuple(row) for row in snapped}
    assert rounded_set(nodes) == rounded_set(-nodes)
    g = np.array([0.2, 0.5, -1.0])
    assert (w * (nodes @ g)).sum() == pytest.approx(0.0, abs=1e-12)
    assert (w * (nodes @ g) ** 2).sum() == pytest.approx(
        (4 * math.pi / 3) * (g @ g), rel=1e-12)


def test_orthonormal_frames_properties():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(40, 3))
    g[7] = 0.0
    ghat, e1, e2 = orthonormal_frames(g)
    for arr in (ghat, e1, e2):
        np.testing.assert_allclose(np.linalg.norm(arr, axis=1), 1.0,
                                   rtol=1e-12)
    dots = np.abs(np.stack([(ghat * e1).sum(1), (ghat * e2).sum(1),
                            (e1 * e2).sum(1)]))
    assert dots.max() < 1e-12
    # right-handed: e1 x e2 = ghat
    np.testing.assert_allclose(np.cross(e1, e2), ghat, atol=1e-12)
    nz = np.linalg.norm(g, axis=1) > 0
    np.testing.assert_allclose(
        ghat[nz], g[nz] / np.linalg.norm(g[nz], axis=1, keepdims=True),
        atol=1e-12)
