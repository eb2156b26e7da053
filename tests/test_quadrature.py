"""Velocity-box, sphere, and hemisphere quadrature rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hsgas.quadrature import (
    INTERP_BLOCK,
    QuadratureSpec,
    gauss_legendre,
    hemisphere_rule,
    multilinear,
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


def _frames_with_np_cross(g):
    """orthonormal_frames' formula over the length-3 axis, with np.cross."""
    def norm(a):
        return np.sqrt(a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1]
                       + a[..., 2] * a[..., 2])[..., None]
    ghat = g / np.where(norm(g) > 0, norm(g), 1.0)
    ghat[norm(g)[..., 0] == 0] = [1.0, 0.0, 0.0]
    ref = np.zeros_like(ghat)
    np.put_along_axis(ref, np.argmin(np.abs(ghat), axis=-1)[..., None], 1.0,
                      axis=-1)
    e1 = np.cross(ghat, ref)
    e1 /= norm(e1)
    return ghat, e1, np.cross(ghat, e1)


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
    # the bits of the np.cross formula, on rows with |g| = 0 (zeros of
    # either sign), signed zero components, ties for the least aligned axis
    # and integer rows full of such ties
    g = np.random.default_rng(4).normal(size=(16, 512, 3))
    g[0, :4] = [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 1.0],
                [-0.0, 2.0, -0.0]]
    g[1, :5] = [[1.0, 1.0, 1.0], [-1.0, 1.0, -1.0], [0.5, -0.5, 2.0],
                [2.0, 0.5, -0.5], [0.0, 0.0, -3.0]]
    g[2] = np.round(g[2])
    for rows in (g, g[:, 7], g[0, :1]):
        got = orthonormal_frames(rows)
        for a, b in zip(got, _frames_with_np_cross(rows)):
            assert a.shape == b.shape
            assert np.ascontiguousarray(a).tobytes() == b.tobytes()
        # component k of each vector is contiguous
        assert all(v[..., k].flags.c_contiguous for v in got
                   for k in range(3))


def _multilinear_at(axes, values, point):
    """multilinear at one point, node by node in Python floats."""
    flat = np.asarray(values, dtype=float).ravel()
    cell, lo_hi = 0, []
    for ax, x in zip(axes, point):
        x = min(max(float(x), ax[0]), ax[-1])
        i = sum(x >= node for node in ax[1:-1])
        left, right = float(ax[i]), float(ax[i + 1])
        f = min(max((x - left) / (right - left), 0.0), 1.0)
        lo_hi.append((1.0 - f, f))
        cell = cell * len(ax) + i
    out = 0.0
    for corner in range(2 ** len(axes)):
        w, off = 1.0, 0
        for k, ax in enumerate(axes):
            bit = corner >> k & 1
            w *= lo_hi[k][bit]
            off = off * len(ax) + bit
        out += w * flat[cell + off]
    return out


def _point_kinds(axes, rng, count=40):
    """Blocks of points: inside one cell, straddling an interior node on the
    first axis (inside one cell on the others), beyond the hull's upper
    faces (clamped to its corner), and spread past the hull."""
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    # the cell above each axis's first node; the second node of the first
    # axis is the node straddled
    cell_lo = np.array([a[0] for a in axes])
    cell_hi = np.array([a[1] for a in axes])
    width = cell_hi - cell_lo
    inside = rng.uniform(cell_lo + 0.2 * width, cell_hi - 0.2 * width,
                         size=(count, len(axes)))
    straddle = inside.copy()
    if len(axes[0]) > 2:
        node = axes[0][1]
        straddle[:, 0] = rng.uniform(node - 0.1 * width[0],
                                     node + 0.1 * width[0], size=count)
        straddle[::7, 0] = node  # on the node itself
    clamped = rng.uniform(hi, hi + (hi - lo), size=(count, len(axes)))
    clamped[::5] = hi  # on the corner itself
    spread = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo),
                         size=(count, len(axes)))
    return {"inside": inside, "straddle": straddle, "clamped": clamped,
            "spread": spread}


def _uneven_axes(d, rng):
    """d strictly increasing axes of 2 to 6 nodes at uneven spacings."""
    return [np.cumsum(rng.uniform(0.1, 1.0, size=rng.integers(2, 7)))
            for _ in range(d)]


@pytest.mark.parametrize("d", [1, 3, 6])
def test_multilinear_is_the_per_point_rule_bitwise(d):
    rng = np.random.default_rng(40 + d)
    if d == 6:  # the tabulated pdf's 6-d table
        from test_pdfs import _uneven_table

        tab = _uneven_table()
        axes, values = tab.axes, tab.values
    else:
        axes = _uneven_axes(d, rng)
        axes[0] = np.array([0.0, 0.3, 0.35, 0.9, 1.6])
        values = rng.normal(size=[len(a) for a in axes])
    kinds = _point_kinds(axes, rng)
    for kind, pts in kinds.items():
        want = np.array([_multilinear_at(axes, values, p) for p in pts])
        got = multilinear(axes, values, pts)
        assert np.array_equal(got, want), kind
    # one call over every kind, and a call longer than one block whose
    # blocks are of different kinds
    every = np.concatenate(list(kinds.values()))
    want = np.array([_multilinear_at(axes, values, p) for p in every])
    assert np.array_equal(multilinear(axes, values, every), want)
    long = np.concatenate([np.resize(kinds["inside"], (INTERP_BLOCK, d)),
                           kinds["spread"], kinds["straddle"]])
    want = np.concatenate([
        np.resize(want[:len(kinds["inside"])], INTERP_BLOCK),
        [_multilinear_at(axes, values, p)
         for p in np.concatenate([kinds["spread"], kinds["straddle"]])]])
    assert np.array_equal(multilinear(axes, values, long), want)


def test_multilinear_keeps_nan_points_apart():
    axes = [np.array([0.0, 1.0, 2.0, 3.0])]
    values = np.array([0.0, 10.0, 20.0, 40.0])
    pts = np.array([[0.5], [np.nan], [2.5]])
    got = multilinear(axes, values, pts)
    assert got[0] == 5.0 and got[2] == 30.0 and np.isnan(got[1])
