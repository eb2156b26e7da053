"""Homogeneous relaxation: lattice moments, fixed points, H-theorem behavior."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hsgas.geometry import HardSphereModel
from hsgas.pdfs import VelocityMixture
from hsgas.relax import (
    VelocityLattice,
    _batched_shift,
    homogeneous_relax,
    initial_from_pdf,
    l1_distance,
    maxwellian_on_lattice,
    moment_matched_maxwellian,
)

TWO_BEAM_T_FINAL = 0.7708333333333334  # (3*0.25 + 1.25^2)/3
MODEL = HardSphereModel(n=100, sigma=0.1, box=1.0)  # rate prefactor 1.0


def two_beam_initial(lattice: VelocityLattice):
    """Two counter-propagating Maxwellian beams of unit total mass along y.

    The beams move at +-1.25 with thermal width 0.5.
    """
    u = np.array([0.0, 1.25, 0.0])
    return 0.5 * (maxwellian_on_lattice(lattice, 1.0, u, 0.25)
                  + maxwellian_on_lattice(lattice, 1.0, -u, 0.25))


def test_lattice_geometry():
    lat = VelocityLattice(v_max=4.2, nodes=22)
    assert lat.axis[0] == -4.2 and lat.axis[-1] == 4.2
    assert lat.h == pytest.approx(8.4 / 21, rel=1e-14)
    assert lat.cell_volume() == pytest.approx(lat.h ** 3, rel=1e-14)
    assert lat.points().shape == (22 ** 3, 3)
    with pytest.raises(ValueError):
        VelocityLattice(nodes=4)


def test_lattice_moments_of_maxwellian():
    lat = VelocityLattice(v_max=4.2, nodes=24)
    u = np.array([0.2, -0.1, 0.0])
    f = maxwellian_on_lattice(lat, mass=1.0, u=u, T=0.9)
    mass, mom, energy = lat.moments(f)
    assert mass == pytest.approx(1.0, abs=2e-3)
    assert np.allclose(mom / mass, u, atol=2e-3)
    T = (energy / mass - float((mom / mass) @ (mom / mass))) / 3.0
    assert T == pytest.approx(0.9, abs=5e-3)


def test_moment_matched_maxwellian_matches():
    lat = VelocityLattice(v_max=4.2, nodes=24)
    f = two_beam_initial(lat)
    g = moment_matched_maxwellian(lat, f)
    mf, pf, ef = lat.moments(f)
    mg, pg, eg = lat.moments(g)
    assert mg == pytest.approx(mf, rel=2e-3)
    assert np.allclose(pg, pf, atol=2e-3)
    assert eg == pytest.approx(ef, rel=5e-3)


def test_two_beam_frozen_terminal_temperature():
    lat = VelocityLattice(v_max=4.2, nodes=26)
    f = two_beam_initial(lat)
    mass, mom, energy = lat.moments(f)
    assert np.allclose(mom / mass, 0.0, atol=1e-6)
    T = energy / mass / 3.0
    assert T == pytest.approx(TWO_BEAM_T_FINAL, abs=2e-3)
    # beams sit along the y axis by default
    vx, vy, vz = lat.grid()
    w = lat.cell_volume()
    assert w * float((f * vy ** 2).sum()) > 3 * w * float((f * vx ** 2).sum())


def test_maxwellian_is_discrete_fixed_point():
    lat = VelocityLattice(v_max=4.2, nodes=16)
    f0 = maxwellian_on_lattice(lat, mass=1.0, u=np.zeros(3), T=0.77)
    res = homogeneous_relax(MODEL, f0, lat, t_end=0.05, cfl=0.3)
    assert res.steps >= 1
    assert l1_distance(lat, res.f, f0) < 1e-8


def test_two_beam_relaxes_toward_maxwellian():
    lat = VelocityLattice(v_max=4.2, nodes=20)
    f0 = two_beam_initial(lat)
    res = homogeneous_relax(MODEL, f0, lat, t_end=1.0, cfl=0.25)
    assert res.steps > 3

    # five invariants pinned by the conservation projection
    assert np.allclose(res.mass, res.mass[0], rtol=1e-10)
    assert np.allclose(res.momentum, res.momentum[0], atol=1e-10)
    assert np.allclose(res.energy, res.energy[0], rtol=1e-10)

    # entropy non-decreasing (explicit Euler noise floor only)
    assert np.all(np.diff(res.entropy) > -1e-9 * abs(res.entropy[0]))

    target = moment_matched_maxwellian(lat, f0)
    assert l1_distance(lat, res.f, target) < l1_distance(lat, f0, target)


def test_relax_respects_fixed_dt_and_t_end():
    lat = VelocityLattice(v_max=4.2, nodes=16)
    f0 = two_beam_initial(lat)
    res = homogeneous_relax(MODEL, f0, lat, t_end=0.05, dt=0.02)
    assert res.dt_history[0] == pytest.approx(0.02, rel=1e-12)
    assert res.times[-1] == pytest.approx(0.05, rel=1e-12)
    assert res.dt_history[-1] == pytest.approx(0.01, rel=1e-9)  # clipped


def test_relax_stops_at_t_end_despite_roundoff():
    # eight steps of 0.1 sum to 0.7999999999999999; no ninth micro-step
    lat = VelocityLattice(v_max=4.2, nodes=12)
    f0 = maxwellian_on_lattice(lat, mass=1.0, u=np.zeros(3), T=0.77)
    res = homogeneous_relax(MODEL, f0, lat, t_end=0.8, dt=0.1)
    assert res.steps == 8
    assert len(res.offsets_used) == 8
    assert np.all(np.diff(res.times) > 0.0)


def _loop_shift(A, shift):
    """out[i] = A(i + shift), one node at a time: per axis a 3-point
    Lagrange stencil at base j = rint(x) clamped to [1, n-2], with the
    fractional offset t = x - j clamped to [-1, 1]."""
    n = A.shape[0]
    out = np.empty_like(A)
    for idx in np.ndindex(A.shape):
        stencils = []
        for ax in range(3):
            x = idx[ax] + shift[ax]
            j = min(max(int(np.rint(x)), 1), n - 2)
            t = min(max(x - j, -1.0), 1.0)
            stencils.append(((j - 1, 0.5 * t * (t - 1.0)),
                             (j, 1.0 - t * t),
                             (j + 1, 0.5 * t * (t + 1.0))))
        out[idx] = sum(wx * wy * wz * A[jx, jy, jz]
                       for jx, wx in stencils[0]
                       for jy, wy in stencils[1]
                       for jz, wz in stencils[2])
    return out


SHIFTS = np.array([
    [0.0, 0.0, 0.0],        # identity
    [2.0, 0.0, -1.0],       # integer
    [0.3, -0.7, 1.5],       # fractional
    [-2.4, 0.5, -0.25],     # negative
    [9.5, -12.0, 0.49],     # beyond both edges
    [-0.5, 0.5, -8.75],
])


@pytest.mark.parametrize("shifts", [SHIFTS, SHIFTS * [1.0, 0.0, 1.0]],
                         ids=["all-axes", "y-axis-unshifted"])
def test_batched_shift_matches_the_per_node_rule(shifts):
    E = np.random.default_rng(11).normal(size=(9, 9, 9))
    got = _batched_shift(E, shifts)
    assert got.shape == (len(shifts),) + E.shape
    for k, shift in enumerate(shifts):
        assert np.abs(got[k] - _loop_shift(E, shift)).max() < 1e-13
    assert np.array_equal(_batched_shift(E, np.zeros((2, 3)))[1], E)


def test_batched_shift_is_exact_on_quadratics_at_interior_targets():
    n = 10
    i = np.arange(n, dtype=float)
    px = 0.3 * i * i - 1.1 * i + 2.0
    py = -0.05 * i * i + 0.4 * i + 1.0
    pz = 0.02 * i * i + 0.5
    A = px[:, None, None] * py[None, :, None] * pz[None, None, :]
    shifts = np.array([[0.3, -0.7, 1.5], [-2.4, 0.5, 0.0], [1.0, 2.25, -3.6]])
    got = _batched_shift(A, shifts)
    for k, s in enumerate(shifts):
        x, y, z = (i + c for c in s)
        want = ((0.3 * x * x - 1.1 * x + 2.0)[:, None, None]
                * (-0.05 * y * y + 0.4 * y + 1.0)[None, :, None]
                * (0.02 * z * z + 0.5)[None, None, :])
        inside = [(c >= 0.0) & (c <= n - 1.0) for c in (x, y, z)]
        mask = (inside[0][:, None, None] & inside[1][None, :, None]
                & inside[2][None, None, :])
        assert mask.sum() > 100
        assert np.abs(got[k] - want)[mask].max() < 1e-12


def test_relax_guards():
    lat = VelocityLattice(v_max=4.2, nodes=16)
    f0 = two_beam_initial(lat)
    with pytest.raises(ValueError):
        homogeneous_relax(HardSphereModel(n=10, sigma=0.0, box=1.0),
                          f0, lat, t_end=0.1)
    with pytest.raises(ValueError):
        homogeneous_relax(MODEL, f0[:-1], lat, t_end=0.1)
    with pytest.raises(RuntimeError):
        homogeneous_relax(MODEL, f0, lat, t_end=10.0, cfl=30.0)


def test_initial_from_pdf_unit_mass():
    lat = VelocityLattice(v_max=4.2, nodes=20)
    mix = VelocityMixture(
        1.0, [(0.5, (0.0, 1.25, 0.0), 0.5), (0.5, (0.0, -1.25, 0.0), 0.5)]
    )
    f = initial_from_pdf(lat, mix)
    mass, _, energy = lat.moments(f)
    assert mass == pytest.approx(1.0, rel=1e-12)
    assert energy / mass / 3.0 == pytest.approx(TWO_BEAM_T_FINAL, abs=2e-3)
    # shape agrees with the direct two-beam construction up to normalization
    direct = two_beam_initial(lat)
    direct /= lat.moments(direct)[0]
    assert l1_distance(lat, f, direct) < 1e-6
