"""Collision operators: elastic map, hemispheres, annihilation, audits."""
from __future__ import annotations

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hsgas.collision import (
    FLAVORS,
    MOMENT_WEIGHTS,
    boltzmann_op,
    elastic_map,
    master_op,
    moment_audit,
    operator_scan,
)
from hsgas import runio
from hsgas.collision import (_BLOCK_POINTS, _V2_CHUNK, _ball_is_open,
                             _hermite_velocity_grid, _kernel_batch,
                             _master_z1)
from hsgas.geometry import HardSphereModel, wall_theta
from hsgas.occupation import (
    ContactOccupancy,
    OccupationField,
    analytic_k1_uniform,
)
from hsgas.pdfs import (DriftedMaxwellian, TiltedExponential,
                        UniformMaxwellian, VelocityMixture)
from hsgas.quadrature import (QuadratureSpec, hemisphere_rule,
                              orthonormal_frames, velocity_grid)

BULK = np.array([0.5, 0.5, 0.5])
MODEL = HardSphereModel(n=64, sigma=0.02, box=1.0)


def mixture_pdf():
    return VelocityMixture(
        1.0, [(0.5, (0.4, 0.0, 0.0), 0.8), (0.5, (-0.4, 0.0, 0.0), 1.2)]
    )


def unit_contact_occ(model, value=1.0, mode="insertion"):
    field = OccupationField.constant(4, model.box, value, model=model)
    return ContactOccupancy(model, field, mode=mode)


# --------------------------------------------------------------------------
# elastic map


def test_elastic_map_head_on_swap():
    v1p, v2p = elastic_map(np.array([1.0, 0, 0]), np.array([-1.0, 0, 0]),
                           np.array([1.0, 0, 0]))
    assert np.allclose(v1p, [-1.0, 0, 0]) and np.allclose(v2p, [1.0, 0, 0])


def test_elastic_map_grazing_identity():
    v1, v2 = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
    n = np.array([0.0, 1.0, 0.0])  # perpendicular to the relative velocity
    v1p, v2p = elastic_map(v1, v2, n)
    assert np.array_equal(v1p, v1) and np.array_equal(v2p, v2)


def test_elastic_map_worked_example():
    v1p, v2p = elastic_map(np.array([1.0, 2.0, 0]), np.zeros(3),
                           np.array([0.0, 1.0, 0]))
    assert np.allclose(v1p, [1.0, 0.0, 0.0])
    assert np.allclose(v2p, [0.0, 2.0, 0.0])
    assert (v1p ** 2).sum() + (v2p ** 2).sum() == pytest.approx(5.0, rel=1e-14)


def unit_vectors():
    return st.tuples(
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
    ).map(np.array).filter(lambda v: 0.1 < np.linalg.norm(v)).map(
        lambda v: v / np.linalg.norm(v))


vel = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                st.floats(-3.0, 3.0)).map(np.array)


@given(vel, vel, unit_vectors())
def test_elastic_map_conservation(v1, v2, n):
    v1p, v2p = elastic_map(v1, v2, n)
    assert np.allclose(v1p + v2p, v1 + v2, atol=1e-12)
    assert (v1p ** 2).sum() + (v2p ** 2).sum() == pytest.approx(
        (v1 ** 2).sum() + (v2 ** 2).sum(), abs=1e-11)
    # normal relative speed flips, tangential part is untouched
    g, gp = v1 - v2, v1p - v2p
    assert float(gp @ n) == pytest.approx(-float(g @ n), abs=1e-11)


@given(vel, vel, unit_vectors())
def test_elastic_map_involution(v1, v2, n):
    v1p, v2p = elastic_map(*elastic_map(v1, v2, n), n)
    assert np.allclose(v1p, v1, atol=1e-12)
    assert np.allclose(v2p, v2, atol=1e-12)


@given(vel, vel, unit_vectors(), vel)
def test_elastic_map_galilean(v1, v2, n, w):
    a, b = elastic_map(v1, v2, n)
    ab, bb = elastic_map(v1 + w, v2 + w, n)
    assert np.allclose(ab, a + w, atol=1e-12)
    assert np.allclose(bb, b + w, atol=1e-12)


# --------------------------------------------------------------------------
# operator values


def test_maxwell_annihilation_both_flavors():
    quad = QuadratureSpec(velocity_nodes=14, angle_nodes=50)
    pdf = UniformMaxwellian(1.0)
    v1 = np.array([0.5, 0.2, -0.1])
    b = boltzmann_op(MODEL, pdf, BULK, v1, quad)
    assert b.loss > 0.0
    assert abs(b.value) <= 3.0 * b.error
    occ = unit_contact_occ(MODEL, analytic_k1_uniform(MODEL))
    m = master_op(MODEL, pdf, BULK, v1, quad, occ)
    assert m.loss > 0.0
    assert abs(m.value) <= 3.0 * m.error


def test_boltzmann_linear_in_n_sigma_sq():
    quad = QuadratureSpec(velocity_nodes=12, angle_nodes=26)
    pdf = mixture_pdf()
    v1 = np.array([0.3, 0.1, 0.0])
    small = HardSphereModel(n=32, sigma=0.02, box=1.0)
    big = HardSphereModel(n=64, sigma=0.02, box=1.0)
    a = boltzmann_op(small, pdf, BULK, v1, quad)
    b = boltzmann_op(big, pdf, BULK, v1, quad)
    assert b.gain == pytest.approx(2.0 * a.gain, rel=1e-14)
    assert b.loss == pytest.approx(2.0 * a.loss, rel=1e-14)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-12)


def test_boltzmann_angle_budgets_agree_on_mixture():
    # two angular rules with other nodes: the values differ in their bits
    # and agree within their combined error estimates
    pdf = mixture_pdf()
    v1 = np.array([0.6, 0.2, 0.1])
    a, b = (boltzmann_op(MODEL, pdf, BULK, v1,
                         QuadratureSpec(velocity_nodes=14, angle_nodes=n))
            for n in (75, 110))
    assert a.value != b.value
    assert abs(a.value - b.value) <= 3.0 * (a.error + b.error)


def test_master_rejects_unknown_pair_form():
    # the ContactOccupancy mode is the only selector of the pair form
    with pytest.raises(ValueError, match="geometric_mean"):
        unit_contact_occ(MODEL, mode="geometric_mean")


@pytest.mark.parametrize("mode, k1", [
    ("product", 1.0), ("product", 0.7), ("insertion", 1.0),
])
def test_master_is_rescaled_boltzmann_on_uniform_positions(mode, k1):
    # position-uniform law at a bulk probe: rho_hat = p / (k1 Vw / box^3) on
    # both spheres, so k2 rho_hat rho_hat is p^2 (box^3 / Vw)^2 wherever
    # k2 = k1^2 (the product form, or any form at k1 = 1), and the two
    # operators differ only by their prefactors
    quad = QuadratureSpec(velocity_nodes=10, angle_nodes=26)
    pdf = mixture_pdf()
    v1 = np.array([0.6, 0.2, 0.1])
    b = boltzmann_op(MODEL, pdf, BULK, v1, quad)
    m = master_op(MODEL, pdf, BULK, v1, quad,
                  unit_contact_occ(MODEL, k1, mode))
    scale = ((MODEL.n - 1) / MODEL.n
             * (MODEL.box ** 3 / MODEL.wall_volume) ** 2)
    assert b.value != 0.0
    for attr in ("value", "gain", "loss"):
        assert getattr(m, attr) == pytest.approx(scale * getattr(b, attr),
                                                 rel=1e-12)


@pytest.mark.parametrize("flavor", ["boltzmann", "master"])
def test_mc_mode_cross_validates_deterministic(flavor):
    pdf = mixture_pdf()
    v1 = np.array([0.6, 0.2, 0.1])
    if flavor == "master":
        occ = unit_contact_occ(MODEL, analytic_k1_uniform(MODEL))

        def op(quad):
            return master_op(MODEL, pdf, BULK, v1, quad, occ)
    else:
        def op(quad):
            return boltzmann_op(MODEL, pdf, BULK, v1, quad)
    det = op(QuadratureSpec(velocity_nodes=16, angle_nodes=75))
    # MC draws velocity_nodes**3 joint samples: 58^3 is about 195k
    mc = op(QuadratureSpec(mode="mc", velocity_nodes=58, angle_nodes=8,
                           seed=4))
    combined = math.hypot(det.error, mc.error)
    assert mc.error > 0.0
    assert abs(det.value - mc.value) <= 4.0 * combined


def test_operator_scan_rows():
    quad = QuadratureSpec(velocity_nodes=12, angle_nodes=26)
    pdf = UniformMaxwellian(1.0)
    probes = [(BULK, np.array([0.2, 0.0, 0.0])),
              (np.array([0.4, 0.5, 0.6]), np.array([0.0, 0.3, 0.0]))]
    rows = operator_scan(MODEL, pdf, probes, quad, ("boltzmann",))["boltzmann"]
    assert len(rows) == 2 and all(len(r) == 10 for r in rows)
    for (r1, v1), row in zip(probes, rows):
        assert np.allclose(row[:3], r1) and np.allclose(row[3:6], v1)
        value, error, gain, loss = row[6:]
        assert value == pytest.approx(gain - loss, rel=1e-12, abs=1e-300)
        assert error >= 0.0 and loss > 0.0


@pytest.mark.parametrize("flavor", ["boltzmann", "master"])
def test_kernel_blocks_match_single_v1_evaluations(flavor):
    # 14^3 v2 nodes make two v2 chunks; 13 v1 values are no multiple of the
    # block in either chunk. Blocking must not move a single bit, and
    # neither must evaluating both flavors in one pass.
    quad = QuadratureSpec(velocity_nodes=14, angle_nodes=8)
    angles = 8  # hemisphere_rule(8): 4 polar x 2 azimuthal nodes
    assert quad.velocity_nodes ** 3 > _V2_CHUNK
    assert 1 < _BLOCK_POINTS // (_V2_CHUNK * angles) < 13
    assert 13 % (_BLOCK_POINTS // (_V2_CHUNK * angles)) != 0
    pdf = mixture_pdf()
    model = HardSphereModel(n=30, sigma=0.08, box=1.0)
    field = OccupationField.constant(4, model.box, model=model)
    field.values = np.random.default_rng(2).uniform(0.8, 1.0, (4, 4, 4))
    occ = ContactOccupancy(model, field)
    z1 = _master_z1(model, pdf, quad, FLAVORS, occ)
    r1 = np.array([0.3, 0.55, 0.06])  # within sigma of a wall
    V1 = np.random.default_rng(5).normal(size=(13, 3))
    joint = _kernel_batch(model, pdf, r1, V1, quad, FLAVORS, occ, z1=z1)
    assert list(joint) == list(FLAVORS)
    gain, loss = joint[flavor]
    assert np.all(loss > 0.0)
    alone_occ, alone_z1 = (occ, z1) if flavor == "master" else (None, None)
    g_alone, l_alone = _kernel_batch(model, pdf, r1, V1, quad, (flavor,),
                                     alone_occ, z1=alone_z1)[flavor]
    assert np.array_equal(gain, g_alone) and np.array_equal(loss, l_alone)
    for i, v1 in enumerate(V1):
        g1, l1 = _kernel_batch(model, pdf, r1, [v1], quad, (flavor,),
                               alone_occ, z1=alone_z1)[flavor]
        assert gain[i] == g1[0] and loss[i] == l1[0]


def _master_per_point(model, pdf, r1, v1, quad, occ, z1):
    """Master gain and loss at one v1, one v2 node at a time, with every
    factor from pdf.density and wall_theta at its own point."""
    V2, W2 = velocity_grid(quad, pdf.v_th, center=pdf.drift(r1))
    u, wu, phi, wphi, _ = hemisphere_rule(quad.angle_nodes)
    u, phi = np.repeat(u, len(phi)), np.tile(phi, len(u))
    w_ang = np.repeat(wu, len(wphi)) * np.tile(wphi, len(wu))
    open1 = wall_theta(r1, model)
    f1 = pdf.density(r1, v1) * open1 / z1
    gain = loss = 0.0
    for v2, w2 in zip(V2, W2):
        g = v1 - v2
        ghat, e1, e2 = (a[0] for a in orthonormal_frames(g[None, :]))
        e = (u[:, None] * ghat + np.sqrt(1.0 - u ** 2)[:, None]
             * (np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2))
        flux = np.linalg.norm(g) * u
        v1p = v1 - flux[:, None] * e
        v2p = v2 + flux[:, None] * e
        r2 = r1 + model.sigma * e
        open2 = wall_theta(r2, model)
        base = w2 * w_ang * flux * occ.k2_contact(r1, e)
        gain += (base * pdf.density(r1, v1p) * open1 / z1
                 * pdf.density(r2, v2p) * open2 / z1).sum()
        loss += (base * f1 * pdf.density(r2, v2) * open2 / z1).sum()
    pref = (model.n - 1) * model.sigma ** 2
    return pref * gain, pref * loss


@pytest.mark.parametrize("case", ["crossing", "clear", "sheared",
                                  "clear-mixture", "clear-uniform",
                                  "crossing-mixture", "crossing-uniform"])
def test_master_matches_the_per_point_densities(case):
    # crossing: the contact sphere dips into the sigma/2 wall layer (and
    # out of the box), so theta_w(r2) is evaluated; clear: it cannot, so it
    # is skipped; sheared: the drift moves with x; *-mixture and *-uniform:
    # the density is the same at every position, so the master takes the
    # local flavour's partner factors at r1, on a clear contact sphere and
    # on one where theta_w(r2) = 0 zeroes them
    model = HardSphereModel(n=30, sigma=0.08, box=1.0)
    quad = QuadratureSpec(velocity_nodes=8, angle_nodes=26)
    family = case.partition("-")[2]
    if case == "sheared":
        pdf = DriftedMaxwellian(1.0, u0=(0.2, -0.1, 0.0), shear_rate=0.9)
    elif family == "mixture":
        pdf = mixture_pdf()
    elif family == "uniform":
        pdf = UniformMaxwellian(1.0)
    else:
        pdf = TiltedExponential(1.0, tilt=(1.0, -0.5, 0.3))
    assert pdf.position_free_density is bool(family)
    clear = case.startswith("clear")
    r1 = np.array([0.5, 0.45, 0.6] if clear else [0.3, 0.55, 0.07])
    field = OccupationField.constant(4, model.box, model=model)
    field.values = np.random.default_rng(2).uniform(0.8, 1.0, (4, 4, 4))
    occ = ContactOccupancy(model, field)
    z1 = _master_z1(model, pdf, quad, ("master",), occ)
    V1 = np.random.default_rng(5).normal(size=(3, 3))
    gain, loss = _kernel_batch(model, pdf, r1, V1, quad, ("master",), occ,
                               z1=z1)["master"]
    assert _ball_is_open(r1, model) is clear
    # the contact point nearest the z = 0 face
    assert wall_theta(r1 - [0.0, 0.0, model.sigma], model) == clear
    for i, v1 in enumerate(V1):
        g_ref, l_ref = _master_per_point(model, pdf, r1, v1, quad, occ, z1)
        assert gain[i] == pytest.approx(g_ref, rel=1e-13, abs=0.0)
        assert loss[i] == pytest.approx(l_ref, rel=1e-13, abs=0.0)


def test_a_ball_at_the_layer_is_not_taken_as_open():
    # 1.5 sigma from a face, the contact sphere touches the sigma/2 layer,
    # where wall_theta is 0
    model = HardSphereModel(n=30, sigma=0.08, box=1.0)
    r1 = np.array([0.5, 0.5, 1.5 * model.sigma])
    assert not _ball_is_open(r1, model)
    assert wall_theta(r1 - [0.0, 0.0, model.sigma], model) == 0
    assert _ball_is_open(r1 + [0.0, 0.0, 1e-9], model)


# 8^3 v2 nodes x 8 angles make 16 v1 rows per block; the 6^3 rows of a
# 6-node outer rule are more than two blocks, so their pass is split
SPLIT_QUAD = QuadratureSpec(velocity_nodes=8, angle_nodes=8)
SPLIT_MODEL = HardSphereModel(n=30, sigma=0.08, box=1.0)


def test_the_row_split_gives_the_bytes_of_one_process(monkeypatch, forks):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    pdf = mixture_pdf()
    field = OccupationField.constant(4, SPLIT_MODEL.box, model=SPLIT_MODEL)
    field.values = np.random.default_rng(2).uniform(0.8, 1.0, (4, 4, 4))
    occ = ContactOccupancy(SPLIT_MODEL, field)
    z1 = _master_z1(SPLIT_MODEL, pdf, SPLIT_QUAD, FLAVORS, occ)
    r1 = np.array([0.3, 0.55, 0.06])  # within sigma of a wall
    V1, _ = _hermite_velocity_grid(6, 1.3 * pdf.v_th, pdf.drift(r1))
    assert V1.shape[0] >= 2 * (_BLOCK_POINTS // (8 ** 3 * 8))

    out = {}
    for cpus in (2, 1):
        monkeypatch.setattr(runio, "usable_cpus", lambda n=cpus: n)
        out[cpus] = (_kernel_batch(SPLIT_MODEL, pdf, r1, V1, SPLIT_QUAD,
                                   FLAVORS, occ, z1=z1),
                     moment_audit(SPLIT_MODEL, pdf, r1, SPLIT_QUAD, FLAVORS,
                                  occ, outer_nodes=6))
    assert len(forks) == 2  # the batch and the audit, on 2 CPUs only
    (split, split_audit), (single, single_audit) = out[2], out[1]
    assert list(split) == list(FLAVORS)
    for fl in FLAVORS:
        for a, b in zip(split[fl], single[fl]):
            assert a.shape == (V1.shape[0],)
            assert a.tobytes() == b.tobytes()
        assert split_audit[fl] == single_audit[fl]
    forks.assert_none_left()


def test_operator_scan_never_forks(monkeypatch):
    def fork():
        raise AssertionError("operator_scan forked")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(runio, "usable_cpus", lambda: 2)
    occ = unit_contact_occ(SPLIT_MODEL)
    probes = [(BULK, np.array([0.2, 0.0, 0.0]))]
    rows = operator_scan(SPLIT_MODEL, mixture_pdf(), probes, SPLIT_QUAD,
                         FLAVORS, occ)
    assert all(len(rows[fl]) == 1 for fl in FLAVORS)


def test_a_process_running_threads_does_not_fork(monkeypatch, forks):
    monkeypatch.setattr(runio, "usable_cpus", lambda: 2)
    V1 = np.random.default_rng(5).normal(size=(80, 3))
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        _kernel_batch(SPLIT_MODEL, mixture_pdf(), BULK, V1, SPLIT_QUAD,
                      ("boltzmann",))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []


class _DensityFailsIn:
    """A pdf whose density raises in one process: its creator or not."""

    def __init__(self, pdf, where):
        self._pdf, self._creator, self._where = pdf, os.getpid(), where

    def __getattr__(self, name):
        return getattr(self._pdf, name)

    def density(self, r, v):
        if (os.getpid() == self._creator) == (self._where == "parent"):
            raise ArithmeticError(f"density fails in the {self._where}")
        return self._pdf.density(r, v)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failed_half_leaves_no_process(monkeypatch, forks, where):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(runio, "usable_cpus", lambda: 2)
    pdf = _DensityFailsIn(mixture_pdf(), where)
    V1 = np.random.default_rng(5).normal(size=(80, 3))
    if where == "child":
        match = (r"collision\._kernel_batch.*"
                 r"ArithmeticError: density fails in the child")
        with pytest.raises(RuntimeError, match=match):
            _kernel_batch(SPLIT_MODEL, pdf, BULK, V1, SPLIT_QUAD,
                          ("boltzmann",))
    else:
        # the parent's own error, after the child was killed and reaped
        with pytest.raises(ArithmeticError, match="fails in the parent"):
            _kernel_batch(SPLIT_MODEL, pdf, BULK, V1, SPLIT_QUAD,
                          ("boltzmann",))
    assert len(forks) == 1
    forks.assert_none_left()


def test_flavors_are_a_tuple_of_known_names():
    quad = QuadratureSpec(velocity_nodes=8, angle_nodes=8)
    pdf = UniformMaxwellian(1.0)
    for flavors in ("boltzmann", ("boltzmann", "enskog")):
        with pytest.raises(ValueError, match="flavors must be a tuple"):
            moment_audit(MODEL, pdf, BULK, quad, flavors, outer_nodes=2)
    with pytest.raises(ValueError, match="needs a ContactOccupancy"):
        operator_scan(MODEL, pdf, [(BULK, np.zeros(3))], quad, FLAVORS)


# --------------------------------------------------------------------------
# collisional-invariant audits


def test_moment_audit_names():
    assert MOMENT_WEIGHTS == ("mass", "momentum_x", "momentum_y",
                              "momentum_z", "energy")


def test_moment_audit_maxwell_is_machine_zero():
    # single-width Maxwell velocity law: gain cancels loss pointwise, so the
    # audit is roundoff-limited at any node budget
    quad = QuadratureSpec(velocity_nodes=8, angle_nodes=26)
    audit = moment_audit(MODEL, UniformMaxwellian(1.0), BULK, quad,
                         ("boltzmann",), outer_nodes=6)["boltzmann"]
    assert set(audit.residuals) == set(MOMENT_WEIGHTS)
    assert audit.worst_relative() < 1e-10


def test_moment_audit_mixture_converges():
    quad = QuadratureSpec(velocity_nodes=12, angle_nodes=48)
    audit = moment_audit(MODEL, mixture_pdf(), BULK, quad, ("boltzmann",),
                         outer_nodes=10)["boltzmann"]
    assert audit.worst_relative() < 2e-2
    assert all(s > 0 for s in audit.scales.values())
