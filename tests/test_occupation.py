"""Occupation coefficients: solvers, oracles, contact structure, defects."""
from __future__ import annotations

import math
import os
import threading

import numpy as np
import pytest

from hsgas import occupation, runio
from hsgas.geometry import HardSphereModel, PhasePoint
from hsgas.occupation import (
    SHARDS,
    ContactOccupancy,
    OccupationField,
    PairMisfit,
    analytic_contact_k2_uniform,
    analytic_k1_uniform,
    ball_fraction_from_k1,
    contact_pair_tuples,
    correlation_delta,
    estimate_ks,
    hat_normalization,
    l1_k1_contact_integral,
    lens_volume,
    solve_k1,
    wall_conditioned_positions,
)
from hsgas.occupation import _Bank, _ball_densities, _ball_proposals
from hsgas.pdfs import TiltedExponential, UniformMaxwellian
from hsgas.quadrature import INTERP_BLOCK, QuadratureSpec
from hsgas.seeding import derive_rng


def brute_force_ks(model: HardSphereModel, pdf, fixed_points, samples: int,
                   seed: int):
    """Direct estimate of k_s from the full (N-s)-body conditional law.

    Draws complete sets of the remaining N-s wall-conditioned positions,
    weights each set by its internal pair admissibility, and averages the
    indicator that every draw clears every fixed exclusion ball. Exact for
    every N; cost grows with N, so this is the small-N reference.
    """
    fixed = np.atleast_2d(np.asarray(fixed_points, dtype=float))
    s = fixed.shape[0]
    n, sigma = model.n, model.sigma
    rest = n - s
    if rest < 0:
        raise ValueError(f"s={s} exceeds the particle count N={n}")
    if sigma == 0.0 or rest == 0:
        return 1.0, 0.0
    rng = derive_rng(seed, "occupation", "brute", s)
    pts, _, _ = wall_conditioned_positions(pdf, model, samples * rest, rng)
    pts = pts.reshape(samples, rest, 3)
    # internal admissibility weight over the N-s free spheres
    w = np.ones(samples, dtype=bool)
    for a in range(rest):
        for b in range(a + 1, rest):
            d2 = ((pts[:, a] - pts[:, b]) ** 2).sum(axis=1)
            w &= d2 > sigma * sigma
    clear = np.ones(samples, dtype=bool)
    for j in range(s):
        d2 = ((pts - fixed[j]) ** 2).sum(axis=2)
        clear &= np.all(d2 > sigma * sigma, axis=1)
    num = (w & clear).astype(float)
    den = w.astype(float)
    vals = np.empty(SHARDS)
    block = samples // SHARDS
    for q in range(SHARDS):
        sl = slice(q * block, (q + 1) * block)
        d = den[sl].sum()
        vals[q] = num[sl].sum() / d if d > 0 else np.nan
    vals = vals[np.isfinite(vals)]
    k = float(num.sum() / den.sum())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return k, se


# Frozen closed form: (1 - (4 pi/3) sigma^3 / (box - sigma)^3)^(N-1)
ANALYTIC_K1_N16_S008 = 0.9594740972243314


def test_analytic_k1_uniform_frozen():
    model = HardSphereModel(n=16, sigma=0.08, box=1.0)
    assert analytic_k1_uniform(model) == pytest.approx(
        ANALYTIC_K1_N16_S008, rel=1e-14)


def test_lens_volume_literals():
    s = 0.3
    assert lens_volume(0.0, s) == pytest.approx(4.0 * math.pi / 3.0 * s ** 3,
                                                rel=1e-14)
    assert lens_volume(s, s) == pytest.approx(5.0 * math.pi / 12.0 * s ** 3,
                                              rel=1e-14)
    assert lens_volume(2.0 * s, s) == 0.0
    assert lens_volume(3.0 * s, s) == 0.0
    # elementwise on arrays, bit for bit the scalar closed form
    d = np.array([[0.0, 0.1, s], [0.59, 2.0 * s, 0.7]])
    ref = [[0.0 if x >= 2.0 * s
            else math.pi / 12.0 * (4.0 * s + x) * (2.0 * s - x) ** 2
            for x in row] for row in d.tolist()]
    assert np.array_equal(lens_volume(d, s), np.array(ref))


def test_ball_fraction_inverts_k1():
    field = OccupationField.constant(4, 1.0, 0.97)
    k1 = field.interp(np.array([0.5, 0.5, 0.5]))
    v = ball_fraction_from_k1(k1, n=16)
    assert (1.0 - v) ** 15 == pytest.approx(0.97, rel=1e-12)
    # with no partner k1 is identically 1 and carries no ball measure
    with pytest.raises(ValueError, match="model.n >= 2"):
        ball_fraction_from_k1(k1, n=1)


def test_occupation_field_interp_and_roundtrip(tmp_path):
    field = OccupationField.constant(4, 1.0, 1.0)
    # multilinear interp reproduces an affine-in-x nodal function exactly
    x = field.nodes()[:, 0]
    field.values[:] = (0.9 + 0.2 * x).reshape(4, 4, 4)
    probe = np.array([[0.41, 0.37, 0.55], [0.2, 0.8, 0.33]])
    assert np.allclose(field.interp(probe), 0.9 + 0.2 * probe[:, 0],
                       rtol=1e-12)
    # clamped beyond the outermost cell centers
    assert field.interp(np.array([0.0, 0.5, 0.5])) == pytest.approx(
        0.9 + 0.2 * field.axis[0], rel=1e-12)

    path = tmp_path / "k1.csv"
    field.stderr[:] = 0.001
    field.to_csv(path)
    back = np.genfromtxt(path, delimiter=",", names=True)
    assert np.allclose(back["k1"], field.values.ravel(), rtol=0, atol=1e-12)
    assert np.allclose(back["stderr"], field.stderr.ravel(), rtol=0,
                       atol=1e-12)
    assert np.allclose(np.unique(back["x"]), field.axis, rtol=0, atol=1e-12)


def _interp_one_point(field, p):
    """Multilinear rule for one point, corner by corner in corner order."""
    ax = field.axis
    idx, frac = [], []
    for k in range(3):
        x = min(max(p[k], ax[0]), ax[-1])
        i = min(max(int(np.searchsorted(ax, x, side="right")) - 1, 0),
                len(ax) - 2)
        idx.append(i)
        frac.append(min(max((x - ax[i]) / (ax[i + 1] - ax[i]), 0.0), 1.0))
    out = 0.0
    for corner in range(8):
        w = 1.0
        ind = []
        for k in range(3):
            hi = (corner >> k) & 1
            w = w * (frac[k] if hi else 1.0 - frac[k])
            ind.append(idx[k] + hi)
        out += w * field.values[tuple(ind)]
    return out


@pytest.mark.parametrize("grid_nodes", [2, 5])
def test_occupation_field_interp_matches_the_corner_rule_bitwise(grid_nodes):
    rng = np.random.default_rng(grid_nodes)
    field = OccupationField.constant(grid_nodes, 1.0)
    field.values = rng.normal(size=(grid_nodes,) * 3)
    faces = np.arange(grid_nodes + 1) / grid_nodes  # cell faces, walls too
    points = np.concatenate([
        rng.uniform(0.0, 1.0, size=(200, 3)),               # interior
        field.nodes(),                                       # exact nodes
        np.stack(np.meshgrid(faces, faces, faces, indexing="ij"),
                 axis=-1).reshape(-1, 3),                    # cell faces
        rng.uniform(-0.5, 1.5, size=(200, 3)),               # clamped
    ])
    got = field.interp(points)
    want = np.array([_interp_one_point(field, p) for p in points])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # inputs longer than one pass are split without moving a bit
    reps = INTERP_BLOCK // len(points) + 2
    tiled = np.tile(points, (reps, 1)).reshape(reps, len(points), 3)
    assert np.array_equal(field.interp(tiled), np.tile(want, (reps, 1)))


def _covering_balls_oracle(at, fixed, sigma):
    """Balls covering each point, from one (n, s, 3) difference array."""
    d2 = ((at[:, None, :] - fixed[None, :, :]) ** 2).sum(axis=2)
    return (d2 < sigma * sigma).sum(axis=1)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_ball_proposals_and_bank_weights_match_the_old_formulas_bitwise(s):
    model = HardSphereModel(n=16, sigma=0.1, box=1.0)
    pdf = TiltedExponential(1.0, tilt=(1.0, 0.0, 0.0))
    bank = _Bank(pdf, model, 20_000, np.random.default_rng(1))
    # overlapping balls, so the union has points that two or three cover
    fixed = np.array([[0.5, 0.5, 0.5], [0.56, 0.5, 0.5],
                      [0.5, 0.57, 0.52]])[:s]
    prop = _ball_proposals(model, bank, fixed, np.random.default_rng(9))
    p_thw, q = _ball_densities(pdf, model, bank, prop)

    # the draws, normalised with np.linalg.norm
    rng = np.random.default_rng(9)
    b_idx = rng.integers(s, size=bank.ball_count)
    radius = model.sigma * np.cbrt(rng.random(bank.ball_count))
    d = rng.normal(size=(bank.ball_count, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = fixed[b_idx] + radius[:, None] * d
    assert np.array_equal(prop.pts, pts)

    def ball_law(at):
        covering = _covering_balls_oracle(at, fixed, model.sigma)
        return (bank.beta_eff * covering
                / (s * 4.0 / 3.0 * math.pi * model.sigma ** 3))

    covered = _covering_balls_oracle(pts, fixed, model.sigma)
    assert covered.min() == 1 and covered.max() == s
    bank_law = (1.0 - bank.beta_eff) * p_thw / bank.z_w
    assert np.array_equal(q, bank_law + ball_law(pts))
    q_hit = ((1.0 - bank.beta_eff) * prop.p_hit / bank.z_w
             + ball_law(bank.pts[prop.hit_idx]))
    assert np.array_equal(prop.q_hit, q_hit)

    # the shard means, taken with one boolean mask per shard
    field = OccupationField.constant(4, model.box, model=model)
    field.values = np.random.default_rng(4).uniform(0.8, 1.0, (4, 4, 4))
    inv_k, den = bank.weights(field)
    shard_of = np.repeat(np.arange(SHARDS), len(bank.pts) // SHARDS)
    assert np.array_equal(den, [inv_k[shard_of == q].mean()
                                for q in range(SHARDS)])


def test_wall_conditioned_positions_respect_clearance():
    model = HardSphereModel(n=8, sigma=0.1, box=1.0)
    pdf = UniformMaxwellian(1.0)
    rng = np.random.default_rng(3)
    pts, z, z_se = wall_conditioned_positions(pdf, model, 5000, rng)
    assert pts.shape == (5000, 3)
    assert np.all(pts > 0.05) and np.all(pts < 0.95)
    # acceptance estimates the wall-box measure 0.9^3
    assert abs(z - 0.9 ** 3) < 4 * z_se


def test_hat_normalization_uniform_is_wall_volume_fraction():
    model = HardSphereModel(n=8, sigma=0.1, box=1.0)
    field = OccupationField.constant(5, 1.0, 1.0, model=model)
    z = hat_normalization(model, UniformMaxwellian(1.0), field)
    assert z == pytest.approx(model.wall_volume / 1.0 ** 3, rel=1e-13)


def test_solve_k1_matches_exact_n2():
    # N = 2: no self-consistency, k1 = 1 - ball measure of the partner law
    model = HardSphereModel(n=2, sigma=0.1, box=1.0)
    pdf = UniformMaxwellian(1.0)
    field = solve_k1(model, pdf, grid_nodes=6, samples_per_node=30_000, seed=5)
    exact = analytic_k1_uniform(model)
    centre = np.abs(field.nodes() - 0.5).max(axis=1) < 0.26
    vals = field.values.reshape(-1)[centre]
    errs = field.stderr.reshape(-1)[centre]
    assert np.all(np.abs(vals - exact) < 4 * np.maximum(errs, 1e-4))


def test_solve_k1_matches_brute_force_n16():
    model = HardSphereModel(n=16, sigma=0.05, box=1.0)
    pdf = UniformMaxwellian(1.0)
    field = solve_k1(model, pdf, grid_nodes=4, samples_per_node=50_000, seed=7)
    r = np.array([0.375, 0.375, 0.375])
    k_bf, se_bf = brute_force_ks(model, pdf, r[None, :], samples=40_000,
                                 seed=11)
    i = 1  # grid node (0.375, 0.375, 0.375) on the 4-grid
    k_solver = field.values[i, i, i]
    se_solver = field.stderr[i, i, i]
    combined = math.hypot(se_bf, se_solver)
    assert abs(k_solver - k_bf) < 3 * combined


# solve_k1 on two processes: (model, grid nodes, tol). Grid 4 splits 64
# nodes evenly, grid 3 splits 27 as 14 + 13; the dense model's Picard loop
# grows its sup-change at its fourth iteration and takes the damped step
SPLIT_CASES = {
    "even": (HardSphereModel(n=20, sigma=0.1, box=1.0), 4, 0.05),
    "odd-damped": (HardSphereModel(n=400, sigma=0.08, box=1.0), 3, 0.02),
}
SPLIT_SAMPLES = 20_000


def _solve_on(monkeypatch, cpus, model, grid_nodes, tol,
              pdf=UniformMaxwellian(1.0)):
    monkeypatch.setattr(runio, "usable_cpus", lambda: cpus)
    return solve_k1(model, pdf, grid_nodes=grid_nodes,
                    samples_per_node=SPLIT_SAMPLES, seed=1, tol=tol)


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_the_node_split_gives_the_bytes_of_one_process(monkeypatch, forks,
                                                       case):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    split = _solve_on(monkeypatch, 2, *SPLIT_CASES[case])
    assert len(forks) == 1
    single = _solve_on(monkeypatch, 1, *SPLIT_CASES[case])
    assert len(forks) == 1
    assert split.values.tobytes() == single.values.tobytes()
    assert split.stderr.tobytes() == single.stderr.tobytes()
    assert repr(split.info) == repr(single.info)
    forks.assert_none_left()


def test_the_dense_split_case_takes_the_damped_step(monkeypatch):
    model, grid_nodes, tol = SPLIT_CASES["odd-damped"]
    field = _solve_on(monkeypatch, 1, model, grid_nodes, tol)
    monkeypatch.setattr(occupation, "PICARD_DAMPING", 0.3)
    other = _solve_on(monkeypatch, 1, model, grid_nodes, tol)
    assert field.info["iterations"] == other.info["iterations"] == 4
    assert not np.array_equal(field.values, other.values)


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_solver_keeps_its_own_errors(monkeypatch, forks, cpus):
    dense = HardSphereModel(n=300, sigma=0.1, box=1.0)
    with pytest.raises(RuntimeError, match=r"^occupation solver did not "
                       r"converge in 12 iterations; last sup-change "):
        _solve_on(monkeypatch, cpus, dense, 3, 0.02)
    model = HardSphereModel(n=40, sigma=0.1, box=1.0)
    with pytest.raises(RuntimeError, match=r"^occupation Monte Carlo error "
                       r"\S+ exceeds tol/2 \(1\.000e-03\); raise "
                       r"k1\.samples_per_node$"):
        _solve_on(monkeypatch, cpus, model, 3, 2e-3)
    assert len(forks) == (2 if cpus == 2 else 0)
    forks.assert_none_left()


class _PositionDensityFailsIn:
    """A pdf whose position_density raises in one process after the bank.

    The bank's call comes first and runs before any split; every later call
    raises in the process named: the pdf's creator or any other.
    """

    def __init__(self, pdf, where):
        self._pdf, self._creator, self._where = pdf, os.getpid(), where
        self._calls = 0

    def __getattr__(self, name):
        return getattr(self._pdf, name)

    def position_density(self, r):
        self._calls += 1
        here = (os.getpid() == self._creator) == (self._where == "parent")
        if here and self._calls > 1:
            raise ArithmeticError(f"density fails in the {self._where}")
        return self._pdf.position_density(r)


@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_failed_half_of_the_nodes_leaves_no_process(monkeypatch, forks,
                                                       where):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    model, grid_nodes, tol = SPLIT_CASES["even"]
    pdf = _PositionDensityFailsIn(UniformMaxwellian(1.0), where)
    if where == "child":
        error, match = RuntimeError, (r"occupation\.solve_k1.*"
                                      r"ArithmeticError: density fails in "
                                      r"the child")
    else:
        # the parent's own error, after the child was killed and reaped
        error, match = ArithmeticError, "fails in the parent"
    with pytest.raises(error, match=match):
        _solve_on(monkeypatch, 2, model, grid_nodes, tol, pdf)
    assert len(forks) == 1
    forks.assert_none_left()


def test_a_solve_inside_a_half_does_not_fork(monkeypatch, forks):
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    model, grid_nodes, tol = SPLIT_CASES["even"]

    def work(lo, hi, gather):
        field = _solve_on(monkeypatch, 2, model, grid_nodes, tol)
        # every half sees only the one fork of the outer split
        return gather((len(forks), field.values.tobytes()))

    halves = runio.split_work(2, work, "test")
    assert [count for count, _ in halves] == [1, 1]
    assert halves[0][1] == halves[1][1]
    forks.assert_none_left()


def test_a_process_running_threads_solves_without_forking(monkeypatch,
                                                          forks):
    model, grid_nodes, tol = SPLIT_CASES["even"]
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        field = _solve_on(monkeypatch, 2, model, grid_nodes, tol)
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
    single = _solve_on(monkeypatch, 1, model, grid_nodes, tol)
    assert field.values.tobytes() == single.values.tobytes()


def test_estimate_ks_at_s1_reproduces_the_k1_fixed_point():
    # k1 = (1 - v[k1])^(N-1): one-point stacks under the solved field's
    # 1/k1 weights, with an independent sample, give the field back
    model = HardSphereModel(n=16, sigma=0.1, box=1.0)
    pdf = UniformMaxwellian(1.0)
    field = solve_k1(model, pdf, grid_nodes=3, samples_per_node=100_000,
                     seed=41)
    idx = [0, 1, 4, 13, 26]  # corner, edge, face, centre, far corner
    nodes = field.nodes()[idx]
    occ = estimate_ks(model, pdf, [[r] for r in nodes], samples=100_000,
                      seed=43, k1_field=field)
    assert occ.s == 1
    k1 = field.values.reshape(-1)[idx]
    se = field.stderr.reshape(-1)[idx]
    assert np.all(np.abs(occ.ks_values - k1)
                  < 4 * np.hypot(occ.mc_error, se))


def test_estimate_ks_sigma_zero_is_exactly_one():
    model = HardSphereModel(n=12, sigma=0.0, box=1.0)
    pdf = UniformMaxwellian(1.0)
    tuples = [np.array([[0.3, 0.3, 0.3], [0.6, 0.6, 0.6]]),
              np.array([[0.2, 0.5, 0.5], [0.8, 0.5, 0.5]])]
    occ = estimate_ks(model, pdf, tuples, samples=2000, seed=1)
    assert np.all(occ.ks_values == 1.0)
    assert np.all(occ.mc_error == 0.0)


def test_estimate_ks_matches_brute_force_n3():
    model = HardSphereModel(n=3, sigma=0.12, box=1.0)
    pdf = UniformMaxwellian(1.0)
    pair = np.array([[0.4, 0.5, 0.5], [0.7, 0.5, 0.5]])
    occ = estimate_ks(model, pdf, [pair], samples=150_000, seed=9)
    k_bf, se_bf = brute_force_ks(model, pdf, pair, samples=150_000, seed=13)
    combined = math.hypot(float(occ.mc_error[0]), se_bf)
    assert abs(float(occ.ks_values[0]) - k_bf) < 3 * combined
    assert float(occ.ks_values[0]) < 1.0  # exclusion suppresses occupation


def test_contact_occupancy_reproduces_uniform_closed_form():
    model = HardSphereModel(n=16, sigma=0.05, box=1.0)
    k1 = analytic_k1_uniform(model)
    field = OccupationField.constant(4, 1.0, k1, model=model)
    occ = ContactOccupancy(model, field, mode="insertion")
    r1 = np.array([0.5, 0.5, 0.5])
    n21 = np.array([1.0, 0.0, 0.0])
    expect = analytic_contact_k2_uniform(model)
    assert float(occ.k2_contact(r1, n21)) == pytest.approx(expect, rel=1e-12)
    # contact enhancement exceeds 1: the shared lens is excluded only once
    assert float(occ.g_contact(r1, n21)) > 1.0
    prod = ContactOccupancy(model, field, mode="product")
    assert float(prod.k2_contact(r1, n21)) == pytest.approx(k1 * k1, rel=1e-12)
    # a contact pair needs two spheres
    with pytest.raises(ValueError, match="model.n >= 2"):
        analytic_contact_k2_uniform(HardSphereModel(n=1, sigma=0.05, box=1.0))


def _k2_general(occ, r1, n21):
    """The former two-point k2(r1, r2), r2 = r1 + sigma n21: the lens at the
    centres' distance. k1 at r2 and at the midpoint is read on the contact
    sphere, as k2_contact reads it; test_sphere_read_matches_interp holds
    that read to interp at the points."""
    n, sigma = occ.model.n, occ.model.sigma
    field = occ.k1_field
    k1_r2, k1_mid = field.interp_on_sphere(r1, (sigma, 0.5 * sigma), n21)
    if occ.mode == "product":
        return field.interp(r1) * k1_r2
    v1 = ball_fraction_from_k1(field.interp(r1), n)
    v2 = ball_fraction_from_k1(k1_r2, n)
    vball = 4.0 / 3.0 * math.pi * sigma ** 3
    r2 = r1 + sigma * n21
    lens = lens_volume(np.linalg.norm(r2 - r1, axis=-1), sigma) / vball
    vmid = ball_fraction_from_k1(k1_mid, n)
    vu = np.clip(v1 + v2 - lens * vmid, 0.0, 1.0 - 1e-12)
    return (1.0 - vu) ** (n - 2)


@pytest.mark.parametrize("mode", ContactOccupancy.MODES)
@pytest.mark.parametrize("r1", [[0.5, 0.45, 0.55], [0.03, 0.5, 0.97]],
                         ids=["bulk", "near-wall"])
def test_k2_contact_is_the_general_k2_at_contact(mode, r1):
    model = HardSphereModel(n=40, sigma=0.1, box=1.0)
    field = OccupationField.constant(5, 1.0, model=model)
    # a field that varies over the contact sphere: 0.6 to 0.95
    nodes = field.nodes()
    field.values = (0.6 + 0.35 * np.cos(3.0 * nodes[:, 0])
                    * np.sin(2.0 + nodes[:, 1] + nodes[:, 2]) ** 2
                    ).reshape(field.values.shape)
    occ = ContactOccupancy(model, field, mode=mode)
    r1 = np.array(r1)
    rng = np.random.default_rng(11)
    n21 = rng.normal(size=(500, 3))
    n21 /= np.linalg.norm(n21, axis=1, keepdims=True)
    got = occ.k2_contact(r1, n21)
    want = _k2_general(occ, r1, n21)
    assert got.shape == want.shape == (500,)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    if mode != "insertion":  # no lens term: the same bits
        assert np.array_equal(got, want)


SPHERE_ULPS = 4  # the contact-sphere read's bound, in ulps of max |k1|


def _sphere_center(axis, where):
    """r1 whose sigma = 0.05 sphere lies in one cell on each axis, or
    straddles the middle node on one, two or three axes (on it, or off it
    either way), or crosses the hull. A grid of 2 has no interior node; its
    middle node is the hull's upper end."""
    mid = 0.5 * (axis[len(axis) // 2 - 1] + axis[len(axis) // 2])
    node = axis[len(axis) // 2]
    return np.array({
        "one-cell": [mid, mid, mid],
        "one-node": [mid, node, mid],
        "two-nodes": [node + 0.013, node - 0.021, mid],
        "three-nodes": [node + 0.007, node - 0.03, node],
        "hull": [0.02, mid, 0.97],
    }[where])


@pytest.mark.parametrize("grid", [2, 4, 5, 8])
@pytest.mark.parametrize("where", ["one-cell", "one-node", "two-nodes",
                                   "three-nodes", "hull"])
def test_sphere_read_matches_interp(grid, where):
    sigma = 0.05
    field = OccupationField.constant(grid, 1.0)
    nodes = field.nodes()
    field.values = (0.6 + 0.35 * np.cos(3.0 * nodes[:, 0])
                    * np.sin(2.0 + nodes[:, 1] + nodes[:, 2]) ** 2
                    ).reshape(field.values.shape)
    r1 = _sphere_center(field.axis, where)
    rng = np.random.default_rng(grid)
    n = np.concatenate([np.eye(3), -np.eye(3), rng.normal(size=(500, 3))])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    n = n.reshape(2, 253, 3)
    radii = (sigma, 0.5 * sigma)
    bound = SPHERE_ULPS * np.finfo(float).eps * np.abs(field.values).max()
    for s, got in zip(radii, field.interp_on_sphere(r1, radii, n)):
        want = field.interp(r1 + s * n)
        assert got.shape == want.shape == (2, 253)
        assert np.abs(got - want).max() <= bound
    # exact on a constant field
    flat = OccupationField.constant(grid, 1.0, 0.8731)
    for got in flat.interp_on_sphere(r1, radii, n):
        assert np.all(got == 0.8731)


def test_k2_contact_takes_one_r1():
    model = HardSphereModel(n=40, sigma=0.1, box=1.0)
    occ = ContactOccupancy(model, OccupationField.constant(4, 1.0))
    with pytest.raises(ValueError, match="one r1"):
        occ.k2_contact(np.full((2, 3), 0.5), np.eye(3)[:2])


def test_contact_pair_tuples_geometry():
    model = HardSphereModel(n=64, sigma=0.05, box=1.0)
    pdf = UniformMaxwellian(1.0)
    tuples = contact_pair_tuples(model, pdf, count=20, seed=17)
    assert len(tuples) == 20
    margin = 3.0 * model.sigma
    for p1, p2 in tuples:
        d = np.linalg.norm(p2.r - p1.r)
        assert d == pytest.approx(2.2 * model.sigma, rel=1e-12)
        for p in (p1, p2):
            assert np.all(p.r > margin - 1e-12)
            assert np.all(p.r < 1.0 - margin + 1e-12)
    again = contact_pair_tuples(model, pdf, count=20, seed=17)
    assert np.allclose(tuples[0][0].r, again[0][0].r)


@pytest.mark.parametrize("sigma, factor, why", [
    (0.2, 2.2, "leaves no bulk"),
    (0.05, 30.0, "exceed the diagonal"),
], ids=["margin", "diagonal"])
def test_contact_pair_misfit_fails_before_drawing_and_names_no_key(
        sigma, factor, why):
    # the callers append the config key they read
    model = HardSphereModel(n=8, sigma=sigma, box=1.0)
    with pytest.raises(PairMisfit, match=why) as info:
        contact_pair_tuples(model, UniformMaxwellian(1.0), count=1, seed=0,
                            separation_factor=factor)
    assert "ks." not in str(info.value)
    assert "sequence." not in str(info.value)


def test_correlation_delta_point_particles_vanish():
    geo_model = HardSphereModel(n=64, sigma=0.05, box=1.0)
    pdf = UniformMaxwellian(1.0)
    tuples = contact_pair_tuples(geo_model, pdf, count=6, seed=23)
    model0 = HardSphereModel(n=64, sigma=0.0, box=1.0)
    field = OccupationField.constant(4, 1.0, 1.0, model=model0)
    positions = [np.stack([p.r for p in tp]) for tp in tuples]
    pair_occ = estimate_ks(model0, pdf, positions, samples=2000, seed=3,
                           k1_field=field)
    sample = correlation_delta(model0, pdf, field, tuples, pair_occ)
    assert np.all(sample.delta_rho == 0.0)


def test_correlation_delta_sign_and_error():
    model = HardSphereModel(n=32, sigma=0.06, box=1.0)
    pdf = UniformMaxwellian(1.0)
    tuples = contact_pair_tuples(model, pdf, count=4, seed=29)
    field = OccupationField.constant(
        4, 1.0, analytic_k1_uniform(model), model=model)
    positions = [np.stack([p.r for p in tp]) for tp in tuples]
    pair_occ = estimate_ks(model, pdf, positions, samples=60_000, seed=31,
                           k1_field=field)
    sample = correlation_delta(model, pdf, field, tuples, pair_occ)
    # k_s < 1 at close pairs: the defect is negative wherever resolved
    resolved = np.abs(sample.delta_rho) > 3 * sample.mc_error
    assert resolved.any()
    assert np.all(sample.delta_rho[resolved] < 0.0)


def closed_form_contact_flux(model, tilt_mag, pos_density, z1, probe_along_tilt):
    """-(N-1) sigma^2 * rho1 * 4 pi g(c) * v_par with g = (c cosh c - sinh c)/c^2."""
    c = model.sigma * tilt_mag
    g = (c * math.cosh(c) - math.sinh(c)) / c ** 2
    rho1 = pos_density / z1
    return -(model.n - 1) * model.sigma ** 2 * rho1 * 4.0 * math.pi * g * probe_along_tilt


def test_contact_integral_uniform_vanishes():
    model = HardSphereModel(n=8, sigma=0.04, box=1.0)
    field = OccupationField.constant(6, 1.0, 1.0, model=model)
    occ = ContactOccupancy(model, field)
    rep = l1_k1_contact_integral(UniformMaxwellian(1.0), occ, model,
                                 np.array([0.5, 0.5, 0.5]),
                                 quad=QuadratureSpec())
    assert abs(rep.value) < 1e-12


def test_contact_integral_matches_closed_form():
    model = HardSphereModel(n=8, sigma=0.04, box=1.0)
    a = 1.5
    pdf = TiltedExponential(1.0, tilt=(a, 0.0, 0.0))
    field = OccupationField.constant(6, 1.0, 1.0, model=model)
    occ = ContactOccupancy(model, field)
    r1 = np.array([0.5, 0.5, 0.5])
    # the probe is v_th (1,1,1)/sqrt(3): its component along the tilt
    probe_x = pdf.v_th / math.sqrt(3.0)
    rep = l1_k1_contact_integral(pdf, occ, model, r1, quad=QuadratureSpec())
    z1 = hat_normalization(model, pdf, field)
    expect = closed_form_contact_flux(model, a, float(pdf.position_density(r1)),
                                      z1, probe_x)
    assert rep.value == pytest.approx(expect, rel=1e-8)
    assert rep.value < 0.0  # flux opposes the probe along the density gradient
    assert abs(rep.value - expect) <= 10 * rep.error + 1e-12


def test_contact_integral_zero_diameter():
    model = HardSphereModel(n=8, sigma=0.0, box=1.0)
    field = OccupationField.constant(4, 1.0, 1.0, model=model)
    occ = ContactOccupancy(model, field)
    rep = l1_k1_contact_integral(UniformMaxwellian(1.0), occ, model,
                                 np.array([0.5, 0.5, 0.5]),
                                 quad=QuadratureSpec())
    assert rep.value == 0.0 and rep.error == 0.0
