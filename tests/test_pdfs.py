"""One-body density families: normalizations, position laws, sampling, tables."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hsgas.pdfs import (
    DriftedMaxwellian,
    SinusoidalMaxwellian,
    TabulatedPdf,
    TiltedExponential,
    UniformMaxwellian,
    VelocityMixture,
    _cell_draws,
    _maxwell,
    _trapezoid_weights_nd,
    build_family,
)
from hsgas.quadrature import (INTERP_BLOCK, gauss_legendre, multilinear,
                              tensor_rule)
from hsgas.seeding import derive_rng

# Frozen closed form (independent of the implementation): the
# exponential-axis normalizer (e^{aL}-1)/a.
TILTED_AXIS_NORM_15 = 2.321126046892043
TWO_BEAM_VTH = 0.8779711460710616


def tabulate_pdf(pdf, pos_axes, vel_axes):
    """Sample an analytic family onto a rectilinear grid."""
    pos_axes = [np.asarray(a, float) for a in pos_axes]
    vel_axes = [np.asarray(a, float) for a in vel_axes]
    P = np.stack(np.meshgrid(*pos_axes, indexing="ij"), axis=-1)
    V = np.stack(np.meshgrid(*vel_axes, indexing="ij"), axis=-1)
    vals = np.empty(P.shape[:-1] + V.shape[:-1])
    flatP = P.reshape(-1, 3)
    flatV = V.reshape(-1, 3)
    for i, rr in enumerate(flatP):
        vals.reshape(flatP.shape[0], -1)[i] = pdf.density(rr, flatV)
    return TabulatedPdf(pos_axes, vel_axes, vals, box=pdf.box, v_th=pdf.v_th)


def mc_normalization(pdf, samples, seed):
    """Monte Carlo cross-check of the normalization integral.

    Uses a uniform-position, wide-Gaussian-velocity proposal.
    """
    rng = derive_rng(seed, "pdf", "mc_normalization")
    width = 3.0 * pdf.v_th + float(np.abs(pdf.drift(np.zeros(3))).max(initial=0.0))
    r = rng.uniform(0.0, pdf.box, size=(samples, 3))
    v = rng.normal(scale=width, size=(samples, 3))
    q = pdf.box ** -3 * _maxwell(v, 0.0, width)
    w = pdf.density(r, v) / q
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(samples))


def draw(pdf, count, seed):
    """count (r, v) pairs from the family's position and velocity samplers."""
    rng = derive_rng(seed, "pdf", pdf.family_tag)
    r = pdf.sample_positions(count, rng)
    return r, pdf.sample_velocities(r, rng)


def two_beam_mixture(box=1.0):
    return VelocityMixture(
        box, [(0.5, (0.0, 1.25, 0.0), 0.5), (0.5, (0.0, -1.25, 0.0), 0.5)]
    )


ALL_FAMILIES = {
    "uniform": lambda: UniformMaxwellian(1.0, v_th=1.0),
    "drifted": lambda: DriftedMaxwellian(1.0, v_th=1.0, u0=(0.3, 0.0, 0.0), shear_rate=0.2),
    "tilted": lambda: TiltedExponential(1.0, tilt=(1.5, 0.0, 0.0), v_th=1.0),
    "sinusoidal": lambda: SinusoidalMaxwellian(1.0, alpha=0.2, v_th=1.0),
    "mixture": two_beam_mixture,
}


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES) + ["tabulated"])
def test_position_free_density_holds_for_its_families(name):
    pdf = (_uneven_table() if name == "tabulated"
           else ALL_FAMILIES[name]())
    rng = np.random.default_rng(12)
    r = rng.uniform(0.0, 1.0, size=(50, 3))
    v = np.broadcast_to(rng.normal(size=3), r.shape)
    density = pdf.density(r, v)
    assert bool(np.all(density == density[0])) is pdf.position_free_density


@pytest.mark.parametrize("name", sorted(ALL_FAMILIES))
def test_normalization_is_one(name):
    # 8^3 Gauss-Legendre nodes on the cube, 32^3 on a velocity box six
    # thermal speeds past the largest drift; the tails outside hold 6e-9
    pdf = ALL_FAMILIES[name]()
    span = 6.0 * pdf.v_th + float(np.abs(pdf.drift(np.full(3, pdf.box))).max())
    R, wr = tensor_rule(*gauss_legendre(8, 0.0, pdf.box))
    V, wv = tensor_rule(*gauss_legendre(32, -span, span))
    mass = sum(w * float((wv * pdf.density(r, V)).sum())
               for r, w in zip(R, wr))
    assert abs(mass - 1.0) < 1e-6


def test_tabulated_normalization_near_one():
    # the trapezoid rule on the table's own nodes, where density is the table
    base = UniformMaxwellian(1.0, v_th=1.0)
    vax = np.linspace(-6.0, 6.0, 41)
    pax = np.linspace(0.0, 1.0, 5)
    tab = tabulate_pdf(base, [pax] * 3, [vax] * 3)
    mass = float((_trapezoid_weights_nd(tab.axes) * tab.values).sum())
    assert abs(mass - 1.0) < 0.05


def test_tilted_axis_normalizer_frozen():
    pdf = TiltedExponential(1.0, tilt=(1.5, 0.0, 0.0))
    assert math.isclose(pdf._axis_norm[0], TILTED_AXIS_NORM_15, rel_tol=1e-12)
    assert pdf._axis_norm[1] == 1.0  # zero tilt falls back to the box length


def fd_log_position_gradient(pdf, r, v):
    """Central finite difference of ln density in the position argument."""
    h = 1e-5 * pdf.box
    return np.array([(math.log(pdf.density(r + dr, v))
                      - math.log(pdf.density(r - dr, v))) / (2 * h)
                     for dr in h * np.eye(3)])


def test_fd_gradient_matches_analytic():
    # the position laws' closed-form d(ln rho)/dr, from the family parameters
    r = np.array([0.31, 0.44, 0.52])
    v = np.zeros(3)
    alpha, k = 0.2, 2.0 * math.pi
    sinusoidal = np.array([alpha * k * math.cos(k * r[0])
                           / (1.0 + alpha * math.sin(k * r[0])), 0.0, 0.0])
    tilt = np.array([1.5, -0.4, 0.0])
    for pdf, an in ((SinusoidalMaxwellian(1.0, alpha=alpha), sinusoidal),
                    (TiltedExponential(1.0, tilt=tilt), tilt)):
        fd = fd_log_position_gradient(pdf, r, v)
        assert np.allclose(fd, an, rtol=1e-5, atol=1e-6)


def test_shear_gradient_is_velocity_dependent():
    # under shear, d(ln f)/dx = (v_y - u_y(x)) shear_rate / v_th^2
    pdf = DriftedMaxwellian(1.0, v_th=1.0, u0=(0.0, 0.0, 0.0), shear_rate=0.5)
    r = np.array([0.25, 0.5, 0.5])
    v = np.array([0.0, 0.9, 0.0])
    an = np.array([(v[1] - pdf.drift(r)[1]) * 0.5, 0.0, 0.0])
    fd = fd_log_position_gradient(pdf, r, v)
    assert an[0] != 0.0
    assert np.allclose(fd, an, rtol=1e-5, atol=1e-6)


def test_sinusoidal_phase_is_translation():
    phase = 0.9
    shifted = SinusoidalMaxwellian(1.0, alpha=0.2, phase=phase)
    base = SinusoidalMaxwellian(1.0, alpha=0.2)
    shift = phase / (2.0 * math.pi)
    for x in (0.1, 0.33, 0.6):
        r1 = np.array([x, 0.5, 0.5])
        r2 = np.array([x + shift, 0.5, 0.5])
        assert shifted.position_density(r1) == pytest.approx(
            base.position_density(r2), rel=1e-12)


def test_uniform_sample_moments():
    pdf = UniformMaxwellian(1.0, v_th=1.3)
    r, v = draw(pdf, 4000, seed=11)
    assert r.shape == v.shape == (4000, 3)
    assert np.all((r >= 0.0) & (r <= 1.0))
    se_mean = 1.3 / math.sqrt(4000)
    assert np.all(np.abs(v.mean(axis=0)) < 4 * se_mean)
    var = (v ** 2).mean(axis=0)
    se_var = math.sqrt(2.0) * 1.3 ** 2 / math.sqrt(4000)
    assert np.all(np.abs(var - 1.69) < 4 * se_var)


def test_tilted_sample_position_mean():
    a, L = 1.5, 1.0
    pdf = TiltedExponential(L, tilt=(a, 0.0, 0.0))
    r, _ = draw(pdf, 8000, seed=5)
    mean_x = L * math.exp(a * L) / math.expm1(a * L) - 1.0 / a
    se = 0.3 / math.sqrt(8000)
    assert abs(r[:, 0].mean() - mean_x) < 4 * se
    assert abs(r[:, 1].mean() - 0.5) < 4 * se


def test_drifted_sample_recentres_on_local_drift():
    pdf = DriftedMaxwellian(1.0, v_th=0.8, u0=(0.2, 0.0, 0.0), shear_rate=1.0)
    r, v = draw(pdf, 6000, seed=9)
    w = v - pdf.drift(r)
    se = 0.8 / math.sqrt(6000)
    assert np.all(np.abs(w.mean(axis=0)) < 4 * se)


def test_two_beam_mixture_frozen_width_and_drift():
    mix = two_beam_mixture()
    assert mix.v_th == pytest.approx(TWO_BEAM_VTH, rel=1e-14)
    assert np.allclose(mix.drift(np.zeros((2, 3))), 0.0)
    r = np.full(3, 0.5)
    v = np.array([0.0, 0.4, 0.0])
    assert mix.density(r, v) == pytest.approx(mix.density(r, -v), rel=1e-14)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        VelocityMixture(1.0, [(0.6, (0, 0, 0), 1.0), (0.6, (0, 0, 0), 1.0)])


@given(st.lists(st.tuples(st.floats(0.1, 5.0),
                          st.floats(-2.0, 2.0),
                          st.floats(0.2, 2.0)), min_size=1, max_size=4))
def test_mixture_width_formula(raw):
    total = sum(w for w, _, _ in raw)
    comps = [(w / total, (m, 0.0, 0.0), s) for w, m, s in raw]
    mix = VelocityMixture(1.0, comps)
    expect = math.sqrt(sum(w * (s * s + m * m / 3.0)
                           for w, (m, _, _), s in comps))
    assert mix.v_th == pytest.approx(expect, rel=1e-12)


@given(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
def test_uniform_density_indicator(x, y, z):
    pdf = UniformMaxwellian(1.0)
    r = np.array([x, y, z])
    inside = np.all((r >= 0.0) & (r <= 1.0))
    val = pdf.position_density(r)
    assert val == (1.0 if inside else 0.0)


def test_tabulated_roundtrip_and_interp(tmp_path):
    pax = [np.array([0.0, 0.5, 1.0])] * 3
    vax = [np.array([-2.0, 0.0, 2.0])] * 3
    rng = np.random.default_rng(4)
    values = rng.uniform(0.1, 1.0, size=(3,) * 6)
    tab = TabulatedPdf(pax, vax, values, box=1.0, v_th=1.0)

    # exact at grid nodes
    assert tab.density(np.array([0.5, 0.5, 0.5]),
                       np.array([0.0, 0.0, 0.0])) == pytest.approx(
        values[1, 1, 1, 1, 1, 1], rel=1e-14)
    # velocity-cell centre: multilinear interp equals the 8-corner average
    centre = tab.density(np.array([0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    corners = values[0, 0, 0, 1:3, 1:3, 1:3].mean()
    assert centre == pytest.approx(corners, rel=1e-13)
    # outside the tabulated range the density vanishes
    assert tab.density(np.array([0.5, 0.5, 0.5]), np.array([3.0, 0.0, 0.0])) == 0.0
    assert tab.density(np.array([1.5, 0.5, 0.5]), np.array([0.0, 0.0, 0.0])) == 0.0

    path = tmp_path / "tab.csv"
    tab.to_csv(path)
    back = TabulatedPdf.from_csv(path, box=1.0, v_th=1.0)
    assert np.array_equal(back.values, tab.values)
    for a, b in zip(back.axes, tab.axes):
        assert np.array_equal(a, b)


def _interp_64_corners(tab, pts):
    """The former TabulatedPdf._interp: 64 corners, zero outside the table."""
    flat = pts.reshape(-1, 6)
    m = flat.shape[0]
    idx = np.empty((m, 6), dtype=np.intp)
    frac = np.empty((m, 6), dtype=float)
    inside = np.ones(m, dtype=bool)
    for k, ax in enumerate(tab.axes):
        x = flat[:, k]
        inside &= (x >= ax[0]) & (x <= ax[-1])
        i = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        idx[:, k] = i
        frac[:, k] = (x - ax[i]) / (ax[i + 1] - ax[i])
    frac = np.clip(frac, 0.0, 1.0)
    out = np.zeros(m, dtype=float)
    for corner in range(64):
        w = np.ones(m, dtype=float)
        ind = []
        for k in range(6):
            hi = (corner >> k) & 1
            w *= frac[:, k] if hi else (1.0 - frac[:, k])
            ind.append(idx[:, k] + hi)
        out += w * tab.values[tuple(ind)]
    out[~inside] = 0.0
    return out.reshape(pts.shape[:-1])


def _uneven_table():
    """A table on non-uniform axes of unequal lengths."""
    pax = [np.array([0.0, 0.2, 0.45, 1.0]), np.array([0.0, 0.6, 1.0]),
           np.array([0.0, 0.1, 0.3, 0.7, 1.0])]
    vax = [np.array([-3.0, -0.5, 0.25, 2.0]), np.array([-2.0, 0.0, 2.5]),
           np.array([-1.5, 1.5])]
    shape = tuple(len(a) for a in pax + vax)
    values = np.random.default_rng(6).uniform(0.0, 1.0, size=shape)
    return TabulatedPdf(pax, vax, values, box=1.0, v_th=1.0)


def _probe_points(axes, rng, count):
    """Points inside, on the nodes and faces of, and outside the axes."""
    lo = np.array([a[0] for a in axes])
    hi = np.array([a[-1] for a in axes])
    span = hi - lo
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"),
                     axis=-1).reshape(-1, len(axes))
    faces = rng.uniform(lo, hi, size=(count, len(axes)))
    edge = rng.integers(len(axes), size=count)
    faces[np.arange(count), edge] = np.where(rng.random(count) < 0.5,
                                             lo[edge], hi[edge])
    return np.concatenate([
        rng.uniform(lo, hi, size=(count, len(axes))),                # inside
        nodes,                                                       # nodes
        faces,                                                       # faces
        rng.uniform(lo - 0.5 * span, hi + 0.5 * span,
                    size=(count, len(axes))),                        # out
    ])


def test_tabulated_density_matches_the_64_corner_rule_bitwise():
    tab = _uneven_table()
    pts = _probe_points(tab.axes, np.random.default_rng(7), 300)
    want = _interp_64_corners(tab, pts)
    assert np.any(want == 0.0) and np.any(want > 0.0)
    got = tab.density(pts[:, :3], pts[:, 3:])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # inputs longer than one pass are split without moving a bit
    reps = INTERP_BLOCK // len(pts) + 2
    tiled = np.tile(pts, (reps, 1))
    assert len(tiled) > INTERP_BLOCK
    assert np.array_equal(tab.density(tiled[:, :3], tiled[:, 3:]),
                          np.tile(want, reps))


def test_tabulated_position_density_is_the_velocity_marginal():
    tab = _uneven_table()
    r = _probe_points(tab.pos_axes, np.random.default_rng(8), 100)
    # the former per-point rule: the trapezoid sum of the 6-d density over
    # the velocity nodes
    w = _trapezoid_weights_nd(tab.vel_axes).reshape(-1)
    vgrid = np.stack(np.meshgrid(*tab.vel_axes, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    want = np.array([(w * tab.density(rr[None, :], vgrid)).sum()
                     for rr in r])
    got = tab.position_density(r)
    inside = np.all((r >= 0.0) & (r <= 1.0), axis=1)
    assert not inside.all() and inside.any()
    assert np.all(got[~inside] == 0.0)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)


def test_tabulated_velocities_follow_the_table_at_each_position():
    # the velocity law moves with x: vx near -1.5 at x = 0, near +1.5 at x = 1
    pax = [np.array([0.0, 1.0])] * 3
    vax = [np.array([-2.0, -1.0, 1.0, 2.0])] + [np.array([-1.0, 1.0])] * 2
    values = np.zeros((2, 2, 2, 4, 2, 2))
    values[0, :, :, :2] = 1.0
    values[1, :, :, 2:] = 1.0
    tab = TabulatedPdf(pax, vax, values)
    # x = -0.5 reads the table clamped to x = 0
    r = np.repeat([[0.0, 0.5, 0.5], [1.0, 0.5, 0.5], [-0.5, 0.5, 0.5]],
                  400, axis=0)
    v = tab.sample_velocities(r, derive_rng(3, "test"))
    assert v.shape == (1200, 3)
    assert np.all(np.abs(v[:, 1:]) <= 1.0)
    # per position, cells [-2, -1] and [-1, 1] (or their mirrors) carry
    # equal mass, so the mean of vx is -0.75 (or +0.75)
    low, high, clamped = v[:400, 0], v[400:800, 0], v[800:, 0]
    assert np.all(low <= 1.0) and np.all(high >= -1.0)
    assert abs(low.mean() + 0.75) < 0.1 and abs(high.mean() - 0.75) < 0.1
    assert np.all(clamped <= 1.0) and abs(clamped.mean() + 0.75) < 0.1
    again = tab.sample_velocities(r, derive_rng(3, "test"))
    assert np.array_equal(v, again)

    values[0] = 0.0  # no velocity mass left at x = 0
    with pytest.raises(ValueError, match="no mass"):
        TabulatedPdf(pax, vax, values).sample_velocities(r[:1],
                                                         derive_rng(3, "t"))


def _velocities_by_6d_rule(tab, positions, rng):
    """The former sample_velocities: the 6-d rule at every velocity node."""
    vgrid = np.stack(np.meshgrid(*tab.vel_axes, indexing="ij"), axis=-1)
    out = []
    for r in positions:
        at_r = np.concatenate([np.broadcast_to(r, vgrid.shape), vgrid],
                              axis=-1)
        table = multilinear(tab.axes, tab.values, at_r)
        out.append(_cell_draws(tab.vel_axes, table, 1, rng))
    return np.concatenate(out)


@pytest.mark.parametrize("table", ["uneven", "uniform"])
def test_tabulated_velocities_keep_the_bits_of_the_6d_rule(table):
    if table == "uneven":
        tab = _uneven_table()
    else:
        tab = tabulate_pdf(UniformMaxwellian(1.0, v_th=1.0),
                           [np.linspace(0.0, 1.0, 3)] * 3,
                           [np.linspace(-5.0, 5.0, 17)] * 3)
    # inside, on the nodes and faces of, and outside (clamped) the axes
    r = _probe_points(tab.pos_axes, np.random.default_rng(9), 20)
    got = tab.sample_velocities(r, derive_rng(4, "test"))
    want = _velocities_by_6d_rule(tab, r, derive_rng(4, "test"))
    assert got.shape == (len(r), 3)
    assert np.array_equal(got, want)


def test_tabulated_rejects_negative_values():
    ax = [np.array([0.0, 1.0])] * 3
    bad = -np.ones((2,) * 6)
    with pytest.raises(ValueError):
        TabulatedPdf(ax, ax, bad)


def test_tabulated_sampling_stays_in_range():
    base = UniformMaxwellian(1.0, v_th=1.0)
    vax = np.linspace(-5.0, 5.0, 17)
    pax = np.linspace(0.0, 1.0, 3)
    tab = tabulate_pdf(base, [pax] * 3, [vax] * 3)
    r, v = draw(tab, 500, seed=13)
    assert np.all((r >= 0.0) & (r <= 1.0))
    assert np.all((v >= -5.0) & (v <= 5.0))
    r2, v2 = draw(tab, 500, seed=13)
    assert np.array_equal(r, r2) and np.array_equal(v, v2)


def test_mc_normalization_cross_check():
    val, se = mc_normalization(UniformMaxwellian(1.0, v_th=1.0), 20000, seed=21)
    assert se < 0.05
    assert abs(val - 1.0) < 4 * se


def test_build_family_dispatch(tmp_path):
    assert build_family({"family": "uniform_maxwell", "v_th": 1.2}, 1.0).v_th == 1.2
    d = build_family({"family": "drifted_maxwell", "u0": [0.1, 0, 0]}, 1.0)
    assert isinstance(d, DriftedMaxwellian)
    t = build_family({"family": "tilted_exponential", "tilt": [1.5, 0, 0]}, 1.0)
    assert isinstance(t, TiltedExponential)
    s = build_family({"family": "sinusoidal_maxwell", "alpha": 0.3}, 1.0)
    assert isinstance(s, SinusoidalMaxwellian) and s.alpha == 0.3
    m = build_family({"family": "velocity_mixture",
                      "components": [[0.5, [0, 1.25, 0], 0.5],
                                     [0.5, [0, -1.25, 0], 0.5]]}, 1.0)
    assert isinstance(m, VelocityMixture)

    base = UniformMaxwellian(1.0)
    tab = tabulate_pdf(base, [np.linspace(0, 1, 3)] * 3,
                       [np.linspace(-4, 4, 9)] * 3)
    path = tmp_path / "fam.csv"
    tab.to_csv(path)
    loaded = build_family({"family": "tabulated", "path": str(path)}, 1.0)
    assert isinstance(loaded, TabulatedPdf)

    with pytest.raises(ValueError):
        build_family({"family": "unknown_thing"}, 1.0)
