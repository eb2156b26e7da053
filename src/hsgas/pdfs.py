"""One-body phase-space density families and their diagnostics.

Every family lives on the cube [0, box]^3 times velocity space and exposes a
vectorized ``density(r, v)``. The tabulated family reads its density and its
position marginal off tables with ``quadrature.multilinear`` and integrates
on its own grid; the five analytic families share one base.

The base is ``UniformMaxwellian``. It writes a family as the product of a
position law and a velocity law, f(r, v) = rho(r) M(r, v), and holds the
only ``density``, ``normalization`` and ``entropy`` of the analytic
families, with the uniform position law and the isotropic Maxwell velocity
law at zero mean. A family overrides only the law it changes:

* position law: ``_position_law`` (rho inside the cube), ``sample_positions``,
  ``log_position_gradient``, and its integrals on a quadrature,
  ``_position_mass`` and ``_position_entropy``;
* velocity law: ``_velocity_density``, ``sample_velocities`` and
  ``_velocity_mass``/``_velocity_entropy``. A family whose velocity law
  moves with position also sets ``uniform_velocity_law`` False, so the
  collision kernel does not share one velocity factor between positions.

Normalization is position mass times velocity mass and entropy the sum of
the two entropies; each error is the change under ``quad.coarsened()``.
Velocity-space integrals truncate at v_max thermal speeds per axis (default 6,
Gaussian tails below 1e-7).

``FAMILIES`` maps a config ``family`` tag to its factory, which is called as
``factory(box=box, **params)``. The factory's parameters other than box are
the only pdf keys the family takes (``family_keys``).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    QuadratureSpec,
    gauss_legendre,
    multilinear,
    tensor_rule,
)
from .seeding import derive_rng

_TWO_PI = 2.0 * math.pi


@dataclass
class EntropyReport:
    S: float
    quadrature_error: float
    zero_fraction: float = 0.0


@dataclass
class SmoothnessReport:
    L_rho: float
    delta: float


def _maxwell(v, mean, v_th):
    v = np.asarray(v, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if mean.ndim == 0:
        mean = np.full(3, mean)
    # componentwise: one pass per axis, no (..., 3) difference array
    w0, w1, w2 = (v[..., k] - mean[..., k] for k in range(3))
    q = w0 * w0 + w1 * w1 + w2 * w2
    return (_TWO_PI * v_th ** 2) ** -1.5 * np.exp(-0.5 * q / v_th ** 2)


def _in_box(r, box):
    """True where all three coordinates of r lie in [0, box]."""
    ok = (r >= 0) & (r <= box)
    return ok[..., 0] & ok[..., 1] & ok[..., 2]


class OneBodyPdf:
    """Interface of a one-body pdf on [0, box]^3 times velocity space.

    A family sets family_tag, box and v_th and provides density(r, v),
    position_density(r), sample_positions(count, rng),
    sample_velocities(positions, rng), sample(count, seed),
    normalization(quad) and entropy(quad). The
    defaults here are a zero drift and no analytic position gradient.
    """

    family_tag = "abstract"
    # True when the velocity law is the same at every position, so that
    # density(r, v) = position_density(r) * velocity_density(v); a fact of
    # the family's class, which no config sets
    uniform_velocity_law = False

    def drift(self, r):
        """Mean velocity at position r, broadcast to r's shape."""
        r = np.asarray(r, dtype=float)
        return np.zeros_like(r)

    def log_position_gradient(self, r, v):
        """Analytic d(ln rho)/dr, or None when only FD is available."""
        return None


def _axis_entropy(fvals, w):
    # -sum w f ln f, guarding zeros
    mask = fvals > 0.0
    out = np.zeros_like(fvals)
    out[mask] = fvals[mask] * np.log(fvals[mask])
    return -float((w * out).sum())


class UniformMaxwellian(OneBodyPdf):
    """Spatially uniform density with an isotropic Maxwell velocity law.

    The base of the analytic families: see the module docstring for the
    position-law and velocity-law hooks a family overrides.
    """

    family_tag = "uniform_maxwell"
    uniform_velocity_law = True

    def __init__(self, box: float, v_th: float = 1.0):
        self.box = float(box)
        self.v_th = float(v_th)

    # -- position law: uniform on the cube --------------------------------
    def _position_law(self, r):
        return 1.0 / self.box ** 3

    def position_density(self, r):
        r = np.asarray(r, dtype=float)
        return self._position_law(r) * _in_box(r, self.box)

    def log_position_gradient(self, r, v):
        return np.zeros_like(np.asarray(r, dtype=float))

    def sample_positions(self, count, rng):
        return rng.uniform(0.0, self.box, size=(count, 3))

    def _position_mass(self, quad):
        return 1.0

    def _position_entropy(self, quad):
        return 3.0 * math.log(self.box)

    # -- velocity law: isotropic Maxwell at zero mean ----------------------
    def _velocity_density(self, r, v):
        # a scalar mean keeps the Gaussian on v's shape, not r's
        return _maxwell(v, 0.0, self.v_th)

    def velocity_density(self, v):
        """The velocity law of a family with uniform_velocity_law."""
        return self._velocity_density(None, v)

    def sample_velocities(self, positions, rng):
        return rng.normal(scale=self.v_th, size=(len(positions), 3))

    def _axis_gaussian(self, quad):
        # per-axis Maxwell factor on the truncated interval, with GL weights
        x, w = gauss_legendre(quad.velocity_nodes, -quad.v_max * self.v_th,
                              quad.v_max * self.v_th)
        g = np.exp(-0.5 * (x / self.v_th) ** 2) / (math.sqrt(_TWO_PI) * self.v_th)
        return g, w

    def _velocity_mass(self, quad):
        g, w = self._axis_gaussian(quad)
        return float((w * g).sum()) ** 3

    def _velocity_entropy(self, quad):
        g, w = self._axis_gaussian(quad)
        # 3 independent axes: S_vel = 3 * S_axis
        return 3.0 * _axis_entropy(g, w)

    # -- the product of the two laws ---------------------------------------
    def density(self, r, v):
        return self.position_density(r) * self._velocity_density(r, v)

    def sample(self, count: int, seed: int):
        rng = derive_rng(seed, "pdf", self.family_tag)
        r = self.sample_positions(count, rng)
        return r, self.sample_velocities(r, rng)

    def normalization(self, quad: QuadratureSpec):
        def mass(q):
            return self._position_mass(q) * self._velocity_mass(q)

        val = mass(quad)
        return val, abs(val - mass(quad.coarsened())) + 1e-15

    def entropy(self, quad: QuadratureSpec) -> EntropyReport:
        def total(q):
            return self._position_entropy(q) + self._velocity_entropy(q)

        s = total(quad)
        err = abs(s - total(quad.coarsened()))
        return EntropyReport(S=s, quadrature_error=err + 1e-14)


class DriftedMaxwellian(UniformMaxwellian):
    """Uniform position density, Maxwell velocities around a drift field.

    drift(r) = u0 + shear_rate * (x - box/2) * yhat. With shear_rate = 0 this
    is the constant-drift family; a nonzero shear gives the drift a spatial
    gradient while keeping the local velocity law Maxwellian. The velocity
    integrals are taken in the local drift frame, so they do not depend on r.
    """

    family_tag = "drifted_maxwell"
    uniform_velocity_law = False  # the drift moves with x under shear

    def __init__(self, box, v_th=1.0, u0=(0.0, 0.0, 0.0), shear_rate: float = 0.0):
        super().__init__(box, v_th)
        self.u0 = np.asarray(u0, dtype=float)
        self.shear_rate = float(shear_rate)

    def drift(self, r):
        r = np.asarray(r, dtype=float)
        u = np.broadcast_to(self.u0, r.shape).copy()
        if self.shear_rate != 0.0:
            u[..., 1] = u[..., 1] + self.shear_rate * (r[..., 0] - self.box / 2.0)
        return u

    def log_position_gradient(self, r, v):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        grad = np.zeros(np.broadcast_shapes(r.shape, v.shape), dtype=float)
        if self.shear_rate != 0.0:
            w = v - self.drift(r)
            grad[..., 0] = w[..., 1] * self.shear_rate / self.v_th ** 2
        return grad

    def _velocity_density(self, r, v):
        return _maxwell(v, self.drift(r), self.v_th)

    def sample_velocities(self, positions, rng):
        return self.drift(positions) + super().sample_velocities(positions, rng)


class TiltedExponential(UniformMaxwellian):
    """Position density proportional to exp(a . r) on the cube, Maxwell velocities."""

    family_tag = "tilted_exponential"

    def __init__(self, box, tilt=(1.0, 0.0, 0.0), v_th=1.0):
        super().__init__(box, v_th)
        self.tilt = np.asarray(tilt, dtype=float)
        self._axis_norm = np.array(
            [
                (math.expm1(a * self.box) / a) if a != 0.0 else self.box
                for a in self.tilt
            ]
        )

    def _position_law(self, r):
        return np.exp((r * self.tilt).sum(axis=-1)) / self._axis_norm.prod()

    def log_position_gradient(self, r, v):
        r = np.asarray(r, dtype=float)
        return np.broadcast_to(self.tilt, r.shape).copy()

    def sample_positions(self, count, rng):
        u = rng.uniform(size=(count, 3))
        r = np.empty((count, 3))
        for i, a in enumerate(self.tilt):
            if a == 0.0:
                r[:, i] = u[:, i] * self.box
            else:
                # inverse CDF of a e^{ax}/ (e^{aL}-1) on [0, L]
                r[:, i] = np.log1p(u[:, i] * math.expm1(a * self.box)) / a
        return r

    def _axis_position_quads(self, quad):
        out = []
        for i, a in enumerate(self.tilt):
            x, w = gauss_legendre(quad.position_nodes, 0.0, self.box)
            p = np.exp(a * x) / self._axis_norm[i]
            out.append((p, w))
        return out

    def _position_mass(self, quad):
        return math.prod(float((w * p).sum())
                         for p, w in self._axis_position_quads(quad))

    def _position_entropy(self, quad):
        return sum(_axis_entropy(p, w) for p, w in self._axis_position_quads(quad))


class SinusoidalMaxwellian(UniformMaxwellian):
    """Density (1 + alpha sin(2 pi x/box + phase))/box^3 times a Maxwell law."""

    family_tag = "sinusoidal_maxwell"

    def __init__(self, box, alpha=0.2, v_th=1.0, phase: float = 0.0, axis: int = 0):
        if not 0 <= alpha < 1:
            raise ValueError("alpha must be in [0, 1) for strict positivity")
        super().__init__(box, v_th)
        self.alpha = float(alpha)
        self.phase = float(phase)
        self.axis = int(axis)

    def _profile(self, x):
        k = _TWO_PI / self.box
        return 1.0 + self.alpha * np.sin(k * x + self.phase)

    def _position_law(self, r):
        return self._profile(r[..., self.axis]) / self.box ** 3

    def log_position_gradient(self, r, v):
        r = np.asarray(r, dtype=float)
        k = _TWO_PI / self.box
        x = r[..., self.axis]
        grad = np.zeros_like(r)
        grad[..., self.axis] = self.alpha * k * np.cos(k * x + self.phase) / self._profile(x)
        return grad

    def sample_positions(self, count, rng):
        out = np.empty((count, 3))
        # rejection along the modulated axis, bound (1+alpha)
        need = count
        got = 0
        while need > 0:
            cand = rng.uniform(0.0, self.box, size=max(need * 2, 16))
            acc = rng.uniform(0.0, 1.0 + self.alpha, size=cand.size) < self._profile(cand)
            take = cand[acc][:need]
            out[got:got + take.size, self.axis] = take
            got += take.size
            need -= take.size
        other = [i for i in range(3) if i != self.axis]
        out[:, other] = rng.uniform(0.0, self.box, size=(count, 2))
        return out

    def _pos_quad(self, q):
        x, w = gauss_legendre(q.position_nodes * 4, 0.0, self.box)
        return self._profile(x) / self.box, w

    def _position_mass(self, quad):
        p, w = self._pos_quad(quad)
        return float((w * p).sum())

    def _position_entropy(self, quad):
        p, w = self._pos_quad(quad)
        # remaining two axes are uniform over box
        return _axis_entropy(p, w) + 2.0 * math.log(self.box)


class VelocityMixture(UniformMaxwellian):
    """Uniform position density with a mixture-of-Maxwellians velocity law.

    components: sequence of (weight, mean(3,), v_th). Covers two-beam and
    two-temperature inputs. v_th reported is the mass-weighted rms width.
    """

    family_tag = "velocity_mixture"

    def __init__(self, box, components):
        components = [
            (float(w), np.asarray(m, dtype=float), float(s)) for w, m, s in components
        ]
        wsum = sum(w for w, _, _ in components)
        if abs(wsum - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        super().__init__(box, v_th=math.sqrt(
            sum(w * (s ** 2 + (m * m).sum() / 3.0) for w, m, s in components)))
        self.components = components

    def _velocity_density(self, r, v):
        v = np.asarray(v, dtype=float)
        out = np.zeros(v.shape[:-1], dtype=float)
        for w, m, s in self.components:
            out = out + w * _maxwell(v, m, s)
        return out

    def drift(self, r):
        r = np.asarray(r, dtype=float)
        u = sum(w * m for w, m, _ in self.components)
        return np.broadcast_to(u, r.shape).copy()

    def sample_velocities(self, positions, rng):
        count = len(positions)
        ws = np.array([w for w, _, _ in self.components])
        idx = rng.choice(len(self.components), size=count, p=ws)
        v = np.empty((count, 3))
        for k, (w, m, s) in enumerate(self.components):
            sel = idx == k
            v[sel] = m + rng.normal(scale=s, size=(int(sel.sum()), 3))
        return v

    def _vel_grid(self, q):
        span = max(
            abs(np.abs(m).max()) + q.v_max * s for _, m, s in self.components
        )
        return tensor_rule(*gauss_legendre(q.velocity_nodes, -span, span))

    def _velocity_mass(self, quad):
        nodes, w = self._vel_grid(quad)
        return float((w * self._velocity_density(None, nodes)).sum())

    def _velocity_entropy(self, quad):
        nodes, w = self._vel_grid(quad)
        return _axis_entropy(self._velocity_density(None, nodes), w)


class TabulatedPdf(OneBodyPdf):
    """Density tabulated on a rectilinear position x velocity grid.

    density is quadrature.multilinear in all six axes, and position_density
    multilinear in a position table that the constructor builds once: the
    trapezoid sum of the table over the velocity axes. Points outside the
    grid's axes evaluate to zero. The CSV form has header
    x,y,z,vx,vy,vz,density with rows in C-order over (x, y, z, vx, vy, vz),
    vz fastest.
    """

    family_tag = "tabulated"

    def __init__(self, pos_axes, vel_axes, values, box=None, v_th=1.0):
        self.pos_axes = [np.asarray(a, dtype=float) for a in pos_axes]
        self.vel_axes = [np.asarray(a, dtype=float) for a in vel_axes]
        self.values = np.asarray(values, dtype=float)
        expected = tuple(len(a) for a in self.pos_axes + self.vel_axes)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != axes {expected}")
        if np.any(self.values < 0):
            raise ValueError("tabulated densities must be non-negative")
        self.box = float(box) if box is not None else float(self.pos_axes[0][-1])
        self.v_th = float(v_th)
        # the position marginal: a trapezoid sum over the velocity axes
        w = _trapezoid_weights_nd(self.vel_axes)
        self._position_table = (self.values * w).reshape(
            self.values.shape[:3] + (-1,)).sum(axis=-1)

    @property
    def axes(self):
        return self.pos_axes + self.vel_axes

    def density(self, r, v):
        r, v = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(v, dtype=float))
        return _on_table(self.axes, self.values,
                         np.concatenate([r, v], axis=-1))

    def position_density(self, r):
        return _on_table(self.pos_axes, self._position_table, r)

    def sample_positions(self, count, rng):
        return _cell_draws(self.axes, self.values, count, rng)[:, :3]

    def sample_velocities(self, positions, rng):
        """One velocity per position from the table at that position.

        The velocity table there is the 6-d table interpolated at the
        velocity nodes, its position clamped to the position axes.
        """
        vgrid = np.stack(np.meshgrid(*self.vel_axes, indexing="ij"), axis=-1)
        out = []
        for r in np.asarray(positions, dtype=float):
            at_r = np.concatenate([np.broadcast_to(r, vgrid.shape), vgrid],
                                  axis=-1)
            table = multilinear(self.axes, self.values, at_r)
            out.append(_cell_draws(self.vel_axes, table, 1, rng))
        return np.concatenate(out)

    def sample(self, count, seed):
        rng = derive_rng(seed, "pdf", self.family_tag)
        pts = _cell_draws(self.axes, self.values, count, rng)
        return pts[:, :3], pts[:, 3:]

    def normalization(self, quad=None):
        w = _trapezoid_weights_nd(self.axes)
        val = float((w * self.values).sum())
        # coarse estimate: every other node where possible
        if all(len(a) >= 5 for a in self.axes):
            every_other = (slice(None, None, 2),) * 6
            w2 = _trapezoid_weights_nd([a[::2] for a in self.axes])
            err = abs(val - float((w2 * self.values[every_other]).sum()))
        else:
            err = abs(val) * 1e-2
        return val, err

    def entropy(self, quad=None) -> EntropyReport:
        w = _trapezoid_weights_nd(self.axes)
        f = self.values
        mask = f > 0
        s = -float((w[mask] * f[mask] * np.log(f[mask])).sum())
        zero_fraction = 1.0 - mask.mean()
        return EntropyReport(S=s, quadrature_error=abs(s) * 1e-3,
                             zero_fraction=float(zero_fraction))

    def to_csv(self, path):
        from .runio import write_csv

        grids = np.meshgrid(*self.axes, indexing="ij")
        cols = [g.reshape(-1) for g in grids] + [self.values.reshape(-1)]
        rows = np.stack(cols, axis=-1)
        write_csv(path, ["x", "y", "z", "vx", "vy", "vz", "density"], rows)

    @classmethod
    def from_csv(cls, path, box=None, v_th=1.0):
        data = np.genfromtxt(path, delimiter=",", names=True)
        axes = [np.unique(data[k]) for k in ("x", "y", "z", "vx", "vy", "vz")]
        vals = np.asarray(data["density"], dtype=float).reshape(
            [len(a) for a in axes])
        return cls(axes[:3], axes[3:], vals, box=box, v_th=v_th)


def _on_table(axes, table, pts):
    """multilinear in the table at pts, and 0 where a point leaves the axes."""
    pts = np.asarray(pts, dtype=float)
    inside = np.ones(pts.shape[:-1], dtype=bool)
    for k, ax in enumerate(axes):
        inside &= (pts[..., k] >= ax[0]) & (pts[..., k] <= ax[-1])
    return np.where(inside, multilinear(axes, table, pts), 0.0)


def _cell_draws(axes, values, count, rng):
    """count points: a grid cell drawn by its mass, then uniform in it."""
    masses = _cell_masses(axes, values).reshape(-1)
    if not masses.sum() > 0:
        raise ValueError("the tabulated density has no mass to draw from")
    choice = rng.choice(masses.size, size=count, p=masses / masses.sum())
    cells = np.unravel_index(choice, [len(a) - 1 for a in axes])
    return np.stack([rng.uniform(ax[c], ax[c + 1])
                     for ax, c in zip(axes, cells)], axis=-1)


def _trapezoid_weights_1d(ax):
    w = np.zeros(len(ax))
    d = np.diff(ax)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


def _trapezoid_weights_nd(axes):
    return functools.reduce(np.multiply.outer,
                            [_trapezoid_weights_1d(a) for a in axes])


def _cell_masses(axes, values):
    # mean of corner values times cell volume, per cell
    acc = values
    for k, a in enumerate(axes):
        acc = 0.5 * (acc.take(range(len(a) - 1), axis=k)
                     + acc.take(range(1, len(a)), axis=k))
    return acc * functools.reduce(np.multiply.outer,
                                  [np.diff(a) for a in axes])


# ---------------------------------------------------------------------------
# module-level diagnostics


def fd_log_position_gradient(pdf, r, v):
    """Central finite difference of ln density in the position argument."""
    r = np.asarray(r, dtype=float)
    h = 1e-5 * pdf.box
    out = np.empty_like(r)
    for k in range(3):
        dr = np.zeros(3)
        dr[k] = h
        hi = pdf.density(r + dr, v)
        lo = pdf.density(r - dr, v)
        with np.errstate(divide="ignore"):
            out[..., k] = (np.log(hi) - np.log(lo)) / (2 * h)
    return out


def scale_length(pdf: OneBodyPdf, probes: int, seed: int,
                 model=None) -> SmoothnessReport:
    """Probe-maximization estimate of the density's spatial scale length.

    L_rho is the reciprocal of the largest |grad ln rho| seen over probe
    points drawn half from the pdf itself and half from a uniform grid; it is
    a declared approximation of the infimum over all of phase space. Gradient-
    free densities report an unbounded scale (inf) and delta = 0.
    """
    n_samp = probes // 2
    r_s, v_s = pdf.sample(max(n_samp, 1), seed)
    m = max(2, int(round((probes - n_samp) ** (1.0 / 3.0))))
    ax = (np.arange(m) + 0.5) / m * pdf.box
    r_g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    v_g = np.broadcast_to(pdf.drift(r_g), r_g.shape).copy()
    r_all = np.concatenate([r_s, r_g], axis=0)
    v_all = np.concatenate([v_s, v_g], axis=0)

    g = pdf.log_position_gradient(r_all, v_all)
    if g is None:
        g = np.stack(
            [fd_log_position_gradient(pdf, r, v) for r, v in zip(r_all, v_all)]
        )
    mag = np.linalg.norm(np.asarray(g, dtype=float), axis=-1)
    mag = mag[np.isfinite(mag)]
    g_max = float(mag.max()) if mag.size else 0.0
    L_now = math.inf if g_max == 0.0 else 1.0 / g_max
    sigma = model.sigma if model is not None else 0.0
    delta = 0.0 if math.isinf(L_now) else sigma / L_now
    return SmoothnessReport(L_rho=L_now, delta=delta)


# ---------------------------------------------------------------------------
# the family registry: the only list of families and of their config keys


FAMILIES = {
    **{cls.family_tag: cls for cls in (UniformMaxwellian, DriftedMaxwellian,
                                       TiltedExponential, SinusoidalMaxwellian,
                                       VelocityMixture)},
    TabulatedPdf.family_tag: TabulatedPdf.from_csv,
}


def family_keys(family: str):
    """(keys, required keys) of a family: its factory's parameters but box."""
    params = inspect.signature(FAMILIES[family]).parameters
    keys = tuple(k for k in params if k != "box")
    return keys, tuple(k for k in keys
                       if params[k].default is inspect.Parameter.empty)


def build_family(spec: dict, box: float) -> OneBodyPdf:
    """Construct a pdf family from a config dictionary."""
    params = dict(spec)
    family = params.pop("family", None)
    if family not in FAMILIES:
        raise ValueError(f"unknown pdf family {family!r}")
    return FAMILIES[family](box=box, **params)
