"""One-body phase-space density families.

Every family lives on the cube [0, box]^3 times velocity space and exposes a
vectorized ``density(r, v)``. The tabulated family reads its density and its
position marginal off tables with ``quadrature.multilinear``; the five
analytic families share one base.

The base is ``UniformMaxwellian``. It writes a family as the product of a
position law and a velocity law, f(r, v) = rho(r) M(r, v), and holds the
only ``density`` of the analytic families, with the uniform position law and
the isotropic Maxwell velocity law at zero mean. A family overrides only the
law it changes:

* position law: ``_position_law`` (rho inside the cube) and
  ``sample_positions``;
* velocity law: ``_velocity_density`` and ``sample_velocities``.

A family that changes either law so that the density moves with position
also sets ``position_free_density`` False, so the collision kernel does not
take the partner factors at r1 for those at the contact point.

``FAMILIES`` maps a config ``family`` tag to its factory, which is called as
``factory(box=box, **params)``. The factory's parameters other than box are
the only pdf keys the family takes (``family_keys``).
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from .quadrature import corner_offsets, corner_weights, multilinear

_TWO_PI = 2.0 * math.pi


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
    position_density(r), sample_positions(count, rng) and
    sample_velocities(positions, rng). The default here is a zero drift.
    """

    family_tag = "abstract"
    # True when density(r, v) is the same, bit for bit, at every r inside
    # the box; a fact of the family's class, which no config sets
    position_free_density = False

    def drift(self, r):
        """Mean velocity at position r, broadcast to r's shape."""
        r = np.asarray(r, dtype=float)
        return np.zeros_like(r)


class UniformMaxwellian(OneBodyPdf):
    """Spatially uniform density with an isotropic Maxwell velocity law.

    The base of the analytic families: see the module docstring for the
    position-law and velocity-law hooks a family overrides.
    """

    family_tag = "uniform_maxwell"
    position_free_density = True

    def __init__(self, box: float, v_th: float = 1.0):
        self.box = float(box)
        self.v_th = float(v_th)

    # -- position law: uniform on the cube --------------------------------
    def _position_law(self, r):
        return 1.0 / self.box ** 3

    def position_density(self, r):
        r = np.asarray(r, dtype=float)
        return self._position_law(r) * _in_box(r, self.box)

    def sample_positions(self, count, rng):
        return rng.uniform(0.0, self.box, size=(count, 3))

    # -- velocity law: isotropic Maxwell at zero mean ----------------------
    def _velocity_density(self, r, v):
        # a scalar mean keeps the Gaussian on v's shape, not r's
        return _maxwell(v, 0.0, self.v_th)

    def sample_velocities(self, positions, rng):
        return rng.normal(scale=self.v_th, size=(len(positions), 3))

    # -- the product of the two laws ---------------------------------------
    def density(self, r, v):
        return self.position_density(r) * self._velocity_density(r, v)


class DriftedMaxwellian(UniformMaxwellian):
    """Uniform position density, Maxwell velocities around a drift field.

    drift(r) = u0 + shear_rate * (x - box/2) * yhat. With shear_rate = 0 this
    is the constant-drift family; a nonzero shear gives the drift a spatial
    gradient while keeping the local velocity law Maxwellian.
    """

    family_tag = "drifted_maxwell"
    position_free_density = False  # the drift moves with x under shear

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

    def _velocity_density(self, r, v):
        return _maxwell(v, self.drift(r), self.v_th)

    def sample_velocities(self, positions, rng):
        return self.drift(positions) + super().sample_velocities(positions, rng)


class TiltedExponential(UniformMaxwellian):
    """Position density proportional to exp(a . r) on the cube, Maxwell velocities."""

    family_tag = "tilted_exponential"
    position_free_density = False

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


class SinusoidalMaxwellian(UniformMaxwellian):
    """Density (1 + alpha sin(2 pi x/box + phase))/box^3 times a Maxwell law."""

    family_tag = "sinusoidal_maxwell"
    position_free_density = False

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
        velocity nodes, its position clamped to the position axes. At a
        velocity node the 6-d rule's weights on the velocity axes are
        exactly 0 or 1, so it reduces, corner for corner, to the 3-d rule in
        position: the same weights in the same order, with exact zeros in
        between. So the table is interpolated in position once per draw,
        with every bit of the 6-d rule.
        """
        vel_shape = self.values.shape[3:]
        rows = self.values.reshape(-1, math.prod(vel_shape))
        offsets = corner_offsets(self.pos_axes)
        out = []
        for r in np.asarray(positions, dtype=float):
            cell, weights = corner_weights(self.pos_axes, r[None, :])
            table = np.zeros(rows.shape[1])
            for w, off in zip(weights, offsets):
                table += w * rows[off + cell]
            out.append(_cell_draws(self.vel_axes, table.reshape(vel_shape),
                                   1, rng))
        return np.concatenate(out)

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
