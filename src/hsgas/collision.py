"""Binary hard-sphere collision operators on one-body densities.

Two flavors share one kernel (FLAVORS):

* local operator ("boltzmann"): both colliding spheres are evaluated at the
  same position r1, prefactor N sigma^2.
* contact operator ("master"): the partner sits on the contact sphere
  r2 = r1 + sigma e, the prefactor is (N-1) sigma^2, and the two-body density
  at contact is k2 rho_hat(r1, v1) rho_hat(r2, v2), with the
  occupation-stripped density rho_hat = p theta_w / Z1 (see
  occupation.hat_normalization). k2 is ContactOccupancy.k2_contact(r1, e),
  the only contact-sphere factor: the partner is always at exact contact,
  so its lens term is the constant CONTACT_LENS. Its mode selects the pair
  form ("product" is k1(r1) k1(r2)). It reads k1 at r2 and at the midpoint
  on the contact sphere about the one r1 (OccupationField.interp_on_sphere):
  a polynomial in e's components per block, within roundoff of interp at
  the points, with no per-point cell lookup.

The angular rule is aligned with the relative velocity: contact directions
e = u ghat + sqrt(1-u^2)(cos phi e1 + sin phi e2) with u in [0, 1], so the
flux factor |g . e| = |g| u is polynomial on the rule and the incoming
hemisphere is resolved exactly (no indicator kink). Under the elastic map
v1' = v1 - (g.e)e, v2' = v2 + (g.e)e the same rule covers gain and loss.

The deterministic kernel evaluates a tuple of flavors in one pass. It walks
the v2 grid in chunks of _V2_CHUNK nodes and, inside each chunk, evaluates a
block of v1 values per numpy pass, sized to a fixed budget of _BLOCK_POINTS
(v1, v2, angle) points. Each block builds the geometry once
(_ContactGeometry): the relative velocities g and their frames, the contact
directions e, the flux |g| u, v1' and v2'. It is component-major: each
component of g and of the frames is one (rows, v2) array, and each component
of e, v1' and v2' one (rows, v2, angle) array, so numpy runs every operation
on long arrays rather than over an inner axis of length 3. e, v1' and v2'
fill buffers made once per chunk, and reach pdf.density, k2_contact and
wall_theta as (..., 3) views whose components are contiguous. The block
adds the quadrature-weighted flux and p(r1, v1'), and each flavor only its
own factors: boltzmann p(r1, v2') and p(r1, v2); master k2 at contact,
theta_w(r2) and rho_hat at r2. p(r1, v2), one value per v2 node, is
broadcast over the angles once per chunk, so that no product runs a short
inner loop. Factors two partners share are evaluated once:

* a family whose density is the same at every position in the box
  (pdf.position_free_density: uniform_maxwell and velocity_mixture) gives
  the master the local flavor's partner factors p(r1, v2') per block and
  p(r1, v2) per chunk, at every r1, computed once for both flavors. Where
  r2 is open it lies in the box, so p(r2, v) is p(r1, v) to the bit; where
  it is closed theta_w(r2) = 0 zeroes both products. Any other family
  evaluates pdf.density at each contact point r2;
* theta_w(r2) is skipped when r1's sigma-ball clears the sigma/2 wall layer
  on every face, where it is 1 on the whole contact sphere (so for every
  bg.bulk_phase_probes probe, which keep 1.5 sigma from the faces), and so
  is theta_w(r1) where it is 1: a mask that is all true multiplies nothing.
  r2 is built only where that mask or the partner density needs it.

The geometry performs the operations of the (..., 3) broadcast
u ghat + sqrt(1-u^2)(cos phi e1 + sin phi e2) in the same order, one
component at a time, so every element keeps that formula's bits. Each
shared factor enters the same products as before, so every value keeps
the bits of pdf.density and wall_theta at its own point. Every product keeps
the operand order of a one-flavor pass, so a flavor's result does not depend
on which others share the pass. Every v1 row is summed over its own
(v2, angle) points in the same order as a lone v1, and the chunks are added
in grid order, so the result for a v1 does not depend on which others share
its batch either.

That independence makes a batch of more than one block of rows (a moment
audit; never operator_scan's one-row calls) exact on two cores:
_kernel_batch hands its blocks to runio.split_work, which runs half of them
in one forked child and returns the same bytes as one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import wall_theta
from .occupation import ContactOccupancy, hat_normalization
from .quadrature import (QuadratureSpec, hemisphere_rule, orthonormal_frames,
                         row_norm, tensor_rule, velocity_grid)
from .runio import split_work
from .seeding import derive_rng


def elastic_map(v1, v2, n):
    """Post-collisional velocities for contact normal n (unit, batched)."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n = np.asarray(n, dtype=float)
    s = ((v1 - v2) * n).sum(axis=-1, keepdims=True)
    return v1 - s * n, v2 + s * n


@dataclass
class OperatorValue:
    value: float
    error: float
    gain: float
    loss: float


FLAVORS = ("master", "boltzmann")
_V2_CHUNK = 2048
_BLOCK_POINTS = 1 << 16  # kernel points (v1, v2, angle) per numpy pass


def _master_z1(model, pdf, quad, flavors, pair_occ):
    """Z1 behind the master flavor's rho_hat (None without the master flavor).

    Also rejects a flavor tuple naming anything outside FLAVORS.
    """
    if any(fl not in FLAVORS for fl in flavors):
        raise ValueError(f"flavors must be a tuple drawn from {FLAVORS}, "
                         f"got {flavors!r}")
    if "master" not in flavors:
        return None
    if pair_occ is None:
        raise ValueError("master flavor needs a ContactOccupancy")
    return hat_normalization(model, pdf, pair_occ.k1_field,
                             quad.position_nodes)


def _prefactor(model, flavor):
    """(N-1) sigma^2 for the contact operator, N sigma^2 for the local one."""
    n_part = model.n - 1 if flavor == "master" else model.n
    return n_part * model.sigma ** 2


def _rho_hat(density, is_open, z1):
    """Occupation-stripped one-body density p theta_w / Z1 from p.

    is_open is wall_theta(r) > 0 at the position p was evaluated at, or True
    where that holds at every such position, which skips the mask.
    """
    if is_open is not True:
        density = density * is_open
    return density / z1


def _ball_is_open(r1, model):
    """True when wall_theta is 1 at every r1 + sigma e with |e| = 1.

    The sigma-ball around r1 then keeps more than sigma/2 from every face;
    a pad of 1e-12 box covers the rounding of r1 + sigma e.
    """
    near = np.minimum(r1, model.box - r1).min()
    return bool(near > 1.5 * model.sigma + 1e-12 * model.box)


def _block_rows(points_per_row):
    """v1 rows per numpy pass when each row holds points_per_row points."""
    return max(1, _BLOCK_POINTS // points_per_row)


def _kernel_batch(model, pdf, r1, V1, quad, flavors, pair_occ=None, z1=None):
    """Gain and loss of each flavor at r1 for a batch of v1 values.

    The master flavor needs z1 from _master_z1. Returns {flavor: (gain,
    loss)} with arrays of shape (len(V1),), each entry bitwise independent
    of the rest of the batch and of the other flavors. A batch of more than
    one block of rows splits its blocks between two processes (see the
    module docstring).
    """
    V1 = np.atleast_2d(np.asarray(V1, dtype=float))
    n_ang = hemisphere_rule(quad.angle_nodes)[4]
    block = _block_rows(min(_V2_CHUNK, quad.velocity_nodes ** 3) * n_ang)
    n_blocks = -(-V1.shape[0] // block)

    def work(lo, hi, gather):
        parts = gather(_kernel_rows(model, pdf, r1, V1[lo * block:hi * block],
                                    quad, flavors, pair_occ, z1))
        return {fl: tuple(np.concatenate([p[fl][k] for p in parts])
                          for k in (0, 1)) for fl in parts[0]}

    return split_work(n_blocks, work, "collision._kernel_batch")


class _ContactGeometry:
    """The geometry both flavors share, for the blocks of one v2 chunk.

    Made once per chunk from its nodes v2 (m2, 3), hemisphere_rule's tuple
    and the most v1 rows a block holds. block(v1) returns e, the flux
    |g| u = g.e, v1' and v2' at the (v1, v2, angle) points of the rows v1
    (nb, 3): e, v1' and v2' as (nb, m2, angle, 3) views of component-major
    (3, nb, m2, angle) buffers, which the next block overwrites.
    """

    def __init__(self, v2, rule, rows):
        u, _, phi, _, n_ang = rule
        self.u, self.cos, self.sin = u, np.cos(phi), np.sin(phi)
        self.su = np.sqrt(np.clip(1.0 - u ** 2, 0.0, 1.0))
        self.u_ang = np.repeat(u, len(phi))
        self.v2 = np.ascontiguousarray(v2.T)  # (3, m2)
        # v2 over the angles, so that v2' runs one long inner loop
        self.v2_ang = np.repeat(self.v2, n_ang, axis=1).reshape(3, -1, n_ang)
        size = rows * self.v2_ang[0].size
        self._buf = {name: np.empty(3 * size)
                     for name in ("e", "v1p", "v2p")}
        self._buf.update(flux=np.empty(size), gdote=np.empty(size))

    def _view(self, name, shape):
        return self._buf[name][:math.prod(shape)].reshape(shape)

    def block(self, v1):
        """(e, flux, v1', v2') of the rows v1 (nb, 3); see the class."""
        nb, (_, m2, n_ang) = v1.shape[0], self.v2_ang.shape
        g = np.empty((3, nb, m2))
        for k in range(3):
            np.subtract(v1[:, k, None], self.v2[k], out=g[k])
        rows_g = np.moveaxis(g, 0, -1)
        ghat, e1, e2 = (np.moveaxis(a, -1, 0)
                        for a in orthonormal_frames(rows_g))
        # e = u ghat + su (cos phi e1 + sin phi e2) in the broadcast's order
        # of operations, so with its bits; g.e = |g| u >= 0
        e = self._view("e", (3, nb, m2, n_ang))
        rim = [c * e1 + s * e2 for c, s in zip(self.cos, self.sin)]
        tmp = np.empty_like(g)
        n_phi = len(rim)
        for a, (u, su) in enumerate(zip(self.u, self.su)):
            ug = u * ghat
            for b, rim_b in enumerate(rim):
                np.multiply(su, rim_b, out=tmp)
                np.add(ug, tmp, out=e[..., a * n_phi + b])
        norm = row_norm(rows_g)
        flux = np.multiply(norm[..., None], self.u_ang,
                           out=self._view("flux", (nb, m2, n_ang)))
        gdote = self._view("gdote", (nb, m2, n_ang))
        v1p = self._view("v1p", (3, nb, m2, n_ang))
        v2p = self._view("v2p", (3, nb, m2, n_ang))
        for k in range(3):
            np.multiply(flux, e[k], out=gdote)
            np.subtract(v1[:, k, None, None], gdote, out=v1p[k])
            np.add(self.v2_ang[k], gdote, out=v2p[k])
        return (np.moveaxis(e, 0, -1), flux, np.moveaxis(v1p, 0, -1),
                np.moveaxis(v2p, 0, -1))


def _kernel_rows(model, pdf, r1, V1, quad, flavors, pair_occ, z1):
    """_kernel_batch's rows in this process, one block of rows per pass."""
    r1 = np.asarray(r1, dtype=float)
    master, local = "master" in flavors, "boltzmann" in flavors
    sigma = model.sigma
    drift = pdf.drift(r1)
    V2, W2 = velocity_grid(quad, pdf.v_th, center=drift)
    rule = hemisphere_rule(quad.angle_nodes)
    _, wu, _, wphi, n_ang = rule
    w_ang = (wu[:, None] * wphi).reshape(-1)
    f1 = pdf.density(r1, V1)
    f1_loss = {"boltzmann": f1}
    # the master takes the partner factors at r1 (see the module docstring)
    shared = master and pdf.position_free_density
    at_r1 = local or shared
    if master:
        open1 = bool(wall_theta(r1, model) > 0)
        f1_loss["master"] = _rho_hat(f1, open1, z1)
        ball_open = _ball_is_open(r1, model)

    sums = {fl: (np.zeros(V1.shape[0]), np.zeros(V1.shape[0]))
            for fl in flavors}

    def add(flavor, rows, base, f1_gain, part_gain, part_loss):
        gain, loss = sums[flavor]
        nb = base.shape[0]
        gain[rows] += (base * f1_gain * part_gain).reshape(nb, -1).sum(1)
        loss[rows] += (base * f1_loss[flavor][rows, None, None]
                       * part_loss).reshape(nb, -1).sum(1)

    for lo in range(0, V2.shape[0], _V2_CHUNK):
        v2 = V2[lo:lo + _V2_CHUNK]
        w2_ang = W2[lo:lo + _V2_CHUNK, None] * w_ang
        if at_r1:
            # over the angles too, so that no product runs a short inner loop
            part_loss_r1 = np.repeat(pdf.density(r1, v2[:, None, :]), n_ang,
                                     axis=1)
        block = _block_rows(w2_ang.size)
        geometry = _ContactGeometry(v2, rule, min(block, V1.shape[0]))
        for b0 in range(0, V1.shape[0], block):
            rows = slice(b0, b0 + block)
            e, flux, v1p, v2p = geometry.block(V1[rows])
            base = w2_ang * flux
            f1p = pdf.density(r1, v1p)
            if at_r1:
                part_gain_r1 = pdf.density(r1, v2p)
            if master:
                # rho_2 at contact = k2 rho_hat(r1) rho_hat(r2)
                if not (shared and ball_open):
                    r2 = r1 + sigma * e
                open2 = True if ball_open else wall_theta(r2, model) > 0
                partners = ((part_gain_r1, part_loss_r1) if shared else
                            (pdf.density(r2, v2p),
                             pdf.density(r2, v2[:, None, :])))
                part_gain, part_loss = (_rho_hat(p, open2, z1)
                                        for p in partners)
                add("master", rows, base * pair_occ.k2_contact(r1, e),
                    _rho_hat(f1p, open1, z1), part_gain, part_loss)
            if local:
                add("boltzmann", rows, base, f1p, part_gain_r1,
                    part_loss_r1)
    return {fl: (_prefactor(model, fl) * gain, _prefactor(model, fl) * loss)
            for fl, (gain, loss) in sums.items()}


def _kernel_mc(model, pdf, r1, v1, quad, flavor, pair_occ=None, z1=None):
    """Monte Carlo estimate: v2 from the local Maxwell law, e uniform."""
    r1 = np.asarray(r1, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    sigma = model.sigma
    samples = quad.velocity_nodes ** 3
    rng = derive_rng(quad.seed, "collision", flavor, "mc")
    drift = pdf.drift(r1)
    v_th = pdf.v_th
    v2 = drift + rng.normal(scale=v_th, size=(samples, 3))
    q = (2 * math.pi * v_th ** 2) ** -1.5 * np.exp(
        -0.5 * ((v2 - drift) ** 2).sum(axis=1) / v_th ** 2)
    e = rng.normal(size=(samples, 3))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    g = v1 - v2
    proj = (g * e).sum(axis=1)
    e[proj < 0] *= -1.0          # fold onto the incoming hemisphere
    proj = np.abs(proj)
    v1p, v2p = elastic_map(np.broadcast_to(v1, v2.shape), v2, e)
    if flavor == "master":
        r2 = r1 + sigma * e
        k2 = pair_occ.k2_contact(r1, e)
        open1 = wall_theta(r1, model) > 0
        open2 = wall_theta(r2, model) > 0
        gains = (k2 * _rho_hat(pdf.density(r1, v1p), open1, z1)
                 * _rho_hat(pdf.density(r2, v2p), open2, z1))
        losses = (k2 * float(_rho_hat(pdf.density(r1, v1), open1, z1))
                  * _rho_hat(pdf.density(r2, v2), open2, z1))
    else:
        gains = pdf.density(r1, v1p) * pdf.density(r1, v2p)
        losses = float(pdf.density(r1, v1)) * pdf.density(r1, v2)
    # 2 pi per hemisphere times 2 for folding the full sphere
    w = _prefactor(model, flavor) * 4.0 * math.pi * 0.5 * proj / q
    gain_s = w * gains
    loss_s = w * losses
    val_s = gain_s - loss_s
    value = float(val_s.mean())
    error = float(val_s.std(ddof=1) / math.sqrt(samples))
    return OperatorValue(value=value, error=error, gain=float(gain_s.mean()),
                         loss=float(loss_s.mean()))


def _operator(model, pdf, r1, v1, quad, flavors, pair_occ=None,
              z1=None) -> dict:
    """{flavor: OperatorValue} at one phase point (r1, v1)."""
    if quad.mode == "mc":
        return {fl: _kernel_mc(model, pdf, r1, v1, quad, fl, pair_occ, z1)
                for fl in flavors}
    fine = _kernel_batch(model, pdf, r1, [v1], quad, flavors, pair_occ, z1)
    coarse = _kernel_batch(model, pdf, r1, [v1], quad.coarsened(), flavors,
                           pair_occ, z1)
    out = {}
    for fl, (gain, loss) in fine.items():
        g_c, l_c = coarse[fl]
        value = float(gain[0] - loss[0])
        floor = 1e-13 * (abs(gain[0]) + abs(loss[0]))
        error = abs(value - float(g_c[0] - l_c[0])) + floor
        out[fl] = OperatorValue(value=value, error=error, gain=float(gain[0]),
                                loss=float(loss[0]))
    return out


def boltzmann_op(model, pdf, r1, v1, quad: QuadratureSpec) -> OperatorValue:
    """Local binary collision operator at phase point (r1, v1).

    The elastic map and the flux factor are both even under e -> -e, so one
    hemisphere of contact directions covers both conventions.
    """
    return _operator(model, pdf, r1, v1, quad, ("boltzmann",))["boltzmann"]


def master_op(model, pdf, r1, v1, quad: QuadratureSpec,
              pair_occ: ContactOccupancy) -> OperatorValue:
    """Contact-sphere collision operator with occupation weights.

    Integrates over the incoming hemisphere (closing pairs), the causal
    convention for the contact form; pair_occ supplies k2 at contact (its
    mode selects the pair form) and the one-point field behind Z1.
    """
    z1 = _master_z1(model, pdf, quad, ("master",), pair_occ)
    return _operator(model, pdf, r1, v1, quad, ("master",),
                     pair_occ=pair_occ, z1=z1)["master"]


MOMENT_WEIGHTS = ("mass", "momentum_x", "momentum_y", "momentum_z", "energy")


def _moment_values(V):
    return {
        "mass": np.ones(V.shape[0]),
        "momentum_x": V[:, 0],
        "momentum_y": V[:, 1],
        "momentum_z": V[:, 2],
        "energy": (V ** 2).sum(axis=1),
    }


@dataclass
class MomentAudit:
    residuals: dict          # weight name -> signed residual
    scales: dict             # weight name -> |phi|-weighted loss scale

    def worst_relative(self) -> float:
        return max(abs(self.residuals[k]) / self.scales[k]
                   for k in self.residuals)


def _hermite_velocity_grid(nodes: int, scale: float, center):
    """Weight-stripped Gauss-Hermite tensor grid over R^3.

    Exact for Gaussian-envelope integrands without any truncation cutoff;
    nodes stay modest because there is no v_max box to cover. Weights
    include the exp(+x^2) strip so plain integrand values are summed.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = math.sqrt(2.0) * scale * x
    wts = w * np.exp(x ** 2) * math.sqrt(2.0) * scale
    V, W = tensor_rule(pts, wts)
    return V + np.asarray(center, float), W


def moment_audit(model, pdf, r1, quad: QuadratureSpec, flavors,
                 pair_occ=None, outer_nodes: int | None = None) -> dict:
    """Collision-invariant residuals of the implemented operators.

    Returns {flavor: MomentAudit} for each flavor of the tuple flavors, all
    from one kernel pass (pair_occ is needed for "master").

    Integrates the discrete operator itself over an outer velocity grid (no
    analytic symmetrization, which would cancel identically for any density)
    against 1, v, |v|^2. Scales are L_phi = sum |phi| * loss so the residuals
    are dimensionless when divided by them.

    outer_nodes sets the moment rule's per-axis node count independently of
    the operator's own quadrature. The outer rule is Gauss-Hermite (scaled
    a bit wide of pdf.v_th so hot mixture components stay inside its
    envelope): the operator is smooth and Gaussian-enveloped in v1, so the
    moment rule converges at far fewer nodes than the inner kernel grid and
    carries no truncation cutoff. Default count: quad.velocity_nodes.
    """
    drift = pdf.drift(np.asarray(r1, float))
    n_outer = quad.velocity_nodes if outer_nodes is None else int(outer_nodes)
    V1, W1 = _hermite_velocity_grid(n_outer, 1.3 * pdf.v_th, drift)
    z1 = _master_z1(model, pdf, quad, flavors, pair_occ)
    phis = _moment_values(V1)
    audits = {}
    for fl, (gain, loss) in _kernel_batch(model, pdf, r1, V1, quad, flavors,
                                          pair_occ, z1=z1).items():
        cval = gain - loss
        residuals = {}
        scales = {}
        for name, phi in phis.items():
            residuals[name] = float((W1 * phi * cval).sum())
            scales[name] = max(float((W1 * np.abs(phi) * loss).sum()), 1e-300)
        audits[fl] = MomentAudit(residuals=residuals, scales=scales)
    return audits


def operator_scan(model, pdf, probes, quad, flavors, pair_occ=None):
    """Evaluate the operators of the tuple flavors on (r1, v1) probes.

    Returns {flavor: rows}, one row [x, y, z, vx, vy, vz, C_value, C_error,
    gain, loss] per probe; each probe is one kernel pass for all flavors.
    """
    z1 = _master_z1(model, pdf, quad, flavors, pair_occ)
    rows = {fl: [] for fl in flavors}
    for r1, v1 in probes:
        point = list(np.asarray(r1, float)) + list(np.asarray(v1, float))
        values = _operator(model, pdf, r1, v1, quad, flavors, pair_occ, z1=z1)
        for fl, val in values.items():
            rows[fl].append(point + [val.value, val.error, val.gain,
                                     val.loss])
    return rows
