"""Binary hard-sphere collision operators on one-body densities.

Two flavors share one kernel:

* local operator ("boltzmann"): both colliding spheres are evaluated at the
  same position r1, prefactor N sigma^2.
* contact operator ("master"): the partner sits on the contact sphere
  r2 = r1 + sigma e, the prefactor is (N-1) sigma^2, and the two-body density
  at contact is k2(r1, r2) rho_hat(r1, v1) rho_hat(r2, v2), with the
  occupation-stripped density rho_hat = p theta_w / Z1 (see
  occupation.hat_normalization). k2 from ContactOccupancy is the only
  contact-sphere factor; its mode selects the pair form ("product" is
  k1(r1) k1(r2)).

The angular rule is aligned with the relative velocity: contact directions
e = u ghat + sqrt(1-u^2)(cos phi e1 + sin phi e2) with u in [0, 1], so the
flux factor |g . e| = |g| u is polynomial on the rule and the incoming
hemisphere is resolved exactly (no indicator kink). Under the elastic map
v1' = v1 - (g.e)e, v2' = v2 + (g.e)e the same rule covers gain and loss.

The deterministic kernel walks the v2 grid in chunks of _V2_CHUNK nodes and,
inside each chunk, evaluates a block of v1 values per numpy pass, sized to a
fixed budget of _BLOCK_POINTS (v1, v2, angle) points. Every v1 row is summed
over its own (v2, angle) points in the same order as a lone v1, and the
chunks are added in grid order, so the result for a v1 does not depend on
which others share its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import wall_theta
from .occupation import ContactOccupancy, hat_normalization
from .quadrature import (QuadratureSpec, hemisphere_rule, orthonormal_frames,
                         row_norm, tensor_rule, velocity_grid)
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
    details: dict = dataclass_field(default_factory=dict)


_V2_CHUNK = 2048
_BLOCK_POINTS = 1 << 16  # kernel points (v1, v2, angle) per numpy pass


def _master_z1(model, pdf, quad, flavor, pair_occ):
    """Z1 behind the master flavor's rho_hat (None for the local flavor)."""
    if flavor == "boltzmann":
        return None
    if flavor != "master":
        raise ValueError(f"unknown flavor {flavor!r}")
    if pair_occ is None:
        raise ValueError("master flavor needs a ContactOccupancy")
    return hat_normalization(model, pdf, pair_occ.k1_field,
                             quad.position_nodes)


def _rho_hat(pdf, r, v, is_open, z1):
    """Occupation-stripped one-body density p theta_w / Z1.

    is_open is wall_theta(r) > 0, passed in so that one evaluation at r
    serves several velocity arguments.
    """
    return pdf.density(r, v) * is_open / z1


def _kernel_batch(model, pdf, r1, V1, quad, flavor, pair_occ=None,
                  rule_variant=(0, 0.0), z1=None):
    """Gain and loss of the chosen operator at r1 for a batch of v1 values.

    The master flavor needs z1 from _master_z1. Returns (gain, loss) arrays
    of shape (len(V1),), each entry bitwise independent of the rest of the
    batch (see the module docstring for the blocking).
    """
    r1 = np.asarray(r1, dtype=float)
    V1 = np.atleast_2d(np.asarray(V1, dtype=float))
    master = flavor == "master"
    n_part, sigma = model.n, model.sigma
    prefactor = ((n_part - 1) if master else n_part) * sigma ** 2

    drift = pdf.drift(r1)
    V2, W2 = velocity_grid(quad, pdf.v_th, center=drift)
    u_nodes, wu, phi, wphi, _ = hemisphere_rule(
        quad.angle_nodes, u_order_bump=rule_variant[0],
        phi_offset=rule_variant[1])
    cosphi, sinphi = np.cos(phi), np.sin(phi)
    su = np.sqrt(np.clip(1.0 - u_nodes ** 2, 0.0, 1.0))
    w_ang = (wu[:, None] * wphi).reshape(-1)
    u_ang = np.repeat(u_nodes, len(phi))
    if master:
        open1 = wall_theta(r1, model) > 0
        f1_loss = _rho_hat(pdf, r1, V1, open1, z1)
    else:
        f1_loss = pdf.density(r1, V1)

    gain = np.zeros(V1.shape[0])
    loss = np.zeros(V1.shape[0])
    for lo in range(0, V2.shape[0], _V2_CHUNK):
        v2 = V2[lo:lo + _V2_CHUNK]
        m2 = v2.shape[0]
        w2_ang = W2[lo:lo + _V2_CHUNK, None] * w_ang
        if not master:
            part_loss = pdf.density(r1, v2[:, None, :])
        block = max(1, _BLOCK_POINTS // w2_ang.size)
        for b0 in range(0, V1.shape[0], block):
            v1 = V1[b0:b0 + block]
            nb = v1.shape[0]
            g = v1[:, None, :] - v2
            ghat, e1, e2 = orthonormal_frames(g)
            # contact directions per (v1, v2, angle); e has g.e = |g| u >= 0
            e = (u_nodes[:, None, None] * ghat[..., None, None, :]
                 + su[:, None, None]
                 * (cosphi[:, None] * e1[..., None, None, :]
                    + sinphi[:, None] * e2[..., None, None, :]))
            e = e.reshape(nb, m2, -1, 3)
            flux = row_norm(g)[..., None] * u_ang
            gdote = flux[..., None] * e
            v1p = v1[:, None, None, :] - gdote
            v2p = v2[:, None, :] + gdote
            base = w2_ang * flux
            if master:
                # rho_2 at contact = k2(r1, r2) rho_hat(r1) rho_hat(r2)
                r2 = r1 + sigma * e
                base = base * pair_occ.k2(r1, r2)
                open2 = wall_theta(r2, model) > 0
                f1_gain = _rho_hat(pdf, r1, v1p, open1, z1)
                part_gain = _rho_hat(pdf, r2, v2p, open2, z1)
                part_loss = _rho_hat(pdf, r2, v2[:, None, :], open2, z1)
            else:
                f1_gain = pdf.density(r1, v1p)
                part_gain = pdf.density(r1, v2p)
            rows = slice(b0, b0 + nb)
            gain[rows] += (base * f1_gain * part_gain).reshape(nb, -1).sum(1)
            loss[rows] += (base * f1_loss[rows, None, None]
                           * part_loss).reshape(nb, -1).sum(1)
    return prefactor * gain, prefactor * loss


def _kernel_mc(model, pdf, r1, v1, quad, flavor, pair_occ=None, z1=None):
    """Monte Carlo estimate: v2 from the local Maxwell law, e uniform."""
    r1 = np.asarray(r1, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    n_part, sigma = model.n, model.sigma
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
        prefactor = (n_part - 1) * sigma ** 2
        r2 = r1 + sigma * e
        k2 = pair_occ.k2(r1, r2)
        open1 = wall_theta(r1, model) > 0
        open2 = wall_theta(r2, model) > 0
        gains = (k2 * _rho_hat(pdf, r1, v1p, open1, z1)
                 * _rho_hat(pdf, r2, v2p, open2, z1))
        losses = (k2 * float(_rho_hat(pdf, r1, v1, open1, z1))
                  * _rho_hat(pdf, r2, v2, open2, z1))
    else:
        prefactor = n_part * sigma ** 2
        gains = pdf.density(r1, v1p) * pdf.density(r1, v2p)
        losses = float(pdf.density(r1, v1)) * pdf.density(r1, v2)
    # 2 pi per hemisphere times 2 for folding the full sphere
    w = prefactor * 4.0 * math.pi * 0.5 * proj / q
    gain_s = w * gains
    loss_s = w * losses
    val_s = gain_s - loss_s
    value = float(val_s.mean())
    error = float(val_s.std(ddof=1) / math.sqrt(samples))
    return value, error, float(gain_s.mean()), float(loss_s.mean())


def _operator(model, pdf, r1, v1, quad, flavor, pair_occ=None,
              rule_variant=(0, 0.0), z1=None) -> OperatorValue:
    if quad.mode == "mc":
        value, error, gain, loss = _kernel_mc(
            model, pdf, r1, v1, quad, flavor, pair_occ, z1)
        return OperatorValue(value=value, error=error, gain=gain, loss=loss,
                             details={"mode": "mc"})
    gain, loss = _kernel_batch(model, pdf, r1, [v1], quad, flavor, pair_occ,
                               rule_variant, z1)
    g_c, l_c = _kernel_batch(model, pdf, r1, [v1], quad.coarsened(), flavor,
                             pair_occ, rule_variant, z1)
    value = float(gain[0] - loss[0])
    coarse = float(g_c[0] - l_c[0])
    floor = 1e-13 * (abs(gain[0]) + abs(loss[0]))
    error = abs(value - coarse) + floor
    return OperatorValue(value=value, error=error, gain=float(gain[0]),
                         loss=float(loss[0]),
                         details={"mode": "deterministic", "z1": z1})


def boltzmann_op(model, pdf, r1, v1, quad: QuadratureSpec,
                 hemisphere: str = "outgoing") -> OperatorValue:
    """Local binary collision operator at phase point (r1, v1).

    The elastic map and the flux factor are both even under e -> -e, so one
    kernel covers both hemisphere conventions; selecting "incoming" swaps in
    an independently parameterized angular rule (bumped polar order, offset
    azimuths), making the incoming-vs-outgoing comparison a genuine check of
    quadrature independence rather than a bitwise identity.
    """
    if hemisphere not in ("outgoing", "incoming"):
        raise ValueError(f"unknown hemisphere {hemisphere!r}")
    rule_variant = (0, 0.0) if hemisphere == "outgoing" else (1, 0.5)
    return _operator(model, pdf, r1, v1, quad, "boltzmann",
                     rule_variant=rule_variant)


def master_op(model, pdf, r1, v1, quad: QuadratureSpec,
              pair_occ: ContactOccupancy) -> OperatorValue:
    """Contact-sphere collision operator with occupation weights.

    Integrates over the incoming hemisphere (closing pairs), the causal
    convention for the contact form; pair_occ supplies k2 at contact (its
    mode selects the pair form) and the one-point field behind Z1.
    """
    z1 = _master_z1(model, pdf, quad, "master", pair_occ)
    return _operator(model, pdf, r1, v1, quad, "master", pair_occ=pair_occ,
                     z1=z1)


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


def moment_audit(model, pdf, r1, quad: QuadratureSpec, flavor: str,
                 pair_occ=None, outer_nodes: int | None = None) -> MomentAudit:
    """Collision-invariant residuals of the implemented operator.

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
    z1 = _master_z1(model, pdf, quad, flavor, pair_occ)
    gain, loss = _kernel_batch(model, pdf, r1, V1, quad, flavor, pair_occ,
                               z1=z1)
    cval = gain - loss
    phis = _moment_values(V1)
    residuals = {}
    scales = {}
    for name, phi in phis.items():
        residuals[name] = float((W1 * phi * cval).sum())
        scales[name] = max(float((W1 * np.abs(phi) * loss).sum()), 1e-300)
    return MomentAudit(residuals=residuals, scales=scales)


def operator_scan(model, pdf, probes, quad, flavor, pair_occ=None):
    """Evaluate an operator on a list of (r1, v1) probes.

    Returns rows [x, y, z, vx, vy, vz, C_value, C_error, gain, loss].
    """
    z1 = _master_z1(model, pdf, quad, flavor, pair_occ)
    rows = []
    for r1, v1 in probes:
        val = _operator(model, pdf, r1, v1, quad, flavor, pair_occ, z1=z1)
        rows.append(list(np.asarray(r1, float)) + list(np.asarray(v1, float))
                    + [val.value, val.error, val.gain, val.loss])
    return rows
