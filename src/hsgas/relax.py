"""Spatially homogeneous relaxation of a velocity distribution.

The collision integral is discretized on a uniform cubic velocity lattice.
Partner velocities v2 = v1 + d run over a strided sublattice (midpoint rule
with cell (stride*h)^3), and for each offset the contact-direction rule is
aligned with d, so the post-collisional shifts a = (d.n)n are constant
vectors: one separable evaluation per (d, n) serves every lattice node at
once.

Post-collisional values are reconstructed through the decomposition
ln f = ln M + E, where M is the Maxwellian matching the current lattice
moments and E the log deviation. M is evaluated analytically at the shifted
points (separable, exact, noise-free even far outside the lattice); E is
floored at -60 (cells below e^-60 of the local Maxwellian cannot form a
contributing pair) and interpolated per axis with a quadratic stencil whose
fractional offset is clamped to the covered range, so no large Lagrange
weight ever acts on the jittery logs of nearly empty cells.

The stencil of a shift along one axis depends only on the shift, never on
f, so it is written as a banded (n, n) matrix with the three Lagrange
weights of row i in columns j-1, j, j+1. The K angle-rule shifts of one
offset (the a shifts, then separately the b shifts) form a stack of K
matrices per axis, and the stack of shifted E fields is three batched
matmuls, one per axis, against reshaped views of the stack. The matrices
are rebuilt from the shifts for each offset in each step; a dense copy per
table entry would cost 2*K*n^2 doubles per axis.

Two exactness properties anchor the scheme:

* |a|^2 + |d-a|^2 = |d|^2 for unit n; a Maxwellian state has quadratic E,
  interior quadratic interpolation is exact on quadratics, and the analytic
  spine carries the tail decay, so every Maxwellian is a fixed point of the
  discrete gain/loss balance to roundoff.
* after each explicit Euler step the update is projected onto the kernel of
  the five collision invariants (Gram solve weighted by f), so mass,
  momentum, and energy are conserved to roundoff regardless of quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

LN_TINY = -700.0
# Angle nodes per cosine node of the aligned contact-direction rule.
PHI_NODES = 4
# Largest partner offset |d| kept in the offset table.
D_MAX = 4.5
# An offset is skipped in a step when its largest pair product falls below
# PRUNE_TOL times the squared peak density.
PRUNE_TOL = 1e-10
MAX_STEPS = 100_000


@dataclass(frozen=True)
class VelocityLattice:
    """Uniform cubic lattice on [-v_max, v_max]^3, endpoints included."""

    v_max: float = 4.2
    nodes: int = 32

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError("lattice needs at least 8 nodes per axis")

    @property
    def h(self) -> float:
        return 2.0 * self.v_max / (self.nodes - 1)

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(-self.v_max, self.v_max, self.nodes)

    def grid(self):
        a = self.axis
        return np.meshgrid(a, a, a, indexing="ij")

    def points(self) -> np.ndarray:
        return np.stack(self.grid(), axis=-1).reshape(-1, 3)

    def cell_volume(self) -> float:
        return self.h ** 3

    def moments(self, f: np.ndarray):
        vx, vy, vz = self.grid()
        w = self.cell_volume()
        mass = float(w * f.sum())
        mom = np.array([
            float(w * (f * vx).sum()),
            float(w * (f * vy).sum()),
            float(w * (f * vz).sum()),
        ])
        energy = float(w * (f * (vx ** 2 + vy ** 2 + vz ** 2)).sum())
        return mass, mom, energy

    def entropy(self, f: np.ndarray) -> float:
        w = self.cell_volume()
        pos = f > 0.0
        return -float(w * (f[pos] * np.log(f[pos])).sum())


def maxwellian_on_lattice(lattice: VelocityLattice, mass: float, u, T: float):
    vx, vy, vz = lattice.grid()
    u = np.asarray(u, dtype=float)
    q = (vx - u[0]) ** 2 + (vy - u[1]) ** 2 + (vz - u[2]) ** 2
    f = mass * (2.0 * math.pi * T) ** -1.5 * np.exp(-0.5 * q / T)
    return f


def moment_matched_maxwellian(lattice: VelocityLattice, f: np.ndarray):
    """Maxwellian with the same lattice mass, momentum, and energy as f."""
    mass, mom, energy = lattice.moments(f)
    u = mom / mass
    T = (energy / mass - float(u @ u)) / 3.0
    return maxwellian_on_lattice(lattice, mass, u, T)


def initial_from_pdf(lattice: VelocityLattice, pdf):
    """Velocity law of a pdf family at the box center."""
    pts = lattice.points()
    vals = pdf.density(np.full(3, pdf.box / 2.0), pts)
    vals = vals.reshape((lattice.nodes,) * 3)
    mass = lattice.cell_volume() * vals.sum()
    if mass <= 0:
        raise ValueError("pdf has no mass on the lattice")
    return vals / mass


def l1_distance(lattice: VelocityLattice, f: np.ndarray, g: np.ndarray):
    return float(lattice.cell_volume() * np.abs(f - g).sum())


def _integer_shift(A: np.ndarray, k, fill: float):
    """out[i, j, l] = A[i + kx, j + ky, l + kz], fill outside."""
    out = np.full_like(A, fill)
    src = []
    dst = []
    for ax, kk in enumerate(k):
        n = A.shape[ax]
        if kk >= n or kk <= -n:
            return out
        if kk >= 0:
            src.append(slice(kk, n))
            dst.append(slice(0, n - kk))
        else:
            src.append(slice(0, n + kk))
            dst.append(slice(-kk, n))
    out[tuple(dst)] = A[tuple(src)]
    return out


def _axis_operators(s: np.ndarray, n: int) -> np.ndarray:
    """Banded (K, n, n) matrices of the edge-persistent quadratic shift.

    Row i of matrix k reads an axis of n nodes at the real node i + s[k] on
    a 3-point stencil whose base index clamps to the array interior and
    whose fractional offset t is clamped to [-1, 1]. A target inside the
    stencil is quadratically interpolated (exact on per-axis quadratics); a
    target beyond it reads the nearest covered point instead of
    extrapolating, because the outer Lagrange weights of a true
    extrapolation grow like the square of the overshoot and amplify
    node-to-node jitter of nearly empty cells into arbitrarily large logs
    of either sign.
    """
    x = np.arange(n, dtype=float)[None, :] + s[:, None]
    j = np.clip(np.rint(x).astype(int), 1, n - 2)
    t = np.clip(x - j, -1.0, 1.0)
    ops = np.zeros(s.shape + (n, n))
    k = np.arange(len(s))[:, None]
    i = np.arange(n)[None, :]
    ops[k, i, j - 1] = 0.5 * t * (t - 1.0)
    ops[k, i, j] = 1.0 - t * t
    ops[k, i, j + 1] = 0.5 * t * (t + 1.0)
    return ops


def _batched_shift(A: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Stack of vector shifts of one 3d array: out[k] = A(. + shifts[k]).

    shifts[k] is in real node counts per axis. Each axis is one batched
    matmul of its (K, n, n) operators against a reshaped view of the
    stack, so no axis is moved in memory: the first axis acts from the
    left on (n, n*n) slabs, the middle one from the left on (n, n) slabs,
    the last from the right on (n*n, n) slabs. An axis whose shifts are all
    zero is the identity and is skipped.
    """
    n = A.shape[0]
    out = A[None]
    s = shifts[:, 0]
    if s.any():
        out = np.matmul(_axis_operators(s, n), out.reshape(1, n, n * n))
    s = shifts[:, 1]
    if s.any():
        out = np.matmul(_axis_operators(s, n)[:, None],
                        out.reshape(-1, n, n, n))
    s = shifts[:, 2]
    if s.any():
        out = np.matmul(out.reshape(-1, n * n, n),
                        _axis_operators(s, n).transpose(0, 2, 1))
    return np.broadcast_to(out.reshape(-1, n, n, n),
                           (len(shifts), n, n, n))


def _pair_spine(lattice: VelocityLattice, a_shifts: np.ndarray,
                b_shifts: np.ndarray, u: np.ndarray, T: float):
    """(ln M - ln norm) at v + h*a[k] plus the same at v + h*b[k].

    The Maxwellian exponent is separable, so each axis contributes a
    1d quadratic evaluated in closed form; the result is exact however far
    the shifted points lie outside the lattice.
    """
    ax_vals = lattice.axis
    h = lattice.h
    cols = []
    for ax in range(3):
        ya = ax_vals[None, :] + h * a_shifts[:, ax][:, None] - u[ax]
        yb = ax_vals[None, :] + h * b_shifts[:, ax][:, None] - u[ax]
        cols.append(-0.5 * (ya * ya + yb * yb) / T)
    return (cols[0][:, :, None, None] + cols[1][:, None, :, None]
            + cols[2][:, None, None, :])


# Two-node rule for the cosine integral int_0^1 g(u) u du with nodes
# (4 -+ sqrt(2))/6 and weights 1/(4u): exact for g up to degree 2, and
# closed under u -> sqrt(1 - u^2) with equal u*w products, so the angle
# set of the offset -d is the angle set of +d with post-collision roles
# swapped. That closure is what lets the step loop evaluate each pair sum
# once and reuse it, index-shifted, for the mirrored offset.
_U_PAIRED = ((4.0 - math.sqrt(2.0)) / 6.0, (4.0 + math.sqrt(2.0)) / 6.0)
_WU_PAIRED = tuple(1.0 / (4.0 * u) for u in _U_PAIRED)


def _offset_table(lattice: VelocityLattice, stride: int):
    """Half-space partner offsets with their aligned angle rules.

    Only one offset of each +-d pair is stored; the mirrored gain field is
    recovered by an integer shift (see _U_PAIRED). Offsets are the strided
    sublattice points with 0 < |d| <= D_MAX.
    """
    h = lattice.h
    reach = int(math.floor(D_MAX / (stride * h)))
    wphi = 2.0 * math.pi / PHI_NODES
    phi = (np.arange(PHI_NODES) + 0.5) * wphi
    cell = (stride * h) ** 3
    table = []
    for ix in range(-reach, reach + 1):
        for iy in range(-reach, reach + 1):
            for iz in range(-reach, reach + 1):
                if (ix, iy, iz) <= (0, 0, 0):
                    continue
                d_idx = (stride * ix, stride * iy, stride * iz)
                d = h * np.array(d_idx, dtype=float)
                dn = float(np.linalg.norm(d))
                if dn > D_MAX:
                    continue
                dhat = d / dn
                ref = np.zeros(3)
                ref[int(np.argmin(np.abs(dhat)))] = 1.0
                e1 = np.cross(dhat, ref)
                e1 /= np.linalg.norm(e1)
                e2 = np.cross(dhat, e1)
                a_shifts, b_shifts, w_ang = [], [], []
                for ui, wi in zip(_U_PAIRED, _WU_PAIRED):
                    su = math.sqrt(max(1.0 - ui * ui, 0.0))
                    for ph in phi:
                        nvec = (ui * dhat
                                + su * (math.cos(ph) * e1 + math.sin(ph) * e2))
                        a = dn * ui * nvec
                        a_shifts.append(a / h)
                        b_shifts.append((d - a) / h)
                        w_ang.append(cell * wi * wphi * dn * ui)
                table.append({
                    "d_idx": d_idx,
                    "neg_idx": tuple(-k for k in d_idx),
                    "loss_w": cell * math.pi * dn,
                    "a_shifts": np.array(a_shifts),
                    "b_shifts": np.array(b_shifts),
                    "w": np.array(w_ang),
                })
    return table


@dataclass
class RelaxResult:
    f: np.ndarray
    times: np.ndarray
    entropy: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray      # (steps+1, 3)
    energy: np.ndarray
    steps: int
    dt_history: np.ndarray
    offsets_used: list
    info: dict = dataclass_field(default_factory=dict)


def homogeneous_relax(model, f0: np.ndarray, lattice: VelocityLattice, *,
                      t_end: float, cfl: float = 0.1, dt: float = None,
                      stride: int = 3) -> RelaxResult:
    """Relax f0 under the homogeneous binary collision dynamics.

    model supplies the collision rate scale N sigma^2 / box^3. The time step
    adapts to cfl over the largest collision frequency on occupied nodes; a
    fixed dt overrides the adaptive choice (the final step is still clipped
    to land on t_end, and a remainder within 1e-12 relative of t_end, as
    summed roundoff leaves, is not stepped). Raises if any density drops
    below -1e-10 of the peak (blow-up guard).
    """
    f = np.array(f0, dtype=float)
    if f.shape != (lattice.nodes,) * 3:
        raise ValueError("f0 shape does not match the lattice")
    pref = model.n * model.sigma ** 2 / model.box ** 3
    if pref == 0.0:
        raise ValueError("free streaming only: collision scale is zero")
    table = _offset_table(lattice, stride)
    vx, vy, vz = lattice.grid()
    psi = np.stack([
        np.ones_like(vx), vx, vy, vz, vx ** 2 + vy ** 2 + vz ** 2,
    ])
    w_cell = lattice.cell_volume()

    times = [0.0]
    entropy = [lattice.entropy(f)]
    m0, p0, e0 = lattice.moments(f)
    mass_tr, mom_tr, en_tr = [m0], [p0], [e0]
    dts = []
    offsets_used = []

    t = 0.0
    steps = 0
    while t_end - t > 1e-12 * t_end and steps < MAX_STEPS:
        peak = float(f.max())
        # Maxwellian spine at the current moments (tracked since last step)
        mass_c, mom_c, en_c = mass_tr[-1], mom_tr[-1], en_tr[-1]
        u_c = mom_c / mass_c
        T_c = max((en_c / mass_c - float(u_c @ u_c)) / 3.0, 1e-12)
        ln_norm = math.log(mass_c) - 1.5 * math.log(2.0 * math.pi * T_c)
        lnM = ln_norm - 0.5 * ((vx - u_c[0]) ** 2 + (vy - u_c[1]) ** 2
                               + (vz - u_c[2]) ** 2) / T_c
        lnf = np.where(f > 0.0, np.log(np.maximum(f, 1e-300)), LN_TINY)
        # Cells below e^-60 of the local Maxwellian (including empty and
        # guard-tolerated negative ones) cannot form a contributing pair;
        # flooring E there keeps the interpolated field bounded and smooth.
        E = np.maximum(lnf - lnM, -60.0)
        # pair products below e^-45 of the peak pair cannot move f at any
        # representable tolerance; the masked exp skips them
        ln_floor = 2.0 * math.log(max(peak, 1e-300)) - 45.0
        gain = np.zeros_like(f)
        nu = np.zeros_like(f)
        kept = 0
        ones = np.ones_like(f)
        for entry in table:
            fd_p = _integer_shift(f, entry["d_idx"], 0.0)
            reach = float((f * fd_p).max())
            if reach < PRUNE_TOL * peak * peak:
                continue
            kept += 2
            fd_m = _integer_shift(f, entry["neg_idx"], 0.0)
            nu += entry["loss_w"] * (fd_p + fd_m)
            # gain must run over exactly the loss's pair set (partner v+d
            # on-lattice), or the Maxwell gain/loss balance breaks at the
            # offset reach; post-collision points of a valid pair may still
            # lie beyond the lattice edge, where the analytic spine takes
            # over
            pair_mask = _integer_shift(ones, entry["d_idx"], 0.0)
            s = (_batched_shift(E, entry["a_shifts"])
                 + _batched_shift(E, entry["b_shifts"])
                 + _pair_spine(lattice, entry["a_shifts"],
                               entry["b_shifts"], u_c, T_c))
            s += 2.0 * ln_norm
            contrib = np.zeros_like(s)
            np.exp(np.minimum(s, 60.0), where=s > ln_floor, out=contrib)
            acc = np.tensordot(entry["w"], contrib, axes=(0, 0))
            # the paired cosine rule makes the angle sum of the mirrored
            # offset -d the same field evaluated at v - d, so one pair sum
            # serves both offsets
            gain += pair_mask * acc
            gain += _integer_shift(acc, entry["neg_idx"], 0.0)
        gain *= pref
        nu *= pref
        occupied = f > 1e-12 * peak
        nu_max = float(nu[occupied].max()) if occupied.any() else 0.0
        if nu_max <= 0.0:
            break
        step = min(cfl / nu_max if dt is None else dt, t_end - t)
        df = step * (gain - f * nu)
        # project the update onto exact conservation of the five invariants
        gram = np.einsum("aijk,bijk,ijk->ab", psi, psi, f) * w_cell
        b = np.einsum("aijk,ijk->a", psi, df) * w_cell
        coeff = np.linalg.solve(gram, b)
        df -= np.einsum("a,aijk->ijk", coeff, psi) * f
        f = f + df
        if float(f.min()) < -1e-10 * peak:
            raise RuntimeError(
                f"negative density {float(f.min()):.3e} at step {steps}; "
                f"reduce the time step ({'cfl' if dt is None else 'dt'})"
            )
        t += step
        steps += 1
        times.append(t)
        entropy.append(lattice.entropy(f))
        m, p, e = lattice.moments(f)
        mass_tr.append(m)
        mom_tr.append(p)
        en_tr.append(e)
        dts.append(step)
        offsets_used.append(kept)
    return RelaxResult(
        f=f, times=np.array(times),
        entropy=np.array(entropy), mass=np.array(mass_tr),
        momentum=np.array(mom_tr), energy=np.array(en_tr), steps=steps,
        dt_history=np.array(dts), offsets_used=offsets_used,
        info={
            "stride": stride, "d_max": D_MAX, "phi_nodes": PHI_NODES,
            "cfl": cfl, "prune_tol": PRUNE_TOL,
            "table_size": len(table), "prefactor": pref,
        },
    )
