"""Event-driven hard-sphere dynamics in a specular box.

All particles advance synchronously between events. Pair events use the
standard quadratic contact-time solution; wall events reflect one velocity
component on the planes sigma/2 and box - sigma/2 (center coordinates).
Scheduling is a binary heap with per-particle invalidation counters, and
simultaneous events (within 1e-12 box/v_th of each other) are executed in
ascending particle-index order so runs are bitwise deterministic.

An event re-predicts only the particles it moved (Lubachevsky 1991, J.
Comput. Phys. 94): one pass over N per moved particle yields its approaching
partners, their contact times and its squared distances to everyone, which
the local admissibility check reuses. Apart from those passes an event costs
O(N) only in the streaming step and one momentum sum (plus one kinetic
energy sum at a pair event); the energy and momentum before an event are
those after the previous one, since velocities do not change in between.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .collision import elastic_map
from .geometry import HardSphereModel, NBodyConfig, close_pairs
from .occupation import (
    analytic_contact_k2_uniform,
    analytic_k1_uniform,
    lens_volume,
)
from .pdfs import TabulatedPdf
from .quadrature import gauss_legendre, sphere_grid, tensor_rule


# ---------------------------------------------------------------------------
# event prediction


def _pair_times_against(positions, velocities, i, sigma):
    """Contact times of particle i against all others, in one pass over N.

    Returns (j, t, d2): the ascending indices j of the partners that i meets
    (approaching, b < 0, with a real root, disc > 0, and a finite time),
    their contact times t, and the squared distance d2 of every particle to
    i, inf at i. Every inner product is formed component by component
    (x*x + y*y + z*z), which gives the bits of a sum over the length-3 axis;
    the times are formed on the partners only.
    """
    p, v = positions, velocities
    rx, ry, rz = p[i, 0] - p[:, 0], p[i, 1] - p[:, 1], p[i, 2] - p[:, 2]
    vx, vy, vz = v[i, 0] - v[:, 0], v[i, 1] - v[:, 1], v[i, 2] - v[:, 2]
    b = rx * vx + ry * vy + rz * vz
    v2 = vx * vx + vy * vy + vz * vz
    d2 = rx * rx + ry * ry + rz * rz
    disc = b * b - v2 * (d2 - sigma * sigma)
    d2[i] = math.inf
    j = ((b < 0.0) & (disc > 0.0)).nonzero()[0]
    t = (-b[j] - np.sqrt(disc[j])) / v2[j]
    finite = np.isfinite(t)  # v2 underflows to 0 only for subnormal speeds
    if not finite.all():
        j, t = j[finite], t[finite]
    return j, t, d2


def wall_times(r, v, model: HardSphereModel):
    """(time, face) of the next wall hit per axis for one particle."""
    lo, hi = model.wall_box
    out = []
    for a in range(3):
        if v[a] > 0.0:
            out.append(((hi - r[a]) / v[a], a * 2 + 1))
        elif v[a] < 0.0:
            out.append(((lo - r[a]) / v[a], a * 2))
    return out


# ---------------------------------------------------------------------------
# the simulator


@dataclass
class Trajectory:
    model: HardSphereModel
    config: NBodyConfig       # final state
    t_final: float
    n_pair: int
    n_wall: int
    event_rows: list          # [t, kind, i, j_or_face, dKE, dPx, dPy, dPz]
    snapshots: list           # (t, positions, velocities)
    audits: dict
    diagnostics: dict         # scheduler counts: peak heap, stale pops, ...

    def to_event_csv(self, path):
        from .runio import write_csv

        write_csv(path, ["t", "kind", "i", "j_or_face", "KE_delta",
                         "Px_delta", "Py_delta", "Pz_delta"],
                  self.event_rows)


def run(model: HardSphereModel, config: NBodyConfig, *, t_end: float = None,
        max_events: int = None, snapshot_times=None,
        audit_every: int = 1, v_th_ref: float = 1.0) -> Trajectory:
    """Advance the configuration by event-driven dynamics.

    Stops at t_end, after max_events, or both (first reached). When the
    event queue empties or the next event lies past t_end, the state
    streams freely to t_end (without t_end an empty queue is an error);
    after max_events it stays at the last executed event's time. Snapshot
    times must be ascending. Audits: exact-contact residual at every pair
    event, monotone event times, and full ensemble admissibility every
    audit_every events (default: after every event) and at the end. The
    diagnostics count the scheduler's work: the peak heap length, the stale
    pops (entries that a later event invalidated) and the heap compactions.
    """
    if t_end is None and max_events is None:
        raise ValueError("need t_end and/or max_events")
    pos = config.positions.copy()
    vel = config.velocities.copy()
    n, sigma = model.n, model.sigma
    tie_tol = 1e-12 * model.box / max(v_th_ref, 1e-300)
    lo, hi = model.wall_box

    counters = [0] * n
    heap = []
    seq = 0

    def schedule(i, t_now):
        """Push i's pair and wall events; return its squared distances."""
        nonlocal seq
        partners, times, d2 = _pair_times_against(pos, vel, i, sigma)
        for j, dt in zip(partners.tolist(), times.tolist()):
            a, b = (i, j) if i < j else (j, i)
            heapq.heappush(heap, (t_now + dt, seq, "pair", a, b,
                                  counters[a], counters[b]))
            seq += 1
        for dt, face in wall_times(pos[i], vel[i], model):
            heapq.heappush(heap, (t_now + dt, seq, "wall", i, face,
                                  counters[i], -1))
            seq += 1
        return d2

    t = 0.0
    for i in range(n):
        # schedule() would double-insert pairs; seed walls here and pairs once
        for dt, face in wall_times(pos[i], vel[i], model):
            heapq.heappush(heap, (t + dt, seq, "wall", i, face, counters[i], -1))
            seq += 1
    for i in range(n):
        partners, times, _ = _pair_times_against(pos, vel, i, sigma)
        later = partners > i
        for j, dt in zip(partners[later].tolist(), times[later].tolist()):
            heapq.heappush(heap, (t + dt, seq, "pair", i, j,
                                  counters[i], counters[j]))
            seq += 1

    def valid(entry):
        _, _, kind, i, j, ci, cj = entry
        if counters[i] != ci:
            return False
        return kind == "wall" or counters[j] == cj

    snapshot_times = list(snapshot_times) if snapshot_times is not None else []
    snap_idx = 0
    snapshots = []
    event_rows = []
    n_pair = n_wall = 0
    max_contact_residual = 0.0
    max_pair_gap = 0.0  # worst admissibility defect seen (negative is overlap)
    events_done = 0
    peak_heap = stale_pops = compactions = 0

    def take_snapshots(up_to):
        nonlocal snap_idx
        while snap_idx < len(snapshot_times) and snapshot_times[snap_idx] <= up_to:
            ts = snapshot_times[snap_idx]
            snapshots.append((ts, pos + vel * (ts - t), vel.copy()))
            snap_idx += 1

    def full_audit():
        nonlocal max_pair_gap
        # a pair farther than sigma has gap > 0 and cannot lower the worst
        d2 = close_pairs(pos, sigma)[2]
        if len(d2):
            gap = math.sqrt(d2.min()) - sigma
            max_pair_gap = min(max_pair_gap, gap)
            if gap < -1e-9 * sigma:
                raise RuntimeError(f"overlap detected: pair gap {gap:.3e}")
        if np.any(pos < lo - 1e-9 * sigma) or np.any(pos > hi + 1e-9 * sigma):
            raise RuntimeError("wall clearance violated")

    compact_at = max(200_000, 30 * n * n)
    stream_to_t_end = False  # set when no event is left before t_end
    ke = 0.5 * float((vel * vel).sum())
    p_before = vel.sum(axis=0)
    while True:
        # the heap only grows by the pushes of the previous event
        peak_heap = max(peak_heap, len(heap))
        if max_events is not None and events_done >= max_events:
            break
        if len(heap) > compact_at:
            heap = [e for e in heap if valid(e)]
            heapq.heapify(heap)
            compactions += 1
        # pull the earliest valid event, honoring the tie rule
        entry = None
        while heap:
            cand = heapq.heappop(heap)
            if valid(cand):
                entry = cand
                break
            stale_pops += 1
        if entry is None:
            if t_end is None:
                raise RuntimeError(
                    f"no further event exists after {events_done} events "
                    f"at t={t}; set t_end to stream past it")
            stream_to_t_end = True
            break
        t_ev = entry[0]
        if t_end is not None and t_ev > t_end:
            heapq.heappush(heap, entry)
            stream_to_t_end = True
            break
        # collect near-simultaneous valid events, execute the lowest-index one
        buffer = [entry]
        while heap and heap[0][0] <= t_ev + tie_tol:
            cand = heapq.heappop(heap)
            if valid(cand):
                buffer.append(cand)
            else:
                stale_pops += 1
        buffer.sort(key=lambda e: (e[3], e[4], e[0]))
        chosen = buffer.pop(0)
        for e in buffer:
            heapq.heappush(heap, e)
        t_new, _, kind, i, j_or_face, _, _ = chosen
        if t_new < t - tie_tol:
            raise RuntimeError(
                f"event time regression: {t_new} after {t}")

        take_snapshots(min(t_new, t_end) if t_end is not None else t_new)
        pos += vel * (t_new - t)
        t = t_new

        ke_before = ke
        if kind == "pair":
            j = j_or_face
            d = pos[j] - pos[i]
            dist = float(np.linalg.norm(d))
            max_contact_residual = max(max_contact_residual,
                                       abs(dist - sigma))
            if abs(dist - sigma) > 1e-8 * sigma:
                raise RuntimeError(
                    f"contact residual {abs(dist - sigma):.3e} too large")
            nhat = d / dist
            # project to exact contact, preserving the midpoint
            mid = 0.5 * (pos[i] + pos[j])
            pos[i] = mid - 0.5 * sigma * nhat
            pos[j] = mid + 0.5 * sigma * nhat
            vi_new, vj_new = elastic_map(vel[i], vel[j], nhat)
            vel[i] = vi_new
            vel[j] = vj_new
            counters[i] += 1
            counters[j] += 1
            n_pair += 1
            ke = 0.5 * float((vel * vel).sum())
            touched = ((i, schedule(i, t)), (j, schedule(j, t)))
        else:
            axis = j_or_face // 2
            side = j_or_face % 2
            pos[i][axis] = hi if side else lo
            vel[i][axis] *= -1.0
            counters[i] += 1
            n_wall += 1
            # a sign flip leaves every squared velocity, so ke, unchanged
            touched = ((i, schedule(i, t)),)
        events_done += 1

        p_after = vel.sum(axis=0)
        dp = p_after - p_before
        p_before = p_after
        event_rows.append([t, kind, i, j_or_face, ke - ke_before,
                           float(dp[0]), float(dp[1]), float(dp[2])])
        # local admissibility of the touched particles
        for a, d2 in touched:
            gap = math.sqrt(float(d2.min())) - sigma
            max_pair_gap = min(max_pair_gap, gap)
            if gap < -1e-9 * sigma:
                raise RuntimeError(f"overlap after event at particle {a}")
        if audit_every and events_done % audit_every == 0:
            full_audit()

    if stream_to_t_end and t < t_end:
        take_snapshots(t_end)
        pos += vel * (t_end - t)
        t = t_end
    full_audit()
    return Trajectory(
        model=model, config=NBodyConfig(pos, vel), t_final=t,
        n_pair=n_pair, n_wall=n_wall, event_rows=event_rows,
        snapshots=snapshots,
        audits={
            "max_contact_residual": max_contact_residual,
            "worst_pair_gap": max_pair_gap,
            "events": events_done,
        },
        diagnostics={
            "peak_heap": peak_heap,
            "stale_pops": stale_pops,
            "compactions": compactions,
        },
    )


# ---------------------------------------------------------------------------
# measurement


POS_BINS = 3         # per axis, for the 6-d phase histogram
PDF_VEL_BINS = 6     # per axis, for the 6-d phase histogram
SHELL_ETA = 0.05     # near-contact shell [sigma, sigma(1+eta)]
MIN_BIN_COUNT = 5    # cells below this count as under-populated
# rules of the equilibrium pair predictions: sphere nodes of the wall-clipping
# average, radial Gauss-Legendre nodes of the Enskog rate and of the shell
PAIR_ANGLE_NODES = 302
ENSKOG_RADIAL_NODES = 24
SHELL_RADIAL_NODES = 16


@dataclass
class Observables:
    temperature: float
    axis_second_moments: np.ndarray
    speed4_ratio: float            # <|v|^4> / <|v|^2>^2, Maxwell: 5/3
    pair_rate_per_particle: float
    wall_rate_per_particle: float
    shell_counts: np.ndarray       # per-snapshot pair counts in the shell
    shell_mean: float
    shell_se: float
    tabulated: object              # TabulatedPdf on the pooled snapshots
    underpopulated_fraction: float
    flags: list


def measure(traj: Trajectory) -> Observables:
    """Time-averaged moments, rates, and density estimates.

    The trajectory needs at least 2 snapshots. The 6-d phase histogram is
    exported as a TabulatedPdf over cell centers; cells holding fewer than
    MIN_BIN_COUNT samples are reported through underpopulated_fraction and a
    flag instead of passing silently as noise. Shell counts are pairs with
    separation in [sigma, sigma(1+SHELL_ETA)] per snapshot, the shell of
    near_contact_pair_prediction; their stderr treats
    snapshots as independent, which holds when the snapshot spacing exceeds
    the collision time.
    """
    snaps = traj.snapshots
    if len(snaps) < 2:
        raise ValueError(f"measure needs 2 snapshots, not {len(snaps)}")
    vel_all = np.concatenate([v for (_, _, v) in snaps], axis=0)
    pos_all = np.concatenate([p for (_, p, _) in snaps], axis=0)
    temperature = float((vel_all ** 2).sum() / (3 * vel_all.shape[0]))
    axis_m2 = (vel_all ** 2).mean(axis=0)
    sp2 = (vel_all ** 2).sum(axis=1)
    speed4_ratio = float((sp2 ** 2).mean() / sp2.mean() ** 2)
    duration = traj.t_final
    n = traj.model.n
    pair_rate = 2.0 * traj.n_pair / duration / n
    wall_rate = traj.n_wall / duration / n

    # near-contact shell occupancy
    sigma = traj.model.sigma
    shell_hi = sigma * (1.0 + SHELL_ETA)
    counts = []
    for (_, p, _) in snaps:
        # the padded cutoff keeps every pair whose sqrt rounds to shell_hi
        dd = np.sqrt(close_pairs(p, shell_hi * (1.0 + 1e-9))[2])
        counts.append(int(((dd >= sigma) & (dd <= shell_hi)).sum()))
    shell_counts = np.array(counts, dtype=float)
    shell_mean = float(shell_counts.mean())
    shell_se = float(shell_counts.std(ddof=1) / math.sqrt(len(counts)))

    # 6-d phase histogram exported as a tabulated density
    box = traj.model.box
    pos_edges = np.linspace(0.0, box, POS_BINS + 1)
    vmax = float(np.abs(vel_all).max()) * 1.0001
    vel_edges = np.linspace(-vmax, vmax, PDF_VEL_BINS + 1)
    sample6 = np.concatenate([pos_all, vel_all], axis=1)
    hist, _ = np.histogramdd(sample6, bins=[pos_edges] * 3 + [vel_edges] * 3)
    total = hist.sum()
    cell_vol = ((box / POS_BINS) ** 3
                * (2.0 * vmax / PDF_VEL_BINS) ** 3)
    values = hist / total / cell_vol
    pos_centers = 0.5 * (pos_edges[1:] + pos_edges[:-1])
    vel_centers = 0.5 * (vel_edges[1:] + vel_edges[:-1])
    tabulated = TabulatedPdf([pos_centers] * 3, [vel_centers] * 3, values,
                             box=box, v_th=math.sqrt(temperature))
    under = float((hist < MIN_BIN_COUNT).mean())
    flags = []
    if under > 0.2:
        flags.append(
            f"phase histogram under-populated: {under:.0%} of cells hold "
            f"fewer than {MIN_BIN_COUNT} samples; coarsen the bins or "
            "pool more snapshots before trusting tabulated densities")
    return Observables(
        temperature=temperature, axis_second_moments=axis_m2,
        speed4_ratio=speed4_ratio, pair_rate_per_particle=pair_rate,
        wall_rate_per_particle=wall_rate, shell_counts=shell_counts,
        shell_mean=shell_mean, shell_se=shell_se,
        tabulated=tabulated, underpopulated_fraction=under, flags=flags,
    )


# ---------------------------------------------------------------------------
# equilibrium rate predictions


def _sphere_qbar(model: HardSphereModel, angle_nodes: int):
    """Orientation-averaged wall-clipping factor for a pair at offset r.

    qbar(r) = <prod_a (1 - min(r |n_a| / ell, 1))> over directions n: the
    fraction of the one-particle wall box available to a partner displaced
    by r n, with ell = box - sigma. Returns a vectorized callable of r.
    """
    nodes, weights, _ = sphere_grid(angle_nodes)
    absn = np.abs(nodes)
    wsum = float(weights.sum())
    ell = model.box - model.sigma

    def qbar(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        f = 1.0 - np.minimum(r[:, None, None] * absn[None, :, :] / ell, 1.0)
        return (weights[None, :] * f.prod(axis=2)).sum(axis=1) / wsum

    return qbar


def _k2_lens_profile(model: HardSphereModel):
    """k2 as a function of pair separation, pinned at both ends.

    ln k2 is linear in the exclusion-lens volume, exact to second order in
    the packing fraction; the separated value kbar2 and the contact value
    are the closed uniform forms.
    """
    n, sigma = model.n, model.sigma
    k2_contact = analytic_contact_k2_uniform(model)  # raises for n < 2
    vball = 4.0 / 3.0 * math.pi * sigma ** 3
    kbar2 = max(0.0, 1.0 - 2.0 * vball / model.wall_volume) ** (n - 2)
    lens_c = lens_volume(sigma, sigma)
    log_far, log_c = math.log(kbar2), math.log(k2_contact)

    def k2(r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        frac = lens_volume(r, sigma) / lens_c
        return np.exp(log_far + (log_c - log_far) * frac)

    return k2, k2_contact, kbar2


def _pair_law_normalization(model, qbar, k2f, kbar2, radial_nodes: int):
    """E[theta_pair * k2] over wall-box uniform pairs, and P(overlap)."""
    sigma = model.sigma
    vw = model.wall_volume
    r_in, w_in = gauss_legendre(radial_nodes, 0.0, sigma)
    p_overlap = 4.0 * math.pi / vw * float(
        (w_in * r_in ** 2 * qbar(r_in)).sum())
    r_lens, w_lens = gauss_legendre(radial_nodes, sigma, 2.0 * sigma)
    lens_corr = 4.0 * math.pi / vw * float(
        (w_lens * r_lens ** 2 * qbar(r_lens) * (k2f(r_lens) - kbar2)).sum())
    return kbar2 * (1.0 - p_overlap) + lens_corr, p_overlap


def enskog_frequency_prediction(model: HardSphereModel,
                                T: float = 1.0) -> dict:
    """Per-particle pair collision frequency of the equilibrium gas.

    nu = (N-1) * 4 sigma^2 sqrt(pi T) * qbar(sigma) k2(sigma) / (Vw * den):
    the dilute rate corrected by the wall-clipped contact-pair volume
    (qbar), the occupation of the other N-2 spheres at contact, and the
    admissibility normalization den = E[theta_pair k2] of the pair position
    law. k2 at contact and apart are the closed uniform expressions.
    """
    n, sigma = model.n, model.sigma
    vw = model.wall_volume
    qbar = _sphere_qbar(model, PAIR_ANGLE_NODES)
    k2f, k2c, kb2 = _k2_lens_profile(model)
    den, p_overlap = _pair_law_normalization(model, qbar, k2f, kb2,
                                             ENSKOG_RADIAL_NODES)
    q_c = float(qbar(sigma)[0])
    nu = ((n - 1) * 4.0 * sigma ** 2 * math.sqrt(math.pi * T)
          * q_c * k2c / (vw * den))
    k1 = analytic_k1_uniform(model)
    return {
        "nu_per_particle": nu,
        "total_pair_rate": 0.5 * n * nu,
        "qbar_contact": q_c, "p_overlap": p_overlap, "den": den,
        "k1_bulk": k1, "k2_contact": k2c, "kbar2": kb2,
        "g_contact": k2c / (k1 * k1),
    }


def near_contact_pair_prediction(model: HardSphereModel):
    """Expected pairs per snapshot with separation in [sigma, sigma(1+eta)].

    eta is SHELL_ETA, the shell that measure counts in. count = C(N,2) *
    Num / Den with Num the shell mass of the pair position law (wall
    clipping via qbar, occupation via the lens-interpolated k2 profile) and
    Den its admissible normalization. Returns (value, error, details); the
    error is a nested-rule estimate from coarsened node counts.
    """
    n, sigma = model.n, model.sigma
    vw = model.wall_volume
    eta = SHELL_ETA
    k2f, _, kb2 = _k2_lens_profile(model)

    def evaluate(a_nodes, r_nodes):
        qbar = _sphere_qbar(model, a_nodes)
        r_sh, w_sh = gauss_legendre(r_nodes, sigma, sigma * (1.0 + eta))
        num = 4.0 * math.pi / vw * float(
            (w_sh * r_sh ** 2 * qbar(r_sh) * k2f(r_sh)).sum())
        den, _ = _pair_law_normalization(model, qbar, k2f, kb2,
                                         SHELL_RADIAL_NODES)
        return n * (n - 1) / 2.0 * num / den

    value = evaluate(PAIR_ANGLE_NODES, SHELL_RADIAL_NODES)
    coarse = evaluate(max(8, (2 * PAIR_ANGLE_NODES) // 3),
                      max(4, (2 * SHELL_RADIAL_NODES) // 3))
    error = abs(value - coarse) + 1e-12 * abs(value)
    return value, error, {"eta": eta, "coarse": coarse}


def wall_rate_prediction(model: HardSphereModel, T: float = 1.0) -> float:
    """Ideal-gas per-particle wall-hit frequency: 3 <|v_axis|> / (box - sigma).

    The centers are taken uniform on the wall box, so the excluded volume
    of the other spheres is ignored; this is the sigma -> 0 (or n = 1) limit
    of wall_contact_rate_prediction.
    """
    return 3.0 * math.sqrt(2.0 * T / math.pi) / (model.box - model.sigma)


def _min_chord_integral(u, v, beta, rho):
    """int_u^v min(beta, sqrt(rho^2 - x^2)) dx for -rho <= u <= v <= rho."""
    def primitive(x):  # of sqrt(rho^2 - x^2)
        c = np.sqrt(np.maximum(rho * rho - x * x, 0.0))
        s = np.clip(x / np.where(rho > 0.0, rho, 1.0), -1.0, 1.0)
        return 0.5 * (x * c + rho * rho * np.arcsin(s))

    x_beta = np.sqrt(np.maximum(rho * rho - beta * beta, 0.0))
    p, q = np.maximum(u, -x_beta), np.minimum(v, x_beta)
    capped = np.where(q > p, primitive(q) - primitive(p) - beta * (q - p), 0.0)
    return primitive(v) - primitive(u) - capped


def _clipped_ball_volume(points, model: HardSphereModel):
    """Volume of the radius-sigma ball around each center inside the wall box.

    Each z-slice of the ball is a disk whose area inside the wall box's
    square is exact; the slices are summed by Gauss-Legendre between the
    heights at which the disk meets an edge or a corner of the square, where
    that area is not smooth. The area still has a (z - z0)^(3/2) term at
    those heights, so the volume is good to a few 1e-6 relative there and
    exact to roundoff where no plane cuts across the slices. Centers must
    lie in the wall box.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sigma = model.sigma
    lo, hi = model.wall_box
    a1, a2 = lo - pts[:, 0], hi - pts[:, 0]   # square edges from the center
    b1, b2 = lo - pts[:, 1], hi - pts[:, 1]
    z_lo = np.maximum(-sigma, lo - pts[:, 2])
    z_hi = np.minimum(sigma, hi - pts[:, 2])
    reach = np.stack([-a1, a2, -b1, b2, np.hypot(a1, b1), np.hypot(a1, b2),
                      np.hypot(a2, b1), np.hypot(a2, b2)], axis=1)
    z_kink = np.sqrt(np.maximum(sigma * sigma - reach * reach, 0.0))
    cuts = np.concatenate([z_lo[:, None], z_hi[:, None], z_kink, -z_kink],
                          axis=1)
    cuts = np.sort(np.clip(cuts, z_lo[:, None], z_hi[:, None]), axis=1)
    x, w = gauss_legendre(8, 0.0, 1.0)
    width = np.diff(cuts, axis=1)[..., None]
    z = cuts[:, :-1, None] + width * x
    rho = np.sqrt(np.maximum(sigma * sigma - z * z, 0.0))
    col = (slice(None), None, None)
    u, v = np.maximum(a1[col], -rho), np.minimum(a2[col], rho)
    area = (_min_chord_integral(u, v, -b1[col], rho)
            + _min_chord_integral(u, v, b2[col], rho))
    return (area * width * w).sum(axis=(1, 2))


def wall_contact_rate_prediction(model: HardSphereModel,
                                 T: float = 1.0) -> float:
    """Per-particle wall-hit frequency with the spheres' excluded volume.

    Wall contact theorem: a face is hit at the one-body density at contact
    times <v_n^+> = sqrt(T / 2 pi). With k1(r) = (1 - v(r))^(N-1), v(r) the
    measure of the exclusion ball around r clipped to the wall box over the
    wall volume, the density is proportional to k1, so the rate is
    wall_rate_prediction times the face-averaged k1 over the box-averaged
    k1. At a wall up to half the ball falls outside, so k1 is larger there
    and the ratio exceeds 1. Both averages are product Gauss-Legendre rules
    on the half axis [sigma/2, box/2] (v is symmetric about the center),
    split where the ball first reaches a wall.
    """
    lo = model.wall_box[0]
    cuts = sorted({lo, 0.5 * model.box} | {
        c for c in (lo + model.sigma, model.box - lo - model.sigma)
        if lo < c < 0.5 * model.box})
    rules = [gauss_legendre(8, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    x = np.concatenate([r[0] for r in rules])
    w = np.concatenate([r[1] for r in rules])
    face = np.stack(np.meshgrid(x, x, [lo], indexing="ij"), -1).reshape(-1, 3)
    w_face = np.outer(w, w).ravel()
    bulk, w_bulk = tensor_rule(x, w)

    def mean_k1(points, weights):
        v = _clipped_ball_volume(points, model) / model.wall_volume
        return float(((1.0 - v) ** (model.n - 1) * weights).sum()
                     / weights.sum())

    ratio = mean_k1(face, w_face) / mean_k1(bulk, w_bulk)
    return wall_rate_prediction(model, T) * ratio
