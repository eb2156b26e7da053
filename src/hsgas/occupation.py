"""Occupation coefficients: how much phase space the other spheres leave free.

The one-point coefficient k1(r) is the probability that none of the other
N-1 spheres, each distributed with the wall-conditioned one-body position
law reweighted self-consistently by 1/k1, overlaps a sphere inserted at r.
Under independent placements this is (1 - v(r))^(N-1) with v(r) the
reweighted measure of the exclusion ball around r.

The s-point coefficient k_s(r_1..r_s) = (1 - v_union)^(N-s) uses the
measure of the union of the s exclusion balls, so k1 at a grid node is k_s
with s = 1. One Monte Carlo estimator serves both: solve_k1 iterates it at
s = 1 to the self-consistent fixed point, and estimate_ks applies it once
per position tuple with a solved k1 field. It uses a mixture proposal: a
large bank of wall-conditioned positions shared by every node or tuple
(common random numbers across nodes and sequence entries) plus per-stack
draws placed uniformly inside the union of the balls, so the rare in-ball
measure is resolved with per-mille relative error instead of Poisson
counting noise. Each estimate splits into SHARDS independent replicas for
its stderr and carries the error of the wall-box measure z_w.

solve_k1 runs its grid nodes on two cores through runio.split_work: the
process draws the bank once and forks, and each process draws the ball
proposals of one contiguous half of the nodes and runs the Picard loop on
it, swapping (values, stderr) halves every iteration, so both hold the same
whole field and take the same damping and convergence decisions. A node's
update reads only the bank, its own proposals (each node has its own stream,
derive_rng(seed, "occupation", "ball", i)) and the current field, and the
halves travel pickled, which keeps every bit, so the field is the same bytes
as in one process. The 1/k1 bank weights split the same way: each process
weights its share of the bank rows (the interpolation is pointwise) and a
gather joins the shares before the shard means are taken on the whole. A
solve inside a half of another split (a sweep's entries, bg._sweep) runs
whole in its process.

The proposals of a solve keep only the in-ball positions and the bank hits:
the first Picard pass (k1 = 1, bank weights all ones) is taken as each
node's draws are made, and each later pass recomputes the draws' densities
p theta_w and q (_ball_densities) with the same expressions, so the same
bits, instead of holding them for every node. The bank's cell index and
its densities are released once the draws are made.

A solved k1 is a table on a cell-centred cubic grid (OccupationField), read
off the grid by quadrature.multilinear, the interpolator that the tabulated
pdf shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .geometry import (
    MAX_SAMPLE_TRIES,
    HardSphereModel,
    PhasePoint,
    ensemble_theta,
    wall_theta,
)
from .quadrature import (gauss_legendre, multilinear, multilinear_on_sphere,
                         row_norm, tensor_rule)
from .runio import split_work, write_csv
from .seeding import derive_rng

BALL_MIX_FRACTION = 0.1  # share of each node's sample count drawn in-ball
SHARDS = 16  # independent sub-estimates behind each Monte Carlo stderr
PICARD_MAX_ITER = 12  # solve_k1 raises after this many Picard iterations
PICARD_DAMPING = 0.5  # weight of the old field when a Picard step grows
# wall-conditioned sampling gives up after this many proposals per draw
MAX_PROPOSAL_FACTOR = 2000
# contact_pair_tuples: default pair separation and wall clearance, in sigma
PAIR_SEPARATION = 2.2
PAIR_CLEARANCE = 3.0
# the solve_k1 budget of runs that use k1 only as importance weights (ks,
# ops, chaos); solve_k1's own defaults are the budget of a k1 run
COARSE_K1 = {"grid_nodes": 6, "samples_per_node": 200_000}
KS_SAMPLES = 200_000  # estimate_ks budget per tuple (ks.samples, bg.samples)


# ---------------------------------------------------------------------------
# field container


@dataclass
class OccupationField:
    """k1 tabulated on a cell-centered cubic grid, multilinear off-grid."""

    axis: np.ndarray          # (m,) cell centers, shared by x, y, z
    values: np.ndarray        # (m, m, m)
    stderr: np.ndarray        # (m, m, m)
    model: HardSphereModel | None = None
    info: dict = dataclass_field(default_factory=dict)

    @classmethod
    def constant(cls, grid_nodes: int, box: float, value: float = 1.0,
                 model=None):
        ax = (np.arange(grid_nodes) + 0.5) * box / grid_nodes
        shape = (grid_nodes,) * 3
        return cls(axis=ax, values=np.full(shape, value),
                   stderr=np.zeros(shape), model=model)

    @property
    def grid_nodes(self) -> int:
        return len(self.axis)

    def nodes(self) -> np.ndarray:
        """All grid nodes as an (m^3, 3) array in C order."""
        g = np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")
        return np.stack(g, axis=-1).reshape(-1, 3)

    def interp(self, r) -> np.ndarray:
        """Multilinear interpolation, clamped to the outermost cell centers."""
        return multilinear((self.axis,) * 3, self.values, r)

    def interp_on_sphere(self, center, radii, n) -> list:
        """[interp at center + s n for s in radii] for one center and unit
        n (..., 3), within roundoff (quadrature.multilinear_on_sphere)."""
        return multilinear_on_sphere((self.axis,) * 3, self.values, center,
                                     radii, n)

    def sup_abs_deviation(self) -> float:
        return float(np.abs(self.values - 1.0).max())

    def to_csv(self, path):
        pts = self.nodes()
        rows = np.column_stack(
            [pts, self.values.reshape(-1), self.stderr.reshape(-1)]
        )
        write_csv(path, ["x", "y", "z", "k1", "stderr"], rows)


# ---------------------------------------------------------------------------
# wall-conditioned sampling


def wall_conditioned_positions(pdf, model: HardSphereModel, count: int, rng):
    """Draw positions from the pdf conditioned on wall clearance.

    Returns (positions, z_w_estimate, z_w_stderr) where z_w is the
    pdf-measure of the wall-clearance region, read off the acceptance rate.
    """
    out = np.empty((count, 3))
    got = 0
    proposed = 0
    accepted = 0
    while got < count:
        n = max(2 * (count - got), 64)
        r = pdf.sample_positions(n, rng)
        ok = wall_theta(r, model) > 0
        proposed += n
        accepted += int(ok.sum())
        take = r[ok][: count - got]
        out[got:got + take.shape[0]] = take
        got += take.shape[0]
        if proposed > MAX_PROPOSAL_FACTOR * count + 10_000:
            raise RuntimeError(
                f"wall-conditioned acceptance too low: {accepted}/{proposed}"
            )
    z = accepted / proposed
    z_se = math.sqrt(max(z * (1.0 - z), 1e-30) / proposed)
    return out, z, z_se


def hat_normalization(model: HardSphereModel, pdf, k1_field,
                      nodes_1d: int = 12) -> float:
    """Z1 = integral of p(r) theta_w(r) k1(r) over the box.

    Normalizes the one-point marginal rho1 = p theta_w k1 / Z1; the
    occupation-stripped density is then rho_hat = rho1 / k1 = p theta_w / Z1.
    theta_w restricts the integral to the wall box, so the rule runs over
    that interval directly; an indicator over the full box would put the
    jump inside the quadrature domain and stall convergence.
    """
    lo, hi = model.sigma / 2.0, model.box - model.sigma / 2.0
    g, ww = tensor_rule(*gauss_legendre(nodes_1d, lo, hi))
    dens = pdf.position_density(g) * (wall_theta(g, model) > 0)
    return float((ww * dens * k1_field.interp(g)).sum())


class _CellIndex:
    """Uniform-cell spatial index for fixed points, radius queries."""

    def __init__(self, pts: np.ndarray, cell: float, box: float):
        self.pts = pts
        self.cell = cell
        self.dims = max(1, int(math.ceil(box / cell)))
        ids = self._ids(pts)
        # a stable sort of 16-bit keys is numpy's radix sort: the same
        # permutation, several times faster; the searches keep int64 ids
        keys = ids.astype(np.uint16) if self.dims ** 3 <= 1 << 16 else ids
        self.order = np.argsort(keys, kind="stable")
        self.sorted_ids = ids[self.order]

    def _ids(self, pts):
        c = np.clip((pts / self.cell).astype(np.int64), 0, self.dims - 1)
        return (c[..., 0] * self.dims + c[..., 1]) * self.dims + c[..., 2]

    def query_ball(self, center, radius):
        lo = np.clip(((center - radius) / self.cell).astype(int), 0, self.dims - 1)
        hi = np.clip(((center + radius) / self.cell).astype(int), 0, self.dims - 1)
        cand = []
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                base = (cx * self.dims + cy) * self.dims
                a = np.searchsorted(self.sorted_ids, base + lo[2], side="left")
                b = np.searchsorted(self.sorted_ids, base + hi[2], side="right")
                if b > a:
                    cand.append(self.order[a:b])
        if not cand:
            return np.empty(0, dtype=np.intp)
        idx = np.concatenate(cand)
        d2 = ((self.pts[idx] - center) ** 2).sum(axis=1)
        return idx[d2 <= radius * radius]


class _Bank:
    """Wall-conditioned positions shared by every ball of one estimate.

    The sample budget splits into the bank and ball_count in-ball proposals
    per s-point stack (BALL_MIX_FRACTION of the budget); both divide into
    SHARDS equal blocks, the independent replicas behind each stderr, so
    bank row j is in shard j // (len(pts) // SHARDS). The cell index and
    the densities p serve only the draws of _ball_proposals.
    """

    def __init__(self, pdf, model: HardSphereModel, samples: int, rng):
        beta = BALL_MIX_FRACTION
        size = int(round((1.0 - beta) * samples))
        ball_count = int(round(size * beta / (1.0 - beta)))
        size -= size % SHARDS
        ball_count -= ball_count % SHARDS
        if size < SHARDS or ball_count < SHARDS:
            raise ValueError(f"{samples} samples are too few for {SHARDS} "
                             "shards")
        self.pts, self.z_w, self.z_w_se = wall_conditioned_positions(
            pdf, model, size, rng)
        self.p = pdf.position_density(self.pts)
        self.index = _CellIndex(self.pts, max(model.sigma, model.box / 64.0),
                                model.box)
        self.ball_count = ball_count
        self.m_tot = size // SHARDS + ball_count // SHARDS
        self.beta_eff = (ball_count // SHARDS) / self.m_tot

    def weights(self, k1_field, rows=slice(None), gather=lambda x: [x]):
        """1/k1 on the bank and its per-shard means; k1 = 1 when None.

        This process weights the bank rows `rows` and gather joins every
        process's rows, in order, into the whole bank.
        """
        inv_k = (np.ones(len(self.pts)) if k1_field is None
                 else np.concatenate(gather(
                     1.0 / k1_field.interp(self.pts[rows]))))
        return inv_k, inv_k.reshape(SHARDS, -1).mean(axis=1)


class _Proposals(NamedTuple):
    """In-ball draws around one s-point stack and the bank hits of its union.

    Everything here is fixed once drawn; only the 1/k1 weights change
    between Picard iterations. The draws keep only their positions:
    _ball_densities recomputes their densities where a pass reads them.
    """

    fixed: np.ndarray       # the s-point stack, one ball centre per row
    pts: np.ndarray         # in-ball draws
    hit_idx: np.ndarray     # bank points inside the union
    p_hit: np.ndarray
    q_hit: np.ndarray


def _ball_law(bank: _Bank, fixed, sigma: float, at):
    """beta x (balls covering each point) / (s |ball|)."""
    covering = np.zeros(at.shape[0], dtype=np.intp)
    for center in fixed:
        dx, dy, dz = (at[:, k] - center[k] for k in range(3))
        covering += dx * dx + dy * dy + dz * dz < sigma * sigma
    v_ball_vol = 4.0 / 3.0 * math.pi * sigma ** 3
    return bank.beta_eff * covering / (fixed.shape[0] * v_ball_vol)


def _ball_proposals(model: HardSphereModel, bank: _Bank, fixed,
                    rng) -> _Proposals:
    """Uniform draws in the union of the exclusion balls of an s-point stack.

    The mixture proposal is the bank law with weight 1 - beta plus the
    uniform law on the union with weight beta, its density counting how many
    balls cover each point.
    """
    s, sigma = fixed.shape[0], model.sigma
    b_idx = rng.integers(s, size=bank.ball_count)
    radius = sigma * np.cbrt(rng.random(bank.ball_count))
    d = rng.normal(size=(bank.ball_count, 3))
    d /= row_norm(d)[:, None]
    pts = fixed[b_idx] + radius[:, None] * d
    hits = [bank.index.query_ball(r, sigma) for r in fixed]
    # a point in several overlapping balls is still one bank sample
    hit_idx = hits[0] if s == 1 else np.unique(np.concatenate(hits))
    p_hit = bank.p[hit_idx]
    q_hit = ((1.0 - bank.beta_eff) * p_hit / bank.z_w
             + _ball_law(bank, fixed, sigma, bank.pts[hit_idx]))
    return _Proposals(fixed, pts, hit_idx, p_hit, q_hit)


def _ball_densities(pdf, model: HardSphereModel, bank: _Bank,
                    prop: _Proposals):
    """(p theta_w, q) at prop's draws: the target and the mixture density.

    The same expressions on the same draws, so every call gives the same
    bits; a solve recomputes them per pass instead of holding them.
    """
    p_thw = (pdf.position_density(prop.pts)
             * wall_theta(prop.pts, model).astype(float))
    q = ((1.0 - bank.beta_eff) * p_thw / bank.z_w
         + _ball_law(bank, prop.fixed, model.sigma, prop.pts))
    return p_thw, q


def _union_measure(pdf, model: HardSphereModel, bank: _Bank, weights,
                   prop: _Proposals, k1_field):
    """(v_hat, v_se): reweighted measure of the union of the s balls.

    weights = bank.weights(k1_field); k1 = 1 when k1_field is None.
    """
    inv_k_bank, den = weights
    p_thw, q_pts = _ball_densities(pdf, model, bank, prop)
    inv_k_pts = 1.0 if k1_field is None else 1.0 / k1_field.interp(prop.pts)
    contrib_ball = p_thw * inv_k_pts / q_pts
    contrib_hit = prop.p_hit * inv_k_bank[prop.hit_idx] / prop.q_hit
    hit_shards = prop.hit_idx // (len(bank.pts) // SHARDS)
    block = bank.ball_count // SHARDS
    v_shards = np.empty(SHARDS)
    for q in range(SHARDS):
        num = contrib_ball[q * block:(q + 1) * block].sum()
        num += contrib_hit[hit_shards == q].sum()
        # num/m_tot estimates the in-ball mass of p theta_w / k1;
        # z_w * den converts it to the normalized reweighted law
        v_shards[q] = num / bank.m_tot / (bank.z_w * den[q])
    v_hat = float(np.clip(v_shards.mean(), 0.0, 1.0 - 1e-12))
    v_se = float(v_shards.std(ddof=1) / math.sqrt(SHARDS))
    # z_w sensitivity: the explicit 1/z_w factor and the mixture
    # denominator shift pull in opposite directions; bank_share is the
    # mean share of q from the bank law
    bank_share = float(((1.0 - bank.beta_eff) * p_thw / bank.z_w
                        / q_pts).mean())
    v_se = math.hypot(v_se, v_hat * (bank.z_w_se / bank.z_w)
                      * abs(1.0 - bank_share))
    return v_hat, v_se


# ---------------------------------------------------------------------------
# one-point solver


def solve_k1(model: HardSphereModel, pdf, *, grid_nodes: int = 8,
             samples_per_node: int = 1_000_000, seed: int = 0,
             tol: float = 1e-3) -> OccupationField:
    """Self-consistent one-point occupation coefficients on a cubic grid.

    Iterates k -> (1 - v[k])^(N-1) where v[k] is the exclusion-ball measure
    of the wall-conditioned position law reweighted by 1/k (damped Picard on
    oscillation), on two cores when it may (see the module docstring).
    Raises on non-convergence and when the Monte Carlo error exceeds tol/2
    at any node.
    """
    n, sigma, box = model.n, model.sigma, model.box
    field = OccupationField.constant(grid_nodes, box, 1.0, model=model)
    if sigma == 0.0:
        field.info.update(iterations=0, converged=True, bank_size=0,
                          samples_per_node=0, seed=seed,
                          sup_change_history=[])
        return field

    bank = _Bank(pdf, model, samples_per_node,
                 derive_rng(seed, "occupation", "bank"))
    nodes = field.nodes()

    def update(prop, weights, k1):
        """k1 at a node and its stderr, from the node's proposals."""
        v_hat, v_se = _union_measure(pdf, model, bank, weights, prop, k1)
        return ((1.0 - v_hat) ** (n - 1),
                (n - 1) * (1.0 - v_hat) ** (n - 2) * v_se)

    def picard(lo, hi, gather):
        """The Picard loop on nodes [lo, hi); gather joins the halves."""
        # per-node ball proposals are drawn once and reused across
        # iterations so the Picard map sees a fixed sample (deterministic
        # fixed point). The first pass runs at k1 = 1, whose bank weights
        # are all ones, so it is taken as each node's draws are made
        ones = bank.weights(None)
        proposals, half = [], np.empty((2, hi - lo))
        for i in range(lo, hi):
            prop = _ball_proposals(model, bank, nodes[i:i + 1],
                                   derive_rng(seed, "occupation", "ball", i))
            half[:, i - lo] = update(prop, ones, None)
            proposals.append(prop)
        bank.index = bank.p = None  # only the draws read them
        values, stderr, history = field.values, field.stderr, []
        # this half's share of the bank rows, in proportion to its nodes
        rows = slice(len(bank.pts) * lo // len(nodes),
                     len(bank.pts) * hi // len(nodes))
        for it in range(PICARD_MAX_ITER):
            if it > 0:
                k1 = OccupationField(field.axis, values, stderr)
                weights = bank.weights(k1, rows, gather)
                for i, prop in enumerate(proposals):
                    half[:, i] = update(prop, weights, k1)
            whole = np.concatenate(gather(half), axis=1)
            new_vals = whole[0].reshape(values.shape)
            change = float(np.abs(new_vals - values).max())
            if len(history) >= 1 and change > history[-1]:
                new_vals = (PICARD_DAMPING * values
                            + (1.0 - PICARD_DAMPING) * new_vals)
                change = float(np.abs(new_vals - values).max())
            history.append(change)
            values, stderr = new_vals, whole[1].reshape(values.shape)
            if change < 0.1 * tol:
                break
        return values, stderr, history

    values, stderr, history = split_work(len(nodes), picard,
                                         "occupation.solve_k1")
    field = OccupationField(axis=field.axis, values=values, stderr=stderr,
                            model=model, info=field.info)
    iterations = len(history)
    converged = history[-1] < 0.1 * tol
    if not converged:
        raise RuntimeError(
            f"occupation solver did not converge in {PICARD_MAX_ITER} "
            f"iterations; last sup-change {history[-1]:.3e}"
        )
    worst = float(field.stderr.max())
    if worst > 0.5 * tol:
        raise RuntimeError(
            f"occupation Monte Carlo error {worst:.3e} exceeds tol/2 "
            f"({0.5 * tol:.3e}); raise k1.samples_per_node"
        )
    field.info.update(
        iterations=iterations, converged=converged, seed=seed,
        bank_size=len(bank.pts), ball_per_node=bank.ball_count,
        shards=SHARDS, z_w=bank.z_w, z_w_stderr=bank.z_w_se,
        sup_change=history[-1], sup_change_history=history,
        samples_per_node=samples_per_node,
    )
    return field


# ---------------------------------------------------------------------------
# s-point coefficients and pair structure


@dataclass
class PairOccupation:
    """s-point occupation estimates at a batch of position tuples."""

    points: list              # each entry an (s, 3) position stack
    ks_values: np.ndarray     # (len(points),)
    mc_error: np.ndarray      # (len(points),)
    s: int
    info: dict = dataclass_field(default_factory=dict)


def estimate_ks(model: HardSphereModel, pdf, tuples, *,
                samples: int = KS_SAMPLES, seed: int = 0,
                k1_field: OccupationField | None = None) -> PairOccupation:
    """Monte Carlo s-point occupation coefficients at position tuples.

    k_s(r_1..r_s) = (1 - v_union)^(N-s) with v_union the measure of the union
    of the s exclusion balls under the wall-conditioned one-body position law,
    reweighted by 1/k1 when a solved field is supplied (the self-consistent
    convention of solve_k1). The union is resolved by a ball-mixture
    importance proposal, so thin-shell tuples do not suffer Poisson noise.
    s = N returns exactly 1: no free spheres remain.
    """
    tuples = [np.atleast_2d(np.asarray(p, dtype=float)) for p in tuples]
    s = tuples[0].shape[0]
    if any(p.shape != (s, 3) for p in tuples):
        raise ValueError("all tuples must stack the same number of 3d points")
    n, sigma = model.n, model.sigma
    rest = n - s
    if rest < 0:
        raise ValueError(f"s={s} exceeds the particle count N={n}")
    m = len(tuples)
    if rest == 0 or sigma == 0.0:
        return PairOccupation(points=tuples, ks_values=np.ones(m),
                              mc_error=np.zeros(m), s=s,
                              info={"samples": 0, "seed": seed})

    bank = _Bank(pdf, model, samples,
                 derive_rng(seed, "occupation", "ks", "bank"))
    weights = bank.weights(k1_field)
    ks = np.empty(m)
    err = np.empty(m)
    for t_idx, fixed in enumerate(tuples):
        prop = _ball_proposals(
            model, bank, fixed,
            derive_rng(seed, "occupation", "ks", "ball", t_idx))
        v_hat, v_se = _union_measure(pdf, model, bank, weights, prop,
                                     k1_field)
        ks[t_idx] = (1.0 - v_hat) ** rest
        err[t_idx] = rest * (1.0 - v_hat) ** (rest - 1) * v_se
    return PairOccupation(
        points=tuples, ks_values=ks, mc_error=err, s=s,
        info={"samples": samples, "seed": seed, "shards": SHARDS,
              "bank_size": len(bank.pts), "ball_per_tuple": bank.ball_count,
              "reweighted": k1_field is not None},
    )


def lens_volume(d, sigma: float):
    """Overlap volume of two radius-sigma balls with centers d apart.

    Elementwise over an array of distances d; a scalar d gives a 0-d array.
    """
    d = np.asarray(d, dtype=float)
    return np.where(d >= 2.0 * sigma, 0.0,
                    math.pi / 12.0 * (4.0 * sigma + d) * (2.0 * sigma - d) ** 2)


def ball_fraction_from_k1(k1, n: int):
    """Invert k1 = (1 - v)^(N-1) for the exclusion-ball measure v."""
    if n < 2:
        raise ValueError(f"inverting k1 for the ball measure needs "
                         f"model.n >= 2, got n={n}")
    k = np.clip(k1, 1e-300, 1.0)
    return 1.0 - k ** (1.0 / (n - 1))


# lens volume of two radius-sigma balls at contact (centres sigma apart) over
# the volume of one: pi/12 (5 sigma) sigma^2 / (4/3 pi sigma^3)
CONTACT_LENS = 5.0 / 16.0


@dataclass
class ContactOccupancy:
    """Two-point occupation at contact, built on a solved one-point field.

    k2_contact(r1, n21) is k2 at r2 = r1 + sigma n21, the only two-point
    value any caller needs: (1 - v1 - v2 + lens)^(N-2), the two exclusion
    balls with their overlap counted once. At contact the overlap is the
    constant CONTACT_LENS of a ball, weighted by the ball measure at the
    midpoint (r1 + r2) / 2. Reproduces the closed uniform-density contact
    value (1 - 2.25 pi sigma^3 / wall_volume)^(N-2) in the bulk. mode
    "product" gives the k1(r1) k1(r2) factorization instead. Any other mode
    is refused.

    Every caller asks for one r1 and many directions, so k1 at r2 and at the
    midpoint is read on the spheres of radius sigma and sigma/2 about r1
    (OccupationField.interp_on_sphere), without forming those points and
    within a few ulps of k1_field.interp at them.
    """

    MODES = ("insertion", "product")

    model: HardSphereModel
    k1_field: OccupationField
    mode: str = "insertion"

    def __post_init__(self):
        if self.mode not in self.MODES:
            raise ValueError(f"unknown ContactOccupancy mode {self.mode!r}; "
                             f"expected one of {self.MODES}")

    def k2_contact(self, r1, n21):
        """k2 at exact contact: r2 = r1 + sigma * n21 for one r1 (3,) and
        unit n21 (..., 3).

        k1 at r2 and at the midpoint r1 + (sigma/2) n21 is read on the
        contact sphere (OccupationField.interp_on_sphere), within roundoff of
        interp at those points.
        """
        r1 = np.asarray(r1, dtype=float)
        if r1.shape != (3,):
            raise ValueError(f"k2_contact takes one r1 of shape (3,), got "
                             f"shape {r1.shape}")
        n21 = np.asarray(n21, dtype=float)
        n, sigma = self.model.n, self.model.sigma
        if sigma == 0.0:
            return np.ones(n21.shape[:-1])
        field = self.k1_field
        k1_r1 = field.interp(r1)
        if self.mode == "product":
            (k1_r2,) = field.interp_on_sphere(r1, (sigma,), n21)
            return k1_r1 * k1_r2
        k1_r2, k1_mid = field.interp_on_sphere(r1, (sigma, 0.5 * sigma), n21)
        v1 = ball_fraction_from_k1(k1_r1, n)
        v2 = ball_fraction_from_k1(k1_r2, n)
        vmid = ball_fraction_from_k1(k1_mid, n)
        vu = np.clip(v1 + v2 - CONTACT_LENS * vmid, 0.0, 1.0 - 1e-12)
        return (1.0 - vu) ** (n - 2)

    def g_contact(self, r1, n21):
        """Contact pair enhancement k2 / (k1(r1) k1(r2))."""
        (k1_r2,) = self.k1_field.interp_on_sphere(r1, (self.model.sigma,),
                                                  n21)
        return self.k2_contact(r1, n21) / (self.k1_field.interp(r1) * k1_r2)


def analytic_contact_k2_uniform(model: HardSphereModel) -> float:
    """Closed-form bulk contact k2 for a uniform position density."""
    if model.n < 2:
        raise ValueError(f"contact k2 needs model.n >= 2, got n={model.n}")
    union = 2.25 * math.pi * model.sigma ** 3
    return max(0.0, 1.0 - union / model.wall_volume) ** (model.n - 2)


def analytic_k1_uniform(model: HardSphereModel) -> float:
    """Closed-form bulk k1 for a uniform position density (unclipped ball)."""
    v = (4.0 / 3.0) * math.pi * model.sigma ** 3 / model.wall_volume
    return (1.0 - v) ** (model.n - 1)


# ---------------------------------------------------------------------------
# correlation defect


@dataclass
class CorrelationSample:
    """Factorization defect of the s-point density at fixed phase tuples."""

    delta_rho: np.ndarray
    mc_error: np.ndarray
    s: int
    info: dict = dataclass_field(default_factory=dict)


def correlation_delta(model: HardSphereModel, pdf,
                      k1_field: OccupationField, phase_tuples,
                      pair_occ: PairOccupation) -> CorrelationSample:
    """Defect between the s-point density and its factorized part.

    delta = Theta_bar^(s) * prod_i rho_hat(x_i) * (k_s - 1), where
    rho_hat = p theta_w / Z1 is the occupation-stripped one-point density
    (Z1 = integral of p theta_w k1, so rho_hat = rho1 / k1) and k_s comes
    from pair_occ, estimate_ks at the tuples' positions. Point particles
    (sigma = 0) give exact zeros through k_s = 1.
    """
    tuples = [tuple(tp) for tp in phase_tuples]
    s = len(tuples[0])
    if any(len(tp) != s for tp in tuples):
        raise ValueError("all phase tuples must have the same length")
    positions = [np.stack([p.r for p in tp]) for tp in tuples]
    if pair_occ.s != s or len(pair_occ.points) != len(tuples):
        raise ValueError("pair_occ does not match the phase tuples")
    z1 = hat_normalization(model, pdf, k1_field)
    deltas = np.empty(len(tuples))
    errors = np.empty(len(tuples))
    for i, (tp, pos) in enumerate(zip(tuples, positions)):
        theta_bar = float(ensemble_theta(pos, model))
        fac = 1.0
        for p in tp:
            fac *= float(pdf.density(p.r, p.v)) / z1
        ks = float(pair_occ.ks_values[i])
        deltas[i] = theta_bar * fac * (ks - 1.0)
        errors[i] = theta_bar * fac * float(pair_occ.mc_error[i])
    return CorrelationSample(delta_rho=deltas, mc_error=errors, s=s,
                             info={"z1": z1, **pair_occ.info})


class PairMisfit(ValueError):
    """contact_pair_tuples' pairs do not fit the bulk.

    The message names no config key: each caller appends the key it reads.
    """


def contact_pair_tuples(model: HardSphereModel, pdf, count: int, seed: int,
                        separation_factor: float = PAIR_SEPARATION):
    """Random bulk phase-point pairs at fixed separation, for defect scans.

    Separations default to PAIR_SEPARATION sigma: beyond the exclusion-ball
    overlap (> 2 sigma) so the pair coefficient is lens-free, close enough
    to stay local. Velocities come from the pdf at each position. Pass the
    model with the largest sigma of a sequence and reuse the tuples so
    every entry sees the same (admissible) geometry. Raises PairMisfit
    before any draw when the geometry rules the pairs out, and after
    geometry.MAX_SAMPLE_TRIES draws when they still do not fit.
    """
    sigma, box = model.sigma, model.box
    margin = max(PAIR_CLEARANCE * sigma, 0.05 * box)
    # both points keep the wall margin, so the pair must fit in the inner
    # cube [margin, box - margin]^3, whose diagonal bounds the separation
    if not margin < box / 2:
        raise PairMisfit(
            f"the wall margin {margin:.4g} = max({PAIR_CLEARANCE:g} sigma, "
            f"0.05 box) leaves no bulk in a box of {box:g}")
    diagonal = math.sqrt(3.0) * (box - 2.0 * margin)
    if separation_factor * sigma > diagonal:
        raise PairMisfit(
            f"pairs at separation {separation_factor:g} sigma = "
            f"{separation_factor * sigma:.4g} exceed the diagonal "
            f"{diagonal:.4g} of the bulk they must fit in")
    rng = derive_rng(seed, "occupation", "tuples")
    out = []
    tries = 0
    while len(out) < count:
        if tries == MAX_SAMPLE_TRIES:
            raise PairMisfit(
                f"{len(out)} of {count} pairs at separation "
                f"{separation_factor:g} sigma fit the bulk after "
                f"{MAX_SAMPLE_TRIES} tries")
        tries += 1
        r1 = rng.uniform(margin, box - margin, size=3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        r2 = r1 + separation_factor * sigma * d
        if np.all((r2 > margin) & (r2 < box - margin)):
            v1, v2 = pdf.sample_velocities(np.stack([r1, r2]), rng)
            out.append((PhasePoint(r1, v1), PhasePoint(r2, v2)))
    return out


# ---------------------------------------------------------------------------
# contact flux integral


@dataclass
class ContactIntegralReport:
    value: float
    error: float
    details: dict = dataclass_field(default_factory=dict)


def l1_k1_contact_integral(pdf, pair_occ: ContactOccupancy,
                           model: HardSphereModel, r1, *,
                           quad) -> ContactIntegralReport:
    """Free-streaming derivative of k1 along a probe, as a contact flux.

    Transporting the occupation coefficient along a trajectory with velocity
    v1 picks up the net flux of conditional partner density through the
    contact sphere:

        value = -(N-1) sigma^2 * Int dOmega(n) [(v1 - u(r2)) . n]
                 * rho1(r2) * k2_contact(r1, n),   r2 = r1 + sigma n,

    with rho1 = p theta_w k1 / Z1 the one-point marginal (k1 from the field
    carried by pair_occ) and u the local drift of the partner law. The n-even
    part of the integrand cancels by parity, so the value scales with the
    density gradient times (N-1) sigma^3 and vanishes identically for a
    uniform bulk density.

    The probe is v1 = v_th (1,1,1)/sqrt(3): a fixed unit-thermal probe
    keeps scans comparable across sequence entries.
    """
    from .quadrature import sphere_grid

    r1 = np.asarray(r1, dtype=float)
    n_part, sigma = model.n, model.sigma
    v1 = np.full(3, pdf.v_th / math.sqrt(3.0))
    if sigma == 0.0:
        return ContactIntegralReport(0.0, 0.0, {"reason": "zero diameter"})
    k1_field = pair_occ.k1_field
    # the coarsened rule keeps position_nodes, so one Z1 serves both rules
    z1 = hat_normalization(model, pdf, k1_field, quad.position_nodes)

    def evaluate(q):
        nodes, weights, _ = sphere_grid(q.angle_nodes)
        r2 = r1[None, :] + sigma * nodes
        rho1 = (pdf.position_density(r2) * (wall_theta(r2, model) > 0)
                * k1_field.interp(r2) / z1)
        flux = -((v1[None, :] - pdf.drift(r2)) * nodes).sum(axis=1)
        k2 = pair_occ.k2_contact(r1, nodes)
        val = (n_part - 1) * sigma ** 2 * float(
            (weights * flux * rho1 * k2).sum())
        norm = (n_part - 1) * sigma ** 2 * float(
            (weights * np.abs(flux) * rho1 * k2).sum())
        return val, norm

    value, scale = evaluate(quad)
    coarse, _ = evaluate(quad.coarsened())
    error = abs(value - coarse) + 1e-13 * scale
    return ContactIntegralReport(value=value, error=error,
                                 details={"coarse": coarse,
                                          "integrand_norm": scale})
