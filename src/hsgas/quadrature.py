"""Deterministic quadrature rules for velocity boxes and contact spheres.

Velocity integrals use tensor-product Gauss-Legendre on a truncated box of
half-width v_max thermal speeds. Contact-sphere integrals come in two
flavours:

* ``hemisphere_rule`` - a product rule in (u, phi) meant to be used in a frame
  aligned with the pair relative velocity, where u = cos(theta) against that
  axis. The incoming/outgoing split is then exact (u < 0 vs u > 0) and the
  integrand is smooth, so modest node counts are spectrally accurate.
* ``sphere_grid`` - a fixed lab-frame product grid over the whole sphere with
  antipodal symmetry, for surface integrals without a hemisphere split.

Requested node budgets are satisfied with product counts >= the request; the
realized counts are reported alongside the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

INTERP_BLOCK = 1 << 14  # points per pass of multilinear


@dataclass(frozen=True)
class QuadratureSpec:
    """Budgets and mode for operator quadratures.

    velocity_nodes is per axis; MC mode draws velocity_nodes**3 joint
    (v2, e) samples so a budget means the same work in either mode.
    angle_nodes is the full-sphere node budget (ignored by MC, which
    samples directions jointly). position_nodes is per axis for
    position-space integrals.
    """

    v_max: float = 6.0
    velocity_nodes: int = 24
    angle_nodes: int = 302
    mode: str = "deterministic"
    seed: int = 0
    position_nodes: int = 12

    def __post_init__(self):
        if self.v_max < 4.0:
            raise ValueError(f"v_max must be >= 4 thermal speeds, got {self.v_max}")
        if self.velocity_nodes < 8 or self.angle_nodes < 8:
            raise ValueError("node counts must be >= 8")
        if self.mode not in ("deterministic", "mc"):
            raise ValueError(f"unknown quadrature mode {self.mode!r}")

    def coarsened(self) -> "QuadratureSpec":
        """Companion rule with ~2/3 of the nodes, for nested error estimates."""
        return replace(
            self,
            velocity_nodes=max(8, (2 * self.velocity_nodes) // 3),
            angle_nodes=max(8, (2 * self.angle_nodes) // 3),
        )


@lru_cache(maxsize=128)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(n: int, a: float, b: float):
    """Nodes and weights on [a, b]."""
    x, w = _leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def tensor_rule(x, w):
    """The 3-d product of a 1-d rule: nodes (m^3, 3) and weights (m^3,).

    Nodes run in C order over (x, y, z); node (i, j, k) has weight
    (w_i w_j) w_k, multiplied in that order.
    """
    nodes = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = (w[:, None, None] * w[None, :, None] * w[None, None, :]).reshape(-1)
    return nodes, weights


def velocity_grid(spec: QuadratureSpec, v_th: float, center=None):
    """Tensor GL nodes (m,3) and weights (m,) on the truncated velocity box."""
    half = spec.v_max * v_th
    nodes, weights = tensor_rule(*gauss_legendre(spec.velocity_nodes, -half, half))
    if center is not None:
        nodes = nodes + np.asarray(center, dtype=float)
    return nodes, weights


def _hemisphere_counts(angle_nodes: int) -> tuple[int, int]:
    # product counts n_u * n_phi >= angle_nodes / 2 with n_phi ~ 3 n_u
    target = max(8, (angle_nodes + 1) // 2)
    n_u = max(4, int(np.ceil(np.sqrt(target / 3.0))))
    n_phi = int(np.ceil(target / n_u))
    return n_u, n_phi


def hemisphere_rule(angle_nodes: int):
    """Product rule on the hemisphere u in (0,1], phi in [0,2pi).

    Returns (u, wu, phi, wphi, realized) where realized = len(u)*len(phi).
    Weights integrate dOmega restricted to the hemisphere: sum(wu)*sum(wphi)
    equals 2*pi.
    """
    n_u, n_phi = _hemisphere_counts(angle_nodes)
    u, wu = gauss_legendre(n_u, 0.0, 1.0)
    phi = (np.arange(n_phi) + 0.5) / n_phi * 2.0 * np.pi
    wphi = np.full(n_phi, 2.0 * np.pi / n_phi)
    return u, wu, phi, wphi, n_u * n_phi


def sphere_grid(angle_nodes: int):
    """Antipodally symmetric full-sphere product grid.

    Returns (nodes (m,3), weights (m,), realized_count). Even GL order in
    cos(theta) keeps nodes off the equator and the set antipodally symmetric.
    """
    target = max(8, int(angle_nodes))
    n_u = max(4, int(np.ceil(np.sqrt(target / 2.0) / 1.2)))
    if n_u % 2:
        n_u += 1
    n_phi = int(np.ceil(target / n_u))
    if n_phi % 2:
        n_phi += 1
    u, wu = gauss_legendre(n_u, -1.0, 1.0)
    phi = (np.arange(n_phi) + 0.5) / n_phi * 2.0 * np.pi
    s = np.sqrt(1.0 - u ** 2)
    nodes = np.stack(
        [
            (s[:, None] * np.cos(phi)[None, :]),
            (s[:, None] * np.sin(phi)[None, :]),
            np.broadcast_to(u[:, None], (n_u, n_phi)),
        ],
        axis=-1,
    ).reshape(-1, 3)
    weights = (wu[:, None] * np.full(n_phi, 2.0 * np.pi / n_phi)[None, :]).reshape(-1)
    return nodes, weights, n_u * n_phi


def multilinear(axes, values, points) -> np.ndarray:
    """Multilinear interpolation on a rectilinear grid, clamped to its hull.

    axes holds d increasing node arrays of two nodes or more, values the
    table on them and points an (..., d) array; the result has shape
    points.shape[:-1]. On each axis a point's cell is the count of interior
    nodes at or below it. Corner bit k selects the upper node on axis k, a
    corner's weight multiplies the axis weights in axis order, and the
    corners add up in corner order. Points are handled INTERP_BLOCK at a
    time, which bounds the temporaries for large inputs.

    A block compares its points only against the nodes between its least and
    its greatest coordinate on each axis. Where no node falls between them,
    the block sits in one cell on that axis, and its cell, left and right
    nodes are scalars; in one cell on every axis, its 2^d corner values are
    read as scalars. Each point keeps the arithmetic of a lone point.
    """
    points = np.asarray(points, dtype=float)
    flat = points.reshape(-1, len(axes))
    values = np.asarray(values, dtype=float).ravel()
    offsets = corner_offsets(axes)
    out = np.zeros(flat.shape[0])
    for lo in range(0, flat.shape[0], INTERP_BLOCK):
        cell, weights = corner_weights(axes, flat[lo:lo + INTERP_BLOCK])
        acc = out[lo:lo + INTERP_BLOCK]
        for w, off in zip(weights, offsets):
            acc += w * values[off:].take(cell)
    return out.reshape(points.shape[:-1])


def corner_offsets(axes) -> list:
    """Flat offset of each corner of a cell from its lower corner, in corner
    order (bit k selects the upper node on axis k), in a C-order table."""
    offsets = [0]
    for ax in axes:
        offsets = [o * len(ax) + h for h in (0, 1) for o in offsets]
    return offsets


def corner_weights(axes, block):
    """(cell, weights) of multilinear's rule for points block (n, d).

    cell is each point's lower corner as a flat C-order index into the
    table (a scalar where the block lies in one cell on every axis) and
    weights yields the 2^d corner weights in corner order, each when asked
    for, so that only one is held at a time.
    """
    cell = 0
    prefix = [1.0]  # corner weights over every axis but the last
    for k, ax in enumerate(axes):
        x = np.clip(block[:, k], ax[0], ax[-1])
        inner = ax[1:-1]
        least, most = x.min(), x.max()
        if least <= most:  # no NaN among the block's points
            below = np.searchsorted(inner, [least, most], side="right")
        else:
            below = (0, len(inner))
        i = below[0]
        if below[1] > below[0]:
            i = np.full(block.shape[0], i, dtype=np.intp)
            for node in inner[below[0]:below[1]]:
                i += x >= node
        left, right = ax.take(i), ax.take(i + 1)
        f = np.clip((x - left) / (right - left), 0.0, 1.0)
        lo_hi = (1.0 - f, f)
        cell = cell * len(ax) + i
        if k < len(axes) - 1:
            prefix = [w * lo_hi[h] for h in (0, 1) for w in prefix]
    weights = (prefix[corner % len(prefix)] * lo_hi[corner // len(prefix)]
               for corner in range(2 ** len(axes)))
    return cell, weights


def multilinear_on_sphere(axes, values, center, radii, directions):
    """multilinear at center + s n for each radius s and unit n (..., d).

    Returns one array of shape directions.shape[:-1] per radius: the same
    interpolant as multilinear, clamped to the hull alike, read without
    forming the points. It agrees with multilinear at the points to a few
    ulps of the largest |value| the sphere reaches (a sphere that spans many
    cells loses a little more), and is exact on a constant table. center is
    one point (d,); each radius is >= 0.

    Along axis k the clamped interpolant is piecewise linear in x, with
    breakpoints at the nodes (at the outer two its slope turns to 0). On the
    sphere x = c + s t with t = n_k, so it is A + B t plus a hinge term
    D_q max(t - tau_q, 0) for each node above c and D_q max(tau_q - t, 0)
    for each node at or below c, over the nodes strictly inside (c - s,
    c + s): A and B continue the segment that holds c, tau_q = (node_q - c)
    / s and D_q is the change of slope at node_q. Taken on every axis, these
    coefficients form a small tensor, built once per radius from the table
    by differences (a constant table gives zeros besides A). Each point then
    evaluates a polynomial in n's components and its hinges, one
    multiply-add per coefficient, with no cell lookup; a sphere inside one
    cell on every axis has no hinges and 2^d coefficients.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (len(axes),):
        raise ValueError(f"multilinear_on_sphere takes one center of "
                         f"{len(axes)} coordinates, got shape {center.shape}")
    n = np.asarray(directions, dtype=float)
    comps = np.ascontiguousarray(n.reshape(-1, len(axes)).T)
    values = np.asarray(values, dtype=float)
    return [_on_sphere(axes, values, center, s, comps).reshape(n.shape[:-1])
            for s in radii]


def _on_sphere(axes, values, center, radius, comps):
    """multilinear_on_sphere at one radius, on the components comps (d, P)."""
    coef = values
    bases = []  # per axis: the point values of t and of its hinges
    for c, t, ax in zip(center, comps, axes):
        # coef's axis 0 is this axis; the axes done hold their coefficients
        # in coef's trailing dimensions. Slopes per unit x of the segments
        # below ax[0], of the cells and above ax[-1]:
        width = np.diff(ax).reshape((-1,) + (1,) * (coef.ndim - 1))
        flat = np.zeros_like(coef[:1])
        slope = np.concatenate([flat, np.diff(coef, axis=0) / width, flat])
        seg = int(np.searchsorted(ax, c, side="right"))
        node = min(max(seg - 1, 0), len(ax) - 1)  # the segment's left end
        crossed = [q for q in range(len(ax))
                   if c - radius < ax[q] < c + radius]
        parts = [coef[node] + (c - ax[node]) * slope[seg],
                 radius * slope[seg]]
        parts += [radius * (slope[q + 1] - slope[q]) for q in crossed]
        coef = np.stack(parts, axis=-1)
        hinges = [t - tau if tau > 0 else tau - t
                  for tau in ((ax[q] - c) / radius for q in crossed)]
        bases.append([t] + [np.maximum(h, 0.0, out=h) for h in hinges])
    # the coefficients in C order over the axes' terms, the last axis
    # fastest, summed axis by axis from the last in arrays made here
    terms = list(coef.ravel())
    for level, basis in enumerate(reversed(bases)):
        size = len(basis) + 1
        reduced = []
        for g in range(0, len(terms), size):
            acc = None
            for phi, a in zip(basis, terms[g + 1:g + size]):
                a = phi * a if level == 0 else np.multiply(a, phi, out=a)
                acc = a if acc is None else np.add(acc, a, out=acc)
            acc += terms[g]
            reduced.append(acc)
        terms = reduced
    return terms[0]


def row_norm(a) -> np.ndarray:
    """Euclidean norm over the last axis (length 3), component by component.

    Same value as np.linalg.norm(a, axis=-1), without a reduction over a
    length-3 axis.
    """
    a = np.asarray(a, dtype=float)
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def orthonormal_frames(g: np.ndarray):
    """Right-handed frames (ghat, e1, e2) for rows of g, shape (...,3).

    Rows with |g| = 0 get an arbitrary frame; callers weight those by |g|
    factors that vanish anyway.
    """
    g = np.asarray(g, dtype=float)
    norm = row_norm(g)[..., None]
    safe = np.where(norm > 0, norm, 1.0)
    ghat = g / safe
    zero = (norm.squeeze(-1) == 0)
    if np.any(zero):
        ghat = ghat.copy()
        ghat[zero] = np.array([1.0, 0.0, 0.0])
    # reference axis: the coordinate axis least aligned with ghat
    ref_idx = np.argmin(np.abs(ghat), axis=-1)
    ref = np.zeros_like(ghat)
    np.put_along_axis(ref, ref_idx[..., None], 1.0, axis=-1)
    e1 = np.cross(ghat, ref)
    e1 /= row_norm(e1)[..., None]
    e2 = np.cross(ghat, e1)
    return ghat, e1, e2
