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
    offsets = [0]  # flat offset of each corner from its cell
    for ax in axes:
        offsets = [o * len(ax) + h for h in (0, 1) for o in offsets]
    out = np.zeros(flat.shape[0])
    for lo in range(0, flat.shape[0], INTERP_BLOCK):
        block = flat[lo:lo + INTERP_BLOCK]
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
        acc = out[lo:lo + INTERP_BLOCK]
        for corner, off in enumerate(offsets):
            w = prefix[corner % len(prefix)] * lo_hi[corner // len(prefix)]
            acc += w * values[off:].take(cell)
    return out.reshape(points.shape[:-1])


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
