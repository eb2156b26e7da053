"""Configuration domain, exclusion theta functions, and admissible sampling.

The domain is the axis-aligned cube [0, box]^3. Exclusion uses the strong
theta convention: theta(x) = 1 for x > 0 and 0 for x <= 0, so grazing contact
(pair distance exactly sigma, or wall clearance exactly sigma/2) is
inadmissible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng

# uniform_admissible_sample gives up after this many whole-configuration draws
MAX_SAMPLE_TRIES = 200_000


@dataclass(frozen=True)
class HardSphereModel:
    """Hard-sphere system: particle count, diameter, cube edge.

    epsilon = 1/n is the small parameter of the dilute-limit experiments.
    A single sphere (n = 1) is a valid system with only unary (wall)
    collisions; entry points that need partners check n >= 2 themselves.
    """

    n: int
    sigma: float
    box: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least 1 particle, got n={self.n}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not self.sigma < self.box / 2:
            raise ValueError(
                f"sigma={self.sigma} must be < box/2={self.box / 2} "
                "(no admissible position would exist)"
            )

    @property
    def epsilon(self) -> float:
        return 1.0 / self.n

    @property
    def wall_box(self) -> tuple[float, float]:
        """Interval [sigma/2, box - sigma/2] of admissible center coordinates."""
        return (self.sigma / 2.0, self.box - self.sigma / 2.0)

    @property
    def wall_volume(self) -> float:
        """Volume (box - sigma)^3 accessible to a single center."""
        return (self.box - self.sigma) ** 3


@dataclass(frozen=True)
class PhasePoint:
    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))


@dataclass
class NBodyConfig:
    """Positions (n,3) and velocities (n,3) of the full system."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        self.velocities = np.atleast_2d(np.asarray(self.velocities, dtype=float))
        if self.positions.shape != self.velocities.shape:
            raise ValueError("positions and velocities must have matching shapes")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def copy(self) -> "NBodyConfig":
        return NBodyConfig(self.positions.copy(), self.velocities.copy())


def wall_theta(r, model: HardSphereModel):
    """1 iff every face of the cube is strictly farther than sigma/2.

    Accepts a single position or an array of shape (..., 3); returns an int
    array of matching leading shape (or a scalar int).
    """
    r = np.asarray(r, dtype=float)
    half = model.sigma / 2.0
    d = np.minimum(r, model.box - r)
    near = np.minimum(np.minimum(d[..., 0], d[..., 1]), d[..., 2])
    out = (near > half).astype(int)
    return out if out.ndim else int(out)


def close_pairs(positions, cutoff: float):
    """Every pair i < j with d2 = |r_i - r_j|^2 <= cutoff^2, as (i, j, d2).

    Sort and sweep on x: after one argsort, the partners of each center lie
    in its window of sorted x up to x + cutoff (padded by 1e-9 relative, so
    rounding can only add candidates), and only those pairs are formed. This
    is the one place the pair geometry of a configuration is computed; each
    caller passes the cutoff its own comparison needs and applies that
    comparison to d2. d2 is the per-pair arithmetic of the all-pairs form,
    so every kept value has the same bits. Pairs come in no fixed order.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    order = np.argsort(pos[:, 0], kind="stable")
    x = pos[order, 0]
    rank = np.arange(len(x))
    # sorted ranks a < b with x[b] <= x[a] + pad, expanded window by window
    stop = np.searchsorted(x, x + cutoff * (1.0 + 1e-9), side="right")
    count = stop - rank - 1
    a = np.repeat(rank, count)
    b = np.arange(len(a)) - np.repeat(np.cumsum(count) - stop, count)
    i, j = order[a], order[b]
    d = pos[i] - pos[j]
    d2 = (d * d).sum(axis=-1)
    keep = d2 <= float(cutoff) ** 2
    i, j = i[keep], j[keep]
    return np.minimum(i, j), np.maximum(i, j), d2[keep]


def ensemble_theta(config, model: HardSphereModel) -> int:
    """1 iff no wall overlap and no pair overlap anywhere in the configuration."""
    pos = config.positions if isinstance(config, NBodyConfig) else np.atleast_2d(config)
    if not np.all(wall_theta(pos, model)):
        return 0
    if model.sigma > 0 and len(close_pairs(pos, model.sigma)[2]):
        return 0
    return 1


def maxwell_velocities(n: int, v_th: float, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(scale=v_th, size=(n, 3))


def uniform_admissible_sample(model: HardSphereModel, seed: int,
                              v_th: float = 1.0) -> NBodyConfig:
    """Exact uniform sample on the admissible position set, Maxwell velocities.

    Proposes each center uniform on the wall-admissible box (the admissible
    set is a subset of it, so restriction keeps the sample exactly uniform)
    and rejects whole configurations with any pair overlap.
    """
    rng = derive_rng(seed, "geometry", "uniform_admissible_sample")
    lo, hi = model.wall_box
    for _ in range(MAX_SAMPLE_TRIES):
        pos = rng.uniform(lo, hi, size=(model.n, 3))
        if model.sigma > 0 and len(close_pairs(pos, model.sigma)[2]):
            continue
        return NBodyConfig(pos, maxwell_velocities(model.n, v_th, rng))
    raise RuntimeError(
        f"rejection sampling failed after {MAX_SAMPLE_TRIES} proposals "
        f"(n={model.n}, sigma={model.sigma}); packing too dense for naive "
        "rejection; lower model.n or model.sigma"
    )
