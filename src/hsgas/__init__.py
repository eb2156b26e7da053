"""Hard-sphere kinetic-theory workbench.

Finite-N excluded-volume occupation coefficients, contact-sphere vs binary
collision operators, event-driven N-body dynamics, a homogeneous relaxation
solver, and scaled-sequence convergence experiments, all behind a deterministic seeded CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .geometry import (
    HardSphereModel,
    NBodyConfig,
    PhasePoint,
    ensemble_theta,
    uniform_admissible_sample,
    wall_theta,
)
from .quadrature import QuadratureSpec

__all__ = [
    "__version__",
    "HardSphereModel",
    "NBodyConfig",
    "PhasePoint",
    "QuadratureSpec",
    "ensemble_theta",
    "uniform_admissible_sample",
    "wall_theta",
]
