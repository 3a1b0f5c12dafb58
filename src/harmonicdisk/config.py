"""Shared quadrature and sampling configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import checked_count, checked_real

# at the cap, the 129-node ray table of one radius of sup_radial_length
# fills half its cell budget; 127 evenly spaced radii (255 nodes) fill it
MAX_THETA_GRID = 1 << 13


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and grid densities used across the geometry operations.

    boundary_radius is the proxy radius that replaces evaluation on the
    unit circle itself; effective_boundary_radius clamps it further for
    maps that cannot be evaluated that close to the boundary.  theta_grid
    is 8 to MAX_THETA_GRID.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    theta_grid: int = 720
    boundary_radius: float = 1.0 - 1e-6

    def __post_init__(self):
        checked_real("abs_tol", self.abs_tol, 0.0, math.inf)
        checked_real("rel_tol", self.rel_tol, 0.0, math.inf)
        checked_count("theta_grid", self.theta_grid, 8, MAX_THETA_GRID)
        checked_real("boundary_radius", self.boundary_radius, 0.0, 1.0)


DEFAULT_CONFIG = QuadratureConfig()


def effective_boundary_radius(cfg: QuadratureConfig,
                              map_radius: float) -> float:
    """Boundary proxy radius actually usable for a given map."""
    return min(cfg.boundary_radius, map_radius)
