"""Shared quadrature and sampling configuration."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and grid densities used across the geometry operations.

    boundary_radius is the proxy radius that replaces evaluation on the
    unit circle itself; operations clamp it further for maps that cannot
    be evaluated that close to the boundary, and report the radius they
    actually used.
    """

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8
    theta_grid: int = 720
    boundary_radius: float = 1.0 - 1e-6

    def __post_init__(self):
        # "not x > 0" also refuses NaN
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValidationError("tolerances must be positive")
        if not self.theta_grid >= 8:
            raise ValidationError("theta_grid too small")
        if not 0.0 < self.boundary_radius < 1.0:
            raise ValidationError("boundary_radius must lie in (0, 1)")


DEFAULT_CONFIG = QuadratureConfig()


def effective_boundary_radius(cfg: QuadratureConfig, map_radius: float) -> float:
    """Boundary proxy radius actually usable for a given map."""
    return min(cfg.boundary_radius, map_radius)
