"""Numerical toolkit for planar harmonic maps of the unit disk.

Builds sense-preserving harmonic maps (power series, affine maps among
them, and Poisson extensions of boundary homeomorphisms), measures
their distortion, curve-length, and area functionals, estimates
chord-arc constants of image domains, and verifies a family of
quasiconformal inequalities with explicit margins.
"""

from .config import DEFAULT_CONFIG, QuadratureConfig
from .errors import (DegenerateE, DivisionDegenerate, EmptyCrosscut, Error,
                     MapSpecError, NormalizationViolation, NotSelfMap,
                     NotSensePreserving, NumericalError, PathNotFound,
                     PointOutsideDisk, QuadratureNonconvergence,
                     ValidationError)
from .maps import (DilatationReport, HarmonicMap, PoissonHarmonicMap,
                   SeriesHarmonicMap, estimate_K, rotate_domain, scale_range,
                   sup_modulus)
from .gallery import gallery_map, gallery_names, load_map_spec, parse_map_spec
from .geometry import (ArcSet, PolygonalCurve, boundary_image_length,
                       boundary_polygon, circle_polygon, crosscut_integral,
                       crosscut_length, ellipse_polygon, extract_coefficients,
                       hardy_mean, image_area, level_curve_length,
                       point_polygon_distance, points_in_polygon,
                       radial_length, rectangle_polygon, square_polygon,
                       sup_radial_length, u_polygon)
from .curve_constants import (CurveConstantsReport, ahlfors_constant,
                              curve_constants, lavrentiev_constant,
                              linear_connectivity_constant,
                              quasicircle_constant)
from .theorems import (InequalityReport, check_prop1, effective_K,
                       prop2_bound, schwarz_radial_check,
                       selfmap_distortion_check, thm1_bound, thm2_bound,
                       thm3_carleson, thm4_ratio, thm5_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
