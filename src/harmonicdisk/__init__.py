"""Numerical toolkit for planar harmonic maps of the unit disk.

Builds sense-preserving harmonic maps (power series, affine, Poisson
extensions of boundary homeomorphisms), measures their distortion,
curve-length, and area functionals, estimates chord-arc constants of
image domains, and verifies a family of quasiconformal inequalities
with explicit margins.
"""

from .config import DEFAULT_CONFIG, QuadratureConfig
from .errors import (DegenerateE, DivisionDegenerate, EmptyCrosscut, Error,
                     MapSpecError, NormalizationViolation, NotSelfMap,
                     NotSensePreserving, NumericalError, PathNotFound,
                     PointOutsideDisk, QuadratureNonconvergence,
                     SelfIntersecting, ValidationError)
from .maps import (AffineHarmonicMap, DerivativeFrame, DilatationReport,
                   HarmonicMap, PoissonHarmonicMap, SeriesHarmonicMap,
                   estimate_K, evaluate, rotate_domain, scale_range,
                   sup_modulus, wirtinger)
from .gallery import gallery_map, gallery_names, load_map_spec, parse_map_spec
from .geometry import (ArcSet, PolygonalCurve, boundary_image_length,
                       boundary_polygon, circle_polygon, crosscut_integral,
                       crosscut_length, curve_diameter, distance_to_boundary,
                       ellipse_polygon, extract_coefficients, hardy_mean,
                       image_area, is_self_intersecting, level_curve_length,
                       op_norm_field, point_polygon_distance, points_in_polygon,
                       polygonal_length, radial_length, rectangle_polygon,
                       shoelace_area, square_polygon, sup_radial_length,
                       u_polygon)
from .curve_constants import (CurveConstantsReport, ahlfors_constant,
                              curve_constants, lavrentiev_constant,
                              lemma_c_consistent, linear_connectivity_constant,
                              quasicircle_constant)
from .theorems import (InequalityReport, check_prop1, effective_K,
                       isoperimetric_check, prop2_bound, schwarz_radial_check,
                       selfmap_distortion_check, thm1_bound, thm2_bound,
                       thm3_carleson, thm3_hypothesis_fit, thm4_ratio,
                       thm5_bound)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
