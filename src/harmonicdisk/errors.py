"""Exception taxonomy.

Two broad families matter to callers (and to the CLI exit-code contract):
``ValidationError`` for malformed inputs or violated preconditions, and
``NumericalError`` for failures detected while computing.
"""


class Error(Exception):
    """Base class for all package exceptions."""


class ValidationError(Error):
    """Input does not satisfy a documented precondition."""


class MapSpecError(ValidationError):
    """A map specification (JSON document or gallery name) cannot be parsed."""


class PointOutsideDisk(ValidationError):
    """Evaluation requested at a point outside the open unit disk."""


class DegenerateE(ValidationError):
    """Boundary arc set with measure outside the admissible open range."""


class SelfIntersecting(ValidationError):
    """Closed polygon fails the simplicity (non-self-intersection) scan."""


class NumericalError(Error):
    """Computation failed in a way that invalidates the result."""


class QuadratureNonconvergence(NumericalError):
    """Subdivision or node budget exhausted before reaching tolerance."""


class NotSensePreserving(NumericalError):
    """Jacobian is non-positive at a probe point."""


class NotSelfMap(NumericalError):
    """A map asserted to send the disk into itself has |f(z)| >= 1."""


class NormalizationViolation(NumericalError):
    """Supplied normalization fails to dominate the radial means."""


class DivisionDegenerate(NumericalError):
    """Denominator below the degeneracy cutoff in a ratio estimate."""


class EmptyCrosscut(NumericalError):
    """Circle-disk crosscut has empty or zero-length intersection."""


class PathNotFound(NumericalError):
    """No grid path connects the sampled interior points at any diameter."""
