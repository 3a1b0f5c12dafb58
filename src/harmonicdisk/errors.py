"""Exception taxonomy.

Two broad families matter to callers (and to the CLI exit-code contract):
``ValidationError`` for malformed inputs or violated preconditions, and
``NumericalError`` for failures detected while computing.

``checked_real`` and ``checked_count`` are the one copy of the range
rule: every numeric input with a stated range passes through one of
them where it enters.  ``data_lines`` is the one reader of data files.
"""


class Error(Exception):
    """Base class for all package exceptions."""


class ValidationError(Error):
    """Input does not satisfy a documented precondition."""


def checked_real(name, value, lo, hi, ends="()", error=ValidationError):
    """value as a float, refused with ``error`` unless it lies between lo
    and hi, each end open or closed as ``ends`` says ("()", "(]", "[)" or
    "[]").  NaN is always refused."""
    x = float(value)
    if not ((lo < x if ends[0] == "(" else lo <= x)
            and (x < hi if ends[1] == ")" else x <= hi)):
        raise error(f"{name} must be in {ends[0]}{lo:.12g},{hi:.12g}"
                    f"{ends[1]}, got {x}")
    return x


def checked_count(name, value, lo, hi, error=ValidationError):
    """value as an int, refused with ``error`` unless lo <= value <= hi;
    the test runs before the coercion, so NaN and a fraction past a cap
    are refused too."""
    if not lo <= value <= hi:
        raise error(f"{name} must be {lo} to {hi}, got {value}")
    return int(value)


def data_lines(path, what):
    """(line number, text) of each line of the file at path that holds
    data, stripped: a # starts a comment and blank lines are skipped.  A
    file that cannot be read as text is refused with ValidationError,
    which names it as a ``what`` file."""
    try:
        with open(path) as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}")
    numbered = ((k, line.split("#", 1)[0].strip())
                for k, line in enumerate(lines, 1))
    return [(k, text) for k, text in numbered if text]


class MapSpecError(ValidationError):
    """A map specification (JSON document or gallery name) cannot be parsed."""


class PointOutsideDisk(ValidationError):
    """Evaluation requested at a point outside the open unit disk."""


class DegenerateE(ValidationError):
    """Boundary arc set with measure outside the admissible open range."""


class NumericalError(Error):
    """Computation failed in a way that invalidates the result."""


class QuadratureNonconvergence(NumericalError):
    """Subdivision or node budget exhausted before reaching tolerance."""


class NotSensePreserving(NumericalError):
    """Jacobian is non-positive at a probe, or f_z winds about 0."""


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
