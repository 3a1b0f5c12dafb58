"""Named example maps and the JSON map-spec loader.

Gallery names accepted everywhere a map is requested:

    identity                     f(z) = z
    scaled:M                     f(z) = M z, M > 0
    affine:a,b                   f(z) = a z + b zbar        (complex a, b)
    poly:z+c*zbar^n              f(z) = z + c zbar^n        (real c, int n)
    poisson:phi=t+eps*sin(t)     Poisson map with that boundary phase

An affine map, named or a JSON spec, is the degree-one series map
with coefficient lists [c0, a] and [conj(b)], refused unless |b| < |a|.
Complex literals in ``affine:`` use Python syntax (``0.5+0.25j``).  The
``poisson:`` phase expression is parsed with a whitelisted arithmetic
AST; the only free variable is ``t`` and the only functions are sin,
cos, tan, atan, atan2, sqrt, exp, log (all numpy, so the phase evaluates
on arrays).

JSON map specs are objects with a ``kind`` key:

    {"kind": "series", "analytic": [[0,0],[1,0]], "antianalytic": [[0.3,0]]}
    {"kind": "affine", "c0": [0,0], "a": [1,0], "b": [0.5,0]}
    {"kind": "poisson", "phi": "t+0.2*sin(t)", "scale": 2, "kernel_tol": 1e-10}
    {"kind": "gallery", "name": "poly:z+0.5*zbar^3"}

Each kind reads only the keys its line shows, and refuses any other.
Complex numbers are two-element [re, im] arrays.
"""

from __future__ import annotations

import ast
import json
import math
import re

import numpy as np

from .errors import (MapSpecError, NotSensePreserving, checked_count,
                     checked_real)
from .maps import PoissonHarmonicMap, SeriesHarmonicMap

_PHI_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan,
    "atan2": np.arctan2, "sqrt": np.sqrt, "exp": np.exp, "log": np.log,
}
_PHI_CONSTS = {"pi": np.pi, "e": np.e}

_ALLOWED_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call,
                  ast.Name, ast.Load, ast.Constant, ast.Add, ast.Sub,
                  ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd)


def _compile_phase(expr):
    """Compile a phase expression in the variable t to an array function."""
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise MapSpecError(f"cannot parse phase expression {expr!r}: {exc}")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise MapSpecError(
                f"phase expression {expr!r} uses disallowed syntax "
                f"({type(node).__name__})")
        if isinstance(node, ast.Call):
            if (not isinstance(node.func, ast.Name)
                    or node.func.id not in _PHI_FUNCS or node.keywords):
                raise MapSpecError(
                    f"phase expression {expr!r} calls a disallowed function")
        if isinstance(node, ast.Name):
            if node.id not in _PHI_FUNCS and node.id not in _PHI_CONSTS \
                    and node.id != "t":
                raise MapSpecError(
                    f"unknown name {node.id!r} in phase expression {expr!r}")
        if isinstance(node, ast.Constant) and not isinstance(
                node.value, (int, float)):
            raise MapSpecError(
                f"non-numeric constant in phase expression {expr!r}")
    code = compile(tree, "<phase>", "eval")
    env = {"__builtins__": {}}
    env.update(_PHI_FUNCS)
    env.update(_PHI_CONSTS)

    def phi(t):
        return eval(code, env, {"t": np.asarray(t, dtype=float)})

    phi.expression = expr
    return phi


def _affine_map(c0, a, b):
    """f(z) = c0 + a z + b zbar as the degree-one series map, refused
    unless |b| < |a| (sense-preserving); the series constructor refuses
    non-finite and overflowing coefficients first."""
    m = SeriesHarmonicMap([c0, a], [np.conj(b)])
    # the exact test: a probe's jacobian |a|^2 - |b|^2 compares squares,
    # which can round to equal
    if not abs(b) < abs(a):
        raise NotSensePreserving(
            f"affine map needs |b| < |a|, got |a| = {abs(a)}, |b| = {abs(b)}")
    return m


_POLY_RE = re.compile(
    r"^z\+(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)\*zbar\^(\d+)$")


def gallery_map(name):
    """Construct a gallery map from its name string."""
    name = name.strip()
    if name == "identity":
        return SeriesHarmonicMap([0.0, 1.0])
    if name.startswith("scaled:"):
        try:
            M = float(name[len("scaled:"):])
        except ValueError:
            raise MapSpecError(f"bad scale in gallery name {name!r}")
        M = checked_real("scaled: factor", M, 0.0, math.inf,
                         error=MapSpecError)
        return SeriesHarmonicMap([0.0, M])
    if name.startswith("affine:"):
        body = name[len("affine:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise MapSpecError("affine: needs two comma-separated "
                               f"coefficients, got {name!r}")
        try:
            a = complex(parts[0])
            b = complex(parts[1])
        except ValueError:
            raise MapSpecError(f"bad complex literal in gallery name {name!r}")
        return _affine_map(0.0, a, b)
    if name.startswith("poly:"):
        body = name[len("poly:"):].replace(" ", "")
        m = _POLY_RE.match(body)
        if not m:
            raise MapSpecError(
                f"poly: gallery names look like poly:z+c*zbar^n, got {name!r}")
        c = float(m.group(1))
        n = int(m.group(2))
        n = checked_count("poly: exponent", n, 1, math.inf, MapSpecError)
        if not n * abs(c) < 1.0:
            raise MapSpecError(
                f"poly:z+c*zbar^n needs n*|c| < 1 to stay sense-preserving, "
                f"got n*|c| = {n * abs(c)}")
        anti = np.zeros(n, dtype=complex)
        # f = z + c zbar^n means conj(b_n) = c; |f_zb| <= n|c| < 1 = |f_z|
        # on the closed disk, so the map is sense-preserving without probes
        anti[n - 1] = np.conj(c)
        return SeriesHarmonicMap([0.0, 1.0], anti)
    if name.startswith("poisson:"):
        body = name[len("poisson:"):]
        if not body.startswith("phi="):
            raise MapSpecError(
                f"poisson: gallery names look like poisson:phi=<expr>, "
                f"got {name!r}")
        return PoissonHarmonicMap(1.0, _compile_phase(body[len("phi="):]))
    raise MapSpecError(f"unknown gallery map {name!r}")


def gallery_names():
    """Representative concrete instances of every gallery family."""
    return ["identity", "scaled:2.0", "affine:1,0.5", "poly:z+0.3*zbar^2",
            "poisson:phi=t+0.2*sin(t)"]


def _real(obj, error):
    """obj as a float, refused with MapSpecError(error) unless it is a
    number: JSON true and false load as bools, and a bool is an int; an
    int past float range has no float value."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            return float(obj)
        except OverflowError:
            pass
    raise MapSpecError(error)


def _as_complex(obj, what):
    error = f"{what} must be a number or a [re, im] pair"
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_real(obj[0], error), _real(obj[1], error))
    return complex(_real(obj, error))


def _coefficients(spec, key):
    """The coefficient list spec[key], empty where the key is absent."""
    coeffs = spec.get(key, [])
    if not isinstance(coeffs, list):
        raise MapSpecError(f"series {key} must be a list of coefficients")
    return [_as_complex(c, f"{key} coefficient") for c in coeffs]


# the keys each spec kind reads besides "kind"
_SPEC_KEYS = {"series": ("analytic", "antianalytic"),
              "affine": ("c0", "a", "b"),
              "poisson": ("phi", "scale", "kernel_tol"),
              "gallery": ("name",)}


def parse_map_spec(spec):
    """Build a map from a parsed JSON object (dict) spec; a key its kind
    does not read is refused."""
    if not isinstance(spec, dict):
        raise MapSpecError("map spec must be a JSON object")
    kind = spec.get("kind")
    keys = _SPEC_KEYS.get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise MapSpecError(
            f"unknown map kind {kind!r}; expected series, affine, poisson "
            f"or gallery")
    for key in spec:
        if key != "kind" and key not in keys:
            raise MapSpecError(
                f"{kind} spec has no key {key!r}; its keys are "
                f"{', '.join(keys)}")
    if kind == "series":
        a = _coefficients(spec, "analytic")
        b = _coefficients(spec, "antianalytic")
        if not a:
            raise MapSpecError("series spec needs a nonempty analytic list")
        return SeriesHarmonicMap(a, b)
    if kind == "affine":
        return _affine_map(
            _as_complex(spec.get("c0", 0.0), "c0"),
            _as_complex(spec.get("a", 1.0), "a"),
            _as_complex(spec.get("b", 0.0), "b"))
    if kind == "poisson":
        phi = spec.get("phi")
        if not isinstance(phi, str):
            raise MapSpecError("poisson spec needs a string phi expression")
        scale = _real(spec.get("scale", 1.0), "poisson scale must be a number")
        kwargs = {}
        if "kernel_tol" in spec:
            kwargs["kernel_tol"] = _real(spec["kernel_tol"],
                                         "poisson kernel_tol must be a number")
        return PoissonHarmonicMap(scale, _compile_phase(phi), **kwargs)
    name = spec.get("name")
    if not isinstance(name, str):
        raise MapSpecError("gallery spec needs a name string")
    return gallery_map(name)


def load_map_spec(path):
    """Read and build a map from a JSON file."""
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise MapSpecError(f"cannot read map spec {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise MapSpecError(f"map spec {path} is not valid JSON: {exc}")
    return parse_map_spec(spec)
