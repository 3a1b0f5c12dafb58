"""Span recorder that wraps the library's layers from outside.

``Tracer.install()`` replaces every public function of the traced
modules, and the ``eval_many``/``derivs_many``/``eval_circle``/
``derivs_circle`` methods of every map class, by a wrapper that records
a span (name, start, end, parent) and, for some functions, a
deterministic counter taken from the arguments or the result.  A
function imported by name into another module (``from .quadrature
import adaptive_simpson``) is replaced in every namespace that holds
it.  ``uninstall()`` puts the original objects back.  Nothing in
``src/`` is edited, and an untraced run installs nothing.

Spans live in memory; ``write()`` dumps them once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("maps", "quadrature", "geometry", "curve_constants", "theorems",
          "gallery", "reporting", "cli")
MAP_METHODS = ("eval_many", "derivs_many", "eval_circle", "derivs_circle")
# derivs_banded edges, plus the Poisson derivative refusal radius
POISSON_BANDS = (0.9, 0.97, 0.995, 0.998)
CHECK_FUNCTIONS = {
    "prop1": "check_prop1", "thm1": "thm1_bound", "thm2": "thm2_bound",
    "thm3": "thm3_carleson", "prop2": "prop2_bound", "thm5": "thm5_bound",
    "thm4": "thm4_ratio", "schwarz": "schwarz_radial_check",
    "selfmap": "selfmap_distortion_check",
}

NAME, START, END, PARENT, COUNT = range(5)


def _map_count(args, kwargs):
    # (points, largest radius) of the batch; circle grids pass (r, n)
    if len(args) > 2:
        return int(args[2]), float(args[1])
    z = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
    return int(z.size), float(np.abs(z).max()) if z.size else 0.0


# span name -> counter taken from (args, kwargs) before the call
ARG_COUNTERS = {
    "quadrature.fixed_simpson":
        lambda a, k: int(a[3] if len(a) > 3 else k["panels"]) + 1,
    "geometry.crosscut_length":
        lambda a, k: float(a[2] if len(a) > 2 else k["rho"]),
    "geometry.points_in_polygon":
        lambda a, k: int(np.size(a[0])) * int(a[1].vertices.size),
    "reporting.write_payload":
        lambda a, k: len(str(a[1]).encode("utf-8")),
}
# span name -> counter taken from the result of a call that returned
RESULT_COUNTERS = {
    "quadrature.adaptive_simpson": lambda out: int(out[1]),
    "curve_constants.sample_vertex_pairs": lambda out: int(out[1]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- installation ------------------------------------------------------

    def _wrap(self, fn, name, arg_count=None, result_count=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   arg_count(args, kwargs) if arg_count else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if result_count is not None:
                rec[COUNT] = result_count(out)
            return out

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [sys.modules[f"harmonicdisk.{layer}"] for layer in LAYERS]
        namespaces = [mod for key, mod in sys.modules.items()
                      if mod is not None and (key == "harmonicdisk"
                                              or key.startswith("harmonicdisk."))]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(fn, name, ARG_COUNTERS.get(name),
                                     RESULT_COUNTERS.get(name))
                for ns in namespaces:
                    for key, value in vars(ns).copy().items():
                        if value is fn:
                            self._patch(ns, key, wrapper)
        maps = sys.modules["harmonicdisk.maps"]
        for cls in vars(maps).copy().values():
            if not (inspect.isclass(cls) and issubclass(cls, maps.HarmonicMap)
                    and cls is not maps.HarmonicMap):
                continue
            for meth in MAP_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is not None:
                    self._patch(cls, meth, self._wrap(
                        fn, f"maps.{cls.__name__}.{meth}", _map_count))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self):
        """(owner, attribute, original) of every replacement made."""
        return list(self._patches)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "count"],
                       "spans": [[index[s[NAME]], s[START], s[END], s[PARENT],
                                  s[COUNT]] for s in self.spans]}, fh)


def layer_metrics(spans, pass_wall):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus its direct children's.  The
    ``*_s`` metrics of named functions are inclusive, counting each
    outermost call once; ``maps.derivs_s``, ``maps.eval_s``,
    ``quadrature.adaptive_s`` and ``<layer>.self_s`` are self times.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    self_t = dur[:]
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            self_t[s[PARENT]] -= d

    def outermost(i, pred):
        p = spans[i][PARENT]
        while p >= 0:
            if pred(spans[p][NAME]):
                return False
            p = spans[p][PARENT]
        return True

    by_name = {}
    for i in range(n):
        by_name.setdefault(spans[i][NAME], []).append(i)

    def ids(name):
        return by_name.get(name, [])

    def inclusive(name):
        return sum(dur[i] for i in ids(name)
                   if outermost(i, lambda other: other == name))

    def layer_inclusive(layer):
        pre = layer + "."
        return sum(dur[i] for i in range(n) if spans[i][NAME].startswith(pre)
                   and outermost(i, lambda other: other.startswith(pre)))

    def counts(name):
        # calls that raised before returning a result carry no count
        return [spans[i][COUNT] for i in ids(name)
                if spans[i][COUNT] is not None]

    m = {}
    leaf_classes = ("SeriesHarmonicMap", "AffineHarmonicMap",
                    "PoissonHarmonicMap")
    for meth, key in (("derivs_many", "derivs"), ("eval_many", "eval")):
        pts = sum(c[0] for cls in leaf_classes
                  for c in counts(f"maps.{cls}.{meth}"))
        m[f"maps.{key}_points"] = (pts, "count")
        m[f"maps.{key}_s"] = (sum(self_t[i] for i in range(n)
                                  if spans[i][NAME].endswith("." + meth)
                                  and spans[i][NAME].startswith("maps.")),
                              "s")
    pois = ids("maps.PoissonHarmonicMap.derivs_many")
    lo = -1.0
    for hi in POISSON_BANDS:
        sel = [i for i in pois if lo < spans[i][COUNT][1] <= hi]
        t = sum(dur[i] for i in sel)
        m[f"maps.poisson.derivs_pts_per_s.to{hi}"] = (
            sum(spans[i][COUNT][0] for i in sel) / t if t > 0 else 0.0,
            "pts/s")
        lo = hi
    ser = ids("maps.SeriesHarmonicMap.derivs_many")
    t = sum(dur[i] for i in ser)
    m["maps.series.derivs_pts_per_s"] = (
        sum(spans[i][COUNT][0] for i in ser) / t if t > 0 else 0.0, "pts/s")
    circle = (ids("maps.PoissonHarmonicMap.eval_circle")
              + ids("maps.PoissonHarmonicMap.derivs_circle"))
    m["maps.circle_calls"] = (len(circle), "count")
    m["maps.circle_s"] = (sum(dur[i] for i in circle), "s")

    adaptive = counts("quadrature.adaptive_simpson")
    m["quadrature.adaptive_calls"] = (len(adaptive), "count")
    m["quadrature.adaptive_nodes"] = (sum(adaptive), "count")
    m["quadrature.adaptive_nodes_max"] = (max(adaptive, default=0), "count")
    m["quadrature.adaptive_s"] = (
        sum(self_t[i] for i in ids("quadrature.adaptive_simpson")), "s")
    fixed = counts("quadrature.fixed_simpson")
    m["quadrature.fixed_calls"] = (len(fixed), "count")
    m["quadrature.fixed_nodes"] = (sum(fixed), "count")

    m["geometry.crosscut_integral_s"] = (
        inclusive("geometry.crosscut_integral"), "s")
    cc = ids("geometry.crosscut_length")
    m["geometry.crosscut_length_calls"] = (len(cc), "count")
    m["geometry.crosscut_length_s"] = (
        inclusive("geometry.crosscut_length"), "s")
    m["geometry.crosscut_length_unique_ratio"] = (
        _unique_rho_ratio(spans, cc), "1")
    for fn in ("image_area", "level_curve_length", "sup_radial_length",
               "extract_coefficients", "boundary_polygon",
               "point_polygon_distance", "points_in_polygon"):
        m[f"geometry.{fn}_s"] = (inclusive(f"geometry.{fn}"), "s")
    m["geometry.points_in_polygon_cells_max"] = (
        max(counts("geometry.points_in_polygon"), default=0), "count")

    for key, fn in (("lavrentiev", "lavrentiev_constant"),
                    ("quasicircle", "quasicircle_constant"),
                    ("ahlfors", "ahlfors_constant"),
                    ("linear_connectivity", "linear_connectivity_constant")):
        m[f"curve_constants.{key}_s"] = (
            inclusive(f"curve_constants.{fn}"), "s")
    m["curve_constants.pairs"] = (
        sum(counts("curve_constants.sample_vertex_pairs")), "count")

    for check, fn in CHECK_FUNCTIONS.items():
        m[f"theorems.{check}_s"] = (inclusive(f"theorems.{fn}"), "s")
    m["theorems.effective_K_calls"] = (len(ids("theorems.effective_K")),
                                       "count")
    m["theorems.effective_K_s"] = (inclusive("theorems.effective_K"), "s")

    m["gallery.resolve_s"] = (layer_inclusive("gallery"), "s")
    m["reporting.payload_bytes"] = (sum(counts("reporting.write_payload")),
                                    "bytes")
    m["reporting.write_s"] = (layer_inclusive("reporting"), "s")
    for layer in LAYERS:
        pre = layer + "."
        m[f"{layer}.self_s"] = (sum(self_t[i] for i in range(n)
                                    if spans[i][NAME].startswith(pre)), "s")
    covered = sum(dur[i] for i in range(n) if spans[i][PARENT] < 0)
    m["trace.attributed_ratio"] = (covered / pass_wall, "1")
    return m


def _unique_rho_ratio(spans, calls):
    """Distinct crosscut radii over crosscut_length calls, with the
    distinct radii counted separately within each outermost operation
    (one ``verify`` command, one ``length`` command)."""
    if not calls:
        return 0.0
    per_root = {}
    for i in calls:
        root = i
        while spans[root][PARENT] >= 0:
            root = spans[root][PARENT]
        per_root.setdefault(root, set()).add(spans[i][COUNT])
    return sum(len(s) for s in per_root.values()) / len(calls)
