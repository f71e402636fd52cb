"""The package's layers: which calls are traced, and the per-layer metrics.

`instrument` wraps, from the benchmark's side, the public functions of each
module, the family `__call__` methods, the lazy averaged-beam normalisation,
`numpy.linalg.svd` and `numpy.fft.ifft2`.  Names a module bound at import
(`from .profiles import bump`) and default arguments that hold a wrapped
function (`profile=unit_bump`) are rebound too, so every call goes through
a span.  `layer_metrics` turns the recorded spans into the per_layer
metrics of BENCHMARK.json; README.md says which end-to-end metric each
should move, and on which workload.
"""

import importlib
import inspect
from functools import cached_property

import numpy as np

from spans import by_name, children_of, descendants

MODULES = ("cli", "restriction", "harmonics", "geometry", "oscillatory",
           "profiles", "torus")
FAMILIES = ("Zonal", "AssocHarmonic", "HighestWeight", "Averaged", "TorusSum")
GRID_BUILDERS = ("geometry.sphere_grid", "geometry.sphere3_grid",
                 "geometry.curve_grid", "geometry.polar_pair_grid",
                 "geometry.zonal_grid")


def _n_items(x):
    return int(np.size(x))


def _n_points(points):
    arr = np.asarray(points)
    return 1 if arr.ndim == 1 else int(arr.shape[0])


def _counters(package):
    """Span name -> count(result, arguments) for the spans that count work."""
    harmonics = importlib.import_module(f"{package}.harmonics")
    node_count = harmonics.averaged_node_count

    def recurrence(result, a):
        return {"steps": a["n"] * _n_items(a["t"])}

    def points(result, a):
        return {"points": _n_points(a["points"])}

    def grid(result, a):
        return {"nodes": int(result.nodes.shape[0])}

    def profile(result, a):
        return {"elements": _n_items(next(iter(a.values())))}

    out = {
        "harmonics.legendre_p": recurrence,
        "harmonics.gegenbauer_u": recurrence,
        "harmonics.assoc_legendre_norm": recurrence,
        "harmonics.assoc_legendre_norm_all":
            lambda r, a: {"steps": a["n"] * (a["n"] + 1)},
        "harmonics.eval_averaged_raw":
            lambda r, a: {"point_tilts": _n_points(a["points"]) * node_count(a["degree"])},
        "geometry.gauss_legendre": lambda r, a: {"nodes": int(a["n"])},
        "restriction.lp_norm_weighted": lambda r, a: {"values": _n_items(a["values"])},
        "oscillatory.kernel_matrix": lambda r, a: {"entries": _n_items(r)},
        "oscillatory.airy_operator_norm":
            lambda r, a: {"variable": int(a["spec"].c is not None or a["spec"].d is not None)},
        "profiles.bump": profile,
        "profiles.cutoff_chi": profile,
        "numpy.linalg.svd": lambda r, a: {
            "dim": max(a["a"].shape), "bytes": a["a"].nbytes,
            "n3": a["a"].shape[0] * a["a"].shape[1] * min(a["a"].shape)},
        "numpy.fft.ifft2": lambda r, a: {
            "cells": a["a"].size, "bytes": a["a"].nbytes, "side": max(a["a"].shape)},
    }
    for name in GRID_BUILDERS:
        out[name] = grid
    for cls in FAMILIES:
        out[f"harmonics.{cls}.eval"] = points
    out["harmonics.TorusSum.eval"] = lambda r, a: {
        "points": _n_points(a["xy"]), "terms": _n_points(a["xy"]) * len(a["self"].freqs)}
    return out


def _with_arguments(fn, count):
    """count(result, arguments) as count(result, *args, **kwargs) for fn."""
    sig = inspect.signature(fn)
    return lambda result, *args, **kwargs: count(result, sig.bind(*args, **kwargs).arguments)


def instrument(tracer, package="eigenrestrict"):
    """Route the package's layer calls through tracer spans; returns an undo()."""
    counters = _counters(package)
    mods = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
    saved = []

    def patch(obj, attr, value):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def traced(fn, name):
        count = counters.get(name)
        return tracer.wrap(fn, name, None if count is None else _with_arguments(fn, count))

    wrappers = {}  # id(original) -> (original, wrapper)
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or inspect.isclass(fn) or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            wrappers[id(fn)] = (fn, traced(fn, f"{short}.{attr}"))
    for fn, name in ((np.linalg.svd, "numpy.linalg.svd"), (np.fft.ifft2, "numpy.fft.ifft2")):
        wrappers[id(fn)] = (fn, traced(fn, name))

    # rebind every module-level name and default argument that holds an original
    for mod in (*mods.values(), importlib.import_module(package), np.linalg, np.fft):
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patch(mod, attr, hit[1])
    for fn, _ in list(wrappers.values()):
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(id(d) in wrappers for d in defaults):
            patch(fn, "__defaults__",
                  tuple(wrappers[id(d)][1] if id(d) in wrappers else d for d in defaults))

    harmonics = mods["harmonics"]
    for cls_name in FAMILIES:
        cls = getattr(harmonics, cls_name)
        patch(cls, "__call__", traced(cls.__dict__["__call__"], f"harmonics.{cls_name}.eval"))
    scale = harmonics.Averaged.__dict__["_scale"]
    lazy = cached_property(traced(scale.func, "harmonics.averaged_normalise"))
    lazy.__set_name__(harmonics.Averaged, "_scale")
    patch(harmonics.Averaged, "_scale", lazy)

    def undo():
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)

    return undo


def _ratio(num, den):
    return num / den if den else 0.0


def _per_call_ratio(spans, kids, outer, inner, key):
    """Sum over `outer` spans of (largest inner count) / (sum of inner counts).

    Returned as a ratio of the two sums; 0 when no `outer` span carries work.
    """
    best = total = 0.0
    for s in spans:
        if s["name"] != outer:
            continue
        sizes = [d["counts"][key] for d in descendants(s, kids)
                 if d["name"] in inner and "counts" in d]
        if sizes:
            best += max(sizes)
            total += sum(sizes)
    return _ratio(best, total)


def layer_metrics(spans, labels):
    """Per-layer metric values (name -> number) from one traced run's spans.

    `labels` are every experiment label of every workload; a label this run
    did not execute reports 0, as does any counter of a layer it did not use.
    """
    agg = by_name(spans)  # a name no span carries reads as zeros
    kids = children_of(spans)
    ids = {s["id"]: s for s in spans}

    def incl(name):
        return agg[name]["s"]

    def self_s(name):
        return agg[name]["self_s"]

    def count(name, key):
        return agg[name]["counts"][key]

    families = [f"harmonics.{c}.eval" for c in FAMILIES]
    gl_sizes = [s["counts"]["nodes"] for s in spans
                if s["name"] == "geometry.gauss_legendre" and "counts" in s]
    outer_grids = [s for s in spans if s["name"] in GRID_BUILDERS and "counts" in s
                   and (s["parent"] is None or ids[s["parent"]]["name"] not in GRID_BUILDERS)]
    airy = [s for s in spans if s["name"] == "oscillatory.airy_operator_norm"]
    svd_dims = [s["counts"]["dim"] for s in spans
                if s["name"] == "numpy.linalg.svd" and "counts" in s]
    fft_sides = [s["counts"]["side"] for s in spans
                 if s["name"] == "numpy.fft.ifft2" and "counts" in s]
    steps = sum(count(f"harmonics.{name}", "steps") for name in
                ("legendre_p", "gegenbauer_u", "assoc_legendre_norm", "assoc_legendre_norm_all"))

    m = {
        "cli.run.self_s": self_s("cli.run"),
        "cli.bytes_written": sum(count(f"exp.{label}", "bytes") for label in labels),
        "restriction.l2_norm_on_manifold.s": incl("restriction.l2_norm_on_manifold"),
        "restriction.lp_norm_on_curve.s": incl("restriction.lp_norm_on_curve"),
        "restriction.lp_norm_weighted.self_s": self_s("restriction.lp_norm_weighted"),
        "restriction.lp_norm_weighted.values": count("restriction.lp_norm_weighted", "values"),
        "restriction.turning_point_sweep.self_s": self_s("restriction.turning_point_sweep"),
        "restriction.curve_useful_ratio": _per_call_ratio(
            spans, kids, "restriction.lp_norm_on_curve", families, "points"),
        "harmonics.averaged_normalise.s": incl("harmonics.averaged_normalise"),
        "harmonics.eval_averaged_raw.self_s": self_s("harmonics.eval_averaged_raw"),
        "harmonics.eval_averaged_raw.point_tilts":
            count("harmonics.eval_averaged_raw", "point_tilts"),
        "harmonics.legendre_p.self_s": self_s("harmonics.legendre_p"),
        "harmonics.assoc_legendre_norm_all.self_s": self_s("harmonics.assoc_legendre_norm_all"),
        "harmonics.assoc_legendre_norm.self_s": self_s("harmonics.assoc_legendre_norm"),
        "harmonics.recurrence_steps": steps,
        "harmonics.gegenbauer_u.self_s": self_s("harmonics.gegenbauer_u"),
        "harmonics.eval_highest_weight.self_s": self_s("harmonics.eval_highest_weight"),
        "harmonics.family_eval.points": sum(count(f, "points") for f in families),
        "harmonics.TorusSum.eval.self_s": self_s("harmonics.TorusSum.eval"),
        "harmonics.TorusSum.terms": count("harmonics.TorusSum.eval", "terms"),
        "geometry.gauss_legendre.self_s": self_s("geometry.gauss_legendre"),
        "geometry.gauss_legendre.calls": len(gl_sizes),
        "geometry.gauss_legendre.nodes": sum(gl_sizes),
        "geometry.gauss_legendre.repeat_ratio":
            _ratio(len(gl_sizes) - len(set(gl_sizes)), len(gl_sizes)),
        "geometry.zonal_grid.self_s": self_s("geometry.zonal_grid"),
        "geometry.sphere_grid.self_s": self_s("geometry.sphere_grid"),
        "geometry.polar_pair_grid.self_s": self_s("geometry.polar_pair_grid"),
        "geometry.curve_grid.self_s": self_s("geometry.curve_grid"),
        "geometry.nodes_built": sum(s["counts"]["nodes"] for s in outer_grids),
        "oscillatory.airy_operator_norm.self_s": self_s("oscillatory.airy_operator_norm"),
        "oscillatory.airy.model.s":
            sum(s["end"] - s["start"] for s in airy if not s["counts"]["variable"]),
        "oscillatory.airy.variable.s":
            sum(s["end"] - s["start"] for s in airy if s["counts"]["variable"]),
        "numpy.linalg.svd.self_s": self_s("numpy.linalg.svd"),
        "numpy.linalg.svd.matrix_dim_max": max(svd_dims, default=0),
        "numpy.linalg.svd.bytes_computed": count("numpy.linalg.svd", "bytes"),
        "numpy.linalg.svd.n3_computed": count("numpy.linalg.svd", "n3"),
        "oscillatory.kernel_matrix.self_s": self_s("oscillatory.kernel_matrix"),
        "oscillatory.kernel_matrix.entries": count("oscillatory.kernel_matrix", "entries"),
        "profiles.cutoff_chi.self_s": self_s("profiles.cutoff_chi"),
        "profiles.bump.self_s": self_s("profiles.bump"),
        "profiles.elements": count("profiles.bump", "elements")
                             + count("profiles.cutoff_chi", "elements"),
        "numpy.fft.ifft2.self_s": self_s("numpy.fft.ifft2"),
        "torus.fft_cells": count("numpy.fft.ifft2", "cells"),
        "torus.fft_bytes_computed": count("numpy.fft.ifft2", "bytes"),
        "torus.fft_side_max": max(fft_sides, default=0),
        "torus.fft_useful_ratio": _per_call_ratio(
            spans, kids, "torus.grid_sup_norm", ("numpy.fft.ifft2",), "cells"),
        "torus.grid_sup_norm.self_s": self_s("torus.grid_sup_norm"),
        "torus.representations.self_s": self_s("torus.representations"),
        "torus.r2_table.self_s": self_s("torus.r2_table"),
        "torus.curve_l2_norms.self_s": self_s("torus.curve_l2_norms"),
    }
    for label in labels:
        m[f"exp.{label}.s"] = incl(f"exp.{label}")
    return m
