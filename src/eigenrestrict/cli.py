"""Experiment runner: named experiments, CSV/JSON artifacts, optional SVG plots.

Configuration is a flat key = value text file (or equivalent command-line
overrides) validated against a per-experiment schema: unknown keys are
rejected by name, and the physics of an experiment (family, curve, p, degree
or frequency lists) must always be explicit.  Outputs are byte-deterministic
for a fixed config and seed: CSV floats use 17 significant digits, JSON keys
are sorted.

Exit codes: 0 all verdicts pass or carry no contract, 1 a numerical contract
failed (the failing verdict is in the JSON summary), 2 invalid configuration
(the message names the offending field).
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import geometry, oscillatory, restriction, torus
from .harmonics import Averaged, HighestWeight, Zonal
from .svgplot import loglog_svg

EXPERIMENTS = ("sweep", "kernel", "phase", "airy", "torus", "oracle-table")

CSV_HEADERS = {
    "sweep": "n,lambda,p,restricted_norm,ambient_norm,ratio",
    "kernel": "lambda,sup_scaled",
    "phase": "theta0,c_hat,c_theory",
    "airy": "lambda,opnorm",
    "torus": "N,r2,sup,curve_l2,seed",
}

# required keys carry the experiment physics and have no defaults; optional
# keys default to the calibrated module-level values
SCHEMAS = {
    "sweep": {"required": ("family", "curve", "p", "degrees"),
              "optional": {"num-points": None, "tolerance": "0.05"}},
    "kernel": {"required": ("lambda-list",),
               "optional": {"radius": None, "window": None,
                            "grid-points": None, "amplitude-support": None}},
    "phase": {"required": ("theta0-list",),
              "optional": {"tolerance": "1e-6"}},
    "airy": {"required": ("lambda-list",),
             "optional": {"case": "model", "tolerance": "0.05",
                          "domain": None, "amplitude-support": None}},
    "torus": {"required": (),
              "optional": {"n-list": None, "n-max": None, "seeds": "8",
                           "seed": "0", "grid-m": None}},
    "oracle-table": {"required": ("d", "k"),
                     "optional": {"p-list": "2,critical,4,6,inf",
                                  "curved": "false"}},
}
COMMON_OPTIONAL = {"experiment": None, "out": ".", "plot": "false"}

CATALOG = (
    ("sweep", "restricted L^p norms of eigenfunction families along curves or "
              "great subspheres; fits the lambda-growth exponent against the "
              "sharp theoretical value"),
    ("kernel", "oscillatory kernel decay: sup of |K(t,tau)| sqrt(1+lambda|t-tau|) "
               "stays within a fixed band across frequencies"),
    ("phase", "arc-length expansion of the geodesic phase on a curve: fitted "
              "cubic coefficient against kappa^2/24"),
    ("airy", "caustic-regime model operator: largest singular value decays "
             "like lambda^(-2/3)"),
    ("torus", "lattice circles m^2+n^2=N, divisor growth, sup-norm and "
              "curve-restriction experiments for random flat eigenfunctions"),
    ("oracle-table", "sharp restriction exponent over a p grid with "
                     "log-endpoint flags"),
)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def parse_config(text):
    """Flat `key = value` lines into a dict; # comments and blanks ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"duplicate config key: {key}")
        out[key] = value
    return out


def render_config(cfg):
    """Inverse of parse_config up to key order (keys come out sorted)."""
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def _parse_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _parse_bool(key, value):
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _parse_p(key, value):
    if value.strip().lower() in ("inf", "infinity"):
        return math.inf
    p = _parse_float(key, value)
    if p < 2.0:
        raise ConfigError(f"{key}: p must lie in [2, inf], got {value!r}")
    return p


def _parse_float_list(key, value):
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    return [_parse_float(key, v) for v in items]


def _parse_int_list(key, value):
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ConfigError(f"{key}: empty list")
    return [_parse_int(key, v) for v in items]


def _parse_degrees(value):
    """Either `lo:hi` (geometric ladder) or an explicit comma list."""
    if ":" in value:
        lo, _, hi = value.partition(":")
        degrees = restriction.geometric_degrees(_parse_int("degrees", lo),
                                                _parse_int("degrees", hi))
    else:
        degrees = _parse_int_list("degrees", value)
    return degrees


def _parse_curve(value):
    name, _, arg = value.partition(":")
    if name == "equator" and not arg:
        return geometry.equator()
    if name == "latitude":
        if not arg:
            raise ConfigError("curve: latitude needs a colatitude, e.g. latitude:0.785")
        try:
            return geometry.latitude_circle(_parse_float("curve", arg))
        except ValueError as exc:
            raise ConfigError(f"curve: {exc}, got {arg!r}") from None
    if name == "subsphere" and not arg:
        return geometry.great_subsphere()
    raise ConfigError(f"curve: unknown curve {value!r} "
                      "(equator | latitude:<colatitude> | subsphere)")


def _parse_family(value):
    """Family name -> (factory(n), ambient dimension).

    The zonal poles sit on the default curves (e1 lies on the equator and on
    the great subsphere), which is the sharp configuration for p >= 4;
    zonal-off tilts the pole a generic 1 radian off the z-axis so the equator
    is neither nodal nor extremal for it.
    """
    name, _, arg = value.partition(":")
    off_pole = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
    plain = {
        "zonal": (lambda n: Zonal(2, n, np.array([1.0, 0.0, 0.0])), 2),
        "zonal-off": (lambda n: Zonal(2, n, off_pole), 2),
        "zonal-s3": (lambda n: Zonal(3, n, np.array([1.0, 0.0, 0.0, 0.0])), 3),
        "highest-weight": (lambda n: HighestWeight(2, n), 2),
        "highest-weight-s3": (lambda n: HighestWeight(3, n), 3),
    }
    if name in plain and not arg:
        return plain[name]
    if name == "averaged":
        if not arg:
            raise ConfigError("family: averaged needs a width factor, e.g. averaged:0.9")
        delta = _parse_float("family", arg)
        if not (math.isfinite(delta) and delta > 0.0):
            raise ConfigError(f"family: averaged width must be finite and positive, "
                              f"got {arg!r}")
        return (lambda n: Averaged(n, delta), 2)
    raise ConfigError(f"family: unknown family {value!r} "
                      "(zonal | zonal-off | zonal-s3 | highest-weight | "
                      "highest-weight-s3 | averaged:<delta>)")


def validate_config(raw):
    """Schema check: experiment known, keys known, required keys present.

    Returns (experiment, cfg) where cfg maps every schema key to its raw
    string value (defaults filled in, None for absent optionals).
    """
    experiment = raw.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: missing (pass a subcommand argument or "
                          "an `experiment = ...` config line)")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    schema = SCHEMAS[experiment]
    known = set(schema["required"]) | set(schema["optional"]) | set(COMMON_OPTIONAL)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
    for key in schema["required"]:
        if key not in raw:
            raise ConfigError(f"{key}: required for experiment {experiment}")
    cfg = dict(COMMON_OPTIONAL)
    cfg.update(schema["optional"])
    cfg.update(raw)
    cfg["experiment"] = experiment
    return experiment, cfg


def _fmt(x):
    return format(float(x), ".17g")


def _parse_tolerance(value):
    if value is None or str(value).strip().lower() == "none":
        return None
    return _parse_float("tolerance", str(value))


def _run_sweep(cfg):
    factory, dim = _parse_family(cfg["family"])
    curve = _parse_curve(cfg["curve"])
    if curve.ambient_dim != dim:
        raise ConfigError("curve: curve and family live on different spheres")
    p = _parse_p("p", cfg["p"])
    degrees = _parse_degrees(cfg["degrees"])
    num_points = None if cfg["num-points"] is None else _parse_int("num-points", cfg["num-points"])
    tolerance = _parse_tolerance(cfg["tolerance"])

    samples = restriction.sweep(factory, curve, p, degrees, num_points=num_points)
    k = 2 if curve.kind is geometry.CurveKind.GREAT_SUBSPHERE else 1
    oracle = restriction.theoretical_exponent(dim, k, p)
    contract = None if oracle.log_endpoint else oracle.value
    fit = restriction.fit_exponent(samples, contract, tolerance)
    rows = [(str(s.degree), _fmt(s.lam), _fmt(s.p), _fmt(s.restricted_norm),
             _fmt(s.ambient_norm), _fmt(s.ratio)) for s in samples]
    results = {
        "fit": {"slope": fit.slope, "intercept": fit.intercept,
                "residual": fit.residual, "n_samples": fit.n_samples,
                "theoretical": fit.theoretical, "tolerance": fit.tolerance},
        "oracle": {"value": oracle.value, "log_endpoint": oracle.log_endpoint},
    }
    verdicts = {"exponent_fit": fit.verdict}
    if contract is not None:
        env = restriction.envelope_check(samples, oracle.value)
        results["envelope"] = {"constant": env.constant,
                               "worst_excess": env.worst_excess, "ok": env.ok}
        verdicts["envelope"] = "pass" if env.ok else "fail"
    lams = [s.lam for s in samples]
    series = [("ratio", lams, [s.ratio for s in samples])]
    if contract is not None:
        anchor = samples[0].ratio
        series.append((f"slope {oracle.value:g} guide", lams,
                       [anchor * (l / lams[0]) ** oracle.value for l in lams]))
    return rows, results, verdicts, series


def _run_kernel(cfg):
    lams = _parse_float_list("lambda-list", cfg["lambda-list"])
    kwargs = {}
    if cfg["radius"] is not None:
        kwargs["radius"] = _parse_float("radius", cfg["radius"])
    if cfg["window"] is not None:
        kwargs["window"] = _parse_float("window", cfg["window"])
    if cfg["grid-points"] is not None:
        kwargs["grid_points"] = _parse_int("grid-points", cfg["grid-points"])
    if cfg["amplitude-support"] is not None:
        kwargs["amplitude_support"] = _parse_float("amplitude-support",
                                                   cfg["amplitude-support"])
    report = oscillatory.verify_kernel_bound(lams, **kwargs)
    rows = [(_fmt(l), _fmt(s)) for l, s in zip(report.lams, report.sups)]
    results = {"sups": list(report.sups), "ratios": list(report.ratios),
               "ok": report.ok}
    verdicts = {"kernel_decay": "pass" if report.ok else "fail"}
    series = [("sup_scaled", list(report.lams), list(report.sups))]
    return rows, results, verdicts, series


def _run_phase(cfg):
    theta0s = _parse_float_list("theta0-list", cfg["theta0-list"])
    tolerance = _parse_tolerance(cfg["tolerance"])
    rows, deviations, table = [], [], []
    for theta0 in theta0s:
        curve = (geometry.equator() if math.isclose(theta0, math.pi / 2)
                 else geometry.latitude_circle(theta0))
        fit = oscillatory.phase_expansion_fit(curve)
        rows.append((_fmt(theta0), _fmt(fit.c_hat), _fmt(fit.c_theory)))
        deviations.append(fit.deviation)
        table.append({"theta0": theta0, "c_hat": fit.c_hat,
                      "c_theory": fit.c_theory, "deviation": fit.deviation})
    results = {"fits": table, "max_deviation": max(deviations),
               "tolerance": tolerance}
    if tolerance is None:
        verdict = "no_contract"
    else:
        verdict = "pass" if max(deviations) <= tolerance else "fail"
    return rows, results, {"phase_expansion": verdict}, None


def _run_airy(cfg):
    lams = _parse_float_list("lambda-list", cfg["lambda-list"])
    tolerance = _parse_tolerance(cfg["tolerance"])
    case = cfg["case"]
    if case not in ("model", "variable"):
        raise ConfigError(f"case: expected model or variable, got {case!r}")
    kwargs = {}
    if cfg["domain"] is not None:
        kwargs["domain"] = _parse_float("domain", cfg["domain"])
    if cfg["amplitude-support"] is not None:
        kwargs["amplitude_support"] = _parse_float("amplitude-support",
                                                   cfg["amplitude-support"])
    if case == "variable":
        kwargs["c"] = lambda tau: 1.0 + 0.2 * np.sin(tau)
        kwargs["d"] = lambda tau, delta: 0.1 * np.cos(tau)
    norms = [oscillatory.airy_operator_norm(oscillatory.AirySpec(lam, **kwargs))
             for lam in lams]
    rows = [(_fmt(l), _fmt(v)) for l, v in zip(lams, norms)]
    slope = restriction.loglog_fit(lams, norms)[0]
    results = {"case": case, "opnorms": norms, "slope": slope,
               "theoretical": -2.0 / 3.0, "tolerance": tolerance}
    if tolerance is None:
        verdict = "no_contract"
    else:
        verdict = "pass" if abs(slope + 2.0 / 3.0) <= tolerance else "fail"
    series = [("opnorm", lams, norms),
              ("slope -2/3 guide", lams,
               [norms[0] * (l / lams[0]) ** (-2.0 / 3.0) for l in lams])]
    return rows, results, {"airy_decay": verdict}, series


def _run_torus(cfg):
    if cfg["n-list"] is None and cfg["n-max"] is None:
        raise ConfigError("n-list: torus needs n-list and/or n-max")
    rows, results, verdicts = [], {}, {}
    series = None
    if cfg["n-list"] is not None:
        ns = _parse_int_list("n-list", cfg["n-list"])
        n_seeds = _parse_int("seeds", cfg["seeds"])
        if n_seeds < 1:
            raise ConfigError(f"seeds: need at least one seed, got {n_seeds}")
        base = _parse_int("seed", cfg["seed"])
        grid_m = None if cfg["grid-m"] is None else _parse_int("grid-m", cfg["grid-m"])
        seeds = range(base, base + n_seeds)
        report = torus.verify_linfty_bound(ns, seeds, grid_m)
        rows = [(str(r.N), str(r.r2), _fmt(r.sup), _fmt(r.curve_l2), str(r.seed))
                for r in report.rows]
        results["sup_bound"] = {"ok": report.bound_ok,
                                "worst_margin": report.worst_margin}
        verdicts["sup_bound"] = "pass" if report.bound_ok else "fail"
        if report.slope is not None:
            results["sup_slope"] = report.slope
            verdicts["sup_slope"] = "pass" if report.slope <= 0.15 else "fail"
            per_n = {}
            for r in report.rows:
                per_n[r.N] = max(per_n.get(r.N, 0.0), r.sup)
            xs = sorted(per_n)
            series = [("max sup", [math.sqrt(n) for n in xs],
                       [per_n[n] for n in xs])]
    if cfg["n-max"] is not None:
        n_max = _parse_int("n-max", cfg["n-max"])
        cutoffs = tuple(c for c in (10**3, 10**4, 10**5) if c < n_max)
        if not cutoffs:
            raise ConfigError("n-max: must exceed 1000 for the growth trend")
        maxima, decreasing = torus.exponent_trend(n_max, cutoffs)
        results["divisor_growth"] = {"cutoffs": list(cutoffs),
                                     "max_exponent": maxima,
                                     "decreasing": decreasing}
        verdicts["divisor_trend"] = "pass" if decreasing else "fail"
    return rows, results, verdicts, series


def _run_oracle_table(cfg):
    d = _parse_int("d", cfg["d"])
    k = _parse_int("k", cfg["k"])
    curved = _parse_bool("curved", cfg["curved"])
    table = []
    for item in (v.strip() for v in cfg["p-list"].split(",")):
        if not item:
            continue
        if item == "critical":
            p = 2.0 * d / (d - 1.0)
        else:
            p = _parse_p("p-list", item)
        try:
            oracle = restriction.theoretical_exponent(d, k, p, curved=curved)
        except ValueError as exc:
            raise ConfigError(f"p-list: {exc}") from None
        table.append({"p": "inf" if math.isinf(p) else p,
                      "exponent": oracle.value,
                      "log_endpoint": oracle.log_endpoint})
    if not table:
        raise ConfigError("p-list: empty list")
    results = {"d": d, "k": k, "curved": curved, "table": table}
    return [], results, {"oracle_table": "no_contract"}, None


RUNNERS = {
    "sweep": _run_sweep,
    "kernel": _run_kernel,
    "phase": _run_phase,
    "airy": _run_airy,
    "torus": _run_torus,
    "oracle-table": _run_oracle_table,
}


def run(raw_config):
    """Validate, execute, and write artifacts; returns the process exit code."""
    try:
        experiment, cfg = validate_config(raw_config)
        out_dir = Path(cfg["out"])
        plot = _parse_bool("plot", str(cfg["plot"]))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)

    # echo the physics config only: artifact destinations must not leak into
    # the summary bytes or identical runs into different directories diverge
    summary = {"experiment": experiment,
               "config": {k: str(v) for k, v in sorted(cfg.items())
                          if v is not None and k not in ("out", "plot")}}
    try:
        rows, results, verdicts, series = RUNNERS[experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        summary["error"] = str(exc)
        summary["verdicts"] = {}
        summary["exit_code"] = 1
        _write_text(out_dir / "summary.json",
                    json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1

    exit_code = 0 if all(v in ("pass", "no_contract") for v in verdicts.values()) else 1
    summary["results"] = results
    summary["verdicts"] = verdicts
    summary["exit_code"] = exit_code

    if experiment in CSV_HEADERS:
        csv_path = out_dir / f"{experiment}.csv"
        lines = [CSV_HEADERS[experiment]] + [",".join(r) for r in rows]
        _write_text(csv_path, "\n".join(lines) + "\n")
        summary["csv"] = csv_path.name
    if plot and series:
        svg_path = out_dir / f"{experiment}.svg"
        _write_text(svg_path, loglog_svg(series, title=experiment))
        summary["svg"] = svg_path.name
    _write_text(out_dir / "summary.json",
                json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for name in sorted(verdicts):
        print(f"{experiment}:{name}: {verdicts[name]}")
    return exit_code


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def list_experiments():
    width = max(len(name) for name, _ in CATALOG)
    return "".join(f"{name:<{width}}  {desc}\n" for name, desc in CATALOG)


# every schema key doubles as a --flag override; sorted for stable --help
FLAG_KEYS = tuple(sorted(
    {"out", "seed"}
    | {key for schema in SCHEMAS.values()
       for key in (*schema["required"], *schema["optional"])}))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="eigenrestrict", allow_abbrev=False,
        description="Numerical experiments for eigenfunction restriction bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment")
    runp.add_argument("experiment", nargs="?", default=None,
                      help="experiment name (or set `experiment = ...` in the config)")
    runp.add_argument("--config", default=None, help="flat key = value config file")
    runp.add_argument("--plot", action="store_true", help="emit an SVG log-log plot")
    for key in FLAG_KEYS:
        runp.add_argument(f"--{key}", default=None)
    sub.add_parser("list", help="list the experiment catalog")
    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_experiments(), end="")
        return 0

    raw = {}
    if args.config is not None:
        try:
            raw = parse_config(Path(args.config).read_text())
        except OSError as exc:
            print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    if args.experiment is not None:
        raw["experiment"] = args.experiment
    for key in FLAG_KEYS:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            raw[key] = value
    if args.plot:
        raw["plot"] = "true"
    return run(raw)


if __name__ == "__main__":
    sys.exit(main())
