"""Experiment runner: named experiments, CSV/JSON artifacts, optional SVG plots.

Configuration is flat key = value text (a file, or --key value flags).  Each
experiment is one record in EXPERIMENTS: runner, CSV header, and its keys
with their raw-text defaults; REQUIRED keys carry the physics (family, curve,
p, degree or frequency lists), and unknown keys are rejected by name.  Each
key has one parser in KEYS that returns a typed, range-checked value; every
value is parsed before any runner starts, so runners parse nothing.  A check
tying two keys together sits at the top of its runner and names its own key.
Outputs are byte-deterministic for a fixed config and seed: CSV floats use
17 significant digits; summary.json is strict JSON with sorted keys.

Exit codes: 0 all verdicts pass or carry no contract, 1 a numerical contract
failed or the run failed (the verdict or error is in the JSON summary), 2
invalid configuration (the message names the offending field).
"""

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry, oscillatory, restriction, torus
from .harmonics import Averaged, HighestWeight, Zonal
from .svgplot import loglog_svg


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


# ----------------------------------------------------------------- key parsers
# Each turns the raw text into a typed value or raises ValueError (float and
# int name the bad text themselves); parse_value prefixes the key.

def _checked(parse, ok, need):
    """parse, then reject a value outside the domain `ok` with `need`."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{need}, got {text!r}")
        return value
    return check


def _list(item):
    def parse(text):
        items = [v.strip() for v in text.split(",") if v.strip()]
        if not items:
            raise ValueError("empty list")
        return [item(v) for v in items]
    return parse


_BOOLEANS = {**dict.fromkeys(("true", "yes", "1", "on"), True),
             **dict.fromkeys(("false", "no", "0", "off"), False)}
_boolean = _checked(lambda t: _BOOLEANS.get(t.strip().lower()),
                    lambda b: b is not None, "expected a boolean")
_p = _checked(float, lambda p: p >= 2.0, "need p in [2, inf]")  # NaN fails too


def _latitude(text):
    colatitude = float(text)
    try:
        return geometry.LatitudeCircle(colatitude)
    except ValueError as exc:
        raise ValueError(f"{exc}, got {text!r}") from None


def _degrees(text):
    """Either `lo:hi` (geometric ladder) or an explicit comma list."""
    if ":" in text:
        lo, _, hi = text.partition(":")
        degrees = restriction.geometric_degrees(int(lo), int(hi))
    else:
        degrees = _list(int)(text)
    restriction._validate_degrees(degrees)
    if len(degrees) < 4:
        raise ValueError(f"the exponent fit needs at least 4 degrees, got {len(degrees)}")
    return degrees


def _circle_number(text):
    # bounded before the O(sqrt N) representation scan
    n = _checked(int, lambda n: 1 <= n <= torus.DESK_N_MAX,
                 f"need 1 <= N <= {torus.DESK_N_MAX}")(text)
    if len(torus.representations(n)) == 0:
        raise ValueError(f"N={n} is not a sum of two squares")
    return n


def _curve(text):
    name, _, arg = text.partition(":")
    if name == "equator" and not arg:
        return geometry.equator()
    if name == "latitude":
        if not arg:
            raise ValueError("latitude needs a colatitude, e.g. latitude:0.785")
        return _latitude(arg)
    if name == "subsphere" and not arg:
        return geometry.GreatSubsphere()
    raise ValueError(f"unknown curve {text!r} "
                     "(equator | latitude:<colatitude> | subsphere)")


def _family(text):
    """Family name -> factory(n); each member carries its sphere's `.dim`.

    The zonal poles sit on the default curves (e1 lies on the equator and on
    the great subsphere), which is the sharp configuration for p >= 4;
    zonal-off tilts the pole a generic 1 radian off the z-axis so the equator
    is neither nodal nor extremal for it.
    """
    name, _, arg = text.partition(":")
    off_pole = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
    plain = {
        "zonal": lambda n: Zonal(2, n, np.array([1.0, 0.0, 0.0])),
        "zonal-off": lambda n: Zonal(2, n, off_pole),
        "zonal-s3": lambda n: Zonal(3, n, np.array([1.0, 0.0, 0.0, 0.0])),
        "highest-weight": lambda n: HighestWeight(2, n),
        "highest-weight-s3": lambda n: HighestWeight(3, n),
    }
    if name in plain and not arg:
        return plain[name]
    if name == "averaged":
        if not arg:
            raise ValueError("averaged needs a width factor, e.g. averaged:0.9")
        delta = float(arg)  # its range is Averaged's own check (_run_sweep)
        return lambda n: Averaged(n, delta)
    raise ValueError(f"unknown family {text!r} "
                     "(zonal | zonal-off | zonal-s3 | highest-weight | "
                     "highest-weight-s3 | averaged:<delta>)")


SEEDS_MAX = 1000  # each seed is one certified sup enclosure per circle
ORACLE_INT_MAX = 2**53  # d and k enter the oracle as floats, exact up to here

KEYS = {
    "family": _family,
    "curve": _curve,
    "p": _p,
    "degrees": _degrees,
    # a repeated lambda would leave the decay fit rank-deficient
    "lambda-list": _checked(
        _list(_checked(float, lambda x: math.isfinite(x) and x > 0.0,
                       "lambda must be finite and positive")),
        lambda lams: all(a < b for a, b in zip(lams, lams[1:])),
        "need strictly increasing values"),
    "theta0-list": _list(_latitude),
    "case": _checked(str, lambda c: c in oscillatory.AIRY_CASES,
                     "expected " + " or ".join(oscillatory.AIRY_CASES)),
    "n-list": _list(_circle_number),
    "n-max": _checked(int, lambda n: 1000 < n <= torus.DESK_N_MAX,
                      f"need 1000 < n-max <= {torus.DESK_N_MAX}"),
    "seeds": _checked(_checked(int, lambda n: n >= 1, "need at least one seed"),
                      lambda n: n <= SEEDS_MAX, f"need at most {SEEDS_MAX} seeds"),
    "seed": _checked(int, lambda n: n >= 0, "need a seed >= 0"),
    "d": _checked(int, lambda d: 2 <= d <= ORACLE_INT_MAX,
                  "need a sphere dimension 2 <= d <= 2**53"),
    "k": _checked(int, lambda k: 1 <= k <= ORACLE_INT_MAX,
                  "need a submanifold dimension 1 <= k <= 2**53"),
    "p-list": _list(lambda t: "critical" if t == "critical" else _p(t)),
    "curved": _boolean,
    "plot": _boolean,
    "out": Path,
}


def parse_value(key, text):
    """The typed, range-checked value of `key`; ConfigError names the key."""
    try:
        return KEYS[key](text)
    except (ValueError, ArithmeticError) as exc:  # huge integers overflow floats
        raise ConfigError(f"{key}: {exc}") from None


# ----------------------------------------------------------------- runners
# Each takes the typed config and returns (csv rows, results, verdicts,
# plot series or None).  Each verdict's bound is a constant, not a key, so
# no run can widen it.

# every exponent fit (sweep and turning-point): under half the 1/12 gap
# between the geodesic (1/4) and curved (1/6) rates at p = 2, so a fit
# cannot pass on the wrong branch
EXPONENT_TOLERANCE = 0.03
PHASE_TOLERANCE = 1e-6      # |c_hat - kappa^2/24|, absolute
AIRY_TOLERANCE = 0.05       # |slope + 2/3| of the Airy operator norms
SUP_SLOPE_BOUND = 0.15      # torus: slope of the max sup against log sqrt(N)


def _fmt(x):
    return format(float(x), ".17g")


def _sweep_report(samples, curve, p):
    """CSV rows, results, verdicts and plot series of a sweep's samples, fitted
    against the sharp exponent of `curve` at `p` (log endpoints: no contract)."""
    oracle = restriction.theoretical_exponent(curve.ambient_dim, curve.dim, p,
                                              curved=curve.curved)
    contract = None if oracle.log_endpoint else oracle.value
    fit = restriction.fit_exponent(samples, contract, EXPONENT_TOLERANCE)
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


def _run_sweep(cfg):
    factory, curve, degrees = cfg["family"], cfg["curve"], cfg["degrees"]
    try:
        member = factory(degrees[0])  # the averaged window is widest at the lowest degree
    except ValueError as exc:
        raise ConfigError(f"family: {exc}") from None
    if curve.ambient_dim != member.dim:
        raise ConfigError("curve: curve and family live on different spheres")
    samples = restriction.sweep(factory, curve, cfg["p"], degrees)
    return _sweep_report(samples, curve, cfg["p"])


def _run_turning_point(cfg):
    curve = cfg["curve"]
    if not isinstance(curve, geometry.LatitudeCircle):
        raise ConfigError("curve: the turning-point scan runs on a latitude circle "
                          "(equator | latitude:<colatitude>)")
    scan = restriction.turning_point_sweep(curve.colatitude, cfg["degrees"])
    rows, results, verdicts, series = _sweep_report(scan.samples, curve, 2.0)
    results["orders"] = {str(s.degree): m for s, m in zip(scan.samples, scan.orders)}
    return rows, results, verdicts, series


def _run_kernel(cfg):
    try:  # every lambda is checked before the first kernel is built
        report = oscillatory.verify_kernel_bound(cfg["lambda-list"])
    except ValueError as exc:
        raise ConfigError(f"lambda-list: {exc}") from None
    rows = [(_fmt(l), _fmt(s)) for l, s in zip(report.lams, report.sups)]
    results = {"sups": list(report.sups), "ratios": list(report.ratios),
               "ok": report.ok}
    verdicts = {"kernel_decay": "pass" if report.ok else "fail"}
    series = [("sup_scaled", list(report.lams), list(report.sups))]
    return rows, results, verdicts, series


def _run_phase(cfg):
    rows, deviations, table = [], [], []
    for curve in cfg["theta0-list"]:
        theta0 = curve.colatitude
        try:
            fit = oscillatory.phase_expansion_fit(curve)
        except ValueError as exc:
            raise ConfigError(f"theta0-list: theta0={theta0:g}: {exc}") from None
        rows.append((_fmt(theta0), _fmt(fit.c_hat), _fmt(fit.c_theory)))
        deviations.append(fit.deviation)
        table.append({"theta0": theta0, "c_hat": fit.c_hat,
                      "c_theory": fit.c_theory, "deviation": fit.deviation})
    results = {"fits": table, "max_deviation": max(deviations),
               "tolerance": PHASE_TOLERANCE}
    verdict = "pass" if max(deviations) <= PHASE_TOLERANCE else "fail"
    return rows, results, {"phase_expansion": verdict}, None


def _run_airy(cfg):
    lams, case = cfg["lambda-list"], cfg["case"]
    specs = [oscillatory.AirySpec(lam, **oscillatory.AIRY_CASES[case]) for lam in lams]
    for spec in specs:  # every size before the first norm
        try:
            oscillatory.airy_matrix_dim(spec)
        except ValueError as exc:
            raise ConfigError(f"lambda-list: {exc}") from None
    norms = [oscillatory.airy_operator_norm(spec) for spec in specs]
    rows = [(_fmt(l), _fmt(v)) for l, v in zip(lams, norms)]
    # one lambda gives its norm but no decay rate to hold to the contract
    slope = fit_residual = None
    if len(lams) > 1:
        slope, _, fit_residual = restriction.loglog_fit(lams, norms)
    # the Lanczos step count and final Ritz residual back each norm
    results = {"case": case, "opnorms": [float(v) for v in norms],
               "lanczos_steps": [v.steps for v in norms],
               "ritz_residuals": [v.residual for v in norms],
               "slope": slope, "fit_residual": fit_residual,
               "theoretical": -2.0 / 3.0, "tolerance": AIRY_TOLERANCE}
    if slope is None:
        verdict = "no_contract"
    else:
        verdict = "pass" if abs(slope + 2.0 / 3.0) <= AIRY_TOLERANCE else "fail"
    series = [("opnorm", lams, norms),
              ("slope -2/3 guide", lams,
               [norms[0] * (l / lams[0]) ** (-2.0 / 3.0) for l in lams])]
    return rows, results, {"airy_decay": verdict}, series


def _enclosure(sup):
    return {"lo": sup.lo, "hi": sup.hi, "m": sup.m, "depth": sup.depth, "cells": sup.cells}


def _run_torus(cfg):
    if cfg["n-list"] is None and cfg["n-max"] is None:
        raise ConfigError("n-list: torus needs n-list and/or n-max")
    rows, results, verdicts = [], {}, {}
    series = None
    if cfg["n-list"] is not None:
        seeds = range(cfg["seed"], cfg["seed"] + cfg["seeds"])
        report = torus.verify_linfty_bound(cfg["n-list"], seeds)
        rows = [(str(r.N), str(r.r2), _fmt(r.sup.lo), _fmt(r.curve_l2), str(r.seed))
                for r in report.rows]
        results["rows"] = [{"N": r.N, "seed": r.seed, **_enclosure(r.sup), "curves": r.curves,
                            **dict(zip(("circle_nodes", "circle_tail_bound"), r.circle_rule))}
                           for r in report.rows]
        results["sup_bound"] = {
            "ok": report.bound_ok, "worst_margin": report.worst_margin,
            "max_width": report.max_width}
        verdicts["sup_bound"] = "pass" if report.bound_ok else "fail"
        results["geodesic_l2"] = {
            "ok": report.geodesic_ok, "worst_ratio": report.geodesic_ratio,
            "witnesses": [{"N": w.N, "norms": w.geodesics, "expected": w.expected}
                          for w in report.witnesses]}
        verdicts["geodesic_l2"] = "pass" if report.geodesic_ok else "fail"
        if report.slope is not None:
            results["sup_slope"] = report.slope
            results["sup_slope_bound"] = SUP_SLOPE_BOUND
            verdicts["sup_slope"] = "pass" if report.slope <= SUP_SLOPE_BOUND else "fail"
            series = [("max sup", [math.sqrt(n) for n in report.max_lo],
                       list(report.max_lo.values()))]
    if cfg["n-max"] is not None:
        cutoffs = tuple(c for c in torus.TREND_CUTOFFS if c < cfg["n-max"])
        maxima, argmax_N, decreasing = torus.exponent_trend(cfg["n-max"], cutoffs)
        results["divisor_growth"] = {"cutoffs": list(cutoffs),
                                     "max_exponent": maxima,
                                     "argmax_N": argmax_N,
                                     "decreasing": decreasing}
        # one cutoff gives its maximum but no trend to hold to the contract
        if decreasing is None:
            verdicts["divisor_trend"] = "no_contract"
        else:
            verdicts["divisor_trend"] = "pass" if decreasing else "fail"
    return rows, results, verdicts, series


def _run_oracle_table(cfg):
    d, k, curved = cfg["d"], cfg["k"], cfg["curved"]
    if k > d - 1:
        raise ConfigError(f"k: need k <= d - 1 = {d - 1}, got {k}")
    if curved and (d, k) != (2, 1):
        raise ConfigError("curved: the curved refinement applies to curves on S^2 "
                          "only (d = 2, k = 1)")
    from fractions import Fraction  # here, so that no other run imports it

    table = []
    for item in cfg["p-list"]:
        p = Fraction(2 * d, d - 1) if item == "critical" else item  # p0 exactly
        oracle = restriction.theoretical_exponent(d, k, p, curved=curved)
        table.append({"p": "inf" if math.isinf(p) else float(p),
                      "exponent": oracle.value,
                      "log_endpoint": oracle.log_endpoint})
    results = {"d": d, "k": k, "curved": curved, "table": table}
    return [], results, {"oracle_table": "no_contract"}, None


# ----------------------------------------------------------------- experiments

REQUIRED = object()  # default of a key the config must set
_SWEEP_CSV = "n,lambda,p,restricted_norm,ambient_norm,ratio"


@dataclass(frozen=True)
class Experiment:
    about: str      # one-line catalog description
    run: Callable   # runner(typed cfg) -> (rows, results, verdicts, series)
    keys: dict      # key -> raw default text, None (absent) or REQUIRED
    csv: str | None = None  # CSV header


EXPERIMENTS = {
    "sweep": Experiment(
        "restricted L^p norms of eigenfunction families along curves or "
        "great subspheres; fits the lambda-growth exponent against the "
        "sharp theoretical value",
        _run_sweep,
        {"family": REQUIRED, "curve": REQUIRED, "p": REQUIRED,
         "degrees": REQUIRED},
        _SWEEP_CSV),
    "turning-point": Experiment(
        "restricted L^2 maximum over all orders m of Y_n^m on a latitude "
        "circle (the exact p = 2 eigenspace maximum there); fits its growth "
        "against 1/6 off the equator and 1/4 on it, and reports each "
        "degree's winning order",
        _run_turning_point, {"curve": REQUIRED, "degrees": REQUIRED},
        _SWEEP_CSV),
    "kernel": Experiment(
        "oscillatory kernel decay: sup of |K(t,tau)| sqrt(1+lambda|t-tau|) "
        "stays within a fixed band across frequencies",
        _run_kernel, {"lambda-list": REQUIRED}, "lambda,sup_scaled"),
    "phase": Experiment(
        "arc-length expansion of the geodesic phase on a curve: fitted "
        "cubic coefficient against kappa^2/24",
        _run_phase, {"theta0-list": REQUIRED},
        "theta0,c_hat,c_theory"),
    "airy": Experiment(
        "caustic-regime model operator: largest singular value decays "
        "like lambda^(-2/3)",
        _run_airy,
        {"lambda-list": REQUIRED, "case": "model"},
        "lambda,opnorm"),
    "torus": Experiment(
        "lattice circles m^2+n^2=N, divisor growth, sup-norm and "
        "curve-restriction experiments for random flat eigenfunctions",
        _run_torus,
        {"n-list": None, "n-max": None, "seeds": "8", "seed": "0"},
        "N,r2,sup,curve_l2,seed"),
    "oracle-table": Experiment(
        "sharp restriction exponent over a p grid with log-endpoint flags",
        _run_oracle_table,
        {"d": REQUIRED, "k": REQUIRED, "p-list": "2,critical,4,6,inf",
         "curved": "false"}),
}
COMMON_KEYS = {"experiment": None, "out": ".", "plot": "false"}


def validate_config(raw):
    """Schema check: experiment known, keys known, required keys present.

    Returns (experiment, cfg) where cfg maps every key of the experiment to
    its raw string value (defaults filled in, None for absent optionals).
    """
    experiment = raw.get("experiment")
    if experiment is None:
        raise ConfigError("experiment: missing (pass a subcommand argument or "
                          "an `experiment = ...` config line)")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown experiment {experiment!r}")
    keys = {**COMMON_KEYS, **EXPERIMENTS[experiment].keys}
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key: {key}")
    for key, default in keys.items():
        if default is REQUIRED and key not in raw:
            raise ConfigError(f"{key}: required for experiment {experiment}")
    return experiment, {**keys, **raw}


def _dumps(summary):
    # allow_nan=False: a NaN or inf result raises instead of writing bad JSON
    return json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"


def run(raw_config):
    """Validate, execute, and write artifacts; returns the process exit code."""
    try:
        experiment, raw = validate_config(raw_config)
        cfg = {key: None if text is None else parse_value(key, text)
               for key, text in raw.items() if key != "experiment"}
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    spec, out_dir = EXPERIMENTS[experiment], cfg["out"]
    out_dir.mkdir(parents=True, exist_ok=True)

    # echo the physics config only: artifact destinations must not leak into
    # the summary bytes or identical runs into different directories diverge
    echo = {"experiment": experiment,
            "config": {k: v for k, v in sorted(raw.items())
                       if v is not None and k not in ("out", "plot")}}
    try:
        rows, results, verdicts, series = spec.run(cfg)
        exit_code = 0 if all(v in ("pass", "no_contract") for v in verdicts.values()) else 1
        summary = {**echo, "results": results, "verdicts": verdicts,
                   "exit_code": exit_code}
        if spec.csv is not None:
            summary["csv"] = f"{experiment}.csv"
        if cfg["plot"] and series:
            summary["svg"] = f"{experiment}.svg"
        text = _dumps(summary)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        _write_text(out_dir / "summary.json",
                    _dumps({**echo, "error": str(exc), "verdicts": {}, "exit_code": 1}))
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 1

    if "csv" in summary:
        lines = [spec.csv] + [",".join(r) for r in rows]
        _write_text(out_dir / summary["csv"], "\n".join(lines) + "\n")
    if "svg" in summary:
        _write_text(out_dir / summary["svg"], loglog_svg(series, title=experiment))
    _write_text(out_dir / "summary.json", text)

    for name in sorted(verdicts):
        print(f"{experiment}:{name}: {verdicts[name]}")
    return exit_code


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def list_experiments():
    width = max(len(name) for name in EXPERIMENTS)
    return "".join(f"{name:<{width}}  {e.about}\n" for name, e in EXPERIMENTS.items())


# every experiment key doubles as a --flag override; sorted for stable --help
FLAG_KEYS = tuple(sorted({"out"} | {key for e in EXPERIMENTS.values() for key in e.keys}))


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
    # argparse takes "-5,10" or "-inf" for a flag, not a value: join it to its key
    keyed = {f"--{key}" for key in FLAG_KEYS}
    flags = keyed | {"-h", "--help", "--config", "--plot"}
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in keyed and argv[i + 1][:1] == "-" and argv[i + 1].split("=")[0] not in flags:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
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
