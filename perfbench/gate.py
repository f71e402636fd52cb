"""Correctness gate: exit codes, verdicts, byte determinism and headline numbers.

An experiment execution fails when its exit code is not 0, when it has no
verdict or any verdict is not `pass`, when its summary.json bytes differ
from another execution of the same experiment with the same workload seed
and BLAS thread count on the same sources, or when a headline number leaves
its tolerance around the reference recorded at the seed commit
(reference.json).
"""

import csv
import json
import math

# Headline kinds and their stated tolerances, as (relative, absolute).  A
# value passes when |got - ref| <= max(rel * |ref|, abs).
TOLERANCES = {
    # fit slopes and ratios: an exact rewrite of a norm (closed-form
    # normalisation, fewer grid passes) reorders sums only
    "slope": (0.0, 1e-9),
    "ratio": (1e-9, 0.0),
    "order": (0.0, 0.0),
    "kernel_sup": (1e-9, 0.0),
    # the cubic coefficient is 0 on the equator, where the fit returns
    # roundoff of order 1e-13
    "c_hat": (1e-9, 1e-12),
    # an iterative top singular value is held to 1e-10 of the dense SVD
    "opnorm": (1e-9, 0.0),
    "airy_slope": (0.0, 1e-9),
    "divisor_max": (1e-12, 0.0),
    # the grid sup is a lower bound of the true sup; at 40 points per
    # wavelength it sits within (pi/40)^2 / 2 ~ 0.3% of it, so a certified
    # enclosure may move it by that much
    "torus_sup": (1e-2, 0.0),
    "torus_slope": (0.0, 1e-2),
    "torus_curve_l2": (1e-9, 0.0),
}
# kinds that depend on the workload seed: checked only at the reference seed
SEEDED_KINDS = frozenset({"torus_sup", "torus_slope", "torus_curve_l2"})


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def headlines(summary, out_dir):
    """Headline numbers of one experiment, keyed '<kind>.<detail>'."""
    res = summary.get("results", {})
    kind = summary["experiment"]
    out = {}
    if kind in ("sweep", "turning-point"):
        out["slope.fit"] = res["fit"]["slope"]
        for row in _csv_rows(out_dir / "sweep.csv"):
            out[f"ratio.n{row['n']}"] = float(row["ratio"])
        for n, m in res.get("orders", {}).items():
            out[f"order.n{n}"] = m
    elif kind == "kernel":
        for lam, sup in zip(summary["config"]["lambda-list"].split(","), res["sups"]):
            out[f"kernel_sup.lam{lam}"] = sup
    elif kind == "phase":
        for fit in res["fits"]:
            out[f"c_hat.theta{fit['theta0']!r}"] = fit["c_hat"]
    elif kind == "airy":
        for lam, norm in zip(summary["config"]["lambda-list"].split(","), res["opnorms"]):
            out[f"opnorm.lam{lam}"] = norm
        out["airy_slope.fit"] = res["slope"]
    elif kind == "torus":
        for row in _csv_rows(out_dir / "torus.csv"):
            key = f"N{row['N']}.seed{row['seed']}"
            out[f"torus_sup.{key}"] = float(row["sup"])
            out[f"torus_curve_l2.{key}"] = float(row["curve_l2"])
        if "sup_slope" in res:
            out["torus_slope.fit"] = res["sup_slope"]
        growth = res.get("divisor_growth", {})
        for cutoff, value in zip(growth.get("cutoffs", []), growth.get("max_exponent", [])):
            out[f"divisor_max.from{cutoff}"] = value
    return out


def _within(got, ref, kind):
    rel, abs_ = TOLERANCES[kind]
    return math.isfinite(got) and abs(got - ref) <= max(rel * abs(ref), abs_)


def check_execution(record, reference, seeded_checked=True):
    """Problems (a list of strings) with one experiment execution.

    `record` holds `exit_code`, `verdicts` and `headlines`; `reference` maps
    headline keys to the recorded values (None when no reference applies).
    With seeded_checked False the seed-dependent kinds are skipped.
    """
    problems = []
    if record.get("exit_code") != 0:
        problems.append(f"exit code {record.get('exit_code')}")
    verdicts = record.get("verdicts") or {}
    if not verdicts:
        problems.append("no verdict")
    problems += [f"verdict {k}={v}" for k, v in sorted(verdicts.items()) if v != "pass"]
    if reference is None:
        return problems
    got = record.get("headlines") or {}
    for key, ref in sorted(reference.items()):
        kind = key.split(".", 1)[0]
        if kind in SEEDED_KINDS and not seeded_checked:
            continue
        if key not in got:
            problems.append(f"headline {key} missing")
        elif not _within(got[key], ref, kind):
            problems.append(f"headline {key}={got[key]!r} outside tolerance of {ref!r}")
    return problems


class DigestBook:
    """summary.json digests seen so far, keyed by experiment identity.

    Backed by a JSON file in the checkout's state directory, so executions in
    later runs of the same checkout are compared too.  The caller keeps one
    file per source hash: bytes are compared only between runs of the same
    code, because an exact rewrite may reorder floating-point sums.
    """

    def __init__(self, path):
        self.path = path
        try:
            self.seen = json.loads(path.read_text())
        except FileNotFoundError:
            self.seen = {}

    def check(self, key, digest, record=True):
        """Problems if `digest` differs from the one recorded for `key`.

        A first digest is recorded only when `record` is true, so an
        execution that failed another check sets no reference.
        """
        first = self.seen.get(key)
        if first is None:
            if record:
                self.seen[key] = digest
            return []
        return [] if first == digest else [f"summary.json bytes differ from an earlier run ({key})"]

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)
