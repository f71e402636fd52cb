"""One run of a workload: a fresh process that imports eigenrestrict and runs
a fixed experiment list back to back.

Usage: python3 child.py SPEC_JSON

The spec names the source tree to import from, the experiments, the output
directory, whether to trace, and the result file to write.  The result holds
the monotonic time at which numpy and eigenrestrict were imported (the
parent subtracts its own launch time), wall and CPU time of the experiment
list, peak RSS, one record per experiment and, when traced, every span.
"""

import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

import gate


def _turning_point(restriction, out_dir):
    """The Airy-scale turning-point sweep of scripts/turning_point.py, as a summary."""
    result = restriction.turning_point_sweep(
        math.pi / 4, restriction.geometric_degrees(32, 1024))
    fit = restriction.fit_exponent(result.samples, theoretical=1.0 / 6.0, tolerance=0.03)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["n,lambda,p,restricted_norm,ambient_norm,ratio"]
    lines += [",".join([str(s.degree)] + [format(float(x), ".17g") for x in
                                          (s.lam, s.p, s.restricted_norm, s.ambient_norm, s.ratio)])
              for s in result.samples]
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    summary = {"experiment": "turning-point",
               "results": {"fit": {"slope": fit.slope, "residual": fit.residual,
                                   "theoretical": fit.theoretical, "tolerance": fit.tolerance},
                           "orders": {str(s.degree): m for s, m in zip(result.samples, result.orders)}},
               "verdicts": {"exponent_fit": fit.verdict}}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if fit.verdict == "pass" else 1


CALLS = {"turning_point": _turning_point}


def _run_one(exp, out_dir, cli, restriction):
    """Exit code of one experiment, run through the CLI or public functions."""
    if "call" in exp:
        return CALLS[exp["call"]](restriction, out_dir)
    return cli.main(exp["argv"] + ["--out", str(out_dir)])


def _record(exp, out_dir, exit_code, seconds):
    rec = {"label": exp["label"], "exit_code": exit_code, "seconds": seconds,
           "bytes": sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0}
    summary_path = out_dir / "summary.json"
    if summary_path.is_file():
        raw = summary_path.read_bytes()
        rec["digest"] = hashlib.sha256(raw).hexdigest()
        summary = json.loads(raw)
        rec["verdicts"] = summary.get("verdicts", {})
        rec["headlines"] = gate.headlines(summary, out_dir)
    return rec


def _environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np

    from eigenrestrict import cli, restriction
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        import layers
        from spans import Tracer

        tracer = Tracer(spec["run_id"])
        layers.instrument(tracer)

    out_root = Path(spec["out"])
    runs = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for exp in spec["experiments"]:
        out_dir = out_root / exp["label"]
        t0 = time.perf_counter()
        span = None
        try:
            if tracer is None:
                code = _run_one(exp, out_dir, cli, restriction)
            else:
                code, span = tracer.call(f"exp.{exp['label']}", _run_one,
                                         exp, out_dir, cli, restriction)
        except Exception:  # the list must go on; the gate counts the failure
            traceback.print_exc()
            code = None
        runs.append((exp, out_dir, code, time.perf_counter() - t0, span))
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    records = []
    for exp, out_dir, code, seconds, span in runs:
        records.append(_record(exp, out_dir, code, seconds))
        if span is not None:
            span["counts"] = {"bytes": records[-1]["bytes"]}
    result = {"ready": ready, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "experiments": records, "environment": _environment(np)}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
