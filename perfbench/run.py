#!/usr/bin/env python3
"""eigenrestrict benchmark: one workload, measured end to end or traced.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass is a fresh Python process (child.py) that imports eigenrestrict
from src/ and runs the workload's experiment list once, as a user running
`eigenrestrict run` pays every cost once: nothing is warmed up inside it.
BLAS threads are capped at the number of usable cores.

--trace 0 runs passes until S seconds are used (at least one) plus a few
import-only processes, and reports the end-to-end metrics: wall_s and
peak_rss_mb as medians over passes, setup_s (process start to numpy and
eigenrestrict imported) as the median over every process.
--trace 1 runs one untraced pass, one traced pass and one untraced pass with
a single BLAS thread, and reports the per-layer metrics of layers.py.
Metric names and units come from BENCHMARK.json at the repository root.

A run ends within DEADLINE_S seconds.  If the single-thread pass would run
past it, it is stopped there and process.wall_1thread_s reports the time it
ran, a lower bound, with a note on standard error.

Every experiment execution goes through the correctness gate (gate.py);
`attempted` counts executions and `failed` those the gate rejects.  The last
line of standard output is the JSON result.  Scratch output, the per-run
record (environment, passes, spans) and the summary digests, one file per
hash of the sources, live in .perfbench/ at the repository root.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
import workloads
from spans import covered_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 8
# A run must exit within 180 s; 10 s are left for interpreter start, the
# gate and the run record.  The longest run, a traced airy-kernel, takes
# about 122 s on the reference machine (see README.md).
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; the message says why."""


def available_mb():
    """MemAvailable in MB (the kernel's estimate of memory a process can take)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20


def l3_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def usable_cores():
    return len(os.sched_getaffinity(0))


def source_hash(root=ROOT):
    """Hash of the package sources and of child.py, which writes one summary."""
    digest = hashlib.sha256()
    src = root / "src" / "eigenrestrict"
    files = [(path.relative_to(src).as_posix(), path) for path in sorted(src.rglob("*.py"))]
    files.append(("perfbench/child.py", HERE / "child.py"))
    for name, path in files:
        digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def digest_book(state, source):
    """The summary digests recorded for sources with hash `source`."""
    return gate.DigestBook(state / "digests" / f"{source}.json")


def metric_units(trace):
    """name -> unit of the metrics a run reports, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except FileNotFoundError:
        raise BenchError(f"no BENCHMARK.json under {ROOT}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runner:
    """Launches child processes for one workload run and collects their results."""

    def __init__(self, state, workload, seed, deadline):
        self.state = state
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.scratch = state / f"run-{workload}-seed{seed}-{os.getpid()}"
        self.count = 0

    def launch(self, experiments, threads, trace=False, stop_at_deadline=False):
        """One child process; returns its result dict with `setup_s` added.

        With stop_at_deadline a pass still running at the deadline is
        stopped, and the result holds only its wall time so far.
        """
        self.count += 1
        tag = f"p{self.count}"
        spec = {"src": str(ROOT / "src"), "experiments": experiments,
                "out": str(self.scratch / tag), "trace": trace,
                "run_id": f"{self.workload}-seed{self.seed}-{tag}",
                "result": str(self.scratch / f"{tag}.result.json")}
        spec_path = self.scratch / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, **{var: str(threads) for var in THREAD_VARS})
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the pass could start")
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  env=env, stdout=subprocess.DEVNULL, timeout=remaining)
        except subprocess.TimeoutExpired:
            if stop_at_deadline:
                return {"wall_s": time.monotonic() - start, "stopped": True,
                        "threads": threads, "traced": trace, "experiments": []}
            raise BenchError(f"pass {tag} ran past the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"pass {tag} exited with code {proc.returncode}")
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_s"] = result["ready"] - start
        result["threads"] = threads
        result["traced"] = trace
        return result

    def cleanup(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


def gate_passes(passes, workload, seed, reference, digests):
    """(attempted, failed) over every experiment execution of every pass."""
    refs = reference["headlines"].get(workload, {})
    check_refs = workloads.reference_seed(workload, seed)
    key_seed = seed if workload in workloads.SEEDED else "any"
    attempted = failed = 0
    for p in passes:
        for rec in p["experiments"]:
            attempted += 1
            problems = gate.check_execution(rec, refs.get(rec["label"]), check_refs)
            if "digest" in rec:
                problems += digests.check(
                    f"{workload}|seed={key_seed}|threads={p['threads']}|{rec['label']}",
                    rec["digest"], record=not problems)
            if problems:
                failed += 1
                print(f"perfbench: {rec['label']} failed: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def end_to_end_metrics(passes, probes):
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median([p["setup_s"] for p in probes + passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def traced_metrics(plain, traced, single):
    spans = traced["spans"]
    m = layers.layer_metrics(spans, workloads.all_labels())
    exp_spans = [s for s in spans if s["parent"] is None]
    start, end = exp_spans[0]["start"], exp_spans[-1]["end"]
    m["process.cpu_s"] = plain["cpu_s"]
    m["process.wall_1thread_s"] = single["wall_s"]
    m["tracing.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    m["tracing.below_cli_share"] = covered_share(
        spans, lambda s: s["name"].split(".")[0] not in ("cli", "exp"), start, end)
    return m


def measure(workload, seed, seconds, trace, experiments=None, state=None):
    """One benchmark run; returns (result for stdout, environment record).

    The run record (environment, every pass, spans) goes to `state`.
    """
    started = time.monotonic()
    if not (ROOT / "src" / "eigenrestrict" / "__init__.py").is_file():
        raise BenchError(f"no eigenrestrict sources under {ROOT / 'src'}")
    units = metric_units(trace)
    reference = json.loads(REFERENCE.read_text())
    peak = reference["peak_rss_mb"].get(workload)
    avail = available_mb()
    if peak is not None and avail < peak:
        raise BenchError(f"refusing to start {workload}: {avail:.0f} MB available is below "
                         f"its recorded peak RSS of {peak:.0f} MB")
    if experiments is None:
        experiments = workloads.experiments(workload, seed)
    state = state or ROOT / ".perfbench"
    cores = usable_cores()
    env = {"nproc": cores, "l3_bytes": l3_bytes(), "blas_thread_cap": cores,
           "available_mb": avail, "python": sys.version.split()[0]}
    runner = Runner(state, workload, seed, started + DEADLINE_S)
    runner.scratch.mkdir(parents=True, exist_ok=True)
    try:
        probes, passes = [], []
        if trace:
            plain = runner.launch(experiments, cores)
            traced = runner.launch(experiments, cores, trace=True)
            single = runner.launch(experiments, 1, stop_at_deadline=True)
            if single.get("stopped"):
                print(f"perfbench: the single-thread pass was stopped at the {DEADLINE_S:.0f} s "
                      f"deadline; process.wall_1thread_s is a lower bound", file=sys.stderr)
            passes = [plain, traced, single]
            metrics = traced_metrics(plain, traced, single)
        else:
            runner.launch([], cores)  # compiles bytecode; not a set-up sample
            probes = [runner.launch([], cores) for _ in range(SETUP_PROBES)]
            t0 = time.monotonic()
            passes.append(runner.launch(experiments, cores))
            while (time.monotonic() - t0) * (len(passes) + 1) / len(passes) <= seconds:
                passes.append(runner.launch(experiments, cores))
            metrics = end_to_end_metrics(passes, probes)
    finally:
        runner.cleanup()
    env.update(passes[0]["environment"])
    digests = digest_book(state, source_hash())
    attempted, failed = gate_passes(passes, workload, seed, reference, digests)
    digests.save()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    record = {"workload": workload, "seed": seed, "trace": trace, "environment": env,
              "passes": passes, "setup_probes": probes, "result": result}
    (state / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result, env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, env = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"perfbench: {args.workload} seed {args.seed}: nproc {env['nproc']}, "
          f"L3 {env['l3_bytes']} B, Python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas']} capped at {env['blas_thread_cap']} threads, "
          f"{env['available_mb']:.0f} MB available", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
