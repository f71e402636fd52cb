#!/usr/bin/env python3
"""Rewrite reference.json from the seed-0 run records in .perfbench/.

Usage (from the repository root, at a commit whose outputs are accepted):

    for w in sweep-ambient sweep-curve airy-kernel torus-sup; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 20 --trace 0
    done
    python3 perfbench/record_reference.py

Headline numbers come from the first pass of each record, and the recorded
peak RSS (the memory guard's threshold) is the largest over its passes.
The benchmark itself only reads reference.json.
"""

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    headlines, peaks, env = {}, {}, None
    for name in workloads.WORKLOADS:
        path = HERE.parent / ".perfbench" / f"{name}-seed{workloads.DEFAULT_SEED}-trace0.json"
        record = json.loads(path.read_text())
        if not record["result"]["correct"]:
            print(f"{path}: run was not correct; not recording it", file=sys.stderr)
            return 1
        first = record["passes"][0]
        headlines[name] = {rec["label"]: rec["headlines"] for rec in first["experiments"]}
        peaks[name] = round(max(p["peak_rss_mb"] for p in record["passes"]), 1)
        env = record["environment"]
    reference = {"recorded_with": env, "peak_rss_mb": peaks, "headlines": headlines}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
