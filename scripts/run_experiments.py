#!/usr/bin/env python3
"""Standard experiment battery: one output directory per experiment.

Runs the full set of headline experiments through the CLI runner and prints
a verdict table.  The whole battery takes about a second (1.0-1.1 s on 2
cores, interpreter start included); the airy rows dominate, the variable
kernel most.  Exit code is nonzero if any experiment fails its contract.
"""

import argparse
import sys
from pathlib import Path

from eigenrestrict import cli

BATTERY = (
    ("sweep-geodesic-p2",
     ["sweep", "--family", "highest-weight", "--curve", "equator",
      "--p", "2", "--degrees", "16:256"]),
    ("sweep-zonal-pinf",
     ["sweep", "--family", "zonal", "--curve", "equator",
      "--p", "inf", "--degrees", "16:256"]),
    ("sweep-zonal-p6",
     ["sweep", "--family", "zonal", "--curve", "equator",
      "--p", "6", "--degrees", "16:256"]),
    ("sweep-s3-hypersurface-p4",
     ["sweep", "--family", "zonal-s3", "--curve", "subsphere",
      "--p", "4", "--degrees", "16:128"]),
    ("turning-point",
     ["turning-point", "--curve", "latitude:0.7853981633974483",
      "--degrees", "32:512"]),
    ("kernel-decay",
     ["kernel", "--lambda-list", "50,100,200,400"]),
    ("phase-expansion",
     ["phase", "--theta0-list",
      "0.7853981633974483,1.0471975511965976,1.5707963267948966"]),
    ("airy-model",
     ["airy", "--lambda-list", "200,400,800", "--case", "model"]),
    ("airy-variable",
     ["airy", "--lambda-list", "200,400,800", "--case", "variable"]),
    ("torus",
     ["torus", "--n-list", "25,169,625,4225", "--seeds", "12",
      "--seed", "0", "--n-max", "1000000"]),
    ("oracle-table-curves",
     ["oracle-table", "--d", "2", "--k", "1"]),
    ("oracle-table-s3",
     ["oracle-table", "--d", "3", "--k", "2"]),
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="experiments", help="output root directory")
    parser.add_argument("--plot", action="store_true", help="emit SVG plots")
    args = parser.parse_args()

    root = Path(args.out)
    failures = []
    for name, argv in BATTERY:
        out_dir = root / name
        full = ["run"] + argv + ["--out", str(out_dir)]
        if args.plot:
            full.append("--plot")
        print(f"== {name} ==")
        code = cli.main(full)
        if code != 0:
            failures.append((name, code))
    print()
    if failures:
        for name, code in failures:
            print(f"FAILED {name} (exit {code})")
        return 1
    print(f"all {len(BATTERY)} experiments passed; artifacts under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
