"""The benchmark's workloads: fixed experiment lists run back to back.

An experiment is a dict with a `label` and either `argv`, the arguments
given to `eigenrestrict.cli.main` (the runner appends `--out`), or `call`,
the name of an experiment that child.py runs through public functions.
The workload seed only reaches the torus experiment; every other list is
deterministic.
"""

import math

DEFAULT_SEED = 0


def _sweep(label, family, curve, p, degrees):
    return {"label": label,
            "argv": ["run", "sweep", "--family", family, "--curve", curve,
                     "--p", p, "--degrees", degrees]}


def _experiments_sweep_ambient(seed):
    # full S^2 product grids and beam evaluation on them: the
    # ambient-quadrature path
    return [
        _sweep("sweep-averaged-equator-p2", "averaged:0.9", "equator", "2", "16:256"),
        _sweep("sweep-hw3-subsphere-p2", "highest-weight-s3", "subsphere", "2", "16:256"),
        _sweep("sweep-zonal3-subsphere-p4", "zonal-s3", "subsphere", "4", "16:256"),
    ]


def _experiments_sweep_curve(seed):
    # high degrees on reduced 1-D ambient grids: Legendre recurrences,
    # Gauss-Legendre nodes and 20-lambda-point curve grids
    return [
        _sweep("sweep-zonal-equator-pinf", "zonal", "equator", "inf", "16:1024"),
        _sweep("sweep-zonal-equator-p6", "zonal", "equator", "6", "16:1024"),
        _sweep("sweep-hw-equator-p2", "highest-weight", "equator", "2", "16:1024"),
        {"label": "turning-point", "call": "turning_point"},
    ]


def _experiments_airy_kernel(seed):
    theta0s = ",".join(repr(t) for t in (math.pi / 4, math.pi / 3, math.pi / 2))
    return [
        {"label": "kernel", "argv": ["run", "kernel", "--lambda-list", "50,100,200,400"]},
        {"label": "phase", "argv": ["run", "phase", "--theta0-list", theta0s]},
        # model and variable are separate experiments: a matrix-free norm
        # can treat the model case (Toeplitz kernel) differently
        {"label": "airy-model",
         "argv": ["run", "airy", "--lambda-list", "200,400,800", "--case", "model"]},
        {"label": "airy-variable",
         "argv": ["run", "airy", "--lambda-list", "200,400,800", "--case", "variable"]},
    ]


def _experiments_torus_sup(seed):
    return [
        {"label": "torus",
         "argv": ["run", "torus", "--n-list", "25,169,625,4225,34225",
                  "--seeds", "3", "--seed", str(seed), "--n-max", "1000000"]},
    ]


WORKLOADS = {
    "sweep-ambient": _experiments_sweep_ambient,
    "sweep-curve": _experiments_sweep_curve,
    "airy-kernel": _experiments_airy_kernel,
    "torus-sup": _experiments_torus_sup,
}

# workloads whose experiments read the seed; the others ignore it
SEEDED = frozenset({"torus-sup"})


def experiments(workload, seed):
    """The experiment list of `workload` for workload seed `seed`."""
    return WORKLOADS[workload](seed)


def reference_seed(workload, seed):
    """True when the headline references (recorded at DEFAULT_SEED) apply."""
    return workload not in SEEDED or seed == DEFAULT_SEED


def all_labels():
    """Every experiment label of every workload, in workload order."""
    return [e["label"] for name in WORKLOADS for e in experiments(name, DEFAULT_SEED)]
