"""src/ holds only what an experiment reaches.

A tiny battery runs under a profile hook: every CLI experiment (the sweeps
on 16:45 cover every family and both p = inf targets), `list`, a `--config`
file and `--plot`.  Every public function, method and
property defined in the package must be called at least once.  A helper
that only tests call belongs in tests/ (oracles.py), not in src/.
"""

import importlib
import inspect
import pkgutil
import sys
import threading
from functools import cached_property

import eigenrestrict
from eigenrestrict import cli

# name -> why it may stay unreached
ALLOWED = {
    "harmonics.AssocHarmonic.__call__":
        "the benchmark wraps it by name (perfbench/layers.py FAMILIES)",
    "harmonics.assoc_legendre_norm":
        "AssocHarmonic.__call__'s recurrence; the benchmark wraps that class by name; "
        "both go with ROADMAP items 1 and 16",
}

_SWEEPS = (
    ("zonal", "equator", "inf"),
    ("zonal-off", "latitude:1.0", "2"),
    ("zonal-off", "latitude:1.0", "3"),  # a non-even p: the lambda grid
    ("zonal-s3", "subsphere", "inf"),
    ("highest-weight", "equator", "2"),
    ("highest-weight-s3", "subsphere", "4"),
    ("averaged:0.9", "equator", "2"),
)
_RUNS = (
    *(["sweep", "--family", family, "--curve", curve, "--p", p, "--degrees", "16:45"]
      for family, curve, p in _SWEEPS),
    ["turning-point", "--curve", "latitude:0.785", "--degrees", "16:45"],
    ["kernel", "--lambda-list", "50,100"],
    ["phase", "--theta0-list", "0.785,1.5707963267948966"],
    ["airy", "--lambda-list", "200,400", "--case", "model"],
    ["airy", "--lambda-list", "200,400", "--case", "variable"],
    ["torus", "--n-list", "25,65", "--seeds", "2", "--n-max", "2000"],
    ["oracle-table", "--d", "3", "--k", "2"],
)


def _code(member):
    """The code object a call of a function, method or property runs, or None."""
    if isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    member = inspect.unwrap(member) if callable(member) else member
    return getattr(member, "__code__", None)


def _defined():
    """(module name, name, object) for each module-level name the package defines."""
    for info in pkgutil.iter_modules(eigenrestrict.__path__):
        mod = importlib.import_module(f"eigenrestrict.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) == mod.__name__:
                yield info.name, name, obj


def public_code():
    """Qualified name -> code object of each public function, method and
    property the package defines (a class's `__call__` counts as public)."""
    out = {}
    for short, name, obj in _defined():
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                code = _code(member)
                if code is not None and (not attr.startswith("_") or attr == "__call__"):
                    out[f"{short}.{name}.{attr}"] = code
        elif not name.startswith("_") and (code := _code(obj)) is not None:
            out[f"{short}.{name}"] = code
    return out


def _battery(tmp_path):
    codes = [cli.main(["run", *argv, "--out", str(tmp_path / str(i)), "--plot"])
             for i, argv in enumerate(_RUNS)]
    config = tmp_path / "curved.cfg"
    config.write_text("experiment = oracle-table\nd = 2\nk = 1\ncurved = true\n")
    codes.append(cli.main(["run", "--config", str(config), "--out", str(tmp_path / "cfg")]))
    codes.append(cli.main(["list"]))
    return codes


def test_every_public_name_in_src_is_reached(tmp_path, capsys):
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for _, _, obj in _defined():
        if hasattr(obj, "cache_clear"):  # a memoised hit runs no Python frame
            obj.cache_clear()
    threading.setprofile(hook)  # the variable Airy kernel runs on a thread pool
    sys.setprofile(hook)
    try:
        codes = _battery(tmp_path)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    capsys.readouterr()
    # 1 is a verdict failed at these tiny sizes (zonal-off fails at any size);
    # 2 would be a config error, and then the run reached nothing
    assert all(code in (0, 1) for code in codes), codes
    names = public_code()
    assert set(ALLOWED) <= set(names), "an ALLOWED name is gone from src"
    unreached = sorted(name for name, code in names.items()
                       if code not in called and name not in ALLOWED)
    assert not unreached, f"no experiment reaches {unreached}"
