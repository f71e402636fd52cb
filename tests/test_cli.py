"""Config parsing, schema validation, artifacts and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eigenrestrict import cli, geometry, oscillatory, restriction

_KEY = st.text(alphabet="abcdefgh-", min_size=1, max_size=8).filter(
    lambda s: s.strip("-") == s)
_VAL = st.text(alphabet="xyz0123456789.:,", min_size=1, max_size=12)


def render_config(cfg):
    """Inverse of cli.parse_config up to key order (keys come out sorted)."""
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


# ----------------------------------------------------------------- config

@given(st.dictionaries(_KEY, _VAL, min_size=1, max_size=6))
def test_parse_render_round_trip(cfg):
    assert cli.parse_config(render_config(cfg)) == cfg


def test_parse_config_comments_and_errors():
    text = "# full-line comment\nfamily = zonal  # trailing\n\np = 2\n"
    assert cli.parse_config(text) == {"family": "zonal", "p": "2"}
    with pytest.raises(cli.ConfigError, match="key = value"):
        cli.parse_config("just words\n")
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config("p = 2\np = 4\n")
    with pytest.raises(cli.ConfigError, match="empty"):
        cli.parse_config("p =\n")


def test_validate_config_names_offending_field():
    base = {"experiment": "sweep", "family": "zonal", "curve": "equator",
            "p": "2", "degrees": "4,6,8,11"}
    with pytest.raises(cli.ConfigError, match="unknown config key: fake-knob"):
        cli.validate_config({**base, "fake-knob": "1"})
    missing = {k: v for k, v in base.items() if k != "degrees"}
    with pytest.raises(cli.ConfigError, match="degrees: required"):
        cli.validate_config(missing)
    with pytest.raises(cli.ConfigError, match="unknown experiment"):
        cli.validate_config({"experiment": "dance"})
    with pytest.raises(cli.ConfigError, match="experiment: missing"):
        cli.validate_config({"p": "2"})


def test_validate_config_fills_defaults():
    experiment, cfg = cli.validate_config(
        {"experiment": "airy", "lambda-list": "200,400"})
    assert experiment == "airy"
    assert cfg["case"] == "model"
    assert cfg["out"] == "."


def test_unused_tuning_keys_are_rejected():
    for experiment, key in (("sweep", "num-points"), ("kernel", "radius"),
                            ("kernel", "window"), ("kernel", "grid-points"),
                            ("kernel", "amplitude-support"), ("airy", "domain"),
                            ("airy", "amplitude-support"), ("torus", "grid-m"),
                            ("sweep", "tolerance"), ("phase", "tolerance"),
                            ("airy", "tolerance")):
        with pytest.raises(cli.ConfigError, match=f"unknown config key: {key}"):
            cli.validate_config({"experiment": experiment, key: "1"})


# every key's parser: a typed value, or a ConfigError that names the key
_TYPES = {"family": types.FunctionType,
          "curve": (geometry.LatitudeCircle, geometry.GreatSubsphere), "p": float,
          "degrees": list, "lambda-list": list,
          "theta0-list": list, "case": str, "n-list": list, "n-max": int,
          "seeds": int, "seed": int, "d": int, "k": int, "p-list": list,
          "curved": bool, "plot": bool, "out": Path}
_TOKENS = ["4", "16", "45", "25", "3", "0", "-1", "0.5", "2", "nan", "inf",
           "critical", "true", "model", "equator", "latitude",
           "averaged", "zonal", "1e400", "9" * 30, "1" + "0" * 400]
_TEXT = st.one_of(
    st.text(max_size=16),
    st.text(alphabet="0123456789.,:+-einfatoc ", max_size=16),
    st.lists(st.sampled_from(_TOKENS), min_size=1, max_size=5).map(",".join),
    st.lists(st.sampled_from(_TOKENS), min_size=2, max_size=2).map(":".join),
)


def test_key_table_covers_every_experiment_key():
    assert set(_TYPES) == set(cli.KEYS)
    keys = {k for e in cli.EXPERIMENTS.values() for k in e.keys}
    assert keys | {"out", "plot"} == set(cli.KEYS)
    assert sum(len(e.keys) for e in cli.EXPERIMENTS.values()) == 18


@given(st.sampled_from(sorted(cli.KEYS)), _TEXT)
def test_every_key_gives_typed_value_or_names_itself(key, text):
    try:
        value = cli.parse_value(key, text)
    except cli.ConfigError as exc:
        assert str(exc).startswith(f"{key}: ")
    else:
        assert isinstance(value, _TYPES[key])


# ----------------------------------------------------------------- list

def test_list_catalog(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in cli.EXPERIMENTS:
        assert name in out


# ----------------------------------------------------------------- run paths

SWEEP_ARGS = ["run", "sweep", "--family", "highest-weight", "--curve", "equator",
              "--p", "2", "--degrees", "16:45"]


def test_sweep_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "a"
    code = cli.main(SWEEP_ARGS + ["--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "n,lambda,p,restricted_norm,ambient_norm,ratio"
    assert len(lines) == 1 + 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"exponent_fit": "pass", "envelope": "pass"}
    assert summary["exit_code"] == 0
    fit = summary["results"]["fit"]
    assert math.isclose(fit["slope"], 0.2475, abs_tol=5e-5)
    assert fit["tolerance"] == cli.EXPONENT_TOLERANCE
    assert math.isclose(summary["results"]["oracle"]["value"], 0.25)
    assert "out" not in summary["config"] and "plot" not in summary["config"]
    stdout = capsys.readouterr().out
    assert "sweep:envelope: pass" in stdout
    assert "sweep:exponent_fit: pass" in stdout


@pytest.mark.parametrize("curve, oracle", [
    ("latitude:1.0", 1.0 / 3.0 - 1.0 / 9.0),  # curved: 1/3 - 1/(3p) at p = 3
    ("equator", 0.25),
    ("latitude:1.5707963267948966", 0.25),    # the equator as a latitude circle
])
def test_latitude_sweeps_use_the_curved_oracle(tmp_path, curve, oracle):
    out = tmp_path / "lat"
    cli.main(["run", "sweep", "--family", "zonal-off", "--curve", curve, "--p", "3",
              "--degrees", "16:45", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert math.isclose(summary["results"]["oracle"]["value"], oracle, rel_tol=1e-15)
    assert summary["results"]["fit"]["theoretical"] == summary["results"]["oracle"]["value"]


def test_equator_as_a_latitude_circle_writes_the_same_bytes(tmp_path):
    csv = {}
    for curve in ("equator", "latitude:1.5707963267948966"):
        out = tmp_path / curve.replace(":", "-")
        assert cli.main(["run", "sweep", "--family", "highest-weight", "--curve", curve,
                         "--p", "2", "--degrees", "16:45", "--out", str(out)]) == 0
        csv[curve] = (out / "sweep.csv").read_bytes()
    assert csv["equator"] == csv["latitude:1.5707963267948966"]


@pytest.mark.parametrize("curve, oracle", [
    ("latitude:0.7853981633974483", 1.0 / 6.0),  # the curved rate at p = 2
    ("equator", 0.25),                           # the geodesic rate
])
def test_turning_point_scan_holds_its_oracle(tmp_path, curve, oracle):
    out = tmp_path / "tp"
    assert cli.main(["run", "turning-point", "--curve", curve, "--degrees", "32:512",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    results = summary["results"]
    assert summary["verdicts"] == {"exponent_fit": "pass", "envelope": "pass"}
    assert math.isclose(results["oracle"]["value"], oracle, rel_tol=1e-15)
    assert results["fit"]["tolerance"] == cli.EXPONENT_TOLERANCE
    target = cli.parse_value("curve", curve)
    degrees = restriction.geometric_degrees(32, 512)
    scan = restriction.turning_point_sweep(target.colatitude, degrees)
    assert results["orders"] == {str(n): m for n, m in zip(degrees, scan.orders)}
    rows = [line.split(",") for line in (out / "turning-point.csv").read_text().splitlines()]
    assert ",".join(rows[0]) == "n,lambda,p,restricted_norm,ambient_norm,ratio"
    if curve == "equator":
        # the sectoral winner m = n is the highest-weight beam
        assert scan.orders == degrees
        hw = tmp_path / "hw"
        assert cli.main(["run", "sweep", "--family", "highest-weight", "--curve", "equator",
                         "--p", "2", "--degrees", "32:512", "--out", str(hw)]) == 0
        beams = [line.split(",") for line in (hw / "sweep.csv").read_text().splitlines()]
        assert len(beams) == len(rows)
        for row, beam in zip(rows[1:], beams[1:]):
            assert math.isclose(float(row[-1]), float(beam[-1]), rel_tol=1e-12)


@pytest.mark.parametrize("family, curve, key", [
    ("zonal", "equator", (2, 1, False)),
    ("zonal", "latitude:0.785", (2, 1, True)),  # non-vanishing geodesic curvature
    ("zonal-s3", "subsphere", (3, 2, False)),
])
def test_each_target_selects_its_oracle_row(tmp_path, monkeypatch, family, curve, key):
    # the target's own (d, k, curved) is the key of the exponent oracle
    calls = []
    oracle = restriction.theoretical_exponent
    monkeypatch.setattr(cli.restriction, "theoretical_exponent",
                        lambda d, k, p, curved: calls.append((d, k, curved)) or
                        oracle(d, k, p, curved=curved))
    cli.main(["run", "sweep", "--family", family, "--curve", curve, "--p", "3",
              "--degrees", "16:45", "--out", str(tmp_path)])
    assert calls == [key]


@pytest.mark.parametrize("family", ["highest-weight", "averaged:0.9"])
def test_beams_decaying_off_the_equator_reach_the_fit(tmp_path, family):
    # on latitude 0.785 the beams fall to ~1e-154 and ~1e-124 by n = 1024;
    # their p = 6 norms once underflowed to 0 and stopped the run before the
    # fit.  The fit's failure is the true verdict: they decay exponentially
    out = tmp_path / "decay"
    code = cli.main(["run", "sweep", "--family", family, "--curve", "latitude:0.785",
                     "--p", "6", "--degrees", "16:1024", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "error" not in summary
    assert summary["verdicts"]["exponent_fit"] == "fail"
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == len(restriction.geometric_degrees(16, 1024))
    assert all(float(row.split(",")[-1]) > 0.0 for row in rows)


def test_subsphere_sup_sweep_fits_slope_one(tmp_path):
    # sup |f| on the subsphere grows like lambda^1 for zonal-s3
    out = tmp_path / "sup"
    code = cli.main(["run", "sweep", "--family", "zonal-s3", "--curve", "subsphere",
                     "--p", "inf", "--degrees", "16:256", "--out", str(out)])
    assert code == 0
    fit = json.loads((out / "summary.json").read_text())["results"]["fit"]
    assert abs(fit["slope"] - 1.0) <= 0.01


def test_runs_are_byte_deterministic(tmp_path):
    outs = [tmp_path / "run1", tmp_path / "nested" / "run2"]
    for out in outs:
        assert cli.main(SWEEP_ARGS + ["--out", str(out)]) == 0
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()


def test_plot_flag_writes_svg(tmp_path):
    out = tmp_path / "p"
    code = cli.main(SWEEP_ARGS + ["--out", str(out), "--plot"])
    assert code == 0
    svg = (out / "sweep.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    summary = json.loads((out / "summary.json").read_text())
    assert summary["svg"] == "sweep.svg"


def test_failed_contract_exits_one(tmp_path, capsys):
    # the zonal at p = 6 on latitude pi/4 grows with slope -0.008, not 1/3
    out = tmp_path / "f"
    code = cli.main(["run", "sweep", "--family", "zonal", "--curve",
                     "latitude:0.7853981633974483", "--p", "6", "--degrees", "16:512",
                     "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert math.isclose(summary["results"]["fit"]["slope"], -0.008, abs_tol=5e-4)
    assert summary["verdicts"]["exponent_fit"] == "fail"
    assert summary["exit_code"] == 1
    assert "sweep:exponent_fit: fail" in capsys.readouterr().out


def test_runtime_failure_still_writes_summary(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("sweep failed: no samples")

    monkeypatch.setattr(cli.restriction, "sweep", failing)
    out = tmp_path / "e"
    code = cli.main(SWEEP_ARGS + ["--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "sweep failed" in summary["error"]
    assert summary["exit_code"] == 1
    assert not (out / "sweep.csv").exists()
    assert "experiment failed" in capsys.readouterr().err


def test_config_errors_exit_two(tmp_path, capsys):
    out = tmp_path / "x"
    bad_family = ["run", "sweep", "--family", "spiral", "--curve", "equator",
                  "--p", "2", "--degrees", "16:45", "--out", str(out)]
    assert cli.main(bad_family) == 2
    assert "unknown family" in capsys.readouterr().err
    mismatch = ["run", "sweep", "--family", "zonal-s3", "--curve", "equator",
                "--p", "2", "--degrees", "16:45", "--out", str(out)]
    assert cli.main(mismatch) == 2
    assert "different spheres" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("delta", ["-1", "0", "nan"])
def test_averaged_width_must_be_finite_and_positive(tmp_path, capsys, delta):
    out = tmp_path / "w"
    argv = ["run", "sweep", "--family", f"averaged:{delta}", "--curve", "equator",
            "--p", "2", "--degrees", "16:45", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "family: averaging width delta must be finite and positive" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("colatitude", ["nan", "0", "2"])
def test_bad_colatitude_exits_two(tmp_path, capsys, colatitude):
    out = tmp_path / "c"
    argv = ["run", "sweep", "--family", "zonal", "--curve", f"latitude:{colatitude}",
            "--p", "2", "--degrees", "16:45", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "curve: latitude circle needs colatitude" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_config_file_unknown_key_exits_two(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("experiment = phase\ntheta0-list = 0.8\nbogus = 1\n")
    assert cli.main(["run", "--config", str(cfgfile)]) == 2
    assert "unknown config key: bogus" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_flag_overrides_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    # theta0 = 0.01 puts the largest phase step past half the circle
    cfgfile.write_text("experiment = phase\ntheta0-list = 0.01\n")
    assert cli.main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "x")]) == 2
    out = tmp_path / "o"
    # the flag's theta0 replaces the file's and must win
    code = cli.main(["run", "--config", str(cfgfile), "--theta0-list", "0.8",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["theta0-list"] == "0.8"


def test_verdict_bounds_are_not_keys(tmp_path, capsys):
    # no flag or config line can widen or switch off a verdict's bound
    out = tmp_path / "tol"
    with pytest.raises(SystemExit) as exc:
        cli.main(SWEEP_ARGS + ["--tolerance", "none", "--out", str(out)])
    assert exc.value.code == 2
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("experiment = sweep\nfamily = zonal\ncurve = equator\n"
                       "p = 2\ndegrees = 16:45\ntolerance = 0.05\n")
    capsys.readouterr()
    assert cli.main(["run", "--config", str(cfgfile), "--out", str(out)]) == 2
    assert "unknown config key: tolerance" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_exponent_tolerance_separates_the_p2_branches():
    # a fit within the bound of one branch's rate lies outside the other's
    curved = restriction.theoretical_exponent(2, 1, 2, curved=True).value
    geodesic = restriction.theoretical_exponent(2, 1, 2, curved=False).value
    assert cli.EXPONENT_TOLERANCE < abs(curved - geodesic) / 2


def test_phase_run(tmp_path, capsys):
    out = tmp_path / "ph"
    theta = f"{math.pi / 4},{math.pi / 2}"
    code = cli.main(["run", "phase", "--theta0-list", theta, "--out", str(out)])
    assert code == 0
    lines = (out / "phase.csv").read_text().splitlines()
    assert lines[0] == "theta0,c_hat,c_theory"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["max_deviation"] <= cli.PHASE_TOLERANCE
    assert summary["results"]["tolerance"] == cli.PHASE_TOLERANCE
    assert "phase:phase_expansion: pass" in capsys.readouterr().out


def test_torus_run(tmp_path):
    out = tmp_path / "t"
    code = cli.main(["run", "torus", "--n-list", "25,169", "--seeds", "4",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"]["sup_bound"] == "pass"
    assert summary["verdicts"]["sup_slope"] == "pass"
    # the slope stays a plain number, with its bound beside it
    assert isinstance(summary["results"]["sup_slope"], float)
    assert summary["results"]["sup_slope_bound"] == cli.SUP_SLOPE_BOUND
    assert summary["verdicts"]["geodesic_l2"] == "pass"
    lines = (out / "torus.csv").read_text().splitlines()
    assert lines[0] == "N,r2,sup,curve_l2,seed"
    assert len(lines) == 1 + 8
    # every row's diagnostics: the CSV sup is lo, the curve column the max
    # over the four curves
    results = summary["results"]
    for line, row in zip(lines[1:], results["rows"]):
        n, _, sup, curve_l2, seed = line.split(",")
        assert (int(n), int(seed)) == (row["N"], row["seed"])
        assert float(sup) == row["lo"] and float(curve_l2) == max(row["curves"].values())
        assert row["hi"] / row["lo"] - 1.0 <= 1e-9
        assert row["m"] == math.ceil(20 * math.sqrt(row["N"] / 2)) and row["depth"] >= 1
        assert row["cells"] >= 1
        # the circle's certified trapezoid count and its aliasing bound
        assert row["circle_nodes"] == {25: 37, 169: 63}[row["N"]]
        assert 0.0 < row["circle_tail_bound"] <= 2.0 ** -52
    assert results["sup_bound"]["max_width"] <= 1e-9
    # the witnesses attain the ceiling in closed form, so sup_bound holds
    # only the random rows; their geodesic norms are still checked
    assert "witnesses" not in results["sup_bound"]
    assert [w["N"] for w in results["geodesic_l2"]["witnesses"]] == [25, 169]
    for w in results["geodesic_l2"]["witnesses"]:
        for label, norm in w["norms"].items():
            assert abs(norm - w["expected"][label]) <= 1e-12
    # torus with neither n-list nor n-max is a config error
    assert cli.main(["run", "torus", "--out", str(tmp_path / "t2")]) == 2


def test_torus_without_seeds_exits_two(tmp_path, capsys):
    out = tmp_path / "t0"
    code = cli.main(["run", "torus", "--n-list", "25", "--seeds", "0",
                     "--out", str(out)])
    assert code == 2
    assert "seeds: need at least one seed" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_oracle_table_accepts_the_exact_float_range(tmp_path):
    # d = 2**53 and k = d - 1 are still exact in the oracle's float arithmetic
    out = tmp_path / "orc"
    d = cli.ORACLE_INT_MAX
    assert cli.main(["run", "oracle-table", "--d", str(d), "--k", str(d - 1),
                     "--p-list", "inf", "--out", str(out)]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    assert (results["d"], results["k"]) == (d, d - 1)
    assert results["table"][0]["exponent"] == (d - 1.0) / 2.0


@pytest.mark.parametrize("d", [3, 4, 5, 10**12, 10**13, 2**53])
def test_oracle_table_decides_the_critical_index_exactly(tmp_path, d):
    # p0 = 2d/(d - 1) tends to 2 and lies within 2.3e-16 of it at d = 2^53:
    # p = 2 still reads the lower branch, exactly 1/4 and unflagged, and the
    # critical row, which reaches the oracle as an exact fraction, keeps
    # its flag and value (d - 1) / (2 d)
    out = tmp_path / "orc"
    assert cli.main(["run", "oracle-table", "--d", str(d), "--k", str(d - 1),
                     "--p-list", "2,critical", "--out", str(out)]) == 0
    table = json.loads((out / "summary.json").read_text())["results"]["table"]
    assert table[0] == {"p": 2.0, "exponent": 0.25, "log_endpoint": False}
    assert table[1] == {"p": 2 * d / (d - 1), "exponent": (d - 1) / (2 * d),
                        "log_endpoint": True}


def test_oracle_table_run(tmp_path):
    out = tmp_path / "orc"
    code = cli.main(["run", "oracle-table", "--d", "2", "--k", "1",
                     "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    table = {row["p"]: row for row in summary["results"]["table"]}
    assert math.isclose(table[4.0]["exponent"], 0.25)
    assert table[4.0]["log_endpoint"]
    assert math.isclose(table[6.0]["exponent"], 1 / 3)
    assert table["inf"]["exponent"] == 0.5
    assert not (out / "oracle-table.csv").exists()
    # curved improvement asks for the (2, 1) geometry only
    assert cli.main(["run", "oracle-table", "--d", "3", "--k", "2",
                     "--curved", "true", "--out", str(out)]) == 2


SWEEP_ZONAL = ["run", "sweep", "--family", "zonal", "--curve", "equator",
               "--p", "2", "--degrees", "16:45"]


@pytest.mark.parametrize("field,argv", [
    ("p", SWEEP_ZONAL + ["--p", "nan"]),
    ("p", SWEEP_ZONAL + ["--p", "-inf"]),
    ("degrees", SWEEP_ZONAL + ["--degrees", "16,8,32,45"]),
    ("degrees", SWEEP_ZONAL + ["--degrees", "16,23,32"]),
    ("family", SWEEP_ZONAL + ["--family", "averaged:6", "--degrees", "4,6,8,11"]),
    *(("curve", ["run", "turning-point", "--curve", curve, "--degrees", "32:512"])
      for curve in ("subsphere", "latitude:0", "latitude:nan", "latitude:2")),
    *(("degrees", ["run", "turning-point", "--degrees", degrees, "--curve", "equator"])
      for degrees in ("32", "2:10", "32:a", "32:64")),
    ("lambda-list", ["run", "kernel", "--lambda-list", "200,nan,800"]),
    ("lambda-list", ["run", "airy", "--lambda-list=-5,10"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "-5,10"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "200,200"]),
    ("lambda-list", ["run", "kernel", "--lambda-list", "100"]),
    ("lambda-list", ["run", "kernel", "--lambda-list", "0.5,1"]),
    ("lambda-list", ["run", "kernel", "--lambda-list", "1e6,1e7"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "200,100000"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "200,5000", "--case", "variable"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "0.1,1"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "0.5"]),
    ("lambda-list", ["run", "airy", "--lambda-list", "1e-300,1", "--case", "variable"]),
    ("theta0-list", ["run", "phase", "--theta0-list", "0"]),
    ("theta0-list", ["run", "phase", "--theta0-list", "nan"]),
    ("theta0-list", ["run", "phase", "--theta0-list", "1e-160"]),
    ("theta0-list", ["run", "phase", "--theta0-list", "0.8,0.0159"]),
    ("n-list", ["run", "torus", "--n-list", "3"]),
    ("n-list", ["run", "torus", "--n-list", "20000000"]),
    ("n-max", ["run", "torus", "--n-max", "1000"]),
    ("seed", ["run", "torus", "--n-list", "25", "--seed", "-1"]),
    ("case", ["run", "airy", "--lambda-list", "200,400", "--case", "caustic"]),
    ("seeds", ["run", "torus", "--n-list", "25", "--seeds", "1001"]),
    # once past the key table, these overflowed a C ssize_t (seeds) or a
    # float (d) inside the runner
    ("seeds", ["run", "torus", "--n-list", "25", "--seeds", str(10**33)]),
    ("d", ["run", "oracle-table", "--d", "1", "--k", "1"]),
    ("d", ["run", "oracle-table", "--d", str(2**53 + 1), "--k", "1"]),
    ("d", ["run", "oracle-table", "--d", str(10**330), "--k", "1"]),
    ("k", ["run", "oracle-table", "--d", "2", "--k", "2"]),
    ("k", ["run", "oracle-table", "--d", "2", "--k", str(2**53 + 1)]),
    ("curved", ["run", "oracle-table", "--d", "3", "--k", "2", "--curved", "true"]),
], ids=lambda v: v if isinstance(v, str) else " ".join(v[1:]))
def test_invalid_value_exits_two_naming_field(tmp_path, capsys, field, argv):
    out = tmp_path / "bad"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}:")
    assert not (out / "summary.json").exists()


def test_non_finite_result_exits_one_with_strict_summary(tmp_path, capsys, monkeypatch):
    def nan_runner(cfg):
        return [], {"max_deviation": float("nan")}, {"phase_expansion": "pass"}, None

    phase = cli.EXPERIMENTS["phase"]
    monkeypatch.setitem(cli.EXPERIMENTS, "phase", dataclasses.replace(phase, run=nan_runner))
    out = tmp_path / "n"
    assert cli.main(["run", "phase", "--theta0-list", "0.8", "--out", str(out)]) == 1

    def reject(constant):
        raise AssertionError(f"summary.json holds {constant}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
    assert "not JSON compliant" in summary["error"]
    assert summary["verdicts"] == {} and summary["exit_code"] == 1
    assert not (out / "phase.csv").exists()
    assert "experiment failed" in capsys.readouterr().err


def test_airy_sizes_checked_before_any_norm(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli.oscillatory, "airy_operator_norm", calls.append)
    out = tmp_path / "big"
    assert cli.main(["run", "airy", "--lambda-list", "200,100000", "--out", str(out)]) == 2
    assert calls == []
    assert "lambda-list: lambda=100000 needs matrix dimension 318311: a 201 x 318311 " \
        "Lanczos basis and 5 x 640000 FFT buffers, a complex working set of 1074888176 " \
        "bytes, which exceeds the cap 1073741824" in capsys.readouterr().err
    # an all-zero kernel is refused in the same pass, not handed to the norm
    assert cli.main(["run", "airy", "--lambda-list", "0.1,1", "--out", str(out)]) == 2
    assert calls == []
    assert "lambda-list: lambda=0.1 leaves every offset weight" in capsys.readouterr().err


def test_single_lambda_airy_reports_its_norm_without_contract(tmp_path, capsys):
    out = tmp_path / "one"
    assert cli.main(["run", "airy", "--lambda-list", "50", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"airy_decay": "no_contract"}
    assert summary["results"]["slope"] is None
    assert summary["results"]["fit_residual"] is None
    assert len(summary["results"]["opnorms"]) == 1
    assert "airy:airy_decay: no_contract" in capsys.readouterr().out


def test_single_cutoff_divisor_trend_reports_its_maximum_without_contract(tmp_path, capsys):
    # n-max = 5000 leaves only the cutoff 10^3: one maximum is no trend
    out = tmp_path / "div"
    assert cli.main(["run", "torus", "--n-max", "5000", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"divisor_trend": "no_contract"}
    growth = summary["results"]["divisor_growth"]
    assert growth["cutoffs"] == [1000] and growth["decreasing"] is None
    # r_2(1105) = 32, and no N in [1000, 5000] has a larger log r_2 / log sqrt(N)
    assert growth["argmax_N"] == [1105]
    assert growth["max_exponent"] == [pytest.approx(math.log(32) / math.log(math.sqrt(1105)),
                                                    rel=1e-14)]
    assert "torus:divisor_trend: no_contract" in capsys.readouterr().out


def test_airy_reports_its_fit_residual(tmp_path):
    out = tmp_path / "fit"
    assert cli.main(["run", "airy", "--lambda-list", "200,400,800", "--out", str(out)]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    slope, _, residual = restriction.loglog_fit([200.0, 400.0, 800.0], results["opnorms"])
    assert (results["slope"], results["fit_residual"]) == (slope, residual)
    assert 0.0 < residual < 0.05
    assert results["tolerance"] == cli.AIRY_TOLERANCE
    assert abs(slope + 2.0 / 3.0) <= cli.AIRY_TOLERANCE


# sigma_1 at lambda = 200, 400, 800 from a seeded Gaussian start: the
# closed-form start must not move it beyond rounding
_AIRY_SIGMAS = {
    "model": [0.023680467592675874, 0.015349775394750473, 0.009844926870888934],
    "variable": [0.02428438684946578, 0.01566466241852627, 0.01000852053385053],
}


# the Golub-Kahan bidiagonalization from the same start stops at these steps:
# its Ritz residual is the stop quantity of Lanczos on A^H A
@pytest.mark.parametrize("case,steps", [("model", [28, 34, 40]), ("variable", [25, 29, 34])])
def test_airy_reports_lanczos_diagnostics(tmp_path, case, steps):
    out = tmp_path / case
    assert cli.main(["run", "airy", "--lambda-list", "200,400,800", "--case", case,
                     "--out", str(out)]) == 0
    results = json.loads((out / "summary.json").read_text())["results"]
    norms = results["opnorms"]
    assert results["lanczos_steps"] == steps
    assert norms == pytest.approx(_AIRY_SIGMAS[case], rel=1e-12, abs=0.0)
    assert len(results["ritz_residuals"]) == len(norms) == 3
    for norm, residual in zip(norms, results["ritz_residuals"]):
        assert 0.0 <= residual <= oscillatory.LANCZOS_RTOL * norm


def _loaded_after(statement, packages):
    """The modules of `packages` that a fresh interpreter holds after `statement`."""
    code = (f"import sys; {statement}; "
            f"print(sorted(m for m in sys.modules "
            f"if any(m == p or m.startswith(p + '.') for p in {packages!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.strip().splitlines()[-1]


# numpy 2 loads these on first use; numpy 1.x imports them with numpy
_LAZY = ("numpy.random", "numpy.ma")
_NUMPY_LOADS_LAZY = _loaded_after("import numpy", _LAZY) != "[]"


def test_cli_import_leaves_thread_pool_and_fft_unloaded():
    # each loads on first use, so a run that never needs it pays nothing
    lazy = () if _NUMPY_LOADS_LAZY else _LAZY
    assert _loaded_after("import eigenrestrict.cli",
                         ("concurrent", "numpy.fft") + lazy) == "[]"


# numpy.random draws only the torus coefficients and numpy.ma serves no
# function the package calls, so neither loads in a run that draws none
@pytest.mark.skipif(_NUMPY_LOADS_LAZY, reason="this numpy imports numpy.random "
                    "and numpy.ma with numpy itself")
@pytest.mark.parametrize("argv,unloaded", [
    (["run", "airy", "--case", "model", "--lambda-list", "200,400"], _LAZY),
    (["run", "airy", "--case", "variable", "--lambda-list", "200,400"], _LAZY),
    (["run", "torus", "--n-list", "25,65", "--seeds", "2", "--n-max", "2000"],
     ("numpy.ma",)),
    (SWEEP_ARGS, _LAZY),
], ids=["airy-model", "airy-variable", "torus", "sweep"])
def test_run_loads_no_unused_numpy_submodule(tmp_path, argv, unloaded):
    statement = (f"from eigenrestrict import cli; "
                 f"cli.main({argv + ['--out', str(tmp_path)]!r})")
    assert _loaded_after(statement, unloaded) == "[]"
