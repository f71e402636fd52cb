"""Tests of the benchmark itself: metric names, self time, the correctness
gate, tracing, the memory guard and what a run may write.

Run from the repository root: python3 -m pytest -q perfbench
"""

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import layers
import run
from spans import Tracer, by_name, self_times

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# a cheap stand-in for a workload's experiment list
TINY = [
    {"label": "tiny-kernel", "argv": ["run", "kernel", "--lambda-list", "50,100"]},
    {"label": "tiny-phase", "argv": ["run", "phase", "--theta0-list", "0.5,1.0"]},
]


def test_metric_names_match_and_carry_units():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    passes = [{"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 100.0}]
    assert set(run.end_to_end_metrics(passes, [])) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert run.metric_units(True) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_readme_gives_every_per_layer_metric_a_rationale():
    readme = (HERE / "README.md").read_text()
    missing = [m["name"] for m in BENCHMARK["per_layer"] if f"| `{m['name']}` |" not in readme]
    assert missing == []


def test_traced_metrics_cover_the_per_layer_list():
    tracer = Tracer("t", clock=iter(range(100)).__next__)
    tracer.call("exp.kernel", lambda: tracer.call("numpy.linalg.svd", lambda: None))
    plain = {"wall_s": 2.0, "cpu_s": 3.0}
    traced = {"wall_s": 2.5, "spans": tracer.spans}
    single = {"wall_s": 4.0}
    metrics = run.traced_metrics(plain, traced, single)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["tracing.overhead_s"] == 0.5
    assert metrics["numpy.linalg.svd.self_s"] == 1
    assert metrics["exp.kernel.s"] == 3


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer("r1", clock=ticks.__next__)

    def leaf():
        return None

    def child():
        tracer.call("leaf", leaf)          # 3 .. 4

    def outer():
        tracer.call("child", child)        # 2 .. 5
        tracer.call("child", leaf)         # 6 .. 8

    tracer.call("outer", outer)            # 0 .. 10
    spans = tracer.spans
    selfs = self_times(spans)
    assert [s["name"] for s in spans] == ["outer", "child", "leaf", "child"]
    assert [selfs[s["id"]] for s in spans] == [5.0, 2.0, 1.0, 2.0]
    assert all(s["run"] == "r1" for s in spans)
    assert [s["parent"] for s in spans] == [None, 0, 1, 0]
    agg = by_name(spans)
    assert agg["child"]["s"] == 5.0 and agg["child"]["self_s"] == 4.0
    assert agg["child"]["calls"] == 2


def _record(**changes):
    rec = {"exit_code": 0, "verdicts": {"exponent_fit": "pass"},
           "headlines": {"slope.fit": 0.25, "ratio.n16": 1.5, "torus_sup.N25.seed1": 2.0}}
    rec.update(changes)
    return rec


def test_gate_flags_perturbed_value_and_nonzero_exit():
    reference = dict(_record()["headlines"])
    assert gate.check_execution(_record(), reference) == []
    perturbed = _record(headlines={**reference, "ratio.n16": 1.5 * (1 + 1e-6)})
    assert any("ratio.n16" in p for p in gate.check_execution(perturbed, reference))
    assert any("exit code 1" in p for p in gate.check_execution(_record(exit_code=1), reference))
    failing = _record(verdicts={"exponent_fit": "fail"})
    assert gate.check_execution(failing, reference) == ["verdict exponent_fit=fail"]
    assert gate.check_execution(_record(verdicts={}), None) == ["no verdict"]
    # seed-dependent rows are skipped away from the reference seed
    moved = _record(headlines={**reference, "torus_sup.N25.seed1": 3.0})
    assert gate.check_execution(moved, reference)
    assert gate.check_execution(moved, reference, seeded_checked=False) == []


def test_digest_book_flags_changed_bytes(tmp_path):
    book = gate.DigestBook(tmp_path / "digests.json")
    assert book.check("w|label", "aa") == []
    book.save()
    later = gate.DigestBook(tmp_path / "digests.json")
    assert later.check("w|label", "aa") == []
    assert later.check("w|label", "bb")


def _pass_with_digest(digest, verdict="pass"):
    rec = {"label": "kernel", "exit_code": 0, "verdicts": {"kernel_decay": verdict},
           "headlines": {}, "digest": digest}
    return {"threads": 2, "experiments": [rec]}


def _gate(state, source, digest, verdict="pass"):
    book = run.digest_book(state, source)
    result = run.gate_passes([_pass_with_digest(digest, verdict)], "airy-kernel", 0,
                             {"headlines": {}}, book)
    book.save()
    return result


def test_digests_compare_only_runs_of_the_same_sources(tmp_path):
    assert _gate(tmp_path, "parent", "aa") == (1, 0)
    # changed sources may move summary bytes: no failure, and no overwrite
    assert _gate(tmp_path, "change", "bb") == (1, 0)
    assert _gate(tmp_path, "parent", "aa") == (1, 0)
    assert _gate(tmp_path, "change", "bb") == (1, 0)
    assert _gate(tmp_path, "parent", "bb") == (1, 1)


def test_failed_execution_sets_no_digest(tmp_path):
    assert _gate(tmp_path, "s", "bad", verdict="fail") == (1, 1)
    assert _gate(tmp_path, "s", "good") == (1, 0)
    assert _gate(tmp_path, "s", "good") == (1, 0)


def test_source_hash_follows_the_sources(tmp_path):
    pkg = tmp_path / "src" / "eigenrestrict"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "torus.py").write_text("x = 1.0 + 2.0\n")
    first = run.source_hash(tmp_path)
    assert run.source_hash(tmp_path) == first
    (pkg / "torus.py").write_text("x = 2.0 + 1.0\n")
    assert run.source_hash(tmp_path) != first


def test_instrument_rebinds_import_time_names_and_undoes():
    from eigenrestrict import harmonics, oscillatory, profiles, restriction, torus
    originals = (torus.lp_norm_weighted, oscillatory.bump, oscillatory.cutoff_chi,
                 harmonics.unit_bump, harmonics.eval_averaged_raw.__defaults__)
    tracer = Tracer("t")
    undo = layers.instrument(tracer)
    try:
        assert torus.lp_norm_weighted is restriction.lp_norm_weighted
        assert oscillatory.bump is profiles.bump is not originals[1]
        assert harmonics.eval_averaged_raw.__wrapped__.__defaults__[0] is harmonics.unit_bump
        harmonics.Averaged(16, 0.9)([1.0, 0.0, 0.0])
    finally:
        undo()
    assert (torus.lp_norm_weighted, oscillatory.bump, oscillatory.cutoff_chi,
            harmonics.unit_bump, harmonics.eval_averaged_raw.__defaults__) == originals
    names = {s["name"] for s in tracer.spans}
    assert {"harmonics.Averaged.eval", "harmonics.averaged_normalise",
            "harmonics.eval_averaged_raw", "profiles.unit_bump", "profiles.bump",
            "geometry.gauss_legendre"} <= names


def _tree_digest(path):
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.rglob("*")) if p.is_file() and "__pycache__" not in p.parts}


def test_runs_write_nothing_into_reference_data(tmp_path):
    before = _tree_digest(HERE)
    for trace in (False, True):
        result, env = run.measure("sweep-curve", 0, 0.1, trace, experiments=TINY,
                                  state=tmp_path)
        # tracing leaves summary.json bytes unchanged: the digest check passes
        assert result["correct"] and result["failed"] == 0, result
        assert result["attempted"] == (3 if trace else 1) * len(TINY)
    assert env["nproc"] >= 1 and env["numpy"]
    assert _tree_digest(HERE) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "digests", "sweep-curve-seed0-trace0.json", "sweep-curve-seed0-trace1.json"]
    assert [p.name for p in (tmp_path / "digests").iterdir()] == [f"{run.source_hash()}.json"]


def test_pass_stopped_at_the_deadline_reports_its_time(tmp_path):
    runner = run.Runner(tmp_path, "airy-kernel", 0, time.monotonic() + 1.0)
    runner.scratch.mkdir(parents=True)
    slow = [{"label": "airy-model", "argv": ["run", "airy", "--lambda-list", "800"]}]
    stopped = runner.launch(slow, 1, stop_at_deadline=True)
    assert stopped["stopped"] and stopped["experiments"] == []
    assert 0.5 < stopped["wall_s"] < 30
    with pytest.raises(run.BenchError, match="out of time"):
        runner.launch(slow, 1)


def test_memory_guard_refuses_by_name(monkeypatch):
    monkeypatch.setattr(run, "available_mb", lambda: 100.0)
    with pytest.raises(run.BenchError, match="refusing to start torus-sup"):
        run.measure("torus-sup", 0, 1, False)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-curve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no eigenrestrict sources" in proc.stderr
