"""Smoke test of the benchmark harness itself, at tiny sizes.

    python -m pytest perfbench/test_harness.py -q
"""

import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_harness():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod    # dataclasses resolve their module by name
    spec.loader.exec_module(mod)
    return mod


run = _load_harness()


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--sizes", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_failing_op_is_counted_as_failed():
    def report(passed, residual, tolerance=1.0):
        return SimpleNamespace(check_id="cross_path", parameters={}, passed=passed,
                               residual=residual, tolerance=tolerance)

    def op(inp):
        if inp == "raise":
            raise RuntimeError("deliberate failure")
        if inp == "loose":  # passes only because its tolerance is above the pinned 1e-4
            return [report(True, 5e-4, tolerance=1e-3)]
        return [report(inp != "fail", 2e-4 if inp == "fail" else 5e-5, tolerance=1e-4)]

    st = run.run_ops(iter([["pass", "fail", "raise", "loose", "pass"]]), op, seconds=0.0)
    assert (st.attempted, st.failed) == (5, 3)
    assert st.verified == [True, False, False, False, True]
    assert st.ops_per_s == pytest.approx(2 / sum(st.latencies))
    assert st.ratio_max == pytest.approx(2.0)
    assert len(st.errors) == 3


def test_untraced_ops_are_calibrated():
    def op(inp):  # a few ms of work, so the calibration timer fires during ops
        sum(i * i for i in range(20000))
        return []

    st = run.run_ops(iter([list(range(60))]), op, seconds=0.0)
    assert len(st.cal) == len(st.latencies) == 60
    assert all(c > 0 for c in st.cal) and all(t > 0 for t in st.latencies)
    assert sum(st.latencies) < st.elapsed
    assert st.ops_per_kcal == pytest.approx(1e3 * 60 / sum(st.costs))
    traced = run.run_ops(iter([list(range(3))]), op, seconds=0.0, tracer=run.Tracer())
    assert traced.cal == [] and len(traced.latencies) == 3


def test_cold_inputs_are_seeded_and_never_repeat_a_pair():
    rounds = list(run.cold_inputs(7))
    assert rounds == list(run.cold_inputs(7))
    assert rounds != list(run.cold_inputs(8))
    assert len(rounds) == 2
    for block in rounds:
        assert sorted((n, kind) for n, kind, _, _ in block) == \
            sorted((n, kind) for n in (2, 3, 4) for kind in "ABC")
        assert all(1.5 <= z.imag <= 2.5 and -1 <= z.real <= 1 for *_, z in block)
    pairs = [(n, kind, idx) for block in rounds for n, kind, idx, _ in block]
    assert len(pairs) == len(set(pairs))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "level2-verified", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
