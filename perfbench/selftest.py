"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the package's own test collection; they
run the benchmark, which takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _inputs(workload: str, seed: int) -> list:
    ops = workloads.build(workload, seed, ROOT)
    files = {op.path: Path(op.path).read_text(encoding="utf-8") for op in ops if op.path}
    return [(op.kind, op.label, op.m, op.args, op.extra.get("text"), files.get(op.path))
            for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = _inputs(workload, 7)
    assert _inputs(workload, 7) == first
    assert _inputs(workload, 8) != first


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pointwise", "quadrature"])
def test_every_metric_is_emitted(workload):
    e2e = _bench(workload, 0)
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert set(e2e["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    layer = _bench(workload, 1)
    assert layer["correct"]
    assert set(layer["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in layer["metrics"].items()}
    assert counts["scipy.linprog.calls"] == 0
    assert (counts["quad.adaptive_panel.calls"] > 0) == (workload == "quadrature")
    assert (counts["tangent2d.tangent_data.calls"] > 0) == (workload == "pointwise")


def test_metric_specs_match_benchmark_json():
    assert [(n, u, b) for n, u, b in spans.metric_specs()] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_times_are_scaled_by_the_nearby_bursts():
    sampler = speed.Sampler()
    slow, fast = 2 * speed.NOMINAL_BURST_S, speed.NOMINAL_BURST_S / 2
    # a burst every 0.1 s; the host turns fast at t = 1 s
    sampler.starts = [0.1 * i for i in range(20)]
    sampler.bursts = [slow] * 10 + [fast] * 10
    sampler.spent = [0.003] * 20
    assert sampler.factor(0.2, 0.25) == 0.5
    assert sampler.factor(1.6, 1.62) == 2.0
    assert abs(sampler.stolen(0.15, 0.45) - 0.009) < 1e-12
    assert 0 < speed.burst() < 1


class _CorruptSession:
    """Returns every integral 1e-6 off its cubature value."""

    def __init__(self, ops):
        self.ops = ops
        self.out_csv = None

    def execute(self, op):
        return 0, "", op.extra["expect"] * (1 + 1e-6) + 1e-6


def test_corrupted_output_counts_as_failed():
    ops = workloads.build("quadrature", 3, ROOT)
    session = _CorruptSession(ops)
    verifier = run.Verifier(session)
    samples = run.run_cycles(session, verifier, 0.0)
    assert len(samples) == len(ops)
    assert sum(not ok for *_, ok in samples) == len(ops)
    assert len(verifier.failures) == len(ops)


def _write_csv(path: Path, model, corrupt: bool) -> int:
    xs, ts = np.meshgrid(np.linspace(-3, 3, 13), np.linspace(0, 2, 9))
    x, t = xs.ravel(), ts.ravel()
    u = oracles.solution_u(model, x, t)
    if corrupt:
        u[len(u) // 2] += 1e-6
    rows = [",".join(repr(float(v)) for v in (a, b, c, 0.0, 0.0, 0.0)) for a, b, c in zip(x, t, u)]
    path.write_text("\n".join([oracles.CSV_HEADER] + rows) + "\n", encoding="utf-8")
    return len(rows)


def test_corrupted_csv_is_caught():
    op = next(op for op in workloads.build("arrangement", 3, ROOT)
              if op.kind == "solve" and op.model is not None
              and op.model.kind == "wave-nonhomogeneous")
    path = workloads.problem_dir(ROOT, "arrangement", 3) / "selftest.csv"
    n = _write_csv(path, op.model, corrupt=False)
    assert oracles.check_csv(path, op.model, n)[0] == n
    _write_csv(path, op.model, corrupt=True)
    with pytest.raises(oracles.Mismatch):
        oracles.check_csv(path, op.model, n)


def test_corrupted_report_is_caught():
    ref = oracles.load_reference()["check:halfline"]
    verifier = run.Verifier(_CorruptSession([]))
    op = workloads.Op("check", "fixture:halfline", ref="check:halfline")
    assert verifier.check(0, op, (ref["exit"], ref["stdout"], None))
    bad = ref["stdout"].replace("boundary.max = 0.0", "boundary.max = 1e-300")
    assert not verifier.check(0, op, (ref["exit"], bad, None))


def test_missing_package_fails_fast():
    """Only BENCHMARK.json and perfbench/ present: non-zero exit, no result."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    (bare / "perfbench").mkdir(parents=True, exist_ok=True)
    for f in HERE.glob("*.py"):
        (bare / "perfbench" / f.name).write_bytes(f.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_skips_a_removed_layer_function(monkeypatch):
    import speculus.cli  # noqa: F401
    import speculus.piecewise as piecewise

    monkeypatch.delattr(piecewise, "feasible_pattern")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    layer = tracer.per_layer()
    assert "piecewise.feasible_pattern.calls" not in layer
    assert layer["piecewise.feasible_pattern.feasible_ratio"] == 0.0
