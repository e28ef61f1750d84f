"""Tests of the benchmark itself, at the tiny profile.

    python3 -m pytest bench -q

Every workload must run end to end and print the metrics BENCHMARK.json
names, and every oracle must reject a deliberately corrupted output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import isospec as iso  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace, seed=3):
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                  "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [m[:2] for m in run.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_runs_end_to_end(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_are_exact():
    grid = _result("coherent_grid", 1)["metrics"]
    assert grid["bicoherent.states"]["value"] == grid["bicoherent.gate_calls"]["value"] > 0
    calls = {_result("model_scale", 1, seed)["metrics"]["linalg.opnorm_calls"]["value"]
             for seed in (1, 2)}
    assert len(calls) == 1 and calls.pop() > 0


def test_refuses_a_checkout_without_sources():
    bare = ROOT / ".bench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _bench("--workload", "model_scale", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_the_program_and_collapses_recursion():
    import tracer as tracer_module

    original = iso.intertwining.build_model
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert iso.intertwining.build_model is not original
        assert iso.cli.build_model is iso.intertwining.build_model
        iso.io.canonical_json({"a": [1.0, [2.0, 3.0]], "b": {"c": 1j}})
    finally:
        tracer.uninstall()
    assert iso.intertwining.build_model is original
    assert iso.cli.build_model is original
    assert tracer.summary()["io.canonical_json"]["calls"] == 1


# ---------------------------------------------------------------------------
# oracles reject corrupted outputs


@pytest.fixture(scope="module")
def grid():
    wl = workloads.CoherentGrid(5, "tiny")
    case = wl.inputs(0)
    return wl, case, wl.run(case)


def _replace_states(states, **change):
    return [dataclasses.replace(s, **{k: f(s) for k, f in change.items()}) for s in states]


def test_coherent_grid_output_passes(grid):
    wl, case, out = grid
    assert wl.check(case, out) == []


@pytest.mark.parametrize("corrupt", [
    lambda out: {**out, "level1": _replace_states(out["level1"], normalization=lambda s: s.normalization + 1e-9)},
    lambda out: {**out, "level1": _replace_states(out["level1"], vector_psi=lambda s: s.vector_psi * (1 + 1e-9))},
    lambda out: {**out, "level1": _replace_states(
        out["level1"], vector_phi=lambda s: s.vector_phi + 1e-6 * np.roll(s.vector_phi, 1))},
    lambda out: {**out, "level2": {**out["level2"], "relabeled": _replace_states(
        out["level2"]["relabeled"], normalization=lambda s: s.normalization * (1 + 1e-9))}},
    lambda out: {**out, "level2": {**out["level2"], "original": _replace_states(
        out["level2"]["original"], vector_phi=lambda s: s.vector_phi * (1 - 1e-9))}},
    lambda out: {**out, "measure": dataclasses.replace(out["measure"], weights=out["measure"].weights * (1 + 1e-9))},
    lambda out: {**out, "resolution": [dataclasses.replace(r, lhs=r.lhs + 1e-8) for r in out["resolution"]]},
    lambda out: {**out, "ops": {**out["ops"], "z": out["ops"]["z"] + 1e-8 * np.eye(out["ops"]["z"].shape[0])}},
    lambda out: {**out, "ops": {"z": out["ops"]["zbar"], "zbar": out["ops"]["z"]}},
    lambda out: {**out, "ladders": dataclasses.replace(out["ladders"], a=out["ladders"].b)},
], ids=["l1-normalization", "l1-overlap", "l1-eigen", "l2-normalization", "l2-overlap",
        "moments", "resolution", "quantize-z", "quantize-swapped", "ladder"])
def test_coherent_grid_oracles_reject(grid, corrupt):
    wl, case, out = grid
    assert wl.check(case, corrupt(out))


@pytest.fixture(scope="module")
def models():
    wl = workloads.ModelScale(5, "tiny")
    pairs = wl.inputs(0)
    return wl, pairs, wl.run(pairs)


def test_model_scale_output_passes(models):
    wl, pairs, out = models
    assert wl.check(pairs, out) == []


@pytest.mark.parametrize("index", [0, -1])
def test_model_oracle_rejects_a_perturbed_theta2(models, index):
    _, pairs, out = models
    _, theta1, x = pairs[index]
    model = out[index][1]
    theta2 = model.theta2.copy()
    theta2[0, -1] += 1e-6 * np.linalg.norm(theta2, 2)
    assert oracles.model(theta1, x, model.theta2, len(model.kernel_set)) == []
    assert oracles.model(theta1, x, theta2, len(model.kernel_set))


def test_model_oracle_rejects_a_wrong_spectrum_or_kernel(models):
    _, pairs, out = models
    _, theta1, x = pairs[0]
    model = out[0][1]
    # a shift by a multiple of the identity moves every eigenvalue
    shifted = model.theta2 + 1e-6 * np.eye(model.theta2.shape[0])
    assert any("spec" in p for p in oracles.model(theta1, x, shifted, len(model.kernel_set)))
    assert oracles.model(theta1, x, model.theta2, len(model.kernel_set) + 1)


def test_cli_oracles_reject():
    wl = workloads.CliPipeline(4, "tiny", workdir=ROOT / ".bench_runs" / "test-cli")
    try:
        cwd = wl.inputs(0)
        codes = wl.run(cwd)
        assert wl.check(cwd, codes) == []
        assert wl.check(cwd, codes) == []  # same artifacts again
        assert wl.check(cwd, [0, 0, 0, 3, 0])

        report = cwd / "c" / "coherent_report.json"
        doc = json.loads(report.read_text())
        report.write_text(json.dumps({**doc, "all_passed": False}))
        assert oracles.all_passed(report)
        assert any("differ" in p for p in wl.check(cwd, codes))

        sweep = cwd / "c" / "coherent_sweep.csv"
        lines = sweep.read_text().splitlines()
        cells = lines[2].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        sweep.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        assert oracles.sweep_csv(sweep, wl.alpha1, wl.points)

        found, mats = oracles.model_file(cwd / "c" / "model.json")
        assert found == []
        theta1 = mats["theta1"]
        assert oracles.lowering_relation(theta1, np.eye(theta1.shape[0]), 2.0)
        assert oracles.lowering_relation(theta1, np.zeros_like(theta1), 2.0)

        model = cwd / "m" / "model.json"
        doc = json.loads(model.read_text())
        doc["theta2"]["entries"][0][0] += 1e-3
        model.write_text(json.dumps(doc))
        assert oracles.model_file(model)[0]
    finally:
        wl.close()
