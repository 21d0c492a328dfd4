"""Checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The traced-run checks start the benchmark as a subprocess, twice per
training workload (about a minute in all); the rest run in-process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

# exact per-epoch gradient calls and tape records per gradient at this design
EXPECTED = {
    "lattice-fkl_mc": (8, 22), "lattice-rkl_rl": (16, 45), "lattice-diffuco": (1, 663),
    "graph-fkl_mc": (16, 86), "graph-rkl_rl": (32, 110),
}
REPEATABLE = ("objectives.grad_calls", "autodiff.records_per_grad",
              "energies.energy_calls", "decode.ce_calls")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def traced(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}_seed{seed}_trace1.json")
                        .read_text(encoding="utf-8"))
    return {k: v["value"] for k, v in result["metrics"].items()}, record["stage_info"]


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_table()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    # every benchmarked workload is defined; lattice-diffuco runs but is left
    # out of BENCHMARK.json, which allows at most eight workloads
    assert [w["name"] for w in spec["workloads"]] == \
        [w for w in workloads.WORKLOADS if w != "lattice-diffuco"]


def test_call_s_cancels_host_speed_and_pauses():
    """Operations timed on a host running at half speed, with their
    calibrations, scale to the same call_s; a calibration pause inside an
    operation is taken out of it."""
    stage = workloads.Stage("oracle", None, 1.0, "states", "oracle_states_per_s")

    def call_s(slowdown, pause=0.0):
        calibrations = run.Calibrations()
        calibrations.at, calibrations.seconds = [0.0, 100.0], [slowdown * 0.002] * 2
        ops = []
        for t in (0.10, 0.11, 0.30):
            t *= slowdown
            pauses = [(1.0, 1.0 + pause, 0.5, 0.5 + pause)] if pause else []
            ops.append(run.OpResult((1.0, 1.0 + t + pause), (0.5, 0.5 + t + pause), pauses,
                                    [], {}))
        for op in ops:
            op.scale(calibrations)
        return run.end_to_end(stage, ops, [1.0], 50.0)[0]["call_s"]

    assert call_s(1.0) == pytest.approx(run.CALIBRATION_REF_S * 0.11 / 0.002)
    assert call_s(2.0) == pytest.approx(call_s(1.0))
    assert call_s(1.0, pause=0.01) == pytest.approx(call_s(1.0))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    digests = []
    for seed, where in ((1, "a"), (1, "b"), (2, "c")):
        workload.setup(seed, tmp_path / where)
        digests.append(workloads.inputs_digest(tmp_path / where))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_traced_counts_repeat_and_cover_training(name):
    first, first_info = traced(name, 5)
    second, second_info = traced(name, 5)
    for key, value in first.items():
        if key.startswith(REPEATABLE):
            assert second[key] == value, key
    grad_calls, records = EXPECTED[name]
    assert first["objectives.grad_calls"] == grad_calls
    assert first["autodiff.records_per_grad"] == records
    assert first["bench.untraced_pct"] <= 5.0
    digests = {info["metrics_sha256"] for info in first_info + second_info}
    assert len(digests) == 1, "metrics.csv differs between runs"


def test_solve_counts_repeat():
    first, _ = traced("graph-solve", 5)
    second, _ = traced("graph-solve", 5)
    assert first["decode.ce_calls"] > 0
    for key in REPEATABLE:
        assert second[key] == first[key], key


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle-ea4", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
