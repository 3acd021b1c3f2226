"""Self-test of the benchmark (not of fansq).

    python3 -m pytest perfbench/tests -q

Runs every workload end to end: once untraced with a one-second budget,
and twice traced with the same seed.  Takes about three minutes on two
cores, so it is not part of the package's own test run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SEED = 1


def _result(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def untraced(request):
    args = ("--workload", request.param, "--seed", str(SEED), "--seconds", "1", "--trace", "0")
    return request.param, *_result(*args)


@pytest.fixture(scope="module", params=inputs.WORKLOADS)
def traced_twice(request):
    args = ("--workload", request.param, "--seed", str(SEED), "--seconds", "1", "--trace", "1")
    return request.param, _result(*args)[0], _result(*args)[0]


def test_spec_matches_the_metrics_the_benchmark_emits(spec):
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    workload, result, stdout = untraced
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    for name, unit in run.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit
        assert metric["value"] > 0, name
        assert f"\n{name} " in "\n" + stdout  # printed by name too
    assert "failed_share" in stdout
    if workload == "oracle":
        beyond = int(stdout.split("# queries_beyond_cpu_p95: ")[1].split()[0])
        assert beyond >= 10


def test_traced_counts_repeat_exactly(traced_twice):
    workload, first, second = traced_twice
    assert set(first["metrics"]) == {name for name, _ in layers.PER_LAYER}
    for name, unit in layers.PER_LAYER:
        assert first["metrics"][name]["unit"] == unit
        if layers.pass_of(name) == "count pass":
            assert first["metrics"][name] == second["metrics"][name], (workload, name)
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]


def test_traced_run_sees_the_layers_each_workload_stresses(traced_twice):
    workload, result, _ = traced_twice
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["squeeze.coefficients.calls"] > 0
    assert m["fanstate.series_terms"] > 0
    if workload == "oracle":
        assert m["cli.main.calls"] == 0
        assert m["fockoracle.moment_oracle.calls"] > 0
        assert m["fockoracle.oracle_vector.dim_max"] > 1000  # slow corner present
    else:
        assert m["cli.main.calls"] == 1
        assert m["atlas.scan.calls"] == 1
        assert m["fockoracle.oracle_vector.calls"] == 0
    if workload == "boundary":
        assert m["optimize.bisect_root.calls"] == m["atlas.crossings.attempted"] > 0
        assert 0 < m["atlas.crossings.useful_ratio"] <= 1
    if workload == "scan":
        assert m["optimize.bisect_root.calls"] == 0


def test_inputs_come_from_the_seed():
    assert inputs.oracle_queries(SEED) == inputs.oracle_queries(SEED)
    assert inputs.oracle_queries(SEED) != inputs.oracle_queries(SEED + 1)
    assert len(inputs.oracle_queries(SEED)) == inputs.QUERY_COUNT


def test_only_identity_states_vary_with_the_seed():
    """Trapped-ion states, the slow band and the defect probes are in every
    sequence, so the operations that fail do not depend on the seed."""

    def states(seed):
        return {(q["k"], q["xi_sq"], q["eta_sq"]) for q in inputs.oracle_queries(seed)}

    common = states(SEED) & states(SEED + 1)
    assert set(inputs.DEFECT_PROBES) <= common
    assert all(eta_sq is None for _, _, eta_sq in states(SEED) - common)
    assert len(states(SEED) - common) == len(inputs.QUERY_KS) * inputs.QUERIES_PER_CELL


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
