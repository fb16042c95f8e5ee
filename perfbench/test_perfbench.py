"""Tests of the benchmark itself: seeded inputs, tracing, output format.

They run on the tiny smoke grids, in seconds.
"""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from xfft import solver  # noqa: E402
from xfft.mesh import build_topology, detect_enrichment  # noqa: E402
from xfft.microstructure import sample_nodal  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(name):
    a = workloads.make_inputs(name, 7, smoke=True)
    b = workloads.make_inputs(name, 7, smoke=True)
    c = workloads.make_inputs(name, 8, smoke=True)
    assert pickle.dumps(a) == pickle.dumps(b)
    assert pickle.dumps(a) != pickle.dumps(c)


@pytest.mark.parametrize("smoke", [True, False])
def test_inclusions_always_have_multi_interface_elements(smoke):
    topo = build_topology()
    for seed in range(20):
        inp = workloads.make_inputs("inclusions-ceff", seed, smoke=smoke)
        layout = detect_enrichment(sample_nodal(inp.assembly, inp.grid), topo, inp.grid)
        assert layout.n_multi_interface > 0, seed


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_gives_identical_results(name):
    inp = workloads.make_inputs(name, 3, smoke=True)
    sweep = solver.System._sweep
    plain = workloads.run_once(inp)
    with tracing.Tracer() as tracer:
        traced = workloads.run_once(inp)
    assert solver.System._sweep is sweep  # wrappers removed
    assert np.array_equal(plain.sigmas, traced.sigmas)
    assert [r.iterations for r in plain.results] == [r.iterations for r in traced.results]
    names = {s["name"] for s in tracer.spans}
    assert {"solver.sweep", "greenop.apply_preconditioner", "solver.vector_op"} <= names
    metrics = tracing.layer_metrics(tracer.spans, traced, inp.config)
    assert metrics["solver.sweeps"][0] > traced.iterations


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "c", "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert tracing.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line(trace):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "laminate-setup",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expect = {"solver.sweep_ms", "trace.overhead_s"} if trace else {"setup_s", "peak_rss_mb"}
    assert expect <= set(result["metrics"])
