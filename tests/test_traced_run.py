"""The benchmark's traced run (``perfbench/traced.py``) wraps pipeline
functions by module and name; a layer that is renamed or no longer bound
where it looks breaks the benchmark, so it is run here on tiny configs."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from burgerslab.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def layer_names() -> set:
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return {f"{module}.{path}" for module, path, _ in traced.LAYERS}


@pytest.mark.parametrize("argv, hulls", [
    (["persist", "--hurst", "0.5", "--horizon", "4,8", "--replicas", "200",
      "--opt", "events=fbm_max,ifbm_two_sided"], 0),
    (["chain", "--hurst", "0.3,0.7", "--replicas", "200", "--opt", "n=8"], 0),
    # the kernel-space layers (sample_batch, verify_shift_inequality) must
    # still resolve, though the shared pass calls neither
    (["rkhs-verify", "--hurst", "0.3,0.7", "--replicas", "2000", "--opt",
      "half-points=8", "--opt", "trend=covcol@1*0.1", "--opt", "level=1"], 0),
    # one minorant per replica and H
    (["dim", "--hurst", "0.3,0.7", "--replicas", "3", "--opt",
      "grid-log2=12"], 6)],
    ids=["persist", "chain", "rkhs-verify", "dim"])
def test_traced_run_summarises_every_layer(tmp_path, argv, hulls):
    # spans recorded in pool workers would be lost
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "BURGERSLAB_WORKERS": "1"}
    summary = tmp_path / "summary.json"
    done = subprocess.run(
        [sys.executable, str(TRACED), str(summary), str(tmp_path / "spans.json"),
         "test", *argv, "--seed", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    doc = json.loads(summary.read_text())
    assert doc["status"] == 0
    assert set(doc["layers"]) == layer_names()
    assert doc["layers"]["experiments.run_experiment"]["calls"] == 1
    hull = doc["layers"]["envelopes.lower_envelope"]
    assert hull["calls"] == hulls
    assert (hull["nodes"] > 0) == (hulls > 0)


# each benchmark experiment's replicas, cut to a fraction of a second's work
GATE_REPLICAS = {"dim": 2, "persist": 100, "shift": 2000, "chain": 200}


@pytest.mark.parametrize("name", GATE_REPLICAS)
def test_benchmark_counts_every_check_line(tmp_path, capsys, monkeypatch,
                                           name):
    """``perfbench/run.py`` fails an experiment whose count of PASS and FAIL
    lines is not its ``checks``; a change to what a run prints fails here
    first, at the benchmark's own argv with fewer replicas."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    experiments = {exp.name: exp for session in bench.WORKLOADS.values()
                   for exp in session}
    assert set(experiments) == set(GATE_REPLICAS)
    argv = list(experiments[name].argv)
    argv[argv.index("--replicas") + 1] = str(GATE_REPLICAS[name])
    main(argv + ["--seed", "1", "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith(("PASS ", "FAIL ")) for line in lines) \
        == experiments[name].checks
