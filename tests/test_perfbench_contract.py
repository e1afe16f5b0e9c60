"""The benchmark under perfbench/ imports tabseq names and rebinds tabseq
functions by name. Nothing else in the suite runs it, so these tests fail
when a rename or a deletion under src/ would break it."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_workload_imports_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = {(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "tabseq"
               for alias in node.names}
    assert imports  # the parse found the workloads' imports
    missing = []
    for module, name in sorted(imports):
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:  # a submodule: `from tabseq import cli`
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing


def run_with_probes(script: str) -> str:
    """Run ``script`` in its own process, since installing probes rebinds
    module globals, and return its stdout."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), str(PERFBENCH),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_probes_install():
    run_with_probes("import probes; probes.Probe(trace=True).install()")


ENCODE_SCRIPT = """
import json
import probes

probe = probes.Probe(trace=True)
probe.install()
from tabseq.preprocess import fit_preprocess
from tabseq.schema import impute_missing, make_windows
from tabseq.synthgen import GenConfig, generate_fraud_dataset
from tabseq.training import encode_inputs

cfg = GenConfig(entities=6, rows_per_entity=8, numerical_fields=3,
                categorical_cardinalities=(3, 4), seed=0)
data = impute_missing(generate_fraud_dataset(cfg))
artifact = fit_preprocess(data, bins=4)
windows = make_windows(data, 4, 2)
out = {}
for family in ("hierarchical", "vanilla"):
    setup, cells = probe.stage["setup"], probe.counts["preprocess.cells_encoded"]
    shape = encode_inputs(windows, artifact, family)[0].shape
    out[family] = {"setup_s": probe.stage["setup"] - setup, "shape": shape,
                   "cells": probe.counts["preprocess.cells_encoded"] - cells}
print(json.dumps(out))
"""


def test_encode_inputs_is_timed_as_setup():
    # encode_inputs does its work inside the probed encoders, so perfbench's
    # set-up clock and cell counter see it; this fails if the work moves elsewhere
    seen = json.loads(run_with_probes(ENCODE_SCRIPT).splitlines()[-1])
    for family in ("hierarchical", "vanilla"):
        w, n, m = seen[family]["shape"]
        assert (w, n, m) == (6 * 3, 4, 5)  # 6 entities x 3 windows, 4 rows, 5 features
        assert seen[family]["setup_s"] > 0
        assert seen[family]["cells"] == w * n * m


@pytest.mark.parametrize("workload", ["quickstart", "pretrain_finetune", "score"])
def test_tiny_workloads_pass_their_checks(workload, tmp_path, monkeypatch):
    # each workload's own output checks, run in-process at the self-test size:
    # a renamed attribute that a workload reads fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    inputs, cache = tmp_path / "inputs", tmp_path / "cache"
    inputs.mkdir()
    workloads.PREPARE[workload]("tiny", 7, str(inputs), str(cache))
    monkeypatch.chdir(inputs)
    ops = []
    out = workloads.RUN[workload]("tiny", 7, str(cache), ops)
    assert [op["name"] for op in ops] == list(workloads.OPERATIONS[workload])
    assert [op for op in ops if not op["ok"]] == []
    assert out["deterministic"]
