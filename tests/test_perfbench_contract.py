"""The benchmark under perfbench/ imports tabseq names and rebinds tabseq
functions by name. Nothing else in the suite runs it, so these tests fail
when a rename or a deletion under src/ would break it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_probes_install():
    # installing rebinds module globals, so it runs in its own process
    path = os.pathsep.join(p for p in (str(ROOT / "src"), str(PERFBENCH),
                                       os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import probes; probes.Probe(trace=True).install()"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
