"""What a fresh ``import tabseq.cli`` loads and sets. GELU needs one scipy
ufunc, ``erf``; tabseq loads the extension module that defines it without
running ``scipy.special``'s package import. ``tabseq.nn.tensor`` sets glibc's
heap thresholds. Each check runs in its own interpreter, since the test
session may already have imported scipy and its heap state is its own."""

import math
import platform
import subprocess
import sys

import pytest


def run_fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_skips_the_scipy_special_package():
    out = run_fresh(
        "import sys, tabseq.cli\n"
        "print(sorted(m for m in ('scipy.special', 'numpy.f2py') if m in sys.modules))")
    assert out.strip() == "[]"


@pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "tabseq-first"])
def test_erf_is_scipys_ufunc(scipy_first):
    first, second = "import scipy.special", "import tabseq.nn.tensor as T"
    if not scipy_first:
        first, second = second, first
    out = run_fresh(f"{first}\n{second}\n"
                    "print(T.erf is scipy.special.erf)\n"
                    "print(*(repr(float(T.erf(x))) for x in (-2.5, -0.3, 0.0, 0.5, 1.0, 3.0)))")
    same, values = out.splitlines()
    assert same == "True"
    for x, got in zip((-2.5, -0.3, 0.0, 0.5, 1.0, 3.0), values.split()):
        assert abs(float(got) - math.erf(x)) <= 1e-15  # a few ulp apart, not bit-equal


def test_erf_falls_back_to_the_package_import():
    # With no extension suffix to try, the loader finds no file, so it must
    # import scipy.special, and still bind the same ufunc.
    out = run_fresh(
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES.clear()\n"
        "import tabseq.nn.tensor as T\n"
        "print('scipy.special' in sys.modules)\n"
        "import scipy.special\n"
        "print(T.erf is scipy.special.erf, repr(float(T.erf(0.5))))")
    imported, checked = out.splitlines()
    same, value = checked.split()
    assert imported == "True" and same == "True"
    assert abs(float(value) - math.erf(0.5)) <= 1e-15


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
def test_import_keeps_freed_heap():
    # Freeing a training step's tape frees the top of the heap; after the
    # import glibc keeps it, so the next step reuses its pages without faults.
    out = run_fresh(
        "import resource\n"
        "import numpy as np\n"
        "import tabseq.nn.tensor\n"
        "def round_trip():\n"
        "    arrays = [np.ones(1 << 18) for _ in range(8)]  # eight 2 MiB arrays\n"
        "    del arrays\n"
        "round_trip()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    round_trip()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)")
    assert int(out) / 20 < 64
