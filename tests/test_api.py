"""The public surface: every exported name resolves, and none is listed twice.

Tools that wrap the package (perfbench's tracer among them) walk each
module's __all__ with getattr, so a stale entry breaks them on import.
"""

import importlib
import os
import subprocess
import sys

import pytest

import ineqkit

MODULES = ("gridfn", "norms", "rearrange", "smoothness", "hardyops", "fourier",
           "verify", "render")


@pytest.mark.parametrize("module", [ineqkit] + [
    importlib.import_module(f"ineqkit.{name}") for name in MODULES],
    ids=lambda m: m.__name__)
def test_all_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing


def test_import_leaves_scipy_ndimage_out():
    # only the cone check's ball maximum needs scipy.ndimage, and it imports
    # it itself: the package import does not pay for it
    src = os.path.dirname(os.path.dirname(ineqkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, ineqkit; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
