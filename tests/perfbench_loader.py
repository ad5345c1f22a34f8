"""Load the benchmark's modules by path, for the tests that read them.

``perfbench/`` is not a package, so its modules are loaded from their files
under the name ``perfbench_<name>``.  No bytecode is written while they
load, so reading the benchmark leaves nothing under ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """A fresh module executed from ``perfbench/<name>.py``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module
