"""Every function the benchmark's traced run rebinds must still exist.

`perfbench/spans.py` lists them by module and attribute path; a rename in
`lpbdeg` would otherwise fail only the traced benchmark, not the suite.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the recorder rebinds the attribute where it is defined
        assert attr in vars(owner), f"span {name}: {module_name}.{path} is gone"
        assert callable(vars(owner)[attr]), f"span {name}: {module_name}.{path} is not callable"
