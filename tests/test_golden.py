"""The benchmark's workloads print exactly their recorded stdout.

`perfbench/golden.json` holds, per workload, the stdout of each command
line in `perfbench/workloads.py`.  Running the three workloads here at
seed 0, in-process through `cli.main`, puts the byte-identical-output
contract into the suite and not only into the benchmark.
"""

import json

import pytest

from lpbdeg.cli import main
from perfbench_loader import PERFBENCH, load_perfbench


@pytest.mark.parametrize("workload", ["closed-form", "route-check", "forms-grid"])
def test_degree_workload_stdout_matches_golden(workload, tmp_cache, capsys):
    workloads = load_perfbench("workloads")
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    for argv in workloads.ops(workload, 0):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == golden[workloads.golden_key(argv)], argv
