"""The benchmark's traced run must keep working against the package.

`perfbench/spans.py` lists the functions it rebinds by module and attribute
path, and its count hooks read the results; a rename in `lpbdeg`, or a
changed return type, would otherwise fail only the traced benchmark, not
the suite.  These tests read `perfbench/` and never write there.
"""

import importlib
import json
from math import comb

import pytest

from lpbdeg.cli import main
from perfbench_loader import PERFBENCH, load_perfbench


def test_traced_targets_resolve():
    spans = load_perfbench("spans")
    for name, module_name, path, _ in spans.TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # the recorder rebinds the attribute where it is defined
        assert attr in vars(owner), f"span {name}: {module_name}.{path} is gone"
        assert callable(vars(owner)[attr]), f"span {name}: {module_name}.{path} is not callable"


@pytest.mark.parametrize(
    "workload, argv",
    [
        ("closed-form", ["verify-paper", "--n", "3"]),
        ("route-check", ["degree", "--n", "5", "--d", "2", "--method", "both"]),
        (
            "forms-grid",
            ["forms", "check-pullback", "--n", "3", "--d", "1", "--trials", "4", "--seed", "301"],
        ),
        (
            "forms-grid",
            ["forms", "check-pullback", "--n", "5", "--d", "2", "--trials", "4", "--seed", "502"],
        ),
        # the workload's deepest op, g = 15
        ("route-check", ["degree", "--n", "7", "--d", "5", "--method", "both"]),
        # the reciprocity path of closed_form, on the symmetric product
        ("closed-form", ["closed-form", "--n", "5", "--format", "json"]),
    ],
)
def test_traced_command_passes_self_test(workload, argv, tmp_cache, capsys):
    # one op under the recorder: the count hooks must read the results, the
    # output must not change, and every span the workload expects must fire
    spans = load_perfbench("spans")
    workloads = load_perfbench("workloads")
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = main(argv)
    finally:
        restored = recorder.restore()
    assert code == 0
    assert capsys.readouterr().out == golden[workloads.golden_key(argv)]
    assert restored
    stats = recorder.snapshot()
    silent = [name for name in workloads.EXPECTED_CALLS[workload] if stats[name]["calls"] == 0]
    assert not silent, f"spans with no calls: {silent}"


def test_route_check_op_counts_each_root_once(tmp_cache, capsys):
    # the per-layer root count the benchmark reads: one enumeration per
    # degree, shared by both routes, of C(d + 4, 2) - 3 roots
    spans = load_perfbench("spans")
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = main(["degree", "--n", "5", "--d", "2", "--method", "both"])
    finally:
        recorder.restore()
    assert code == 0
    capsys.readouterr()
    stats = recorder.snapshot()["bundles.chern_roots"]
    assert stats["calls"] == 1
    assert stats["roots"] == comb(2 + 4, 2) - 3 == 12


@pytest.mark.parametrize("argv", [["verify-paper", "--n", "3"], ["closed-form", "--n", "5", "--format", "json"]])
def test_closed_form_ops_never_reach_the_character_route(argv, tmp_cache, capsys):
    # the closed-form workload runs the quotient route alone, so a change
    # to the character route cannot move its numbers
    spans = load_perfbench("spans")
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = main(argv)
    finally:
        recorder.restore()
    assert code == 0
    capsys.readouterr()
    stats = recorder.snapshot()
    assert stats["foliation.degree_lpb"]["calls"] > 0
    assert stats["bundles.chern_character_graded"]["calls"] == 0
    assert stats["symfunc.segre_via_characters"]["calls"] == 0
