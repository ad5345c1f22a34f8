"""Every def of the package runs on the command line's traffic, or is listed here.

So does every parameter with a default: the traffic passes it another value.

The scan measures calls; it does not match names.  A fresh interpreter
sets ``sys.setprofile`` before it imports ``lpbdeg``, so no ``lru_cache``
hit left by another test hides a function body, and it writes no bytecode
and keeps its degree cache under the test's temporary directory.  It then
runs ``cli.main`` over the traffic of :func:`_traffic`: the benchmark's
three workloads at seed 0, ``selftest``, ``degree`` with each method,
``table`` and ``closed-form`` in every format, ``verify-paper --n 3``, one
usage error and ``--version``.

A def that never ran is public API carried for the tests alone, or dead
code; it goes, or it is listed in ``NEVER_RUN`` with its reason.  A def is
keyed by (file, first line, name), the first line of a decorated def being
its first decorator's, as in ``co_firstlineno``, so two methods of one name
are told apart.  The methods of the classes that ``lpbdeg.__all__`` exports
are exempt: library users call them, and the command line does not show
that traffic.

The same profiled run compares each parameter that has a default with
that default, on every call, and records the parameters that received
another value: not the same object, nor an equal one of the same type.
A parameter that never did is an option no caller sets; it goes, or it
is listed in ``NEVER_SET`` with its reason.  The methods of exported
classes are exempt here too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import lpbdeg
from perfbench_loader import load_perfbench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

NEVER_RUN = {
    "polyring.TruncatedPoly.sorted_terms": "the exponent-tuple view the tests and the display read",
    "polyring.TruncatedPoly.__repr__": "the display of a class, for a reader at the prompt",
    "sparse.Packing.__repr__": "the ring in the display of a class",
    "polyring.TruncatedPoly.__setattr__": "the immutability guard, run only by a write attempt",
    "bundles.RootSet.positive": "read by the `_roots` hook of perfbench/spans.py",
    "bundles.RootSet.negative": "read by the `_roots` hook of perfbench/spans.py",
    "symfunc.partitions": "the set-up warm-up of perfbench/worker.py, and the tests' oracles",
    "symfunc._descending_parts": "the recursion of symfunc.partitions",
    "cli.entrypoint": "the console script and `python -m lpbdeg`, around the main the scan runs",
}

NEVER_SET = {
    "cli._Parser.exit.status": "argparse's signature, which `--help` and `--version` call without arguments",
    "cli._Parser.exit.message": "argparse's signature, which `--help` and `--version` call without arguments",
}

# profiles a fresh interpreter while it imports a module and runs its main
# over the command lines read from stdin; prints the codes, the defs that ran
# and the defaulted parameters that received another value.  A default is
# the value of its source text in the def's module; a parameter is watched
# until it first receives another value.
_CHILD = r"""
import contextlib, importlib, io, json, sys

module_name, argvs, defaulted = json.load(sys.stdin)
# (file, first line, name) -> {parameter: source of its default}
watched = {(f, line, name): dict(params) for f, line, name, params in defaulted}
ran = set()
passed = set()


def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ran.add(key)
        params = watched.get(key)
        for param, source in list(params.items()) if params else ():
            default, value = eval(source, frame.f_globals), frame.f_locals[param]
            if value is not default and not (type(value) is type(default) and value == default):
                passed.add((*key, param))
                del params[param]


sys.setprofile(record)
main = importlib.import_module(module_name).main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
sys.setprofile(None)
json.dump({"codes": codes, "ran": sorted(ran), "passed": sorted(passed)}, sys.stdout)
"""


def _run_profiled(module_name, argvs, path, cwd, defaulted):
    """Exit codes of ``main`` over ``argvs``, the (file, line, name) that ran, and the parameters set.

    ``defaulted`` lists (file, first line, name, [(parameter, default
    source), ...]) of the defs whose defaults are watched, each file as the
    child names it, under ``path``; the third result holds (file, first
    line, name, parameter) of each that received a value other than its
    default.
    """
    paths = [str(path), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "LPB_CACHE": str(cwd / "degree-cache.jsonl")}
    done = subprocess.run(
        [sys.executable, "-B", "-c", _CHILD],
        input=json.dumps([module_name, argvs, defaulted]),
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        check=True,
    )
    result = json.loads(done.stdout)
    ran = {(str(Path(f).resolve()), line, name) for f, line, name in result["ran"]}
    return result["codes"], ran, {tuple(entry) for entry in result["passed"]}


def _defs(tree, exempt, prefix=""):
    """(first line, name, qualified name, node) of every def under ``tree``.

    The defs of a top-level class named in ``exempt`` are skipped.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            if prefix or node.name not in exempt:
                yield from _defs(node, exempt, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            yield first, node.name, prefix + node.name, node
            yield from _defs(node, exempt, f"{prefix}{node.name}.")
        else:
            yield from _defs(node, exempt, prefix)


def _defaults(node):
    """(parameter, source of its default) of each parameter of a def that has a default."""
    args = node.args
    positional = args.posonlyargs + args.args
    pairs = [*zip(positional[len(positional) - len(args.defaults) :], args.defaults)]
    pairs += [(arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return [(arg.arg, ast.unparse(default)) for arg, default in pairs]


def _defaulted(modules, exempt):
    """(file, first line, name, defaults, qualified name) of each def of ``modules`` with a defaulted parameter."""
    return [
        (str(path), line, name, defaults, f"{module}.{qualname}")
        for module, path in modules.items()
        for line, name, qualname, node in _defs(ast.parse(path.read_text()), exempt.get(module, set()))
        if (defaults := _defaults(node))
    ]


def _never_set(defaulted, passed):
    """``module.qualname.parameter`` of each watched parameter that never received another value."""
    return [
        f"{qualified}.{param}"
        for path, line, name, defaults, qualified in defaulted
        for param, _ in defaults
        if (path, line, name, param) not in passed
    ]


def _never_ran(modules, ran, exempt):
    """``module.qualname`` of each def of ``modules`` that is not in ``ran``.

    ``modules`` maps a module name to its file, and ``exempt`` maps a module
    name to the names of its classes whose methods are not checked.
    """
    return [
        f"{module}.{qualname}"
        for module, path in modules.items()
        for line, name, qualname, _ in _defs(ast.parse(path.read_text()), exempt.get(module, set()))
        if (str(path.resolve()), line, name) not in ran
    ]


def _exported_classes():
    """Module name to the names of the classes ``lpbdeg.__all__`` exports from it."""
    exempt = {}
    for name in lpbdeg.__all__:
        obj = getattr(lpbdeg, name)
        if isinstance(obj, type):
            exempt.setdefault(obj.__module__.rpartition(".")[2], set()).add(obj.__name__)
    return exempt


def _traffic():
    """The command lines of the scan, and the exit code each must give."""
    workloads = load_perfbench("workloads")
    argvs = [argv for workload in workloads.WORKLOADS for argv in workloads.ops(workload, 0)]
    argvs += [["selftest"], ["verify-paper", "--n", "3"]]
    argvs += [["degree", "--n", "4", "--d", "2", "--method", m] for m in ("quotient", "chchar", "both")]
    table = ["table", "--n", "3", "--d-min", "0", "--d-max", "3", "--format"]
    argvs += [[*table, f] for f in ("plain", "json", "csv", "latex")]
    argvs += [["closed-form", "--n", "3", "--format", f] for f in ("plain", "json", "latex")]
    argvs += [["--version"]]
    # a command line the parser refuses
    return [*argvs, ["degree", "--n", "4"]], [0] * len(argvs) + [1]


def test_every_definition_has_a_caller_outside_the_tests(tmp_path):
    argvs, expected = _traffic()
    modules = {p.stem: p for p in sorted((SRC / "lpbdeg").glob("*.py"))}
    exempt = _exported_classes()
    defaulted = _defaulted(modules, exempt)
    codes, ran, passed = _run_profiled("lpbdeg.cli", argvs, SRC, tmp_path, [d[:4] for d in defaulted])
    assert codes == expected
    never_ran = _never_ran(modules, ran, exempt)
    assert [d for d in never_ran if d not in NEVER_RUN] == []
    # each listed def still exists and still does not run
    assert sorted(NEVER_RUN) == sorted(d for d in never_ran if d in NEVER_RUN)
    assert all(NEVER_RUN.values())
    # every defaulted parameter receives another value, and each listed one
    # still exists and still never does
    assert sorted(_never_set(defaulted, passed)) == sorted(NEVER_SET)
    assert all(NEVER_SET.values())


SYNTHETIC = """\
from functools import lru_cache


def main(argv):
    used = Box().called() + Exported().used() + cached(len(argv))
    return used + options(argv, offset=0) + options(argv, extra=len(argv))


@lru_cache(maxsize=None)
def cached(n):
    return n


def helper():
    pass


@staticmethod
def decorated():
    pass


class Box:
    def called(self):
        return 0

    def method(self):
        pass

    def __repr__(self):
        return "Box()"


class Other:
    def called(self):
        pass


class Exported:
    def used(self, n=1):
        return n

    def unused(self):
        pass


def outer():
    def inner():
        pass


def options(argv, scale=1, offset=0, *, extra=0, flag=None):
    return 0 * (scale + offset + extra) if flag is None else 0
"""


def test_the_scan_sees_an_uncalled_definition(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    modules = {"synthetic": path}
    defaulted = _defaulted(modules, {"synthetic": {"Exported"}})
    codes, ran, passed = _run_profiled("synthetic", [[], ["x"]], tmp_path, tmp_path, [d[:4] for d in defaulted])
    assert codes == [1, 2]
    # the decorated cached function ran (its key is its decorator's line),
    # the methods of an exempt class are not checked, and a method that
    # shares the name of one that ran is reported
    assert _never_ran(modules, ran, {"synthetic": {"Exported"}}) == [
        "synthetic.helper",
        "synthetic.decorated",
        "synthetic.Box.method",
        "synthetic.Box.__repr__",
        "synthetic.Other.called",
        "synthetic.outer",
        "synthetic.outer.inner",
    ]
    # a defaulted parameter is reported until a call passes it another value:
    # ``extra`` gets 1 on the second command line, ``offset`` only its own
    # default again, and the parameter of an exempt method is not checked
    never_set = ["synthetic.options.scale", "synthetic.options.offset", "synthetic.options.flag"]
    assert _never_set(defaulted, passed) == never_set
