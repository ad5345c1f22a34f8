"""Benchmark of the `lpbdeg` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form --seed 0 --seconds 30 --trace 0

`--trace 0` repeats the workload's command list, each pass in a fresh
child interpreter, until `--seconds` are spent, and reports the median pass
time (`wall_s`), set-up time (`setup_s`) and peak memory (`peak_rss_mb`).
Times are corrected for the host's speed, measured by a fixed probe beside
each op (see `_ref_seconds`).
`--trace 1` runs one untraced pass and two traced passes, checks that
tracing changed no output and that exact counts repeat, and reports the
per-layer metrics.  Every op's stdout is compared byte for byte with
`golden.json`.  The last line of stdout is one JSON object; a run that
cannot start its passes prints no result and exits non-zero.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
STRAY_CACHE = ROOT / "lpb-cache.jsonl"

# extra set-up-only children, so the set-up median has enough samples
SETUP_SAMPLES = 10
# every child must be done by then, to leave the run under 180 s
HARD_LIMIT_S = 170.0
# The probe's typical time on the machine where the benchmark was defined
# (2 vCPUs, Python 3.11).  A time t measured while the probe took p seconds
# is reported as t * REF_PROBE_S / p: seconds at that reference speed.
REF_PROBE_S = 0.0013

LAYERS = ("exact", "polyring", "symfunc", "bundles", "grassmann", "foliation", "forms", "cli")

# (metric, span, field, unit)
SPAN_METRICS = (
    ("bundles.chern_roots.self_s", "bundles.chern_roots", "self_s", "s"),
    ("bundles.chern_roots.roots", "bundles.chern_roots", "roots", "count"),
    ("polyring.product_shifted_linear.self_s", "polyring.product_shifted_linear", "self_s", "s"),
    ("polyring.product_shifted_linear.factors", "polyring.product_shifted_linear", "factors", "count"),
    ("polyring.TruncatedPoly.mul.calls", "polyring.TruncatedPoly.mul", "calls", "count"),
    ("polyring.TruncatedPoly.mul.self_s", "polyring.TruncatedPoly.mul", "self_s", "s"),
    ("polyring.TruncatedPoly.mul.term_pairs", "polyring.TruncatedPoly.mul", "term_pairs", "count"),
    ("symfunc.segre_via_characters.self_s", "symfunc.segre_via_characters", "self_s", "s"),
    ("symfunc.segre_via_characters.total_s", "symfunc.segre_via_characters", "total_s", "s"),
    ("bundles.chern_character_graded.calls", "bundles.chern_character_graded", "calls", "count"),
    ("bundles.chern_character_graded.total_s", "bundles.chern_character_graded", "total_s", "s"),
    ("polyring.inverse_unit_series.self_s", "polyring.inverse_unit_series", "self_s", "s"),
    ("grassmann.integrate.self_s", "grassmann.integrate", "self_s", "s"),
    ("exact.lagrange_interpolate.self_s", "exact.lagrange_interpolate", "self_s", "s"),
    ("foliation.degree_lpb.calls", "foliation.degree_lpb", "calls", "count"),
    ("foliation.degree_lpb.total_s", "foliation.degree_lpb", "total_s", "s"),
    ("foliation.degree_lpb.max_bits", "foliation.degree_lpb", "max_bits", "bits"),
    ("forms.integrability_defect.total_s", "forms.integrability_defect", "total_s", "s"),
    ("forms.integrability_defect.self_s", "forms.integrability_defect", "self_s", "s"),
    ("forms.poly_mul.calls", "forms.poly_mul", "calls", "count"),
    ("forms.poly_mul.self_s", "forms.poly_mul", "self_s", "s"),
    ("forms.poly_mul.term_pairs", "forms.poly_mul", "term_pairs", "count"),
    ("forms.pullback_linear.total_s", "forms.pullback_linear", "total_s", "s"),
    ("forms.substitute_linear.total_s", "forms.substitute_linear", "total_s", "s"),
    ("forms.recover.total_s", "forms.recover", "total_s", "s"),
    ("forms.contract_radial.total_s", "forms.contract_radial", "total_s", "s"),
    ("forms.random_form.total_s", "forms.random_form", "total_s", "s"),
    ("forms.random_projection.total_s", "forms.random_projection", "total_s", "s"),
    ("cli.DegreeCache.load_s", "cli.DegreeCache.load", "total_s", "s"),
    ("cli.DegreeCache.puts", "cli.DegreeCache.put", "calls", "count"),
    ("cli.DegreeCache.hits", "cli.DegreeCache.get", "hits", "count"),
    ("cli.DegreeCache.misses", "cli.DegreeCache.get", "misses", "count"),
)

TIME_FIELDS = ("total_s", "self_s")


class BenchError(Exception):
    """A pass could not run at all; the benchmark prints no result."""


def _spawn(spec: dict, cache: Path, started: float) -> dict:
    """Run one worker pass and return its JSON result."""
    env = dict(os.environ, LPB_CACHE=str(cache))
    spec = dict(spec, t0=time.monotonic())
    timeout = HARD_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran past {HARD_LIMIT_S:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _op_failures(ops: list[dict], golden: dict[str, str]) -> list[str]:
    """One line per failed op: non-zero exit, exception or stdout not golden."""
    failures = []
    for op in ops:
        cmd = " ".join(op["argv"])
        expected = golden.get(workloads.golden_key(op["argv"]))
        if op["error"] is not None:
            failures.append(f"{cmd}: raised {op['error']}")
        elif op["code"] != 0:
            failures.append(f"{cmd}: exit {op['code']}: {op['stderr'].strip()}")
        elif expected is None:
            failures.append(f"{cmd}: no golden stdout recorded")
        elif op["stdout"] != expected:
            failures.append(f"{cmd}: stdout differs from golden")
    return failures


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _raw_seconds(pass_: dict) -> float:
    return sum(op["seconds"] for op in pass_["ops"])


def _ref_seconds(pass_: dict) -> float:
    """The pass's op time at the reference host speed.

    The host is shared and its speed drifts by a third within minutes.  The
    worker times a fixed probe every 50 ms while ops run; each op's time,
    less the probes inside it, is scaled by REF_PROBE_S over the mean probe
    time during that op.  The probe drifts with the host, so the scaled time
    stays steady while a change to `lpbdeg` still moves it in full.  An op
    too short to hold a probe takes the pass's mean.
    """
    everything = [p for op in pass_["ops"] for p in op["probes"]] or pass_["setup_probes"]
    fallback = statistics.fmean(everything)
    total = 0.0
    for op in pass_["ops"]:
        speed = statistics.fmean(op["probes"]) if op["probes"] else fallback
        total += (op["seconds"] - sum(op["probes"])) * REF_PROBE_S / speed
    return total


def _ref_setup(child: dict) -> float:
    return child["setup_s"] * REF_PROBE_S / statistics.median(child["setup_probes"])


def _timed_run(args, spec: dict, fresh_cache, started: float) -> tuple[list[dict], list[str], dict]:
    """Passes until `--seconds` are spent; end-to-end medians."""
    deadline = started + args.seconds
    setups = [_spawn(dict(spec, setup_only=True), fresh_cache(), started) for _ in range(SETUP_SAMPLES)]
    passes = []
    while True:
        begun = time.monotonic()
        passes.append(_spawn(spec, fresh_cache(), started))
        now = time.monotonic()
        if now + (now - begun) > deadline:
            break
    metrics = {
        "wall_s": _metric(statistics.median(_ref_seconds(p) for p in passes), "s"),
        "setup_s": _metric(statistics.median(_ref_setup(c) for c in setups + passes), "s"),
        "peak_rss_mb": _metric(statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    print(f"perfbench: {args.workload}: {len(passes)} passes; raw s "
          + " ".join(f"{_raw_seconds(p):.3f}" for p in passes) + "; reference s "
          + " ".join(f"{_ref_seconds(p):.3f}" for p in passes), file=sys.stderr)
    return [op for p in passes for op in p["ops"]], [], metrics


def _counts(stats: dict) -> dict:
    return {name: {k: v for k, v in stat.items() if k not in TIME_FIELDS} for name, stat in stats.items()}


def _traced_run(args, spec: dict, fresh_cache, started: float) -> tuple[list[dict], list[str], dict]:
    """One untraced and two traced passes; self-test and per-layer metrics."""
    plain = _spawn(spec, fresh_cache(), started)
    traced = [_spawn(dict(spec, traced=True), fresh_cache(), started) for _ in range(2)]
    problems = []
    plain_out = [op["stdout"] for op in plain["ops"]]
    if any([op["stdout"] for op in t["ops"]] != plain_out for t in traced):
        problems.append("traced stdout differs from untraced stdout")
    if not all(t["restored"] for t in traced):
        problems.append("an original function was not restored after tracing")
    if _counts(traced[0]["stats"]) != _counts(traced[1]["stats"]):
        problems.append("exact counts differ between two traced passes of one seed")
    stats = traced[0]["stats"]
    for name in workloads.EXPECTED_CALLS[args.workload]:
        if stats[name]["calls"] == 0:
            problems.append(f"span {name} recorded no calls")

    wall = _raw_seconds(traced[0])
    metrics = {name: _metric(stats[span].get(field, 0), unit) for name, span, field, unit in SPAN_METRICS}
    for layer in LAYERS:
        busy = sum(stat["self_s"] for name, stat in stats.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.share_pct"] = _metric(100.0 * busy / wall, "%")
    metrics["trace.wall_s"] = _metric(wall, "s")
    metrics["trace.overhead_s"] = _metric(_ref_seconds(traced[0]) - _ref_seconds(plain), "s")
    metrics["trace.probe_s"] = _metric(statistics.median(p for op in traced[0]["ops"] for p in op["probes"]), "s")
    return plain["ops"] + [op for t in traced for op in t["ops"]], problems, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="lpbdeg CLI benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "lpbdeg" / "__init__.py").is_file():
        print(f"perfbench: no lpbdeg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[args.workload]
    spec = {"workload": args.workload, "seed": args.seed, "traced": False, "setup_only": False}
    stray_before = STRAY_CACHE.exists()
    started = time.monotonic()
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    caches = itertools.count()

    def fresh_cache() -> Path:
        return tmp / f"cache-{next(caches)}.jsonl"

    try:
        run = _traced_run if args.trace else _timed_run
        ops, problems, metrics = run(args, spec, fresh_cache, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(TMP_ROOT.iterdir()):
            TMP_ROOT.rmdir()
    if STRAY_CACHE.exists() and not stray_before:
        problems.append(f"a default cache file appeared at {STRAY_CACHE}")

    failures = _op_failures(ops, golden)
    for line in failures + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        metrics["error_rate"] = _metric(len(failures) / len(ops), "ratio")
    result = {
        "correct": not failures and not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
