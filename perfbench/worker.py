"""One pass of a workload in a fresh interpreter; `run.py` starts it.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload and seed, whether to record spans, whether to
stop after set-up, and `t0`, the parent's monotonic clock just before it
started this process.  Set-up is interpreter start, `import lpbdeg` and the
package's lazy caches; then every op of the workload runs in-process through
`lpbdeg.cli.main` with its stdout and stderr captured.  A fixed probe runs
after set-up and, from a timer signal, every 50 ms while the ops run, so the
parent can correct each timing for the host's speed at that moment.  The
last line of stdout is one JSON object with the timings, the probe times,
the ops' outputs and, when traced, the span statistics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# partitions(k) is needed for k up to g = 3(n - 2) = 15 at n = 7
MAX_PARTITION = 15

# A fixed sparse product in the style of the package's own kernels (dicts of
# exponent tuples, multi-word integers), about a millisecond long.  Host
# slowdowns stretch it as they stretch the ops.
_PROBE_POLY = {
    (i, j, k): ((7 * i + 3 * j - k) or 1) * 10**12 + k
    for i in range(5) for j in range(5) for k in range(5) if i + j + k <= 4
}
# how often the probe samples the host's speed while ops run
SAMPLE_INTERVAL_S = 0.05
SETUP_PROBES = 7


def probe() -> float:
    """Seconds the probe product takes now; it touches nothing of lpbdeg."""
    start = time.perf_counter()
    out: dict = {}
    for e1, c1 in _PROBE_POLY.items():
        for e2, c2 in _PROBE_POLY.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return time.perf_counter() - start


class SpeedSampler:
    """Runs the probe every SAMPLE_INTERVAL_S of wall time, from SIGALRM."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> SpeedSampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _set_up(workloads) -> object:
    sys.path.insert(0, str(ROOT / "src"))
    import lpbdeg.cli
    from lpbdeg.forms import form_space_basis
    from lpbdeg.symfunc import partitions

    for d in sorted({d for _, d in workloads.FORMS_GRID}):
        form_space_basis(2, d)
    for k in range(MAX_PARTITION + 1):
        partitions(k)
    return lpbdeg.cli


def _run_op(main, argv: list[str], sampler: SpeedSampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    first = len(sampler.samples)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        error = None
    except Exception as exc:  # an op that raises is a failed op; the pass goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return {
        "argv": argv,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "seconds": seconds,
        "probes": sampler.samples[first:],
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    import workloads

    cli = _set_up(workloads)
    result: dict = {"setup_s": time.monotonic() - spec["t0"]}
    result["setup_probes"] = [probe() for _ in range(SETUP_PROBES)]
    if not spec["setup_only"]:
        argvs = workloads.ops(spec["workload"], spec["seed"])
        main_fn = cli.main
        recorder = None
        if spec["traced"]:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
            main_fn = recorder.wrap("cli.main", cli.main)
        with SpeedSampler() as sampler:
            result["ops"] = [_run_op(main_fn, argv, sampler) for argv in argvs]
        if recorder is not None:
            result["stats"] = recorder.snapshot()
            result["restored"] = recorder.restore()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
