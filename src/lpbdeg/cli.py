"""Command line front end.

Subcommands::

    degree        --n N --d D [--method quotient|chchar|both]
    table         --n N --d-min A --d-max B [--format plain|json|csv|latex]
    closed-form   --n N [--format plain|json|latex]
    verify-paper  --n 3|4
    forms check-pullback --n N --d D --trials T --seed S
    selftest

``degree --d`` and ``table --d-max`` accept at most ``MAX_D`` = 1000: the
work per degree grows about as d^2, and the bound keeps a typo such as
``--d 100000`` from quietly starting hours of root enumeration.  A
``table`` is bounded by its summed work as well: the sum of (d + 2)^2 over
its rows may not exceed (``MAX_D`` + 2)^2, so a table costs at most what
one ``degree --d MAX_D`` costs (d = 0 .. 141 is the longest table from
d = 0).
``degree``, ``table`` and ``closed-form`` accept ``--n`` up to ``MAX_N`` = 8.
``closed-form`` evaluates floor(9(n-2)/2) + 2 degrees of growing cost, and
took 0.23, 0.54, 1.0 and 1.8 s at n = 6, 7, 8 and 9 (about x2 per step,
17 MB peak; 2-vCPU host).  The costlier corner is ``degree`` at
(``MAX_N``, ``MAX_D``): at n = 8 it took 0.02 s for d = 2, 1.8 s for
d = 200 and 47 s and 229 MB for d = ``MAX_D`` on the same host, where
root enumeration is nearly all of the time.
``verify-paper`` interpolates on all 3g + 1 nodes d = 2 .. 3g + 2, g = 3(n-2),
so its check does not rest on the reciprocity ``closed-form`` uses.
``forms check-pullback`` accepts ``--n`` up to ``MAX_FORMS_N`` = 20,
``--trials`` up to ``MAX_TRIALS`` = 1000, and (n, d) only while a pulled-back
coefficient has at most ``MAX_FORM_TERMS`` = 500 terms, C(n+d+1, n).

Exit codes: 0 success, 1 usage error (a bad command line or an argument
out of range, which each subcommand checks before any work), 2 verification
mismatch, 3 internal fault (non-integer integral, route disagreement, cache
conflict, or any other ``ValueError``, ``ArithmeticError`` or
``RuntimeError`` raised once the arguments passed) or a cache file that
cannot be read or written (an ``OSError``, reported as ``error:`` with the
path).

Computed degrees are cached in a newline-delimited JSON file whose path
comes from the LPB_CACHE environment variable (default ./lpb-cache.jsonl).
Each record is ``{"n": int, "d": int, "degree": "<decimal>", "engine_version":
str}``; the degree is a decimal string because values outgrow 64-bit
integers quickly.  A record whose fields have other JSON types is
malformed, and so is a degree string that is not canonical, ``str(int(s))
== s``: no plus sign, leading zeros, spaces or underscores, and ASCII
digits only.  The file is append-only (one atomic write per record)
and deduplicated on load; two records disagreeing on one (n, d) key are a
fatal integrity error, and so is a malformed line.  The one exception is an
unterminated final line that does not parse, the trace of a crash
mid-append: it is reported on stderr, ignored, and cut away before the next
append.  A cache hit is returned directly only for the
default quotient route, and only when a record of the key carries this
``__version__``; the other routes, and the quotient route on a key whose
records all carry another or no ``engine_version``, recompute and
cross-check against the cached value (a disagreement exits 3).  When a
recomputation agrees with a record of another version, one record of this
version is appended, so the key is trusted from then on.  Records of all
versions take part in the load-time conflict check.

All output is deterministic: orderings are fixed and the arithmetic is
exact, so a given command line is byte-identical across runs.  JSON is
emitted with sorted keys and compact separators, so parsing and re-dumping
with those options reproduces the bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from math import comb
from typing import Callable, Sequence

from . import __version__
from .foliation import (
    InternalInconsistencyError,
    METHOD_BOTH,
    METHOD_CH_PARTITION,
    METHOD_CHERN_QUOTIENT,
    closed_form,
    closed_form_full_nodes,
    degree_lpb,
    lpb_invariants,
    reference_formula,
    reference_polynomial,
    virtual_rank_check,
)
from .forms import (
    contract_radial,
    dimension_vdn,
    integrability_defect,
    pullback_linear,
    random_form,
    random_projection,
    recover,
)
from .grassmann import GrassContext

DEFAULT_CACHE_PATH = "./lpb-cache.jsonl"
CACHE_ENV_VAR = "LPB_CACHE"

# the largest foliation degree the degree commands accept: the quotient
# route enumerates about 1.5 d^2 Chern roots per degree, and its time grows
# about as d^2 (d = 400 takes about a second and 50 MB at n = 3)
MAX_D = 1000

# the largest projective dimension the degree commands accept: closed-form
# evaluates floor(9(n-2)/2) + 2 degrees, and its time grows about x2 per
# step in n (1.0 s at n = 8, 1.8 s at n = 9), but degree at (MAX_N, MAX_D)
# is the costlier corner (47 s and 229 MB at n = 8), which n = 9 would raise
MAX_N = 8

# the bounds of forms check-pullback: a trial costs about C(n+d+1, n) terms
# per coefficient, and its integrability check walks about n^2/2 triples
# (one trial takes about 1.7 s at (n, d) = (8, 3), 1.2 s at (20, 1) and
# 5.1 s and 75 MB at (2, 29), the largest d allowed; 2-vCPU host)
MAX_FORMS_N = 20
MAX_FORM_TERMS = 500
MAX_TRIALS = 1000

_METHOD_FLAGS = {
    "quotient": METHOD_CHERN_QUOTIENT,
    "chchar": METHOD_CH_PARTITION,
    "both": METHOD_BOTH,
}


class UsageError(Exception):
    """Bad command line or bad argument combination; exit code 1."""


class CacheConflictError(InternalInconsistencyError):
    """The degree cache contradicts itself or a fresh computation; exit code 3."""


class _MalformedRecord(CacheConflictError):
    """A cache line that does not parse as a degree record."""


class _Finished(Exception):
    """``--help`` or ``--version`` has printed; ``args[0]`` is the exit code."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)

    def exit(self, status: int = 0, message: str | None = None) -> None:  # type: ignore[override]
        if message:
            sys.stderr.write(message)
        raise _Finished(status)


class DegreeCache:
    """Append-only newline-delimited JSON cache of degrees keyed by (n, d)."""

    def __init__(self, path: str | None = None) -> None:
        if path is None:
            path = os.environ.get(CACHE_ENV_VAR, DEFAULT_CACHE_PATH)
        self.path = path
        self._entries: dict[tuple[int, int], int] = {}
        # keys with a record written by this engine version
        self._current: set[tuple[int, int]] = set()
        # how the next append must begin: at the byte offset of a torn final
        # line, cut away first, or on a fresh line after an unterminated one
        self._torn_at: int | None = None
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        *lines, tail = data.split(b"\n")
        for line_no, line in enumerate(lines, 1):
            self._add(line_no, line)
        if not tail:
            return
        try:
            self._add(len(lines) + 1, tail)
        except _MalformedRecord:
            # an unterminated final line that does not parse is what a crash
            # mid-append leaves; terminated malformed lines stay fatal
            print(
                f"warning: ignoring torn final line {len(lines) + 1} of cache file {self.path}",
                file=sys.stderr,
            )
            self._torn_at = len(data) - len(tail)
        else:
            self._needs_newline = True

    def _add(self, line_no: int, line: bytes) -> None:
        if not line.strip():
            return
        try:
            record = json.loads(line)
            n, d, degree = record["n"], record["d"], record["degree"]
            # exact types: int() would round 999.7 down and read true as 1
            if type(n) is not int or type(d) is not int or type(degree) is not str:
                raise TypeError("n and d must be JSON integers and degree a JSON string")
            text, degree = degree, int(degree)
            # int() also reads "1_0", " 12 ", "+12" and non-ASCII digits
            if str(degree) != text:
                raise ValueError(f"degree {text!r} is not a canonical decimal")
        except (KeyError, TypeError, ValueError) as exc:
            raise _MalformedRecord(
                f"cache file {self.path} line {line_no} is malformed: {exc}"
            ) from exc
        if degree < 0:
            raise CacheConflictError(
                f"cache file {self.path} line {line_no} holds a negative degree"
            )
        key = (n, d)
        if key in self._entries and self._entries[key] != degree:
            raise CacheConflictError(
                f"cache holds conflicting degrees for (n, d) = {key}: "
                f"{self._entries[key]} vs {degree}"
            )
        self._entries[key] = degree
        if record.get("engine_version") == __version__:
            self._current.add(key)

    def get(self, n: int, d: int) -> int | None:
        return self._entries.get((n, d))

    def put(self, n: int, d: int, degree: int) -> None:
        key = (n, d)
        known = self._entries.get(key)
        if known is not None and known != degree:
            raise CacheConflictError(
                f"cache value {known} for (n, d) = {key} disagrees with computed {degree}"
            )
        if key in self._current:
            return
        record = {"n": n, "d": d, "degree": str(degree), "engine_version": __version__}
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._torn_at is not None:
                # once terminated, the torn bytes would be a fatal malformed line
                fh.truncate(self._torn_at)
            elif self._needs_newline:
                line = "\n" + line
            fh.write(line)
        self._torn_at = None
        self._needs_newline = False
        self._entries[key] = degree
        self._current.add(key)

    def degree_fn(self, n: int) -> Callable[[int], int]:
        """A degree evaluator routed through this cache, for interpolation."""

        def fn(d: int) -> int:
            return self.resolve(n, d, METHOD_CHERN_QUOTIENT)

        return fn

    def resolve(self, n: int, d: int, method: str) -> int:
        """Degree with caching: hit short-circuits only the quotient route.

        Other routes recompute and must agree with any cached value, which
        turns the cache into one more cross-check instead of a bypass.  A
        hit that no record of this engine version backs is re-verified the
        same way on the quotient route too.
        """
        hit = self.get(n, d)
        if hit is not None and method == METHOD_CHERN_QUOTIENT and (n, d) in self._current:
            return hit
        value = degree_lpb(d, n, method=method)
        if hit is not None and hit != value:
            raise CacheConflictError(
                f"cached degree {hit} for (n, d) = ({n}, {d}) disagrees with computed {value}"
            )
        self.put(n, d, value)
        return value


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise UsageError(f"{flag} must be at least {low}")


def _at_most(flag: str, value: int, high: int) -> None:
    if value > high:
        raise UsageError(f"{flag} must be at most {high}")


def _check_positive(n: int, d: int, value: int) -> None:
    # the degree of an irreducible projective variety is positive; d < 2 is
    # outside the geometric range and exempt
    if d >= 2 and value <= 0:
        raise InternalInconsistencyError(
            f"degree at (d, n) = ({d}, {n}) must be positive, got {value}"
        )


def _frac_str(c: Fraction) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _json_dumps(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _coefficient_latex(c: Fraction, power: int) -> str:
    c = Fraction(c)
    sign = "-" if c < 0 else ""
    mag = abs(c)
    if mag.denominator == 1:
        body = str(mag.numerator)
    else:
        body = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
    if power == 0:
        return f"{sign}{body}"
    var = "d" if power == 1 else f"d^{{{power}}}"
    if mag == 1:
        return f"{sign}{var}"
    return f"{sign}{body} {var}"


def _poly_latex(coeffs: Sequence[Fraction]) -> str:
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        rendered = _coefficient_latex(c, power)
        if not pieces:
            pieces.append(rendered)
        elif rendered.startswith("-"):
            pieces.append("- " + rendered[1:])
        else:
            pieces.append("+ " + rendered)
    if not pieces:
        return "0"
    return " ".join(pieces)


def _cmd_degree(args: argparse.Namespace) -> int:
    _at_least("--n", args.n, 3)
    _at_most("--n", args.n, MAX_N)
    _at_least("--d", args.d, 0)
    _at_most("--d", args.d, MAX_D)
    cache = DegreeCache()
    value = cache.resolve(args.n, args.d, _METHOD_FLAGS[args.method])
    _check_positive(args.n, args.d, value)
    marker = " (formal)" if args.d < 2 else ""
    print(f"{value}{marker}")
    return 0


def _table_rows(n: int, d_min: int, d_max: int) -> list[tuple[int, int, int, bool]]:
    _at_least("--n", n, 3)
    _at_most("--n", n, MAX_N)
    _at_least("--d-min", d_min, 0)
    if d_min > d_max:
        raise UsageError("--d-min must not exceed --d-max")
    _at_most("--d-max", d_max, MAX_D)
    if sum((d + 2) ** 2 for d in range(d_min, d_max + 1)) > (MAX_D + 2) ** 2:
        raise UsageError(
            f"--d-min {d_min} to --d-max {d_max} asks for more work than one degree at "
            f"d = {MAX_D}: the sum of (d + 2)^2 over the rows must be at most {(MAX_D + 2) ** 2}"
        )
    cache = DegreeCache()
    rows = []
    for d in range(d_min, d_max + 1):
        value = cache.resolve(n, d, METHOD_CHERN_QUOTIENT)
        _check_positive(n, d, value)
        rows.append((n, d, value, d < 2))
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args.n, args.d_min, args.d_max)
    if args.format == "plain":
        for n, d, value, formal in rows:
            marker = " formal" if formal else ""
            print(f"n={n} d={d} degree={value}{marker}")
    elif args.format == "csv":
        print("n,d,degree,formal")
        for n, d, value, formal in rows:
            print(f"{n},{d},{value},{'true' if formal else 'false'}")
    elif args.format == "json":
        payload = [
            {"n": n, "d": d, "degree": str(value), "formal": formal}
            for n, d, value, formal in rows
        ]
        print(_json_dumps(payload))
    else:
        print("\\begin{tabular}{rrr}")
        print("n & d & \\deg \\\\")
        print("\\hline")
        for n, d, value, formal in rows:
            marker = "^{*}" if formal else ""
            print(f"{n} & {d} & {value}{marker} \\\\")
        print("\\end{tabular}")
    return 0


def _cmd_closed_form(args: argparse.Namespace) -> int:
    _at_least("--n", args.n, 3)
    _at_most("--n", args.n, MAX_N)
    cache = DegreeCache()
    poly = closed_form(args.n, cache.degree_fn(args.n))
    coeffs = [poly.coefficient(k) for k in range(poly.degree + 1)]
    if args.format == "plain":
        for k, c in enumerate(coeffs):
            print(f"d^{k}: {_frac_str(c)}")
    elif args.format == "json":
        payload = {
            "n": args.n,
            "degree": poly.degree,
            "coefficients": [_frac_str(c) for c in coeffs],
        }
        print(_json_dumps(payload))
    else:
        print(_poly_latex(coeffs))
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    cache = DegreeCache()
    engine = closed_form_full_nodes(args.n, cache.degree_fn(args.n))
    published = reference_polynomial(args.n)
    if engine == published:
        print("PASS")
        return 0
    print(f"MISMATCH for n = {args.n}: interpolated degree polynomial differs from the published form")
    top = max(engine.degree, published.degree)
    for k in range(top + 1):
        a = engine.coefficient(k)
        b = published.coefficient(k)
        if a != b:
            print(f"  d^{k}: engine={_frac_str(a)} published={_frac_str(b)}")
    return 2


def _trial_seed(seed: int, trial: int, salt: int) -> int:
    # distinct deterministic streams per trial for the form and the projection
    return seed * 1000003 + 2 * trial + salt


def _cmd_check_pullback(args: argparse.Namespace) -> int:
    _at_least("--n", args.n, 2)
    _at_most("--n", args.n, MAX_FORMS_N)
    _at_least("--d", args.d, 0)
    _at_least("--trials", args.trials, 1)
    _at_most("--trials", args.trials, MAX_TRIALS)
    _at_most("C(n+d+1, n)", comb(args.n + args.d + 1, args.n), MAX_FORM_TERMS)
    failures = 0
    for trial in range(args.trials):
        omega = random_form(2, args.d, _trial_seed(args.seed, trial, 0))
        proj = random_projection(args.n, _trial_seed(args.seed, trial, 1))
        mu = pullback_linear(proj, omega)
        problems = []
        if contract_radial(mu):
            problems.append("contraction nonzero")
        if any(defect for defect in integrability_defect(mu).values()):
            problems.append("integrability defect nonzero")
        if recover(proj, mu) != omega:
            problems.append("recovery mismatch")
        if problems:
            failures += 1
            print(f"trial {trial}: FAIL ({'; '.join(problems)})")
    print(
        f"check-pullback n={args.n} d={args.d}: "
        f"{args.trials - failures}/{args.trials} trials passed"
    )
    return 0 if failures == 0 else 2


def _selftest_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    for m, expected in ((4, 1), (5, 5), (6, 42)):
        got = GrassContext(3, m).plucker_degree()
        checks.append((f"plucker degree of G(3,{m}) = {expected}", got == expected))
    for d in range(0, 4):
        for n in (3, 4):
            value = degree_lpb(d, n, method=METHOD_BOTH)
            ok = value >= 0
            if n == 3:
                ok = ok and value == reference_formula(3, d)
            checks.append((f"degree routes agree at (d, n) = ({d}, {n})", ok))
    rank_ok = all(
        virtual_rank_check(d, 3) == (d + 1) * (d + 3) == dimension_vdn(2, d)
        for d in range(0, 11)
    )
    checks.append(("bundle rank equals (d+1)(d+3) equals dim of plane form space", rank_ok))
    checks.append(("component dimension at (d, n) = (2, 3) is 17", lpb_invariants(2, 3).dimension == 17))
    return checks


def _cmd_selftest(_: argparse.Namespace) -> int:
    failures = 0
    for name, ok in _selftest_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 2


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lpbdeg",
        description="Exact degrees of linear pullback components of foliation spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("degree", help="one exact degree")
    p.add_argument("--n", type=int, required=True, help="ambient projective dimension")
    p.add_argument("--d", type=int, required=True, help="foliation degree")
    p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="quotient")
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("table", help="degrees over a range of d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d-min", dest="d_min", type=int, required=True)
    p.add_argument("--d-max", dest="d_max", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json", "csv", "latex"), default="plain")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("closed-form", help="interpolated degree polynomial in d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("plain", "json", "latex"), default="plain")
    p.set_defaults(handler=_cmd_closed_form)

    p = sub.add_parser("verify-paper", help="compare against the published closed form")
    p.add_argument("--n", type=int, choices=(3, 4), required=True)
    p.set_defaults(handler=_cmd_verify_paper)

    p_forms = sub.add_parser("forms", help="explicit 1-form checks")
    forms_sub = p_forms.add_subparsers(dest="forms_command", metavar="subcommand", parser_class=_Parser)
    forms_sub.required = True
    p = forms_sub.add_parser("check-pullback", help="pullback identity and recovery trials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_check_pullback)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except _Finished as done:
        return done.args[0]
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # an unusable cache path; the message names the file
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        # the handlers have range-checked their arguments, so this is a fault
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
