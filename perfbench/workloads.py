"""The benchmark's workloads: fixed lists of `lpbdeg` command lines.

One op is one command line, run in-process through `lpbdeg.cli.main`.  The
workload seed only picks the per-cell `--seed` of `forms-grid`; it never
changes what a correct run prints, so one golden stdout per command (in
`golden.json`) holds for every seed.
"""

from __future__ import annotations

# trials per (n, d) cell of forms-grid: enough work that one pass takes a
# few seconds, small enough that several passes fit in one run
FORMS_TRIALS = 4

# (n, d) grid of acceptance criterion 09
FORMS_GRID = [(n, d) for n in (3, 4, 5) for d in (1, 2, 3)]


def forms_cell_seed(seed: int, n: int, d: int) -> int:
    """Per-cell `--seed`; workload seed 0 reproduces criterion 09's 100n + d."""
    return 100 * n + d + 1000 * seed


def _closed_form(seed: int) -> list[list[str]]:
    return [
        ["verify-paper", "--n", "3"],
        ["verify-paper", "--n", "4"],
        ["closed-form", "--n", "5", "--format", "json"],
    ]


def _route_check(seed: int) -> list[list[str]]:
    return [
        ["degree", "--n", str(n), "--d", str(d), "--method", "both"]
        for n in (5, 6, 7)
        for d in (2, 3, 4, 5)
    ]


def _forms_grid(seed: int) -> list[list[str]]:
    return [
        ["forms", "check-pullback", "--n", str(n), "--d", str(d),
         "--trials", str(FORMS_TRIALS), "--seed", str(forms_cell_seed(seed, n, d))]
        for n, d in FORMS_GRID
    ]


_COMMAND_LISTS = {
    "closed-form": _closed_form,
    "route-check": _route_check,
    "forms-grid": _forms_grid,
}

WORKLOADS = tuple(_COMMAND_LISTS)


def ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines for this seed."""
    return _COMMAND_LISTS[workload](seed)


def golden_key(argv: list[str]) -> str:
    """The command line without its `--seed` value, which output ignores."""
    if "--seed" in argv:
        i = argv.index("--seed")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


# Spans that must record at least one call on each workload.  A span at zero
# there means a rebinding was missed, so the traced run fails its self-test.
EXPECTED_CALLS = {
    "closed-form": (
        "bundles.chern_roots",
        "polyring.product_shifted_linear",
        "polyring.inverse_unit_series",
        "grassmann.integrate",
        "exact.lagrange_interpolate",
        "foliation.degree_lpb",
        "cli.DegreeCache.load",
        "cli.DegreeCache.get",
        "cli.DegreeCache.put",
    ),
    "route-check": (
        "bundles.chern_roots",
        "polyring.product_shifted_linear",
        "polyring.TruncatedPoly.mul",
        "symfunc.segre_via_characters",
        "bundles.chern_character_graded",
        "polyring.inverse_unit_series",
        "grassmann.integrate",
        "foliation.degree_lpb",
        "cli.DegreeCache.load",
        "cli.DegreeCache.get",
        "cli.DegreeCache.put",
    ),
    "forms-grid": (
        "forms.integrability_defect",
        "forms.poly_mul",
        "forms.pullback_linear",
        "forms.substitute_linear",
        "forms.recover",
        "forms.contract_radial",
        "forms.random_form",
        "forms.random_projection",
    ),
}
