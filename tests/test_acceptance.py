"""End-to-end acceptance checks with explicit runtime budgets.

Each test prints exactly one line, ``PASS``/``FAIL`` plus the elapsed time
and budget, so ``pytest -s tests/test_acceptance.py`` doubles as a release
report.  Budgets are wall-clock seconds; arithmetic checks are exact.
"""

from fractions import Fraction
from time import perf_counter
from typing import Callable

from lpbdeg.bundles import chern_character_graded
from lpbdeg.cli import main
from lpbdeg.exact import lagrange_interpolate
from lpbdeg.foliation import (
    METHOD_CH_PARTITION,
    METHOD_CHERN_QUOTIENT,
    closed_form,
    degree_lpb,
    lpb_invariants,
    reference_formula,
    reference_polynomial,
    virtual_rank_check,
)
from lpbdeg.forms import dimension_vdn
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import inverse_unit_series, product_shifted_linear
from root_oracle import TAUT, Dual, Sym, signed_roots_by_pairs


def _criterion(num: int, budget: float | None, label: str, body: Callable[[], None]) -> None:
    start = perf_counter()
    try:
        body()
    except BaseException:
        elapsed = perf_counter() - start
        print(f"FAIL criterion {num:02d} [{elapsed:7.2f}s] {label}")
        raise
    elapsed = perf_counter() - start
    within = budget is None or elapsed < budget
    shown = "no budget" if budget is None else f"budget {budget:g}s"
    print(f"{'PASS' if within else 'FAIL'} criterion {num:02d} [{elapsed:7.2f}s, {shown}] {label}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_01_plane_degrees():
    def body():
        for d, expected in ((2, 1320), (3, 10640), (4, 57120)):
            start = perf_counter()
            value = degree_lpb(d, 3)
            per_call = perf_counter() - start
            assert value == expected == reference_formula(3, d)
            assert per_call < 1.0, f"degree_lpb({d}, 3) took {per_call:.2f}s, budget 1s"

    _criterion(1, 3.0, "degrees at n=3 equal the closed-form values (each call under 1s)", body)


def test_criterion_02_verify_n3(tmp_cache, capsys):
    def body():
        assert main(["verify-paper", "--n", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["PASS"]
        engine = closed_form(3)
        published = reference_polynomial(3)
        for k in range(max(engine.degree, published.degree) + 1):
            assert engine.coefficient(k) == published.coefficient(k)

    _criterion(2, 10.0, "verify-paper at n=3 matches coefficient by coefficient", body)


def test_criterion_03_first_fourfold_degree():
    def body():
        assert degree_lpb(2, 4) == 739000 == reference_formula(4, 2)

    _criterion(3, 30.0, "degree at (d, n) = (2, 4) equals 739000", body)


def test_criterion_04_verify_n4(tmp_cache, capsys):
    def body():
        assert main(["verify-paper", "--n", "4"]) == 0
        assert capsys.readouterr().out.splitlines() == ["PASS"]
        assert closed_form(4).degree == 18

    _criterion(4, 600.0, "verify-paper at n=4: 19-node interpolation plus held-out node", body)


def test_criterion_05_plucker_degrees():
    def body():
        for m, expected in ((4, 1), (5, 5), (6, 42)):
            assert GrassContext(3, m).plucker_degree() == expected

    _criterion(5, 1.0, "Plucker degrees of G(3,4), G(3,5), G(3,6) are 1, 5, 42", body)


def test_criterion_06_route_agreement():
    def body():
        for n in (3, 4):
            for d in range(0, 7):
                a = degree_lpb(d, n, method=METHOD_CHERN_QUOTIENT)
                b = degree_lpb(d, n, method=METHOD_CH_PARTITION)
                assert a == b, f"routes disagree at (d, n) = ({d}, {n}): {a} vs {b}"

    _criterion(6, 120.0, "both degree routes agree on d in 0..6 for n in {3, 4}", body)


def test_criterion_07_structure_constants():
    def body():
        for d in range(0, 11):
            expected = (d + 1) * (d + 3)
            assert virtual_rank_check(d, 3) == expected == dimension_vdn(2, d)
        assert lpb_invariants(2, 3).dimension == 17

    _criterion(7, None, "bundle rank matches (d+1)(d+3) and the form-space dimension; dim at (2, 3) is 17", body)


def test_criterion_08_degree_bounds():
    def body():
        # the ring of G(3, 4) has cap and box 3, so it keeps every grade up to 3 whole
        ctx = GrassContext(3, 4)

        def sym_dual_taut(d):
            return signed_roots_by_pairs(Sym(d, Dual(TAUT)), 3)

        points = []
        for d in range(0, 6):
            ch1 = chern_character_graded(sym_dual_taut(d), ctx, 1)[1]
            points.append((Fraction(d), Fraction(dict(ch1.sorted_terms()).get((1, 0, 0), 0))))
        assert lagrange_interpolate(points).degree == 3

        for k in (1, 2, 3):
            nodes = list(range(0, 3 * k + 4))
            samples = {}
            monomials = set()
            for d in nodes:
                segre = inverse_unit_series(product_shifted_linear(sym_dual_taut(d), ctx.ring))
                samples[d] = dict(segre.graded_part(k).sorted_terms())
                monomials.update(samples[d])
            fitted = []
            for e in sorted(monomials):
                pts = [(Fraction(d), Fraction(samples[d].get(e, 0))) for d in nodes]
                fitted.append(lagrange_interpolate(pts).degree)
            assert fitted and max(fitted) == 3 * k
            assert all(deg <= 3 * k for deg in fitted)

        assert closed_form(3).degree == 9

    _criterion(8, 60.0, "coefficient growth in d is cubic per Chern degree; closed form at n=3 has degree 9", body)


def test_criterion_09_forms_suite(capsys):
    def body():
        for n in (3, 4, 5):
            for d in (1, 2, 3):
                argv = [
                    "forms",
                    "check-pullback",
                    "--n",
                    str(n),
                    "--d",
                    str(d),
                    "--trials",
                    "100",
                    "--seed",
                    str(100 * n + d),
                ]
                code = main(argv)
                out = capsys.readouterr().out
                assert code == 0, f"pullback trials failed for (n, d) = ({n}, {d}):\n{out}"

    _criterion(9, 300.0, "100 pullback, integrability and recovery trials per (n, d) in {3,4,5} x {1,2,3}", body)


def test_criterion_10_positivity():
    def body():
        # a non-integer integral or a non-positive degree raises instead of
        # returning, and the command line maps that to exit code 3
        for n in (3, 4):
            for d in range(2, 9):
                value = degree_lpb(d, n)
                assert isinstance(value, int) and value > 0

    _criterion(10, None, "degrees over d in 2..8, n in {3, 4} are positive integers", body)
