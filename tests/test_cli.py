import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import lpbdeg.cli as cli
import lpbdeg.foliation as foliation
import lpbdeg.forms as forms
from lpbdeg import UniPoly, __version__
from lpbdeg.cli import CACHE_ENV_VAR, DegreeCache, main


def _lines(capsys):
    captured = capsys.readouterr()
    return captured.out.splitlines(), captured.err.splitlines()


def test_degree_basic(tmp_cache, capsys):
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    out, err = _lines(capsys)
    assert out == ["1320"]
    assert err == []


def test_degree_formal_marker(tmp_cache, capsys):
    assert main(["degree", "--n", "3", "--d", "1"]) == 0
    out, _ = _lines(capsys)
    assert out == ["80 (formal)"]


def test_degree_methods_agree(tmp_cache, capsys):
    values = []
    for method in ("quotient", "chchar", "both"):
        assert main(["degree", "--n", "3", "--d", "2", "--method", method]) == 0
        out, _ = _lines(capsys)
        values.append(out[0])
    assert values == ["1320", "1320", "1320"]


def test_degree_writes_cache_record(tmp_cache, capsys):
    main(["degree", "--n", "3", "--d", "2"])
    capsys.readouterr()
    lines = tmp_cache.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {
        "d": 2,
        "degree": "1320",
        "engine_version": __version__,
        "n": 3,
    }
    # the record is written with sorted keys and compact separators
    assert lines[0] == json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_degree_cache_warm_run_identical(tmp_cache, capsys):
    main(["degree", "--n", "3", "--d", "3"])
    cold, _ = _lines(capsys)
    main(["degree", "--n", "3", "--d", "3"])
    warm, _ = _lines(capsys)
    assert cold == warm == ["10640"]
    assert len(tmp_cache.read_text().splitlines()) == 1


def test_degree_default_cache_path(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "lpb-cache.jsonl").exists()


def test_cache_conflicting_records_fail(tmp_cache, capsys):
    tmp_cache.write_text(
        '{"d":2,"degree":"1320","engine_version":"x","n":3}\n'
        '{"d":2,"degree":"1321","engine_version":"x","n":3}\n'
    )
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    _, err = _lines(capsys)
    assert any("internal inconsistency" in line for line in err)


def test_cache_malformed_line_fails(tmp_cache, capsys):
    tmp_cache.write_text("not json at all\n")
    assert main(["degree", "--n", "3", "--d", "2"]) == 3


_GOOD_RECORD = '{"d":2,"degree":"1320","engine_version":"x","n":3}'


def test_cache_torn_final_line_is_ignored(tmp_cache, capsys):
    # a crash mid-append leaves an unterminated fragment as the last line
    tmp_cache.write_text(_GOOD_RECORD + '\n{"d":3,"deg')
    assert main(["degree", "--n", "3", "--d", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "10640\n"
    assert "torn final line 2" in captured.err
    lines = tmp_cache.read_text().split("\n")
    assert lines[0] == _GOOD_RECORD
    assert json.loads(lines[1])["degree"] == "10640"
    assert lines[2:] == [""]
    # the next command loads cleanly and still sees the record before the tear
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    assert capsys.readouterr() == ("1320\n", "")


def test_cache_unterminated_record_is_kept(tmp_cache, capsys):
    tmp_cache.write_text(_GOOD_RECORD)
    assert main(["degree", "--n", "3", "--d", "3"]) == 0
    assert capsys.readouterr().err == ""
    lines = tmp_cache.read_text().splitlines()
    assert lines[0] == _GOOD_RECORD
    assert json.loads(lines[1])["degree"] == "10640"
    assert main(["degree", "--n", "3", "--d", "2"]) == 0


def test_cache_terminated_torn_line_fails(tmp_cache, capsys):
    tmp_cache.write_text(_GOOD_RECORD + '\n{"d":3,"deg\n')
    assert main(["degree", "--n", "3", "--d", "3"]) == 3
    assert "line 2 is malformed" in capsys.readouterr().err


def test_cache_missing_key_fails(tmp_cache):
    tmp_cache.write_text('{"n":3,"d":2}\n')
    assert main(["degree", "--n", "3", "--d", "2"]) == 3


def test_cache_negative_degree_fails(tmp_cache):
    tmp_cache.write_text('{"d":2,"degree":"-5","engine_version":"x","n":3}\n')
    assert main(["degree", "--n", "3", "--d", "2"]) == 3


def test_cache_hit_short_circuits_quotient_only(tmp_cache, capsys):
    # the default route trusts a record of this engine version; any other
    # route recomputes and cross-checks, so a poisoned record is caught as
    # soon as one runs
    tmp_cache.write_text(f'{{"d":2,"degree":"999","engine_version":"{__version__}","n":3}}\n')
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    out, _ = _lines(capsys)
    assert out == ["999"]
    assert main(["degree", "--n", "3", "--d", "2", "--method", "chchar"]) == 3
    _, err = _lines(capsys)
    assert any("disagrees" in line for line in err)


@pytest.mark.parametrize(
    "record",
    [
        '{"d":2,"degree":"999","engine_version":"x","n":3}',
        '{"d":2,"degree":"999","n":3}',
    ],
)
def test_cache_record_of_another_version_is_recomputed(tmp_cache, capsys, record):
    # a wrong record that this engine version did not write must not reach
    # stdout, even on the default route
    tmp_cache.write_text(record + "\n")
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert any("disagrees" in line for line in err)
    assert tmp_cache.read_text() == record + "\n"


def test_cache_record_of_another_version_is_confirmed_once(tmp_cache, monkeypatch, capsys):
    tmp_cache.write_text(_GOOD_RECORD + "\n")
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    assert capsys.readouterr() == ("1320\n", "")
    current = {"d": 2, "degree": "1320", "engine_version": __version__, "n": 3}
    lines = tmp_cache.read_text().splitlines()
    assert lines[0] == _GOOD_RECORD
    assert [json.loads(line) for line in lines[1:]] == [current]

    def engine_not_needed(d, n, method):
        raise RuntimeError("the confirmed record must be a plain hit")

    monkeypatch.setattr(cli, "degree_lpb", engine_not_needed)
    assert main(["degree", "--n", "3", "--d", "2"]) == 0
    assert capsys.readouterr() == ("1320\n", "")
    assert tmp_cache.read_text().splitlines() == lines


def test_degree_route_fault_detected(tmp_cache, monkeypatch, capsys):
    real = foliation.chern_character_graded

    def skewed(roots, ctx, degree):
        pieces = real(roots, ctx, degree)
        pieces[1] = pieces[1].scale(2)
        return pieces

    monkeypatch.setattr(foliation, "chern_character_graded", skewed)
    assert main(["degree", "--n", "3", "--d", "2", "--method", "both"]) == 3
    _, err = _lines(capsys)
    assert any("internal inconsistency" in line for line in err)


def test_table_plain(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "2", "--d-max", "4"]) == 0
    out, _ = _lines(capsys)
    assert out == [
        "n=3 d=2 degree=1320",
        "n=3 d=3 degree=10640",
        "n=3 d=4 degree=57120",
    ]


def test_table_plain_formal_marker(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "0", "--d-max", "1"]) == 0
    out, _ = _lines(capsys)
    assert out == ["n=3 d=0 degree=0 formal", "n=3 d=1 degree=80 formal"]


def test_table_csv(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "1", "--d-max", "2", "--format", "csv"]) == 0
    out, _ = _lines(capsys)
    assert out == ["n,d,degree,formal", "3,1,80,true", "3,2,1320,false"]


def test_table_json_round_trip_is_byte_identical(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "2", "--d-max", "3", "--format", "json"]) == 0
    out, _ = _lines(capsys)
    assert len(out) == 1
    payload = json.loads(out[0])
    assert payload == [
        {"n": 3, "d": 2, "degree": "1320", "formal": False},
        {"n": 3, "d": 3, "degree": "10640", "formal": False},
    ]
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out[0]


def test_table_latex(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "1", "--d-max", "2", "--format", "latex"]) == 0
    out, _ = _lines(capsys)
    assert out[0] == "\\begin{tabular}{rrr}"
    assert "3 & 1 & 80^{*} \\\\" in out
    assert "3 & 2 & 1320 \\\\" in out
    assert out[-1] == "\\end{tabular}"


def test_table_bad_range(tmp_cache, capsys):
    assert main(["table", "--n", "3", "--d-min", "5", "--d-max", "2"]) == 1
    _, err = _lines(capsys)
    assert any("d-min" in line for line in err)


def test_table_summed_work_bound(tmp_cache, monkeypatch, capsys):
    # the rows' (d + 2)^2 may sum to (MAX_D + 2)^2, the work of one degree at MAX_D
    monkeypatch.setattr(cli, "degree_lpb", lambda d, n, method: 1)
    assert main(["table", "--n", "3", "--d-min", str(cli.MAX_D), "--d-max", str(cli.MAX_D)]) == 0
    assert main(["table", "--n", "3", "--d-min", "0", "--d-max", "141"]) == 0
    capsys.readouterr()
    assert main(["table", "--n", "3", "--d-min", "0", "--d-max", "142"]) == 1
    assert main(["table", "--n", "3", "--d-min", str(cli.MAX_D - 1), "--d-max", str(cli.MAX_D)]) == 1
    out, err = _lines(capsys)
    assert out == []
    assert len(err) == 2 and all("(d + 2)^2" in line for line in err)


def test_closed_form_plain(tmp_cache, capsys):
    assert main(["closed-form", "--n", "3"]) == 0
    out, _ = _lines(capsys)
    assert len(out) == 10
    assert out[0] == "d^0: 0"
    assert out[9] == "d^9: 1/162"


def test_closed_form_json(tmp_cache, capsys):
    assert main(["closed-form", "--n", "3", "--format", "json"]) == 0
    out, _ = _lines(capsys)
    payload = json.loads(out[0])
    assert payload["n"] == 3
    assert payload["degree"] == 9
    assert len(payload["coefficients"]) == 10
    assert payload["coefficients"][0] == "0"
    assert payload["coefficients"][9] == "1/162"
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) == out[0]


def test_closed_form_latex(tmp_cache, capsys):
    assert main(["closed-form", "--n", "3", "--format", "latex"]) == 0
    out, _ = _lines(capsys)
    assert out[0].startswith("\\frac{1}{162} d^{9}")
    assert "d^{0}" not in out[0]  # zero constant term is dropped


def test_closed_form_populates_cache(tmp_cache, capsys):
    assert main(["closed-form", "--n", "3"]) == 0
    capsys.readouterr()
    keys = {(json.loads(line)["n"], json.loads(line)["d"]) for line in tmp_cache.read_text().splitlines()}
    # nodes 0..4, mirrored to -4-d, plus the held-out verification node 5
    assert keys == {(3, d) for d in range(0, 6)}


def test_verify_paper_uses_full_node_set(tmp_cache, capsys):
    assert main(["verify-paper", "--n", "3"]) == 0
    capsys.readouterr()
    keys = {(json.loads(line)["n"], json.loads(line)["d"]) for line in tmp_cache.read_text().splitlines()}
    # all 3g+1 nodes 2..11, without the reciprocity, plus the held-out node 12
    assert keys == {(3, d) for d in range(2, 13)}


def test_verify_paper_passes(tmp_cache, capsys):
    assert main(["verify-paper", "--n", "3"]) == 0
    out, _ = _lines(capsys)
    assert out == ["PASS"]


def test_verify_paper_mismatch_reporting(tmp_cache, monkeypatch, capsys):
    fake = UniPoly((Fraction(7),))
    monkeypatch.setattr(cli, "reference_polynomial", lambda n: fake)
    assert main(["verify-paper", "--n", "3"]) == 2
    out, _ = _lines(capsys)
    assert out[0].startswith("MISMATCH for n = 3")
    assert any(line.strip().startswith("d^0: engine=0 published=7") for line in out[1:])
    assert any("d^9: engine=1/162 published=0" in line for line in out[1:])


def test_check_pullback_runs_clean(capsys):
    argv = ["forms", "check-pullback", "--n", "3", "--d", "1", "--trials", "3", "--seed", "7"]
    assert main(argv) == 0
    first, _ = _lines(capsys)
    assert first == ["check-pullback n=3 d=1: 3/3 trials passed"]
    assert main(argv) == 0
    second, _ = _lines(capsys)
    assert second == first


def test_check_pullback_trial_runs_two_substitutions(monkeypatch, capsys):
    # the pullback along F to P^4 and the one along the section G back to
    # the plane; recover proves the form a pullback without a third
    widths = []
    full = forms.substitute_linear

    def spied(polys, rows, nvars_out):
        widths.append(nvars_out)
        return full(polys, rows, nvars_out)

    monkeypatch.setattr(forms, "substitute_linear", spied)
    assert main(["forms", "check-pullback", "--n", "4", "--d", "2", "--trials", "1", "--seed", "3"]) == 0
    out, _ = _lines(capsys)
    assert out == ["check-pullback n=4 d=2: 1/1 trials passed"]
    assert widths == [5, 3]


def test_check_pullback_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli, "recover", lambda proj, mu: None)
    argv = ["forms", "check-pullback", "--n", "3", "--d", "0", "--trials", "2", "--seed", "1"]
    assert main(argv) == 2
    out, _ = _lines(capsys)
    assert out[0] == "trial 0: FAIL (recovery mismatch)"
    assert out[-1] == "check-pullback n=3 d=0: 0/2 trials passed"


def test_check_pullback_needs_positive_trials(capsys):
    argv = ["forms", "check-pullback", "--n", "3", "--d", "1", "--trials", "0", "--seed", "7"]
    assert main(argv) == 1


def test_check_pullback_bounds_exit_one_before_work(monkeypatch, capsys):
    # nothing runs: a case inside the bounds reaches random_form and exits 3
    def not_reached(n, d, seed):
        raise RuntimeError("random_form reached")

    monkeypatch.setattr(cli, "random_form", not_reached)

    def check(n, d, trials):
        args = ["--n", str(n), "--d", str(d), "--trials", str(trials), "--seed", "0"]
        return main(["forms", "check-pullback", *args])

    big_d = next(d for d in range(100) if comb(d + 3, 2) > cli.MAX_FORM_TERMS)
    assert check(cli.MAX_FORMS_N + 1, 0, 1) == 1
    assert check(3, 1, cli.MAX_TRIALS + 1) == 1
    assert check(2, big_d, 1) == 1
    assert check(cli.MAX_FORMS_N, 0, cli.MAX_TRIALS) == 3
    assert check(2, big_d - 1, 1) == 3
    # criterion 09's grid at 100 trials and the README example stay legal
    for n, d in [(n, d) for n in (3, 4, 5) for d in (1, 2, 3)] + [(4, 2)]:
        assert check(n, d, 100) == 3
    out, err = _lines(capsys)
    assert out == []
    assert err[:3] == [
        f"error: --n must be at most {cli.MAX_FORMS_N}",
        f"error: --trials must be at most {cli.MAX_TRIALS}",
        f"error: C(n+d+1, n) must be at most {cli.MAX_FORM_TERMS}",
    ]
    assert all(line == "internal error: random_form reached" for line in err[3:])


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out, _ = _lines(capsys)
    assert out
    assert all(line.startswith("PASS ") for line in out)
    assert any("plucker" in line for line in out)


def test_selftest_reports_failures(monkeypatch, capsys):
    monkeypatch.setattr(cli, "dimension_vdn", lambda n, d: -1)
    assert main(["selftest"]) == 2
    out, _ = _lines(capsys)
    assert any(line.startswith("FAIL ") for line in out)


def test_usage_errors(tmp_cache, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["degree", "--n", "3"]) == 1  # missing --d
    assert main(["degree", "--n", "three", "--d", "2"]) == 1
    assert main([]) == 1
    capsys.readouterr()


def test_domain_errors_exit_one(tmp_cache, capsys):
    assert main(["degree", "--n", "2", "--d", "2"]) == 1
    assert main(["degree", "--n", "3", "--d", "-1"]) == 1
    _, err = _lines(capsys)
    assert any("error:" in line for line in err)


def test_argument_ranges_exit_one(tmp_cache, monkeypatch, capsys):
    def engine_not_reached(d, n, method):
        raise RuntimeError("arguments must be checked before any work")

    monkeypatch.setattr(cli, "degree_lpb", engine_not_reached)
    assert main(["table", "--n", "3", "--d-min", "-1", "--d-max", "2"]) == 1
    assert main(["degree", "--n", "3", "--d", str(cli.MAX_D + 1)]) == 1
    assert main(["table", "--n", "3", "--d-min", "2", "--d-max", str(cli.MAX_D + 1)]) == 1
    # each row is in range, but together they cost far more than one degree at MAX_D
    assert main(["table", "--n", "8", "--d-min", "0", "--d-max", "1000"]) == 1
    assert main(["closed-form", "--n", "2"]) == 1
    too_large = str(cli.MAX_N + 1)
    assert main(["degree", "--n", too_large, "--d", "2"]) == 1
    assert main(["table", "--n", too_large, "--d-min", "2", "--d-max", "3"]) == 1
    assert main(["closed-form", "--n", too_large]) == 1
    check = ["forms", "check-pullback", "--trials", "1", "--seed", "1"]
    assert main(check + ["--n", "1", "--d", "1"]) == 1
    assert main(check + ["--n", "3", "--d", "-1"]) == 1
    out, err = _lines(capsys)
    assert out == []
    assert all(line.startswith("error: ") for line in err)
    assert not tmp_cache.exists()


def test_engine_value_error_exits_three(tmp_cache, monkeypatch, capsys):
    # a ValueError from inside the engine is a fault, not a usage error
    def broken(pieces, k):
        raise ValueError("graded characters live in different rings")

    monkeypatch.setattr(foliation, "segre_via_characters", broken)
    assert main(["degree", "--n", "3", "--d", "2", "--method", "chchar"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert err == ["internal error: graded characters live in different rings"]


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_engine_bug_exits_three(tmp_cache, monkeypatch, capsys, error):
    # a bug inside the engine is a fault too, not the usage-error exit 1
    def broken(pieces, k):
        raise error("a bug in the character route")

    monkeypatch.setattr(foliation, "segre_via_characters", broken)
    assert main(["degree", "--n", "3", "--d", "2", "--method", "chchar"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert err == [f"internal error: {error('a bug in the character route')}"]


def test_engine_arithmetic_error_exits_three(monkeypatch, capsys):
    # an ArithmeticError is a fault too, not an uncaught traceback with exit 1
    def broken(self):
        raise ArithmeticError("Newton step 3 leaves a remainder 1")

    monkeypatch.setattr(cli.GrassContext, "plucker_degree", broken)
    assert main(["selftest"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert err == ["internal error: Newton step 3 leaves a remainder 1"]


def test_engine_runtime_error_exits_three(monkeypatch, capsys):
    def broken(n, seed):
        raise RuntimeError("no full-rank projection found")

    monkeypatch.setattr(cli, "random_projection", broken)
    args = ["forms", "check-pullback", "--n", "3", "--d", "2", "--trials", "1", "--seed", "0"]
    assert main(args) == 3
    out, err = _lines(capsys)
    assert out == []
    assert err == ["internal error: no full-rank projection found"]


def test_version_flag(capsys):
    # main returns the code: --version must not raise SystemExit
    assert main(["--version"]) == 0
    out, err = _lines(capsys)
    assert out == [f"lpbdeg {__version__}"]
    assert err == []


def test_module_entry_point_prints_version():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "lpbdeg", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"lpbdeg {__version__}\n", "")
    assert __version__ == "0.1.0"


def test_one_parser_answers_every_command_line_as_a_fresh_one(tmp_cache, capsys):
    # main() builds its parser once per process; the parser must keep no
    # state from one command line to the next
    lines = [
        ["degree", "--n", "3", "--d", "2"],
        ["degree", "--n", "3"],
        ["--version"],
        ["degree", "--n", "4", "--d", "2"],
    ]
    cli.build_parser.cache_clear()
    warm = []
    for argv in lines:
        warm.append((main(argv), *capsys.readouterr()))
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in warm] == [0, 1, 0, 0]
    for argv, seen in zip(lines, warm):
        cli.build_parser.cache_clear()
        assert (main(argv), *capsys.readouterr()) == seen


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["--help"], "usage: lpbdeg [-h] [--version] command ..."),
        (["degree", "--help"], "usage: lpbdeg degree [-h] --n N --d D"),
        (["forms", "check-pullback", "--help"], "usage: lpbdeg forms check-pullback [-h] --n N --d D"),
    ],
)
def test_help_returns_zero(argv, usage, capsys):
    assert main(argv) == 0
    out, err = _lines(capsys)
    assert out[0].startswith(usage)
    assert err == []


def test_degree_cache_object_roundtrip(tmp_cache):
    cache = DegreeCache()
    cache.put(3, 2, 1320)
    cache.put(3, 2, 1320)  # idempotent
    assert cache.get(3, 2) == 1320
    reloaded = DegreeCache()
    assert reloaded.get(3, 2) == 1320
    with pytest.raises(cli.CacheConflictError):
        reloaded.put(3, 2, 1321)


@pytest.mark.parametrize(
    "record",
    [
        '{"d":2,"degree":999.7,"engine_version":"x","n":3}',
        '{"d":2,"degree":1320,"engine_version":"x","n":3}',
        '{"d":2,"degree":"1320","engine_version":"x","n":true}',
        '{"d":2,"degree":"1320","engine_version":"x","n":3.0}',
        '{"d":"2","degree":"1320","engine_version":"x","n":3}',
        '{"d":false,"degree":"80","engine_version":"x","n":3}',
    ],
)
def test_cache_mistyped_record_fails(tmp_cache, capsys, record):
    # int() would read 999.7 as 999 and true as 1; only exact JSON types pass
    tmp_cache.write_text(record + "\n")
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert any("line 1 is malformed" in line for line in err)


@pytest.mark.parametrize("degree", ["1_0", " 12 ", "1320 ", "+1320", "01320", "-0", "\u0661\u0663\u0662\u0660"])
@pytest.mark.parametrize("version", ["x", __version__])
def test_cache_noncanonical_degree_fails(tmp_cache, capsys, degree, version):
    # int() reads each of these as a number; only str(int) itself passes, so
    # a record of this version cannot be returned as a trusted hit
    record = {"d": 2, "degree": degree, "engine_version": version, "n": 3}
    tmp_cache.write_text(json.dumps(record) + "\n")
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert any("line 1 is malformed" in line and "canonical" in line for line in err)


def test_cache_noncanonical_torn_final_line_is_ignored(tmp_cache, capsys):
    # an unterminated final line that does not parse is still a torn append
    tmp_cache.write_text(_GOOD_RECORD + '\n{"d":3,"degree":"10_640","engine_version":"x","n":3}')
    assert main(["degree", "--n", "3", "--d", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "10640\n"
    assert "torn final line 2" in captured.err


def test_cache_negative_degree_string_reaches_range_check(tmp_cache, capsys):
    tmp_cache.write_text('{"d":2,"degree":"-5","engine_version":"x","n":3}\n')
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    _, err = _lines(capsys)
    assert any("negative degree" in line for line in err)


@pytest.mark.parametrize("bad", [-5, 0])
@pytest.mark.parametrize(
    "argv",
    [
        ["degree", "--n", "3", "--d", "2"],
        ["table", "--n", "3", "--d-min", "2", "--d-max", "3"],
        ["closed-form", "--n", "3"],
    ],
    ids=["degree", "table", "closed-form"],
)
def test_degree_failing_positivity_is_never_cached(tmp_cache, monkeypatch, capsys, argv, bad):
    # the check runs before the append, so a bad degree never poisons the
    # file and the next run with a sound engine succeeds
    real = cli.degree_lpb
    monkeypatch.setattr(cli, "degree_lpb", lambda d, n, method: bad if (n, d) == (3, 2) else real(d, n, method))
    assert main(argv) == 3
    _, err = _lines(capsys)
    assert any(f"must be positive, got {bad}" in line for line in err)
    records = [json.loads(line) for line in tmp_cache.read_text().splitlines()] if tmp_cache.exists() else []
    assert all((r["n"], r["d"]) != (3, 2) for r in records)
    monkeypatch.setattr(cli, "degree_lpb", real)
    assert main(argv) == 0


@pytest.mark.parametrize(
    "argv", [["degree", "--n", "3", "--d", "2"], ["closed-form", "--n", "3"]], ids=["degree", "closed-form"]
)
def test_cache_hit_failing_positivity_exits_three(tmp_cache, capsys, argv):
    # a stored 0 passes the load-time sign check but not the positivity
    # check, which interpolation nodes read through the cache pass too
    tmp_cache.write_text(json.dumps({"d": 2, "degree": "0", "engine_version": __version__, "n": 3}) + "\n")
    assert main(argv) == 3
    _, err = _lines(capsys)
    assert any("must be positive, got 0" in line for line in err)


def test_cache_path_in_missing_directory_exits_three(tmp_path, monkeypatch, capsys):
    path = tmp_path / "missing" / "c.jsonl"
    monkeypatch.setenv(CACHE_ENV_VAR, str(path))
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def test_cache_path_naming_a_directory_exits_three(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    assert main(["degree", "--n", "3", "--d", "2"]) == 3
    out, err = _lines(capsys)
    assert out == []
    assert len(err) == 1 and err[0].startswith("error: ") and str(tmp_path) in err[0]
