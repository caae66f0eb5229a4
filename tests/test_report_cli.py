import importlib
import json
import math
import os
import subprocess
import sys
import types

import pytest

from ti2kit import cli
from ti2kit.cli import _parse_args
from ti2kit.report import IdentityReport, render_json, render_table
from ti2kit.verify import IDENTITY_NAMES, VerificationConfig, run_identity


def make_report(residual=1e-12, tolerance=1e-10, tail=None):
    return IdentityReport.build(
        name="corollary1",
        params={"a": 1.0},
        lhs=0.5,
        rhs=0.5 + residual,
        tolerance=tolerance,
        method_lhs="alpha",
        method_rhs="beta",
        tail_bound=tail,
    )


class TestIdentityReport:
    def test_residual_and_pass_enforced(self):
        r = make_report(residual=1e-12, tolerance=1e-10)
        assert r.abs_residual == abs(r.lhs - r.rhs)
        assert r.passed

    def test_fail_above_tolerance(self):
        r = make_report(residual=1e-8, tolerance=1e-10)
        assert not r.passed

    def test_tail_bound_extends_budget(self):
        r = make_report(residual=1e-8, tolerance=1e-10, tail=1e-7)
        assert r.passed


class TestRenderers:
    def test_empty_json(self):
        assert render_json([]) == "[]\n"

    def test_single_report_fields_and_order(self):
        r = make_report(tail=1e-9)
        obj = json.loads(render_json([r]))
        assert len(obj) == 1
        rec = obj[0]
        assert list(rec.keys()) == [
            "name",
            "params",
            "lhs",
            "rhs",
            "abs_residual",
            "tolerance",
            "tail_bound",
            "pass",
            "method_lhs",
            "method_rhs",
        ]
        assert rec["pass"] is True
        assert rec["lhs"] == 0.5

    def test_absent_fields_omitted(self):
        rec = json.loads(render_json([make_report()]))[0]
        assert "tail_bound" not in rec
        assert "terms_used" not in rec

    def test_17_significant_digits(self):
        r = IdentityReport.build(
            name="x",
            params={},
            lhs=1.0 / 3.0,
            rhs=1.0 / 3.0,
            tolerance=1e-10,
            method_lhs="m",
            method_rhs="m",
        )
        text = render_json([r])
        assert "0.33333333333333331" in text
        # exact round trip
        assert json.loads(text)[0]["lhs"] == 1.0 / 3.0

    def test_table_has_header_and_rows(self):
        text = render_table([make_report()])
        lines = text.splitlines()
        assert lines[0].startswith("identity")
        assert len(lines) == 3
        assert "corollary1" in lines[2]

    def test_empty_table_is_header_only(self):
        assert len(render_table([]).splitlines()) == 2


class TestVerifyRunners:
    def test_remark1_default(self):
        reports = run_identity("remark1", VerificationConfig(K=10))
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].abs_residual < 1e-11

    def test_theorem1_single_point(self):
        cfg = VerificationConfig(a_grid=(1.0,))
        reports = run_identity("theorem1", cfg)
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].abs_residual < 1e-9

    def test_inadmissible_grid_points_filtered(self):
        cfg = VerificationConfig(a_grid=(0.1, 1.0))
        reports = run_identity("theorem1", cfg)
        assert len(reports) == 1
        assert reports[0].params["a"] == 1.0

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            run_identity("theorem9")

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            VerificationConfig(tol=tol).validate()

    def test_run_all_passes_and_orders(self):
        reports = run_identity("all", VerificationConfig())
        assert all(r.passed for r in reports)
        names = [r.name for r in reports]
        assert names == sorted(
            names,
            key=[
                "theorem1",
                "corollary1",
                "corollary2",
                "corollary3",
                "corollary4",
                "remark1",
                "lemma1",
                "pointwise",
            ].index,
        )

    @pytest.mark.parametrize("name", IDENTITY_NAMES)
    def test_configured_tolerance_reaches_every_report(self, name):
        reports = run_identity(name, VerificationConfig(tol=0.5))
        assert reports
        assert all(r.tolerance == 0.5 for r in reports)


def assert_config_file_refused(tmp_path, capsys, text, *argv):
    # --config is gone: a config file left over from it reaches no setting
    # and runs no identity, whatever it holds.
    cfg = tmp_path / "ti2kit.cfg"
    cfg.write_text(text)
    assert cli.main([*argv, "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert "unrecognized argument '--config'" in err
    assert out == ""


# What a malformed command line leaves on stderr: the usage lines, then the
# error.
USAGE_ERROR = (
    "usage: ti2kit compute <fn> [<x> ...]\n"
    "       ti2kit verify <identity|all> [--<option> <value> ...]\n"
    "       ti2kit [compute | verify] -h | --help\n"
    "ti2kit: error: "
)
TABLE_HEAD = render_table([])


def table(*names, status="ok"):
    """What a table run's stdout must hold: the header, a row of each
    identity named, and a row marked status."""
    return (TABLE_HEAD, *(f"\n{name} " for name in names), f" {status}\n")


# Every command whose whole check is its exit code, stdout and stderr, one
# row each: (test id, argv split on spaces, exit code, stdout, stderr).
# stdout is the exact output, or a tuple of fragments it must hold; stderr is
# a prefix of the output, or None for an empty stderr.  Each row runs in
# process through cli.main as the TestCli test its id names: "name[case]" is
# one case of the parametrized test "name", and a bare name a test of its own.
COMMANDS = (
    *(
        (f"test_help_prints_the_module_docstring[{argv}]", argv, 0, cli.HELP, None)
        for argv in ("-h", "--help", "compute -h", "compute --help", "verify -h",
                     "verify --help", "verify theorem1 --help")
    ),
    # Malformed command lines; "--form" is a prefix of an option, which is
    # not accepted.
    *(
        (f"test_malformed_command_lines_exit_2_with_usage[{argv or 'no-arguments'}]", argv, 2,
         "", USAGE_ERROR)
        for argv in ("", "nosuch", "compute", "verify", "verify theorem1 extra",
                     "verify remark1 --K", "verify remark1 --K 2.5",
                     "verify remark1 --form json", "--a 2 verify theorem1", "compute ti2 -inf",
                     "compute ti2 abc", "compute ti2 --a 1", "verify remark1 --config x")
    ),
    ("test_option_like_arguments_stay_usage_errors", "compute ti2 -x", 2, "", USAGE_ERROR),
    # Settings that are gone.
    ("test_removed_workers_flag_exits_2", "verify remark1 --workers 2", 2, "",
     USAGE_ERROR + "unrecognized argument '--workers'\n"),
    ("test_removed_j_flag_exits_2", "verify lemma1 --J 40", 2, "",
     USAGE_ERROR + "unrecognized argument '--J'\n"),
    ("test_removed_n_flag_exits_2", "verify lemma1 --N 8", 2, "",
     USAGE_ERROR + "unrecognized argument '--N'\n"),
    # Well-formed command lines that ask for what does not exist.
    ("test_unknown_function_exits_2", "compute nosuch 1", 2, "",
     "error: unknown function 'nosuch'"),
    ("test_bad_arity_exits_2", "compute ti2 1 2", 2, "",
     "error: ti2 takes 1 argument(s), got 2\n"),
    ("test_verify_unknown_identity_exits_2", "verify theorem9", 2, "",
     "error: unknown identity 'theorem9'"),
    ("test_unknown_format_exits_2", "verify remark1 --format xml", 2, "",
     "config error: format must be 'json' or 'table', got 'xml'\n"),
    *(
        (f"test_non_finite_or_non_positive_tol_flag_exits_2[{tol}-{fmt}]",
         f"verify lemma1 --tol {tol} --format {fmt}", 2, "",
         "config error: tolerance must be finite and positive, got ")
        for tol in ("inf", "nan", "0", "-1e-9") for fmt in ("table", "json")
    ),
    # remark1 sums K terms directly, about 2 us each: K = 1e9 would run for
    # half an hour.
    *(
        (test_id, f"verify remark1 --K {K}", 2, "",
         f"config error: truncation K must be in 1..100000, got {K}\n")
        for test_id, K in (("test_remark1_K_above_ceiling_flag_exits_2", "100001"),
                           ("test_command[verify remark1 --K 1000000000]", "1000000000"))
    ),
    # Domain errors print no report.
    ("test_domain_error_exits_3", "compute ei 0", 3, "",
     "domain error: ei_negative requires x > 0, got 0.0\n"),
    ("test_command[compute li2 2 0]", "compute li2 2 0", 3, "",
     "domain error: z=2.0 lies on the branch cut"),
    # The bracket sum's direct terms grow as 4A/pi: A = 1e200 would never
    # finish, and a non-finite A has no term count.
    *(
        (f"test_corollary2_rejects_an_A_it_cannot_sum[{A}]",
         f"verify corollary2 --A {A} --alpha 1", 3, "",
         "domain error: corollary2: requires 0 < A <= 10000, got ")
        for A in ("1e308", "inf", "1e200", "10000.000001")
    ),
    # math.tan(inf) once raised a bare ValueError before ti2_clausen_form
    # checked theta, and zeta(200, 0.001) a bare OverflowError; both died
    # with a traceback.
    *(
        (f"test_non_finite_theta_and_zeta_past_the_float_range_exit_3[argv{i}]", argv, 3, "",
         "domain error: ")
        for i, argv in enumerate((
            "verify corollary4 --theta inf", "verify corollary4 --theta nan",
            "compute hurwitz 200 0.001", "compute hurwitz 2 inf",
            "verify pointwise --A inf --alpha 1 --format json",
        ))
    ),
    # Runs that fail, write nothing or pass.
    ("test_verify_failure_exits_1", "verify remark1 --K 10 --tol 1e-18", 1,
     table("remark1", status="FAIL"), None),
    # a = 100 is inadmissible: the run executes no check and must not pass.
    ("test_verify_with_no_admissible_point_exits_1", "verify theorem1 --a 100", 1, TABLE_HEAD,
     "error: no check ran: no grid point of 'theorem1' was admissible\n"),
    ("test_unwritable_destination_exits_4", f"verify remark1 --out {os.devnull}/report.json",
     4, "", "i/o error: "),
    ("test_verify_remark1", "verify remark1 --K 10", 0, table("remark1"), None),
    ("test_remark1_at_K_ceiling_passes", "verify remark1 --K 100000", 0, table("remark1"),
     None),
    ("test_corollary2_at_largest_A_passes", "verify corollary2 --A 1e4 --alpha 1", 0,
     table("corollary2"), None),
    *(
        (f"test_command[{argv}]", argv, 0, table(*names), None)
        for argv, names in (
            ("verify all", IDENTITY_NAMES),
            *((f"verify {name} --tol 1e-12", (name,))
              for name in ("corollary2", "corollary3", "pointwise", "lemma1")),
            ("verify corollary4 --theta 0.000001 --theta 1.570795", ("corollary4",)),
            ("verify corollary4 --theta 1.2", ("corollary4",)),
            ("verify theorem1 --a 0.46 --a 18.9", ("theorem1",)),
            ("verify theorem1 --a 0.4513 --a 18.92", ("theorem1",)),
        )
    ),
    # Printed values, 15 significant digits each.
    ("test_compute_ti2", "compute ti2 1", 0, "0.915965594177219\n", None),
    ("test_compute_phi_at_pi", "compute phi 1 3.141592653589793", 0, "2.46740110027234\n",
     None),
    ("test_compute_clausen_zero", "compute clausen2 0", 0, "0\n", None),
    ("test_compute_complex_output", "compute li2 0.3 0.2", 0,
     "0.310452975621157 0.235867921016975\n", None),
    *(
        (f"test_command[{argv}]", argv, 0, stdout, None)
        for argv, stdout in (
            ("compute ti2 0.0625", "0.0624729113350144\n"),
            ("compute ti2 0.3", "0.297092965978228\n"),
            ("compute ti2 0.4", "0.393267977327498\n"),
            ("compute ti2 2", "1.57601540344632\n"),
            ("compute ti2 1e300", "1085.06766186232\n"),
            ("compute li2 -0.5 0", "-0.448414206923646 0\n"),
            # The sign of a zero imaginary part carries through at 0 and 1 too.
            ("compute li2 1 -0", "1.64493406684823 -0\n"),
            ("compute li2 0 -0", "0 -0\n"),
            ("compute li2 0.05 0.05", "0.0499706098599233 0.0512777241784229\n"),
            ("compute li2 1.2 0.9", "0.857238739498068 1.5532975175564\n"),
            ("compute li2 0.9 0.3", "1.10498635152422 0.617053028084862\n"),
            ("compute li2 -3 2", "-2.07130716523151 0.892273167900703\n"),
            ("compute li2 1.7e308 1.7e308", "-252100.993245669 1673.07105741333\n"),
            ("compute hurwitz 1e18 1", "1\n"),
            ("compute psi 1.3", "1.67623127339097\n"),
            ("compute phi 1e308 1", "0.5\n"),
            ("compute b-of-a 3", "2.47656705551408\n"),
            ("compute b-of-a 0.4513", "3.13072021019067\n"),
            ("compute b-of-a 18.9", "3.14106140616877\n"),
            # H at A = 1e-6 once took 84 s a call; A = 1e-322 is subnormal.
            ("compute H 0.000001 1", "6.4209261593423e-07\n"),
            ("compute H 1e-322 1", "6.42285339593621e-323\n"),
            ("compute H 1e308 1", "405.331215500422\n"),
        )
    ),
)


def _check_command(capsys, argv, code, stdout, stderr):
    assert cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    if isinstance(stdout, str):
        assert out == stdout
    else:
        assert all(fragment in out for fragment in stdout), out
    if stderr is None:
        assert err == ""
    else:
        assert err.startswith(stderr), err


def _command_test(cases):
    """The TestCli test running cases, {case id: row}; the one case "" is a
    test without parameters."""
    if list(cases) == [""]:
        def test(self, capsys):
            _check_command(capsys, *cases[""])
        return test

    @pytest.mark.parametrize("row", list(cases.values()), ids=list(cases))
    def test(self, capsys, row):
        _check_command(capsys, *row)
    return test


class TestCli:
    def test_compute_negative_exponent_notation(self, capsys):
        # argparse's stock pattern took "-6.02e-05" for an unknown option.
        assert cli.main(["compute", "li2", "-6.02e-05", "0.0017"]) == 0
        re_s, im_s = capsys.readouterr().out.split()
        z = complex(-6.02e-05, 0.0017)
        series = sum(z**k / (k * k) for k in range(1, 12))  # Li2 Taylor series
        assert float(re_s) == pytest.approx(series.real, rel=1e-13, abs=0.0)
        assert float(im_s) == pytest.approx(series.imag, rel=1e-13, abs=0.0)

    def test_verify_flags_take_negative_exponent_notation(self):
        args = _parse_args(
            ["verify", "corollary2", "--A", "-2.5E+1", "--alpha", "-3e0",
             "--a", "-1e-3", "--tol", "-1.5e-9"]
        )
        assert (args.A, args.alpha, args.a, args.tol) == ([-25.0], [-3.0], [-0.001], -1.5e-9)

    @pytest.mark.parametrize("argv, code", [(["nosuch"], 2), (["-h"], 0)], ids=["nosuch", "-h"])
    def test_usage_text_survives_stripped_docstrings(self, argv, code):
        # python -OO strips docstrings, which once held the usage text.
        res = subprocess.run(
            [sys.executable, "-OO", "-m", "ti2kit.cli", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert res.returncode == code, res.stderr
        if code:
            assert res.stderr.startswith("usage: ti2kit compute")
        else:
            assert res.stdout == cli.HELP

    @pytest.mark.parametrize("argv, reference", [
        (["verify", "theorem1", "--a=2"], ["verify", "theorem1", "--a", "2"]),
        (["verify", "--a", "2", "theorem1"], ["verify", "theorem1", "--a", "2"]),
        (["verify", "--format=json", "theorem1", "--a", "3", "--a=2"],
         ["verify", "theorem1", "--a", "3", "--a", "2", "--format", "json"]),
    ], ids=lambda argv: " ".join(argv))
    def test_option_spellings_and_places_agree(self, argv, reference, capsys):
        assert cli.main(reference) == 0
        expected = capsys.readouterr().out
        assert "theorem1" in expected
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_verify_theorem1_single_a(self, capsys):
        assert cli.main(["verify", "theorem1", "--a", "1", "--format", "json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["abs_residual"] < 1e-9

    def test_json_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "corollary4", "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", "")
        reports = json.loads(out.read_text())
        assert len(reports) == 5
        assert all(r["pass"] for r in reports)

    def test_removed_workers_config_key_exits_2(self, tmp_path, capsys):
        assert_config_file_refused(tmp_path, capsys, "workers=2\n", "verify", "remark1")

    def test_removed_j_config_key_exits_2(self, tmp_path, capsys):
        assert_config_file_refused(tmp_path, capsys, "J=40\n", "verify", "lemma1")

    def test_removed_n_config_key_exits_2(self, tmp_path, capsys):
        assert_config_file_refused(tmp_path, capsys, "N=8\n", "verify", "lemma1")

    def test_pointwise_far_abscissa_is_not_vacuous(self, capsys):
        # No tail bound may cover the residual: the pole sum runs to the end.
        argv = ["verify", "pointwise", "--alpha", "1", "--A", "1e6", "--format", "json"]
        assert cli.main(argv) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["abs_residual"] < 1e-12
        assert "tail_bound" not in report

    def test_corollary3_ignores_remark1_depth(self, capsys):
        # --K is Remark 1's depth only; corollary 3 sums every bracket.
        argv = ["verify", "corollary3", "--n", "2", "--K", "1", "--format", "json"]
        assert cli.main(argv) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["abs_residual"] < 1e-12
        assert report["params"] == {"n": 2}

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_config_key_exits_2(self, tmp_path, capsys, tol, fmt):
        text = f"tol={tol}\nformat={fmt}\n"
        assert_config_file_refused(tmp_path, capsys, text, "verify", "lemma1")

    def test_domain_error_in_all_keeps_the_other_reports(self, capsys):
        # --A is corollary2's A and pointwise's abscissa: 1e5 is out of
        # corollary2's domain only.
        argv = ["verify", "all", "--alpha", "1", "--A", "1e5", "--format", "json"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        names = [r["name"] for r in json.loads(out)]
        assert set(names) == set(IDENTITY_NAMES) - {"corollary2"}
        assert "corollary2" in err and "requires 0 < A <= 10000" in err
        assert cli.main(["verify", "pointwise", "--alpha", "1", "--A", "1e5"]) == 0

    def test_remark1_K_above_ceiling_config_key_exits_2(self, tmp_path, capsys):
        assert_config_file_refused(tmp_path, capsys, "K=100001\n", "verify", "remark1")

    def test_pointwise_at_largest_abscissa_passes(self, capsys):
        argv = ["verify", "pointwise", "--alpha", "1", "--A", "1e308", "--format", "json"]
        assert cli.main(argv) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["abs_residual"] <= 1e-15


assert len({test_id for test_id, *_ in COMMANDS}) == len(COMMANDS)
_CASES = {}  # test name -> {case id: row}
for _test_id, *_row in COMMANDS:
    _name, _, _case = _test_id.removesuffix("]").partition("[")
    _CASES.setdefault(_name, {})[_case] = _row
for _name, _cases in _CASES.items():
    # A row's name must not replace a test written out above.
    assert not hasattr(TestCli, _name), _name
    setattr(TestCli, _name, _command_test(_cases))


class TestImportFootprint:
    # dataclasses pulls in inspect, ast, dis and tokenize, and fractions
    # pulls in decimal: 1.3 MB of RSS in every ti2kit process.
    @pytest.mark.parametrize("module", ["ti2kit", "ti2kit.cli"])
    def test_no_numpy_or_thread_pool_on_import(self, module):
        unwanted = ("numpy", "concurrent.futures", "dataclasses", "fractions")
        probe = (
            f"import sys, {module}; "
            f"print(sorted(m for m in {unwanted!r} if m in sys.modules))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

    # argv -> modules the process must not load: each command imports only
    # the modules it runs.
    _UNLOADED = {
        ("compute", "ti2", "1"): (
            "ti2kit.decomp", "ti2kit.endpoint", "ti2kit.special",
            "ti2kit.verify", "ti2kit.report", "json",
        ),
        ("compute", "b-of-a", "2"): (
            "ti2kit.decomp", "ti2kit.special", "ti2kit.verify", "ti2kit.report",
        ),
        ("compute", "K1"): ("ti2kit.endpoint", "ti2kit.verify", "ti2kit.report"),
        ("compute", "li2", "0.05", "0.05"): (
            "argparse", "gettext", "locale",
            "ti2kit.special", "ti2kit.ti2core", "ti2kit.endpoint", "ti2kit.decomp",
        ),
        ("verify", "theorem1", "--a", "2", "--format", "json"): ("argparse", "gettext", "locale"),
        ("verify", "theorem1"): ("ti2kit.decomp", "ti2kit.special", "json"),
        ("verify", "all"): ("json",),
    }

    @pytest.mark.parametrize("argv", list(_UNLOADED), ids=" ".join)
    def test_command_loads_only_what_it_runs(self, argv):
        unwanted = self._UNLOADED[argv]
        probe = (
            "import contextlib, io, sys, ti2kit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = ti2kit.cli.main({list(argv)!r})\n"
            f"print(code, sorted(m for m in {unwanted!r} if m in sys.modules))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0 []"

    def test_json_output_loads_json(self):
        probe = (
            "import contextlib, io, sys, ti2kit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    code = ti2kit.cli.main(['verify', 'remark1', '--format', 'json'])\n"
            "print(code, 'json' in sys.modules, len(__import__('json').loads(out.getvalue())))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "0 True 1"


# The package's modules, each with its public names in ti2kit._EXPORTS.
MODULES = ("decomp", "endpoint", "numerics", "polylog", "report", "special", "ti2core", "verify")


class TestPackageApi:
    def test_every_export_is_its_modules_object(self):
        import ti2kit

        for name in ti2kit.__all__:
            home = importlib.import_module(f"ti2kit.{ti2kit._HOME[name]}")
            value = getattr(ti2kit, name)
            assert value is getattr(home, name), name
            # Functions and classes are looked up where they are defined.
            assert getattr(value, "__module__", home.__name__) == home.__name__, name

    def test_star_import_binds_every_export(self):
        import ti2kit

        namespace: dict = {}
        exec("from ti2kit import *", namespace)
        assert set(ti2kit.__all__) <= set(namespace)
        assert namespace["ti2"] is ti2kit.ti2core.ti2

    @pytest.mark.parametrize("module", MODULES)
    def test_star_import_of_a_module_binds_its_exports(self, module):
        import ti2kit

        namespace: dict = {}
        exec(f"from ti2kit.{module} import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(ti2kit._EXPORTS[module])

    def test_package_exports(self):
        import ti2kit

        assert sorted(ti2kit._EXPORTS) == list(MODULES)
        assert len(ti2kit.__all__) == 39
        gone = {"catalan_via_endpoint", "h_quadrature", "kummer_sine_log_sum", "expint_T",
                "digamma", "phi_derivative", "li2_derivative", "find_root_increasing",
                "BracketError", "catalan_family", "corollary2_series", "lemma1_catalan",
                "pointwise_identity", "theorem1_identity", "run_all", "write_reports",
                "li2_upper_boundary", "xi_k", "BranchCutError", "PoleError"}
        assert not gone & set(ti2kit.__all__)

    def test_removed_settings_stay_removed(self):
        import inspect

        import ti2kit

        gone = (("solve_endpoint_b", "use_derivative"), ("h_series", "J"),
                ("ti2_via_quadrature", "tol"), ("VerificationConfig", "tolerances"),
                ("VerificationConfig", "out"), ("integrate_adaptive", "max_subdivisions"))
        for name, setting in gone:
            assert setting not in inspect.signature(getattr(ti2kit, name)).parameters, name
        assert "boundary" not in ti2kit.endpoint.AdmissibilityResult._fields

    def test_dir_lists_every_export_and_module(self):
        import ti2kit

        listed = dir(ti2kit)
        assert set(ti2kit.__all__) <= set(listed)
        assert {"decomp", "endpoint", "numerics", "verify"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_attribute_raises_attribute_error(self):
        import ti2kit

        with pytest.raises(AttributeError, match="no_such_name"):
            ti2kit.no_such_name
        assert not hasattr(ti2kit, "_private_helper")
        with pytest.raises(ImportError):
            exec("from ti2kit import no_such_name", {})

    def test_fresh_package_imports_no_module_until_used(self):
        probe = (
            "import sys, ti2kit\n"
            "before = sorted(m for m in sys.modules if m.startswith('ti2kit.'))\n"
            "from ti2kit import li2\n"
            "after = sorted(m for m in sys.modules if m.startswith('ti2kit.'))\n"
            "print(before, after, ti2kit.li2 is li2, 'li2' in vars(ti2kit))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[] ['ti2kit.numerics', 'ti2kit.polylog'] True True"

    def test_endpoint_commands_load_neither_ti2core_nor_report(self):
        # endpoint holds the math alone; verify builds theorem1's report.
        probe = (
            "import contextlib, io, sys, ti2kit.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [ti2kit.cli.main(argv) for argv in (['compute', 'psi', '1'],\n"
            "             ['compute', 'phi', '2', '1'], ['compute', 'b-of-a', '2'])]\n"
            "print(codes, sorted({'ti2kit.ti2core', 'ti2kit.report'} & set(sys.modules)))"
        )
        res = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[0, 0, 0] []"

    def test_lazy_globals_are_plain_modules_after_first_use(self, capsys):
        # A stand-in left in place would re-enter the import system on every
        # access, on the hot path of each verify row.
        from ti2kit import cli, report, verify

        for argv in (["verify", "all", "--format", "json"], ["compute", "li2", "1", "0"],
                     ["compute", "ti2", "1"], ["compute", "ei", "1"],
                     ["compute", "psi", "1"], ["compute", "K1"]):
            assert cli.main(argv) == 0
        lazy = {cli: ("decomp", "endpoint", "polylog", "report", "special", "ti2core", "verify"),
                verify: ("decomp", "endpoint", "special"), report: ("json",)}
        for module, names in lazy.items():
            for name in names:
                assert isinstance(vars(module)[name], types.ModuleType), (module, name)


class TestCorollaryTolerances:
    # identity -> the route its H takes; lemma1's H is K(1) = H(1, 1), which
    # it sums as the Ei series.
    _H_ROUTES = {"corollary2": "h_series", "corollary3": "h_series", "lemma1": "_h_ei_series"}

    @pytest.mark.parametrize("identity", list(_H_ROUTES))
    def test_error_of_1e11_in_H_fails_verify(self, identity, monkeypatch, capsys):
        from ti2kit import decomp
        from ti2kit.cli import main

        assert main(["verify", identity]) == 0
        route = self._H_ROUTES[identity]
        original = getattr(decomp, route)

        def shifted(*args):
            h = original(*args)
            return h._replace(value=h.value + 1e-11)

        monkeypatch.setattr(decomp, route, shifted)
        assert main(["verify", identity]) == 1

    # identity -> (module, rhs route, 1e-11 shift of the route's result);
    # b^2/4 grows by 1e-11 when b^2 grows by 4e-11.
    _RHS_SHIFTS = {
        "theorem1": (
            "endpoint",
            "aux_integral_I",
            lambda quad: quad._replace(value=quad.value + 1e-11),
        ),
        "corollary1": (
            "endpoint",
            "solve_endpoint_b",
            lambda sol: sol._replace(b=math.sqrt(sol.b * sol.b + 4e-11)),
        ),
        "corollary4": ("verify", "ti2_clausen_form", lambda v: v + 1e-11),
        "remark1": ("decomp", "remark1_partial", lambda v: v + 1e-11),
        "pointwise": ("decomp", "_xi_sum", lambda v: v + 1e-11),
    }

    @pytest.mark.parametrize("identity", list(_RHS_SHIFTS))
    def test_error_of_1e11_in_rhs_fails_verify(self, identity, monkeypatch, capsys):
        from ti2kit.cli import main

        module, route, shift = self._RHS_SHIFTS[identity]
        mod = importlib.import_module(f"ti2kit.{module}")
        assert main(["verify", identity]) == 0
        original = getattr(mod, route)
        monkeypatch.setattr(mod, route, lambda *args: shift(original(*args)))
        assert main(["verify", identity]) == 1


class TestKernelMutationMatrix:
    # Every row that reaches the dilogarithm's series.
    _LI2_ROWS = {"theorem1", "corollary1", "corollary2", "corollary3", "corollary4", "remark1"}
    # kernel -> the rows that fail on their default grids when the kernel's
    # value is scaled by 1 + 1e-9, as measured.  A row whose two sides share
    # a kernel cancels it out and cannot see it.  A 1e-9 error in
    # hurwitz_zeta stays below 1e-12 in the small pole tails of corollary2
    # and corollary3, so only lemma1 catches it.
    _ROWS = {
        "polylog._series": _LI2_ROWS,
        "polylog._li2_real": {"theorem1", "corollary1"},
        "polylog._li2_any": _LI2_ROWS,
        "polylog.clausen2": {"corollary4"},
        "ti2core._ti2_series": {"theorem1", "corollary2", "corollary3", "corollary4", "remark1"},
        "ti2core.ti2": {"theorem1", "corollary2", "corollary3", "corollary4", "remark1"},
        "ti2core.ti2_via_quadrature": {"remark1"},
        "special.hurwitz_zeta": {"lemma1"},
        "special.ei_negative": {"lemma1"},
        "special.log_gamma": {"lemma1"},
        "special._sine_log_sum": {"lemma1"},
        "special.cot_partial_fraction_sum": {"lemma1"},
        "special.digamma_gap": {"corollary2", "corollary3"},
        "special.loggamma_im_gap": {"pointwise"},
        "special.catalan_reference": {"corollary1", "corollary3", "remark1", "lemma1"},
        "numerics._gk21": {"theorem1", "corollary2", "corollary3", "remark1"},
        "decomp._xi_term": {"pointwise"},
    }

    @pytest.mark.parametrize("kernel", list(_ROWS))
    def test_scaled_kernel_fails_its_rows(self, kernel, monkeypatch):
        # The first run loads every module a row uses; then the kernel is
        # replaced under every name a module holds it by.
        assert all(r.passed for r in run_identity("all"))
        module, name = kernel.split(".")
        original = getattr(importlib.import_module(f"ti2kit.{module}"), name)

        def scaled(*args):
            value = original(*args)
            if isinstance(value, tuple):  # _gk21's (value, error estimate)
                return (value[0] * (1.0 + 1e-9),) + value[1:]
            return value * (1.0 + 1e-9)

        package = [m for n, m in list(sys.modules.items()) if n.partition(".")[0] == "ti2kit"]
        for mod in package:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, scaled)
        failing = {n for n in IDENTITY_NAMES if not all(r.passed for r in run_identity(n))}
        assert failing == self._ROWS[kernel]
