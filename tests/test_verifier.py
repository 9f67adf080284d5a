"""Check catalog, runner, report determinism, and the CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from loopstable import cli, kkcat, verifier
from loopstable.algebras import (
    BUILTIN_ALGEBRAS,
    FinAlgebra,
    dual_numbers,
    format_algebra_file,
    parse_algebra_file,
)
from loopstable.funalg import transition
from loopstable.verifier import (
    CATALOG,
    CheckConfig,
    UnknownCheckError,
    resolve_check_ids,
    run_check,
    run_suite,
)


M2Q_HALF = """name: m2q-half
basis: e11 e12 e21 e22
unit: 1*e11 + 1*e22
e11*e11 = 1*e11
e11*e12 = 1*e12
e12*e21 = 1/2*e11
e12*e22 = 1*e12
e21*e11 = 1*e21
e21*e12 = 1/2*e22
e22*e21 = 1*e21
e22*e22 = 1*e22
"""


# every counterexample has these keys and at least one offending value
CE_KEYS = {"check", "algebra", "seed", "detail"}


def _cfg(**kw):
    defaults = dict(algebra_name="dual", algebra=dual_numbers(), samples=4)
    defaults.update(kw)
    return CheckConfig(**defaults)


class TestCatalog:
    def test_default_config_gets_its_own_dual(self):
        a, b = CheckConfig(), CheckConfig()
        assert a.algebra is not b.algebra
        assert a.algebra.name == b.algebra.name == dual_numbers().name

    def test_all_checks_run_clean(self):
        report = run_suite(["all"], _cfg())
        assert len(report.results) == len(CATALOG)
        assert not report.failed
        statuses = {r.check: r.status for r in report.results}
        assert statuses["star-lambda-identities"] in ("PASS", "NOT-FOUND")
        if statuses["star-lambda-identities"] == "NOT-FOUND":
            # the detail names the search that was run
            (r,) = [r for r in report.results if r.check == "star-lambda-identities"]
            assert "exact equality test" in r.detail
            assert "samples tested: 4" in r.detail
        for cid, st in statuses.items():
            if cid != "star-lambda-identities":
                assert st == "PASS", (cid, st)

    @pytest.mark.parametrize(
        "name,status", [("q", "PASS"), ("dual", "NOT-FOUND"), ("sq0", "NOT-FOUND")]
    )
    def test_star_lambda_status_per_builtin(self, name, status):
        cfg = _cfg(algebra_name=name, algebra=BUILTIN_ALGEBRAS[name](), seed=0)
        assert run_check("star-lambda-identities", cfg).status == status

    def test_catalog_order_preserved(self):
        report = run_suite(["all"], _cfg())
        assert [r.check for r in report.results] == list(CATALOG)

    def test_aliases(self):
        assert resolve_check_ids(["mu-associativity"]) == ["mu-properties-1-4"]
        assert resolve_check_ids(["clascon"]) == ["star-lambda-identities"]

    def test_unknown_id(self):
        with pytest.raises(UnknownCheckError):
            resolve_check_ids(["nope"])
        with pytest.raises(UnknownCheckError):
            run_check("nope", _cfg())

    def test_certificate_detail_counts_replayed_samples(self):
        # a certificate replays at least two samples, so that its
        # algebra-map checks see a pair; the detail reports that count
        r = run_check("pb-contraction", CheckConfig(samples=1))
        assert r.status == "PASS", r.detail
        assert r.detail == "path-algebra contraction verified on 2 samples"

    def test_cylinder_detail_counts_retract_samples(self):
        # the retract certificate replays max(min(N, 10), 2) samples, which
        # differs from the classifying formula's N at both ends
        r = run_check("cylinder-classifying", CheckConfig(samples=1))
        assert r.status == "PASS", r.detail
        assert r.detail == ("classifying formula on 1 samples, retract "
                            "homotopy on 2 samples")

    def test_zero_samples_skip(self):
        report = run_suite(["all"], _cfg(samples=0))
        assert all(r.status == "SKIPPED" for r in report.results)
        assert not report.failed


class TestDeterminism:
    def test_json_identical_modulo_timing(self):
        a = run_suite(["all"], _cfg(samples=6, seed=42))
        b = run_suite(["all"], _cfg(samples=6, seed=42))
        assert a.to_json(include_timing=False) == b.to_json(include_timing=False)

    def test_timing_fields_only_difference(self):
        a = run_suite(["tr2-homotopy"], _cfg())
        d = a.to_dict(include_timing=True)
        d2 = a.to_dict(include_timing=False)
        for r in d["results"]:
            r.pop("seconds")
        assert d == d2


class TestFalsification:
    def test_corrupted_structure_constant_detected(self):
        one = Fraction(1)
        corrupt = FinAlgebra(
            "Q[x]/(x^2)", ["1", "x"],
            {("1", "1"): (("1", one),), ("1", "x"): (("x", one),),
             ("x", "1"): (("x", one),), ("x", "x"): (("1", one),)},
            unit=(("1", one),), validate=False,
        )
        r = run_check(
            "lambda-curvature-formula",
            _cfg(algebra=corrupt, algebra_name="dual"),
        )
        assert r.status == "FAIL"
        assert r.counterexample is not None
        assert r.counterexample["check"] == "lambda-curvature-formula"
        assert r.counterexample["algebra"] == "dual"
        assert "seed" in r.counterexample
        assert set(r.counterexample) > CE_KEYS

    def test_nonassociative_corruption_detected(self):
        one = Fraction(1)
        corrupt = FinAlgebra(
            "Q[x]/(x^2)", ["1", "x"],
            {("1", "1"): (("1", one),), ("1", "x"): (("x", one),),
             ("x", "1"): (("1", one),)},  # x·1 broken
            unit=(("1", one),), validate=False,
        )
        r = run_check("tr2-homotopy", _cfg(algebra=corrupt))
        assert r.status == "FAIL" and r.counterexample is not None
        assert set(r.counterexample) > CE_KEYS

    def test_dropped_sign_detected(self, monkeypatch):
        monkeypatch.setattr(kkcat, "crossing_sign", lambda n2, n3: 1)
        r = run_check("star-lambda-identities", _cfg())
        assert r.status == "FAIL"
        assert "sign" in r.counterexample

    def test_broken_transition_fails_with_its_sample(self, monkeypatch):
        # a transition doubled in every value still commutes with the
        # inclusions, but no longer with the splittings
        def doubled(fa, x):
            tgt, y = transition(fa, x)
            return tgt, tgt.scale(2, y)

        monkeypatch.setattr(verifier, "transition", doubled)
        r = run_check("subdi1-presentations", _cfg())
        assert r.status == "FAIL"
        assert "does not commute with the splittings" in r.detail
        assert set(r.counterexample) == CE_KEYS | {"element"}


class TestInternalErrors:
    @staticmethod
    def _break_penta(monkeypatch):
        def boom(cfg):
            raise ValueError("boom")

        monkeypatch.setitem(CATALOG, "penta", CATALOG["penta"]._replace(fn=boom))

    def test_plain_exception_is_an_error_and_the_rest_still_report(self, monkeypatch):
        self._break_penta(monkeypatch)
        rep = run_suite(["penta", "star-unit"], _cfg())
        by_id = {r.check: r for r in rep.results}
        assert by_id["penta"].status == "ERROR"
        assert by_id["penta"].detail == "ValueError: boom"
        assert by_id["penta"].counterexample is None
        assert by_id["star-unit"].status == "PASS"

    def test_exit_three_wins_over_one(self, monkeypatch, capsys):
        self._break_penta(monkeypatch)
        monkeypatch.setattr(kkcat, "crossing_sign", lambda n2, n3: 1)
        code = cli.main(["--check", "penta", "--check", "star-lambda-identities",
                         "--samples", "1", "--format", "json"])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        statuses = {r["check"]: r["status"] for r in out["results"]}
        assert statuses == {"penta": "ERROR", "star-lambda-identities": "FAIL"}


class TestCLI:
    def test_list(self, capsys):
        assert cli.main(["--list"]) == 0
        out = capsys.readouterr().out
        for cid in CATALOG:
            assert cid in out

    def test_exit_zero_on_pass(self):
        assert cli.main(["--check", "star-unit", "--samples", "4"]) == 0

    def test_exit_two_on_unknown_check(self, capsys):
        assert cli.main(["--check", "bogus"]) == 2
        assert "valid ids" in capsys.readouterr().err

    def test_exit_two_on_bad_algebra(self, tmp_path, capsys):
        assert cli.main(["--algebra", "builtin:nope"]) == 2
        assert cli.main(["--algebra", "nocolon"]) == 2
        assert cli.main(["--algebra", "file:/does/not/exist.alg"]) == 2
        bad = tmp_path / "bad.alg"
        bad.write_text("basis: 1\n1*1 = 1/0*1\n")
        assert cli.main(["--algebra", f"file:{bad}"]) == 2
        assert "zero denominator" in capsys.readouterr().err
        for text in (
            "basis: x\nx*x = 1*x\nx*x = 0\n",
            "basis: x\nbasis: x y\n",
            "name: a\nname: b\nbasis: x\n",
            "basis: x\nunit: 1*x\nunit: 1*x\nx*x = 1*x\n",
        ):
            bad.write_text(text)
            assert cli.main(["--algebra", f"file:{bad}"]) == 2
            assert "repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "unit: 1*1\nbasis: 1 x\n1*1 = 1*1\n1*x = 1*x\nx*1 = 1*x\n",
        "1*1 = 1*1\n1*x = 1*x\nx*1 = 1*x\nbasis: 1 x\nunit: 1*1\n",
    ], ids=["unit-first", "products-first"])
    def test_lines_before_the_basis(self, tmp_path, capsys, text):
        # the unit and the products are read against the whole file's basis
        p = tmp_path / "late-basis.alg"
        p.write_text(text)
        assert cli.main(["--algebra", f"file:{p}", "--check",
                         "lambda-curvature-formula", "--samples", "2"]) == 0
        for bad, message in (
            ("unit: 1*y\nbasis: 1 x\n", "unknown label 'y'"),
            ("y*1 = 1*1\nbasis: 1 x\n", "unknown labels"),
            ("x*x = 0\nx*x = 1*x\nbasis: x\n", "repeated product"),
            ("unit: 1*x\nunit: 1*x\nbasis: x\n", "repeated 'unit'"),
        ):
            p.write_text(bad)
            assert cli.main(["--algebra", f"file:{p}", "--samples", "0"]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("unit", ["0", "0*1", "1*x + -1*x"])
    def test_exit_two_on_zero_unit(self, tmp_path, capsys, unit):
        # a declared unit that parses to zero is validated, not dropped
        p = tmp_path / "zero-unit.alg"
        p.write_text(f"basis: 1 x\nunit: {unit}\n1*1 = 1*1\n1*x = 1*x\n"
                     "x*1 = 1*x\n")
        assert cli.main(["--algebra", f"file:{p}", "--samples", "0"]) == 2
        assert "declared unit is not two-sided" in capsys.readouterr().err

    def test_exit_two_on_non_associative_file(self, tmp_path, capsys):
        p = tmp_path / "non-associative.alg"
        p.write_text("basis: a b\na*a = 1*b\nb*a = 1*a\n")
        assert cli.main(["--algebra", f"file:{p}", "--samples", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: multiplication not associative at (a,a,a)\n"

    def test_exit_one_on_failure(self, monkeypatch):
        monkeypatch.setattr(kkcat, "crossing_sign", lambda n2, n3: 1)
        code = cli.main(
            ["--check", "star-lambda-identities", "--samples", "4"]
        )
        assert code == 1

    def test_json_output(self, capsys):
        assert cli.main(
            ["--check", "lambda-curvature-formula", "--format", "json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["results"][0]["status"] == "PASS"
        assert data["summary"] == {"PASS": 1}

    def test_file_algebra(self, tmp_path, capsys):
        p = tmp_path / "dual.alg"
        p.write_text(format_algebra_file(dual_numbers()))
        code = cli.main(
            ["--algebra", f"file:{p}", "--check", "tr2-homotopy",
             "--samples", "4"]
        )
        assert code == 0

    def test_file_algebra_does_not_borrow_a_builtin_oracle(self, tmp_path, capsys):
        # the file's name line says "dual", but its basis is not dual's
        p = tmp_path / "named-dual.alg"
        p.write_text("name: dual\nbasis: a b\nunit: 1*a\n"
                     "a*a = 1*a\na*b = 1*b\nb*a = 1*b\n")
        code = cli.main(
            ["--algebra", f"file:{p}", "--check", "lambda-curvature-formula",
             "--format", "json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["results"][0]["status"] == "PASS"
        assert data["config"]["algebra"] == f"file:{p}"

    @pytest.mark.parametrize("seed", [0, 7])
    def test_non_integral_structure_constants(self, tmp_path, capsys, seed):
        # M2(Q) with e12 rescaled by 1/2: the same algebra, but its
        # coefficients are Fractions wherever e12*e21 and e21*e12 meet
        p = tmp_path / "m2q-half.alg"
        p.write_text(M2Q_HALF)
        A = parse_algebra_file(M2Q_HALF)
        assert A.table[("e12", "e21")] == (("e11", Fraction(1, 2)),)

        def statuses(src):
            code = cli.main(["--algebra", src, "--check", "all", "--samples",
                             "1", "--seed", str(seed), "--format", "json"])
            data = json.loads(capsys.readouterr().out)
            return code, {r["check"]: r["status"] for r in data["results"]}

        assert statuses(f"file:{p}") == statuses("builtin:m2q")

    @pytest.mark.parametrize(
        "args", [["--list"], ["--check", "star-unit", "--samples", "1"]]
    )
    def test_closed_stdout_prints_no_traceback(self, args):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        r, w = os.pipe()
        os.close(r)  # the reader is gone before the first write
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "loopstable.cli", *args],
                stdout=w, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(w)
        err = proc.stderr.decode()
        assert "Traceback" not in err and "Exception ignored" not in err
        assert proc.returncode == 0

    def test_builtin_algebras_on_a_fast_check(self):
        for name in ("q", "dual", "m2q", "sq0"):
            assert cli.main(
                ["--algebra", f"builtin:{name}",
                 "--check", "lambda-curvature-formula"]
            ) == 0
