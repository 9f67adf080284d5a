"""Check catalog, runner, report determinism, and the CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from loopstable import cli, extensions, kkcat, tensorj, verifier
from loopstable.algebras import (
    BUILTIN_ALGEBRAS,
    FinAlgebra,
    dual_numbers,
    format_algebra_file,
    parse_algebra_file,
    rationals,
)
from loopstable.carriers import RAT, Morphism
from loopstable.funalg import (
    concatenate,
    function_algebra,
    make_element,
    omega,
    omega_map,
    transition,
)
from loopstable.poly import cp_norm
from loopstable.simplicial import cube
from loopstable.tensorj import JKernel, j_kernel, kappa
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

    def test_suite_validates_the_algebra_once(self, monkeypatch):
        cfg = _cfg(samples=1)  # built, and so validated, before counting
        calls = []
        validate = FinAlgebra.validate
        monkeypatch.setattr(FinAlgebra, "validate",
                            lambda A: calls.append(A) or validate(A))
        run_suite(["all"], cfg)
        # the checks build and validate algebras of their own, such as Q
        assert [A for A in calls if A is cfg.algebra] == [cfg.algebra]

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

    def test_negative_sample_count_is_rejected(self):
        # a negative count would draw nothing and pass every check
        with pytest.raises(ValueError, match="^samples must be >= 0, not -2$"):
            CheckConfig(samples=-2)

    def test_zero_samples_skip(self):
        report = run_suite(["all"], _cfg(samples=0))
        assert all(r.status == "SKIPPED" for r in report.results)
        assert not report.failed


class TestDeterminism:
    def test_json_identical_modulo_timing(self):
        a, b = (run_suite(["all"], _cfg(samples=6, seed=42)).to_dict() for _ in range(2))
        for d in (a, b):
            for r in d["results"]:
                r.pop("seconds")
        assert a == b


def _doubled_transition(fa, x):
    """The transition scaled by 2 in every value."""
    tgt, y = transition(fa, x)
    return tgt, tgt.scale(2, y)


def _doubled(f):
    """``f`` scaled by 2 in every value."""
    return Morphism(f.source, f.target, lambda x: f.target.scale(2, f(x)), f"2{f.name}")


def _words_reversed(k):
    """``k`` after reversing each word of its argument."""
    return Morphism(k.source, k.target,
                    lambda x: k(cp_norm(RAT, {w[::-1]: c for w, c in x})), k.name)


def _reversed_after(k):
    """``k`` followed by the reversal of its one loop coordinate."""
    return omega_map(k.target).after(k)


class TestFalsification:
    def test_corrupted_structure_constant_detected(self):
        corrupt = dual_numbers()
        corrupt.table[("x", "x")] = (("1", 1),)  # x·x = 1: associative, not dual
        r = run_check(
            "lambda-curvature-formula",
            _cfg(algebra=corrupt, algebra_name="dual"),
        )
        assert r.status == "FAIL"
        assert r.counterexample is not None
        assert r.counterexample["check"] == "lambda-curvature-formula"
        assert r.counterexample["algebra"] == "dual"
        assert "seed" in r.counterexample
        # the oracle law runs on the label pairs in order; x·x is the fourth
        assert r.detail == "product deviates from the recorded value at sample 3"
        assert (r.counterexample["x"], r.counterexample["y"]) == ("'x'", "'x'")
        assert set(r.counterexample) == CE_KEYS | {"x", "y"}

    def test_nonassociative_corruption_detected(self):
        corrupt = dual_numbers()
        corrupt.table[("x", "1")] = (("1", 1),)  # x·1 broken
        [r] = run_suite(["tr2-homotopy"], _cfg(algebra=corrupt)).results
        assert r.status == "FAIL" and r.counterexample is not None
        assert set(r.counterexample) > CE_KEYS

    def test_invalid_algebra_fails_every_check_and_runs_none(self, monkeypatch):
        corrupt = dual_numbers()
        corrupt.table[("x", "1")] = (("1", 1),)  # x·1 = 1, not x
        for cid, entry in CATALOG.items():
            monkeypatch.setitem(CATALOG, cid, entry._replace(fn=None))  # not callable
        report = run_suite(["all"], _cfg(algebra=corrupt))
        assert [r.check for r in report.results] == list(CATALOG)
        for r in report.results:
            assert (r.status, r.detail) == ("FAIL", "declared unit is not two-sided at sample 1")
            assert r.counterexample["check"] == r.check
            assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_dropped_sign_detected(self, monkeypatch):
        monkeypatch.setattr(kkcat, "crossing_sign", lambda n2, n3: 1)
        r = run_check("star-lambda-identities", _cfg())
        assert r.status == "FAIL"
        assert "sign" in r.counterexample

    def test_broken_transition_fails_with_its_sample(self, monkeypatch):
        # a transition doubled in every value still commutes with the
        # inclusions, but no longer with the splittings
        monkeypatch.setattr(verifier, "transition", _doubled_transition)
        r = run_check("subdi1-presentations", _cfg())
        assert r.status == "FAIL"
        assert "does not commute with the splittings" in r.detail
        assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_doubled_kernel_generator_fails_with_its_basis_vector(self, monkeypatch):
        monkeypatch.setattr(verifier, "make_element",
                            lambda fa, b, q: fa.scale(2, make_element(fa, b, q)))
        cfg = _cfg()
        r = run_check("subdi1-presentations", cfg)
        assert r.status == "FAIL"
        assert r.detail == "kernel generator deviates at sample 0"
        assert r.counterexample["element"] == repr(cfg.algebra.basis()[0])
        assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_doubled_lambda_fails_the_curvature_law_with_its_pair(self, monkeypatch):
        lambda_ = extensions.lambda_
        monkeypatch.setattr(verifier, "lambda_", lambda A: _doubled(lambda_(A)))
        r = run_check("lambda-curvature-formula", _cfg())
        assert r.status == "FAIL"
        assert r.detail == "curvature image wrong at sample 0"
        assert (r.counterexample["x"], r.counterexample["y"]) == ("'1'", "'1'")
        assert set(r.counterexample) == CE_KEYS | {"x", "y"}

    def test_dropped_extension_boundary_sign_fails_with_the_signs(self, monkeypatch):
        # the grading-one boundary of an extension triangle carries −1; without
        # it the three boundary signs read (1, 1, −1)
        extension_triangle = kkcat.extension_triangle

        def unsigned(E, n=0):
            t = extension_triangle(E, n)
            return t._replace(maps=(t.boundary._replace(pending_sign=1),) + t.maps[1:])

        monkeypatch.setattr(verifier, "extension_triangle", unsigned)
        r = run_check("triangle-boundary-signs", _cfg())
        assert r.status == "FAIL"
        assert r.detail == "boundary signs deviate"
        assert r.counterexample["signs"] == repr((1, 1, -1))
        assert set(r.counterexample) == CE_KEYS | {"signs"}

    def test_doubled_plain_map_fails_the_plain_unit_law(self, monkeypatch):
        from_algebra_map = kkcat.from_algebra_map
        monkeypatch.setattr(verifier, "from_algebra_map",
                            lambda f: from_algebra_map(_doubled(f)))
        cfg = _cfg()
        r = run_check("star-unit", cfg)
        assert r.status == "FAIL"
        assert r.detail == "plain unit law fails at sample 0"
        assert r.counterexample["element"] == repr(cfg.algebra.basis()[0])
        assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_broken_transition_breaks_the_point_factor_law(self, monkeypatch):
        # both transition laws (2) hold for any multiple of the transition,
        # since μ is linear; the point-factor law (4) holds only for the
        # transition itself
        monkeypatch.setattr(verifier, "transition", _doubled_transition)
        r = run_check("mu-properties-1-4", _cfg())
        assert r.status == "FAIL"
        assert r.detail == "point-factor unit law fails at sample 0"
        assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_concatenation_that_reverses_both_halves_fails_with_its_pair(self, monkeypatch):
        # reversing the first argument too keeps concatenation additive, but
        # the reversal no longer reverses it
        monkeypatch.setattr(verifier, "concatenate",
                            lambda fa, x, y: concatenate(fa, omega(fa, x), y))
        cfg = _cfg()
        r = run_check("appendix-m1n1", cfg)
        assert r.status == "FAIL"
        assert r.detail == "reversal does not reverse concatenation at sample 0"
        # the pairs are drawn at seed + 1, 2·max(2, samples // 3) of them
        x, y = function_algebra(cfg.algebra, cube(1), 0).draws(4, cfg.seed + 1)[:2]
        assert (r.counterexample["x"], r.counterexample["y"]) == (repr(x), repr(y))
        assert set(r.counterexample) == CE_KEYS | {"x", "y"}

    def test_concatenation_that_swaps_its_arguments_fails_with_its_pair(self, monkeypatch):
        # y⋆x keeps the reversal law (it is the law for the pair (y, x)) and
        # additivity; only its first half, y, tells it from x⋆y
        monkeypatch.setattr(verifier, "concatenate",
                            lambda fa, x, y: concatenate(fa, y, x))
        cfg = _cfg()
        r = run_check("appendix-m1n1", cfg)
        assert r.status == "FAIL"
        assert r.detail == "first half of concatenation is not its first argument at sample 0"
        x, y = function_algebra(cfg.algebra, cube(1), 0).draws(4, cfg.seed + 1)[:2]
        assert (r.counterexample["x"], r.counterexample["y"]) == (repr(x), repr(y))
        assert set(r.counterexample) == CE_KEYS | {"x", "y"}

    @pytest.mark.parametrize("mutation", [_words_reversed, _reversed_after],
                             ids=["words-reversed", "then-reversal"])
    @pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
    def test_mutated_exchange_fails_with_its_sample(self, monkeypatch, mutation, outer):
        # κ^{2,1} = κ^{1,1}[J(A)] ∘ J(κ^{1,1}[A]); one of the two levels is
        # mutated.  Reversing both levels would leave κ^{2,1} as it is,
        # since κ^{1,1} intertwines the reversal
        kappa1 = tensorj.kappa1

        def mutated(Bc, m):
            k = kappa1(Bc, m)
            return mutation(k) if isinstance(Bc, JKernel) == outer else k

        monkeypatch.setattr(tensorj, "kappa1", mutated)
        cfg = _cfg()
        r = run_check("kappa-pq", cfg)
        assert r.status == "FAIL"
        assert r.detail == ("exchange deviates from J² of the evaluation at t = 2 "
                            "at sample 0")
        x = kappa(2, 1, cfg.algebra).source.draws(cfg.samples, cfg.seed)[0]
        assert r.counterexample["element"] == repr(x)
        assert set(r.counterexample) == CE_KEYS | {"element"}

    def test_unreversed_composite_fails_before_the_equality_test(self, monkeypatch):
        # materialising the crossing sign without the reversal breaks only
        # the resolved composite.  On Q at seed 1 it first differs at the
        # third draw, while the equality test with the kernel's loop
        # classifier fails at the second: the composite is replayed on every
        # draw first, so this is a FAIL and not a NOT-FOUND
        monkeypatch.setattr(verifier, "resolve_sign", lambda h: h._replace(pending_sign=1))
        cfg = CheckConfig(algebra_name="q", algebra=rationals(), samples=4, seed=1)
        r = run_check("star-lambda-identities", cfg)
        assert r.status == "FAIL"
        assert r.detail == "resolved composite deviates from the reversed exchange at sample 2"
        x = j_kernel(j_kernel(cfg.algebra)).draws(4, 1)[2]
        assert r.counterexample["element"] == repr(x)
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

    def test_text_report_counts_every_status(self, monkeypatch):
        self._break_penta(monkeypatch)
        rep = run_suite(["penta", "star-unit"], _cfg())
        assert rep.to_text().splitlines()[-1] == "2 checks: 1 ERROR, 1 PASS"

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

    def test_list_prints_exactly_the_catalog(self, capsys):
        assert cli.main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(CATALOG)
        assert len(lines) == 15

    def test_exit_two_on_a_former_alias(self, capsys):
        assert cli.main(["--check", "clascon"]) == 2
        assert "unknown check id 'clascon'" in capsys.readouterr().err

    def test_exit_zero_on_pass(self):
        assert cli.main(["--check", "star-unit", "--samples", "4"]) == 0

    def test_exit_two_on_negative_samples(self, capsys):
        assert cli.main(["--samples", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: samples must be >= 0, not -1\n"
        assert captured.out == ""

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
        # (a·a)·a = b·a = a but a·(a·a) = a·b = 0, named by its labels
        assert err == "error: multiplication not associative at sample 0 (x='a', y=('a', 'a'))\n"

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
