"""``carriers.replay``, the one comparison of every sampled law: its list
and pairwise forms, its draws, and what the catalog evaluates through it."""

from collections import Counter

import pytest

from loopstable import extensions, tensorj, verifier
from loopstable.algebras import dual_numbers, rationals
from loopstable.carriers import Mismatch, Morphism, identity_morphism, preserves, replay
from loopstable.extensions import lambda_
from loopstable.tensorj import j_kernel

B = dual_numbers()
J = j_kernel(B)


def counted(f: Morphism, calls: Counter, key) -> Morphism:
    """``f`` under its own name, counting its calls under ``key``."""
    def fn(x):
        calls[key] += 1
        return f.fn(x)
    return Morphism(f.source, f.target, fn, f.name)


def scaled(f: Morphism, k: int) -> Morphism:
    return Morphism(f.source, f.target, lambda x: f.target.scale(k, f(x)), f"{k}{f.name}")


class TestLaws:
    def test_a_shared_right_factor_is_evaluated_once_per_draw(self):
        calls = Counter()
        lam = counted(lambda_(B), calls, "lam")
        ident = identity_morphism(lam.target)
        double = scaled(ident, 2)
        laws = [(double.after(lam), scaled(lam, 2), "doubling"),
                (ident.after(lam), lam, "identity"),
                (double.after(lam), double.after(lam).named("2λ again"), "renamed")]
        assert replay(laws, 5, 3) == 5
        # lam runs once per draw for all three laws, and once more inside
        # scaled(lam, 2), a map of its own
        assert calls["lam"] == 2 * 5

    def test_each_law_runs_on_every_draw_before_the_next(self):
        lam = lambda_(B)
        xs = J.draws(4, 1)
        off_at_2 = Morphism(J, lam.target, lambda x: scaled(lam, 2)(x) if x == xs[2] else lam(x),
                            "λ, doubled at the third draw")
        laws = [(lam, off_at_2, "first"), (lam, scaled(lam, 2), "second")]
        with pytest.raises(Mismatch, match="^first at sample 2$") as e:
            replay(laws, 4, 1)
        assert lam(xs[0]) and lam(xs[2]) and e.value.values == {"element": xs[2]}

    def test_on_selects_the_elements_of_a_law(self):
        calls = Counter()
        lam = lambda_(B)
        probe = counted(lam, calls, "probe")
        assert replay([(lam, lam, "all"), (lam, probe, "first two", lambda xs: xs[:2])],
                      6, 0) == 6
        assert calls["probe"] == 2

    def test_sources_draw_in_order_at_consecutive_seeds(self):
        seen = []

        def recorder(car, tag):
            def fn(x):
                seen.append((tag, x))
                return x
            return Morphism(car, car, fn, tag)

        Q = rationals()
        lead = [Q.basis_vec("1")]
        replay([(recorder(J, "j"), identity_morphism(J), "j"),
                (recorder(Q, "q"), identity_morphism(Q), "q", lambda js, qs, q2s: lead + q2s),
                (recorder(Q, "q1"), identity_morphism(Q), "q1", lambda js, qs, q2s: qs)],
               3, 5, sources=[J, Q, Q])
        assert [x for tag, x in seen if tag == "j"] == J.draws(3, 5)
        # a carrier listed twice draws two lists, at its own seed each
        assert [x for tag, x in seen if tag == "q"] == lead + Q.draws(3, 7)
        assert [x for tag, x in seen if tag == "q1"] == Q.draws(3, 6) != Q.draws(3, 7)


class TestPairs:
    def test_halves_pair_consecutive_draws(self):
        pairs = []
        law = (lambda at, x, y: pairs.append((x, y)), lambda at, x, y: None, "seen")
        replay([], 5, 2, pairs=[law], sources=[J])
        xs = J.draws(5, 2)
        assert pairs == [(xs[0], xs[1]), (xs[2], xs[3])]

    def test_pair_law_reuses_the_values_on_the_draws(self):
        calls = Counter()
        lam = counted(lambda_(B), calls, "lam")
        laws = [(lam, lam, "self")]
        replay(laws, 4, 0, pairs=[preserves(lam, "add", "λ"), preserves(lam, "mul", "λ")])
        # 4 draws, then the sum and the product of each of the 2 pairs
        assert calls["lam"] == 4 + 2 * 2

    def test_a_pair_law_names_its_pair(self):
        lam = lambda_(B)
        doubled = scaled(lam, 2)
        bad = (lambda at, x, y: lam(J.add(x, y)),
               lambda at, x, y: lam.target.add(at(doubled, x), at(lam, y)), "λ skewed")
        with pytest.raises(Mismatch, match="^λ skewed at sample 0$") as e:
            replay([], 4, 7, pairs=[bad], sources=[J])
        x, y, *_ = J.draws(4, 7)
        assert lam(x) and e.value.values == {"x": x, "y": y}

    def test_a_pair_law_pairs_the_lists_of_its_on(self):
        Q = rationals()
        pairs = []
        law = (lambda at, x, q: pairs.append((x, q)), lambda at, x, q: None, "seen", zip)
        replay([], 3, 4, pairs=[law], sources=[J, Q])
        assert pairs == list(zip(J.draws(3, 4), Q.draws(3, 5)))

    def test_a_function_of_a_pair_is_evaluated_once_per_pair(self):
        calls = Counter()

        def total(at, x, y):
            calls["total"] += 1
            return J.add(x, y)

        laws = [(lambda at, x, y: at(total, x, y), lambda at, x, y: J.add(x, y), "sum"),
                (lambda at, x, y: J.scale(2, at(total, x, y)),
                 lambda at, x, y: J.add(at(total, x, y), at(total, x, y)), "twice")]
        replay([], 6, 1, pairs=laws, sources=[J])
        assert calls["total"] == 3


# The evaluation budget of each check on `--check all --algebra builtin:dual
# --samples 3 --seed 7`: each certificate link runs exactly once on each of
# its 3 draws and on the sum and the product of the one pair, no check
# makes more `word_image` calls than listed, and appendix-m1n1 concatenates
# three times on each of its two pairs (x⋆y, ω(y)⋆ω(x) and 2x⋆2y).
LINK_CALLS = {
    "splitting-independence": 5, "tr2-homotopy": 5, "tr4-homotopies": 15,
    "pb-contraction": 5, "cylinder-classifying": 5,
}
WORD_IMAGE_CALLS = {
    "subdi1-presentations": 9, "kappa-pq": 23, "penta": 20,
    "lambda-curvature-formula": 4, "classifying-uniqueness": 42,
    "splitting-independence": 11, "cylinder-classifying": 6, "star-unit": 9,
    "star-lambda-identities": 289, "appendix-m1n1": 6,
}


def test_no_check_evaluates_more_than_before(monkeypatch):
    links, words, concats = Counter(), Counter(), Counter()
    current = [None]
    verify = extensions.HomotopyCertificate.verify

    def counting_verify(cert, samples=20, seed=0):
        chain = [counted(link, links, current[0]) for link in cert.chain]
        return verify(cert._replace(chain=chain), samples, seed)

    word_image = tensorj.word_image

    def counting_word_image(*args):
        words[current[0]] += 1
        return word_image(*args)

    concatenate = verifier.concatenate

    def counting_concatenate(*args):
        concats[current[0]] += 1
        return concatenate(*args)

    monkeypatch.setattr(verifier, "concatenate", counting_concatenate)
    monkeypatch.setattr(extensions.HomotopyCertificate, "verify", counting_verify)
    monkeypatch.setattr(tensorj, "word_image", counting_word_image)
    monkeypatch.setattr(extensions, "word_image", counting_word_image)
    for cid, entry in verifier.CATALOG.items():
        def fn(cfg, cid=cid, check=entry.fn):
            current[0] = cid
            return check(cfg)
        monkeypatch.setitem(verifier.CATALOG, cid, entry._replace(fn=fn))
    report = verifier.run_suite(["all"], verifier.CheckConfig("dual", dual_numbers(), 3, 7))
    assert not report.failed and not report.errored
    assert dict(links) == LINK_CALLS
    assert dict(concats) == {"appendix-m1n1": 6}
    over = {c: (n, WORD_IMAGE_CALLS.get(c, 0)) for c, n in words.items()
            if n > WORD_IMAGE_CALLS.get(c, 0)}
    assert over == {}
