"""Check catalog, runner, and report machinery for the verification CLI.

Each check replays one construction of the engine — presentations,
composition laws, exchange morphisms, classifying maps, homotopy
certificates — exactly, on deterministic samples.  A check either passes,
fails with a replayable counterexample, is skipped (zero samples), or
reports NOT-FOUND together with the search it ran.  A failed identity
raises :class:`~loopstable.carriers.Mismatch` with its offending values;
any other exception in a check is reported as ERROR, and the remaining
checks still run.
"""

from __future__ import annotations

import json
import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from .algebras import (
    AlgebraMap,
    FinAlgebra,
    dual_numbers,
    rationals,
)
from .carriers import Carrier, Mismatch
from .extensions import (
    alternate_path_splitting,
    classifying_map,
    mapping_cylinder,
    naturality_check,
    path_extension,
    paused_gc,
    pb_contraction_certificate,
    splitting_homotopy,
    strong_morphism_check,
    tr2_certificate,
    tr4_tower,
    universal_extension,
)
from .funalg import (
    apply_to_coefficients,
    concatenate,
    constant_function,
    d1,
    function_algebra,
    make_element,
    mu,
    omega,
    poly_family,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition,
    vanishing_scalar,
)
from .kkcat import (
    crossing_sign,
    extension_triangle,
    from_algebra_map,
    identity_hom,
    kk_hom,
    mapping_path_triangle,
    resolve_sign,
    star,
)
from .poly import qp_var
from .simplicial import cube, free_pair, interval_rel_one, point
from .tensorj import (
    Morphism,
    curvature,
    identity_morphism,
    j_kernel,
    j_of,
    kappa,
    kappa1,
    lambda_,
    replay,
    word_image,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
NOT_FOUND = "NOT-FOUND"
ERROR = "ERROR"

V0, V1, EDGE = ((0,),), ((1,),), ((0,), (1,))


class CheckConfig:
    """Configuration shared by every check: the algebra under test and
    the deterministic sampling parameters.  Without an algebra, each
    configuration gets its own dual numbers."""

    __slots__ = ("algebra_name", "algebra", "samples", "seed")

    def __init__(
        self,
        algebra_name: str = "dual",
        algebra: Optional[Carrier] = None,
        samples: int = 20,
        seed: int = 0,
    ) -> None:
        self.algebra_name = algebra_name
        self.algebra = dual_numbers() if algebra is None else algebra
        self.samples = samples
        self.seed = seed

    def echo(self) -> Dict[str, Any]:
        return {
            "algebra": self.algebra_name,
            "samples": self.samples,
            "seed": self.seed,
        }


class CheckResult(NamedTuple):
    check: str
    status: str
    detail: str
    counterexample: Optional[Dict[str, Any]]
    seconds: float

    def to_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "counterexample": self.counterexample,
        }
        if include_timing:
            d["seconds"] = round(self.seconds, 4)
        return d


# -- frozen product oracles ----------------------------------------------

# Basis products of the built-in algebras, written out literally so that a
# corrupted structure constant is caught even when the corruption preserves
# associativity.
FROZEN_PRODUCTS: Dict[str, Dict[Tuple[str, str], Tuple]] = {
    "q": {("1", "1"): (("1", 1),)},
    "dual": {
        ("1", "1"): (("1", 1),),
        ("1", "x"): (("x", 1),),
        ("x", "1"): (("x", 1),),
        ("x", "x"): (),
    },
    "sq0": {
        ("a", "a"): (),
        ("a", "b"): (),
        ("b", "a"): (),
        ("b", "b"): (),
    },
    "m2q": {
        ("e11", "e11"): (("e11", 1),),
        ("e11", "e12"): (("e12", 1),),
        ("e11", "e21"): (),
        ("e11", "e22"): (),
        ("e12", "e11"): (),
        ("e12", "e12"): (),
        ("e12", "e21"): (("e11", 1),),
        ("e12", "e22"): (("e12", 1),),
        ("e21", "e11"): (("e21", 1),),
        ("e21", "e12"): (("e22", 1),),
        ("e21", "e21"): (),
        ("e21", "e22"): (),
        ("e22", "e11"): (),
        ("e22", "e12"): (),
        ("e22", "e21"): (("e21", 1),),
        ("e22", "e22"): (("e22", 1),),
    },
}


# -- individual checks ----------------------------------------------------


def _dual_to_q() -> Tuple[FinAlgebra, FinAlgebra, Morphism]:
    B = dual_numbers()
    Q = rationals()
    g = AlgebraMap(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()})
    return B, Q, Morphism(B, Q, g.apply, "aug")


def check_subdi1_presentations(cfg: CheckConfig) -> Tuple[str, str]:
    """Replay the explicit presentations of the unsubdivided and once-
    subdivided path extension, their splittings, and the transition
    strong morphism p ↦ (p, 0)."""
    A = cfg.algebra
    E0 = path_extension(0, A, 0)
    E1 = path_extension(0, A, 1)
    S1 = cube(1)
    # kernel presentation at r=0: b ⊗ (t²−t), a single-edge family
    for l in A.labels:
        v = A.basis_vec(l)
        gen = make_element(E0.kernel, v, vanishing_scalar(S1))
        expected = ((EDGE, (((1,), A.neg(v)), ((2,), v))),)
        if gen != expected:
            raise Mismatch(f"kernel generator for basis {l!r} deviates",
                           got=gen, expected=expected)
    # splitting at r=0: b ↦ b(1−t); the oracle builds 1 − t as a constant
    # minus the coordinate, not from poly.ONE_MINUS_T, which the splitting uses
    sfa = scalar_algebra(free_pair(interval_rel_one()), 0)
    one_minus_t = sfa.sub(
        constant_function(sfa, 1), poly_family(sfa, qp_var(1, 1))
    )
    for l in A.labels:
        v = A.basis_vec(l)
        if E0.s(v) != scalar_to_base(E0.mid, one_minus_t, v):
            raise Mismatch(f"splitting formula b(1-t) fails at basis {l!r}", element=v)
    # splitting at r=1: supported on the first half, second edge zero,
    # value at the global 0-endpoint recovers the element
    second_edge = (V1, (V0, V1))
    for l in A.labels:
        v = A.basis_vec(l)
        x = E1.s(v)
        if second_edge in dict(x):
            raise Mismatch(f"subdivided splitting carries the second half at "
                           f"{l!r}", element=x)
        if d1(E1.mid, x) != v:
            raise Mismatch(f"subdivided splitting endpoint value wrong at {l!r}",
                           element=x)
    # the transition image of the kernel generator is the pair (p, 0)
    gen = make_element(E0.kernel, A.basis_vec(A.labels[0]), vanishing_scalar(S1))
    t = transition(E0.kernel, gen)[1]
    if second_edge in dict(t):
        raise Mismatch("transition of the kernel generator is not of the form "
                       "(p, 0)", element=t)
    # the transition is a strong morphism of extensions over the identity
    a = Morphism(E0.kernel, E1.kernel, lambda x: transition(E0.kernel, x)[1], "tr")
    b = Morphism(E0.mid, E1.mid, lambda x: transition(E0.mid, x)[1], "tr")
    strong_morphism_check(E0, E1, a, b, identity_morphism(A),
                          samples=min(cfg.samples, 6), seed=cfg.seed)
    naturality_check(E0, E1, a, identity_morphism(A),
                     samples=min(cfg.samples, 8), seed=cfg.seed)
    return PASS, "presentations, splittings and transition replayed exactly"


def check_mu_properties(cfg: CheckConfig) -> Tuple[str, str]:
    """The four laws of the flattening multiplication: base naturality,
    transition compatibility, associativity, and the point-factor unit
    law, each on a share of the sample budget."""
    A = cfg.algebra
    S1 = cube(1)
    q = max(1, cfg.samples // 4)
    rng = random.Random(cfg.seed)
    # (1) naturality in the base algebra, on the augmentation battery
    B, Q, g = _dual_to_q()
    inner = function_algebra(B, S1, 0)
    innerQ = function_algebra(Q, S1, 0)
    outer = function_algebra(inner, S1, 0)
    outerQ = function_algebra(innerQ, S1, 0)
    for i in range(q):
        x = sample_element(outer, rng, degree=1, terms=2)
        tgt, m = mu(outer, x)
        _, mQ = mu(
            outerQ,
            apply_to_coefficients(
                outer, x, innerQ,
                lambda c: apply_to_coefficients(inner, c, Q, g),
            ),
        )
        if mQ != apply_to_coefficients(tgt, m, Q, g):
            raise Mismatch(f"base naturality fails at sample {i}", element=x)
    # (2) compatibility with the inner and outer transitions
    innerA = function_algebra(A, S1, 0)
    innerA1 = function_algebra(A, S1, 1)
    outerA = function_algebra(innerA, S1, 0)
    outerA1 = function_algebra(innerA, S1, 1)
    outerA_i1 = function_algebra(innerA1, S1, 0)
    for i in range(q):
        x = sample_element(outerA, rng, degree=1, terms=1)
        tgt, m = mu(outerA, x)
        _, tm = transition(tgt, m)
        _, tx = transition(outerA, x)
        if mu(outerA1, tx)[1] != tm:
            raise Mismatch(f"outer transition compatibility fails at sample {i}",
                           element=x)
        x2 = apply_to_coefficients(
            outerA, x, innerA1, lambda c: transition(innerA, c)[1]
        )
        if mu(outerA_i1, x2)[1] != tm:
            raise Mismatch(f"inner transition compatibility fails at sample {i}",
                           element=x)
    # (3) associativity on triple towers
    F1 = innerA
    F11 = outerA
    F111 = function_algebra(F11, S1, 0)
    F2 = function_algebra(A, cube(2), 0)
    for i in range(q):
        z = sample_element(F111, rng, degree=1, terms=1)
        _, v1 = mu(F111, z)
        left = mu(function_algebra(F1, cube(2), 0), v1)[1]
        w1 = apply_to_coefficients(F111, z, F2, lambda c: mu(F11, c)[1])
        right = mu(function_algebra(F2, S1, 0), w1)[1]
        if left != right:
            raise Mismatch(f"associativity fails at sample {i}", element=z)
    # (4) a point outer factor acts as the transition morphism
    outer_pt = function_algebra(innerA, point(), 1)
    for i in range(q):
        x = sample_element(innerA, rng, degree=1, terms=2)
        res = mu(outer_pt, constant_function(outer_pt, x))[1]
        if res != transition(innerA, x)[1]:
            raise Mismatch(f"point-factor unit law fails at sample {i}", element=x)
    return PASS, f"laws (1)-(4) hold exactly on {4 * q} samples"


def check_kappa_pq(cfg: CheckConfig) -> Tuple[str, str]:
    """The two-level exchange morphism decomposes through the one-level
    ones: κ^{2,1} = κ^{1,1}-on-the-tower ∘ J(κ^{1,1}).

    ``kappa(2, 1, A)`` is itself built by that same expression, so this
    guards the n = 2 recursion of :func:`~loopstable.tensorj.kappa`: it
    runs, and it evaluates to one canonical result on large elements.
    It does not compare κ^{2,1} with an independent construction.
    """
    A = cfg.algebra
    rhs = kappa1(j_kernel(A), 1, 0).after(j_of(kappa(1, 1, A)))
    n = replay(kappa(2, 1, A), rhs, cfg.samples, cfg.seed, "decomposition fails")
    return PASS, f"exchange decomposition exact on {n} samples"


def check_penta(cfg: CheckConfig) -> Tuple[str, str]:
    """Compatibility of the exchange morphism with flattening: pushing a
    kernel layer through two loop coordinates one at a time agrees with
    pushing it through the flattened square."""
    A = cfg.algebra
    S1 = cube(1)
    fa1 = function_algebra(A, S1, 0)
    C2 = function_algebra(fa1, S1, 0)
    k_outer = kappa(1, 1, fa1)
    k_inner = kappa(1, 1, A)
    fa_JB1 = k_inner.target
    mu_m = Morphism(
        C2, function_algebra(A, cube(2), 0),
        lambda x: mu(C2, x)[1], "mu",
    )
    k12 = kappa(1, 2, A)
    C_JB1 = function_algebra(fa_JB1, S1, 0)
    one_at_a_time = Morphism(
        k_outer.source, k12.target,
        lambda x: mu(C_JB1, apply_to_coefficients(
            k_outer.target, k_outer(x), fa_JB1, k_inner))[1],
        "mu∘kappa∘kappa",
    )
    n = replay(one_at_a_time, k12.after(j_of(mu_m)), cfg.samples, cfg.seed,
               "exchange/flattening square fails")
    return PASS, f"exchange commutes with flattening on {n} samples"


def check_lambda_curvature(cfg: CheckConfig) -> Tuple[str, str]:
    """λ sends each curvature element b ⊗ b′ to the family bb′·(t²−t),
    with the basis products compared against a frozen oracle for the
    built-in algebras."""
    A = cfg.algebra
    S1 = cube(1)
    lam = lambda_(A)
    fa = function_algebra(A, S1, 0)
    V = vanishing_scalar(S1)
    oracle = FROZEN_PRODUCTS.get(cfg.algebra_name)
    for la in A.labels:
        for lb in A.labels:
            a, b = A.basis_vec(la), A.basis_vec(lb)
            if oracle is not None:
                if (la, lb) not in oracle:
                    raise Mismatch(f"basis pair ({la},{lb}) missing from the "
                                   "product oracle", pair=(la, lb))
                prod = oracle[(la, lb)]
                if A.mul(a, b) != prod:
                    raise Mismatch(f"product {la}·{lb} deviates from the recorded "
                                   "value", got=A.mul(a, b), expected=prod)
            else:
                prod = A.mul(a, b)
            x = curvature(A, a, b)
            if lam(x) != scalar_to_base(fa, V, prod):
                raise Mismatch(f"curvature image wrong at basis pair ({la},{lb})",
                               element=x)
    n = len(A.labels) ** 2
    return PASS, f"curvature formula exact on all {n} basis pairs"


def check_classifying_uniqueness(cfg: CheckConfig) -> Tuple[str, str]:
    """Classifying maps commute with three constructed strong morphisms:
    base change of the universal extension, base change of the path
    extension, and the subdivision transition.  (Fixed two-algebra
    battery, independent of the configured algebra.)"""
    B, Q, gm = _dual_to_q()
    n = max(3, min(cfg.samples, 10))
    # 1. base change of the universal extension
    U1, U2 = universal_extension(B), universal_extension(Q)
    ta1, ta2 = U1.mid, U2.mid
    a1 = j_of(gm)
    b1 = Morphism(
        ta1, ta2,
        lambda x: word_image(ta1, x, lambda l: ta2.sigma(gm(l)), ta2),
        "T(aug)",
    )
    strong_morphism_check(U1, U2, a1, b1, gm, samples=n, seed=cfg.seed)
    naturality_check(U1, U2, a1, gm, samples=n, seed=cfg.seed)
    # 2. base change of the path extension
    E1, E2 = path_extension(0, B, 0), path_extension(0, Q, 0)
    a2 = Morphism(
        E1.kernel, E2.kernel,
        lambda x: apply_to_coefficients(E1.kernel, x, Q, gm), "aug*",
    )
    b2 = Morphism(
        E1.mid, E2.mid,
        lambda x: apply_to_coefficients(E1.mid, x, Q, gm), "aug*",
    )
    strong_morphism_check(E1, E2, a2, b2, gm, samples=n, seed=cfg.seed)
    naturality_check(E1, E2, a2, gm, samples=n, seed=cfg.seed)
    # 3. subdivision transition
    E0, E1s = path_extension(0, B, 0), path_extension(0, B, 1)
    a3 = Morphism(E0.kernel, E1s.kernel,
                  lambda x: transition(E0.kernel, x)[1], "tr")
    naturality_check(E0, E1s, a3, identity_morphism(B), samples=n, seed=cfg.seed)
    return PASS, f"3 strong morphisms natural on {n} samples each"


def check_splitting_independence(cfg: CheckConfig) -> Tuple[str, str]:
    """Two module splittings of the path extension give linearly
    interpolated classifying maps; the interpolation's faces are the two
    classifying maps exactly."""
    A = cfg.algebra
    E = path_extension(0, A, 0)
    s2 = alternate_path_splitting(A, E.mid)
    cert = splitting_homotopy(E, s2)
    n = cert.verify(samples=cfg.samples, seed=cfg.seed)
    return PASS, f"interpolation certificate verified on {n} samples"


def check_tr2_homotopy(cfg: CheckConfig) -> Tuple[str, str]:
    """The rotation homotopy of the mapping-path triangle."""
    cert = tr2_certificate(identity_morphism(cfg.algebra))
    n = cert.verify(samples=cfg.samples, seed=cfg.seed)
    return PASS, f"rotation homotopy verified on {n} samples"


def check_tr4_homotopies(cfg: CheckConfig) -> Tuple[str, str]:
    """The tower-of-three data: the double-path projection's section, the
    two-link homotopy, and the contraction of the projection kernel."""
    A = cfg.algebra
    ida = identity_morphism(A)
    tw = tr4_tower(ida, ida)
    replay(tw.theta.after(tw.section_theta), identity_morphism(tw.mp_a.mid),
           cfg.samples, cfg.seed, "section identity fails")
    # the endpoints and chaining of [H1, rev H2]: H1(0) = ξ∘θ,
    # H1(1) = H2(1), H2(0) = the projection
    n = tw.triangle.verify(samples=cfg.samples, seed=cfg.seed)
    tw.ker_theta_contraction.verify(samples=cfg.samples, seed=cfg.seed)
    if n == cfg.samples:
        return PASS, f"section, homotopies and kernel contraction on {n} samples"
    return PASS, (f"section on {cfg.samples} samples, homotopies and kernel "
                  f"contraction on {n} samples")


def check_pb_contraction(cfg: CheckConfig) -> Tuple[str, str]:
    """The contraction of the path algebra."""
    cert = pb_contraction_certificate(cfg.algebra)
    n = cert.verify(samples=cfg.samples, seed=cfg.seed)
    return PASS, f"path-algebra contraction verified on {n} samples"


def check_cylinder_classifying(cfg: CheckConfig) -> Tuple[str, str]:
    """The mapping-cylinder extension classifies to the reversed loop
    inclusion, and its retract homotopy verifies."""
    A = cfg.algebra
    cyl = mapping_cylinder(identity_morphism(A))
    lam = lambda_(A)
    loop = lam.target
    rev = Morphism(loop, loop, lambda x: omega(loop, x), "rev")
    replay(classifying_map(cyl.extension), cyl.mp.iota.after(rev).after(lam),
           cfg.samples, cfg.seed, "classifying map deviates")
    n = cyl.retract.verify(samples=min(cfg.samples, 10), seed=cfg.seed)
    if n == cfg.samples:
        return PASS, f"classifying formula and retract homotopy on {n} samples"
    return PASS, (f"classifying formula on {cfg.samples} samples, retract "
                  f"homotopy on {n} samples")


def check_star_unit(cfg: CheckConfig) -> Tuple[str, str]:
    """Identity morphisms are units for the ⋆ composition, on plain maps
    and on the degree-shift representative of λ."""
    A = cfg.algebra
    JA = j_kernel(A)
    lam = lambda_(A)
    idA = identity_morphism(A)
    # plain composition with the identity
    h = star(identity_hom(A), from_algebra_map(idA))
    for l in A.labels:
        v = A.basis_vec(l)
        if h.rep(v) != v:
            raise Mismatch(f"plain unit law fails at basis {l!r}", element=v)
    # the degree-shift unit absorbed on the right
    id_JA = kk_hom((A, 1), (JA, 0), 0, identity_morphism(JA))
    lamH = kk_hom((JA, 0), (A, 1), 0, lam)
    hr = star(lamH, id_JA)
    if hr.pending_sign != 1 or hr.v != 0:
        raise Mismatch("unit composite has wrong index data",
                       sign=hr.pending_sign, v=hr.v)
    n = replay(hr.rep, lam, cfg.samples, cfg.seed, "unit absorption fails")
    # the graded identity on the shifted object
    h1 = star(identity_hom(A, 1), lamH)
    if h1.pending_sign != 1:
        raise Mismatch("graded unit composite has a pending sign",
                       sign=h1.pending_sign)
    replay(h1.rep, lam, min(cfg.samples, 10), cfg.seed + 1, "graded unit law fails")
    return PASS, f"unit laws exact on {n} samples"


def check_star_lambda(cfg: CheckConfig) -> Tuple[str, str]:
    """The two composites of λ with the degree-shift unit: one is λ on
    the nose; the other carries the crossing sign and resolves to the
    reversed exchange composite.  The latter is compared with the loop
    classifier of the kernel by exact equality on a few samples."""
    A = cfg.algebra
    JA = j_kernel(A)
    lam = lambda_(A)
    id_JA = kk_hom((A, 1), (JA, 0), 0, identity_morphism(JA))
    lamH = kk_hom((JA, 0), (A, 1), 0, lam)
    # right unit: λ ⋆ id = λ exactly
    replay(star(lamH, id_JA).rep, lam, cfg.samples, cfg.seed,
           "right unit composite deviates from λ")
    # left composite: carries the crossing sign of one kernel layer past
    # one loop coordinate
    h = star(id_JA, lamH, resolve=False)
    if h.pending_sign != crossing_sign(1, 1) or h.pending_sign != -1:
        raise Mismatch("crossing sign missing on the left composite",
                       sign=h.pending_sign)
    hres = resolve_sign(h)
    if hres.pending_sign != 1:
        raise Mismatch("sign did not materialize", sign=hres.pending_sign)
    k11 = kappa(1, 1, A)
    jlam = j_of(lam)
    faJ = k11.target
    xs2 = hres.rep.source.draws(min(cfg.samples, 10), cfg.seed)
    reps = []  # hres.rep on xs2, shared by both comparisons
    for i, x in enumerate(xs2):
        rep = hres.rep(x)
        if rep != omega(faJ, k11(jlam(x))):
            raise Mismatch(f"resolved composite deviates from the reversed "
                           f"exchange at sample {i}", element=x)
        reps.append(rep)
    # compare against the loop classifier of the kernel, by exact equality
    lamJ = lambda_(JA)
    n = min(len(xs2), 4)
    if any(rep != lamJ(x) for x, rep in zip(xs2[:n], reps)):
        return NOT_FOUND, (
            "unit and sign identities exact; an exact equality test found "
            "the left composite unequal to the kernel's loop classifier "
            f"(samples tested: {n}); no homotopy search was run"
        )
    return PASS, "left composite equal to the kernel's loop classifier"


def check_triangle_signs(cfg: CheckConfig) -> Tuple[str, str]:
    """Boundary signs of the two triangle constructors alternate with the
    grading, and the extension boundary at grading zero is λ."""
    A = cfg.algebra
    lam = lambda_(A)
    E = path_extension(0, A, 0)
    t0 = extension_triangle(E, 0)
    t1 = extension_triangle(E, 1)
    tm = mapping_path_triangle(identity_morphism(A), 0)
    if (t0.boundary.pending_sign, t1.boundary.pending_sign,
            tm.boundary.pending_sign) != (1, -1, -1):
        raise Mismatch("boundary signs deviate",
                       signs=(t0.boundary.pending_sign, t1.boundary.pending_sign,
                              tm.boundary.pending_sign))
    replay(t0.boundary.rep, lam, min(cfg.samples, 10), cfg.seed,
           "grading-zero extension boundary deviates from λ")
    return PASS, "boundary signs and the grading-zero boundary replayed"


def check_appendix_m1n1(cfg: CheckConfig) -> Tuple[str, str]:
    """One-coordinate interplay of reversal, concatenation and the
    exchange morphism: κ intertwines the reversal, reversal reverses
    concatenation, and both operations are algebra maps."""
    A = cfg.algebra
    S1 = cube(1)
    fa = function_algebra(A, S1, 0)
    om = Morphism(fa, fa, lambda x: omega(fa, x), "rev")
    k11 = kappa(1, 1, A)
    faJ = k11.target
    omJ = Morphism(faJ, faJ, lambda y: omega(faJ, y), "rev")
    n = max(2, cfg.samples // 3)
    replay(k11.after(j_of(om)), omJ.after(k11), n, cfg.seed,
           "exchange does not intertwine the reversal")
    rng = random.Random(cfg.seed + 1)
    for i in range(n):
        x = sample_element(fa, rng)
        y = sample_element(fa, rng)
        fa1, c = concatenate(fa, x, y)
        _, rev_first = concatenate(fa, omega(fa, y), omega(fa, x))
        if omega(fa1, c) != rev_first:
            raise Mismatch(f"reversal does not reverse concatenation at sample "
                           f"{i}", x=x, y=y)
        # both operations are additive and the reversal is multiplicative
        if omega(fa, fa.add(x, y)) != fa.add(omega(fa, x), omega(fa, y)):
            raise Mismatch(f"reversal not additive at sample {i}", x=x, y=y)
        if omega(fa, fa.mul(x, y)) != fa.mul(omega(fa, x), omega(fa, y)):
            raise Mismatch(f"reversal not multiplicative at sample {i}", x=x, y=y)
        _, cs = concatenate(fa, fa.add(x, x), fa.add(y, y))
        if cs != fa1.add(c, c):
            raise Mismatch(f"concatenation not additive at sample {i}", x=x, y=y)
    return PASS, f"reversal/concatenation/exchange identities on {3 * n} samples"


# -- catalog ---------------------------------------------------------------


class CatalogEntry(NamedTuple):
    description: str
    fn: Callable[[CheckConfig], Tuple[str, str]]


CATALOG: Dict[str, CatalogEntry] = {
    "subdi1-presentations": CatalogEntry(
        "path-extension presentations, splittings and the subdivision "
        "strong morphism", check_subdi1_presentations),
    "mu-properties-1-4": CatalogEntry(
        "the four laws of the flattening multiplication", check_mu_properties),
    "kappa-pq": CatalogEntry(
        "two-level exchange morphism decomposition", check_kappa_pq),
    "penta": CatalogEntry(
        "exchange morphism versus flattening", check_penta),
    "lambda-curvature-formula": CatalogEntry(
        "loop classifier on curvature elements against frozen products",
        check_lambda_curvature),
    "classifying-uniqueness": CatalogEntry(
        "naturality of classifying maps along strong morphisms",
        check_classifying_uniqueness),
    "splitting-independence": CatalogEntry(
        "classifying maps of two splittings are homotopic by interpolation",
        check_splitting_independence),
    "tr2-homotopy": CatalogEntry(
        "rotation homotopy of the mapping-path triangle", check_tr2_homotopy),
    "tr4-homotopies": CatalogEntry(
        "tower-of-three section, homotopies and kernel contraction",
        check_tr4_homotopies),
    "pb-contraction": CatalogEntry(
        "contraction of the path algebra", check_pb_contraction),
    "cylinder-classifying": CatalogEntry(
        "mapping-cylinder classifying map and retract", check_cylinder_classifying),
    "star-unit": CatalogEntry(
        "identity units for the graded composition", check_star_unit),
    "star-lambda-identities": CatalogEntry(
        "composites of λ with the degree-shift unit, with crossing sign",
        check_star_lambda),
    "triangle-boundary-signs": CatalogEntry(
        "alternating boundary signs of triangle constructors",
        check_triangle_signs),
    "appendix-m1n1": CatalogEntry(
        "reversal, concatenation and exchange at one coordinate",
        check_appendix_m1n1),
}

ALIASES: Dict[str, str] = {
    "mu-associativity": "mu-properties-1-4",
    "clascon": "star-lambda-identities",
}


class UnknownCheckError(ValueError):
    def __init__(self, check_id: str):
        valid = ", ".join(sorted(list(CATALOG) + list(ALIASES)))
        super().__init__(f"unknown check id {check_id!r}; valid ids: {valid}")
        self.check_id = check_id


def resolve_check_ids(requested: List[str]) -> List[str]:
    """Expand 'all' and aliases into catalog order; reject unknown ids."""
    wanted = set()
    for cid in requested:
        if cid == "all":
            wanted.update(CATALOG)
            continue
        cid = ALIASES.get(cid, cid)
        if cid not in CATALOG:
            raise UnknownCheckError(cid)
        wanted.add(cid)
    return [cid for cid in CATALOG if cid in wanted]


# -- runner ----------------------------------------------------------------


def run_check(check_id: str, cfg: CheckConfig) -> CheckResult:
    check_id = ALIASES.get(check_id, check_id)
    if check_id not in CATALOG:
        raise UnknownCheckError(check_id)
    if cfg.samples == 0:
        return CheckResult(check_id, SKIPPED, "sample count is zero", None, 0.0)
    t0 = time.perf_counter()
    ce: Optional[Dict[str, Any]] = None
    with paused_gc():
        try:
            if isinstance(cfg.algebra, FinAlgebra):
                cfg.algebra.validate()
            status, detail = CATALOG[check_id].fn(cfg)
        except Mismatch as e:
            status, detail = FAIL, str(e)
            ce = {
                "check": check_id,
                "algebra": cfg.algebra_name,
                "seed": cfg.seed,
                "detail": detail,
                **{k: repr(v) for k, v in e.values.items()},
            }
        except Exception as e:  # a fault of the engine, not of the identity
            status, detail = ERROR, f"{type(e).__name__}: {e}"
    return CheckResult(check_id, status, detail, ce, time.perf_counter() - t0)


class Report(NamedTuple):
    config: Dict[str, Any]
    results: List[CheckResult]

    @property
    def failed(self) -> bool:
        return any(r.status == FAIL for r in self.results)

    @property
    def errored(self) -> bool:
        return any(r.status == ERROR for r in self.results)

    def to_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        statuses = [r.status for r in self.results]
        return {
            "config": self.config,
            "results": [r.to_dict(include_timing) for r in self.results],
            "summary": {s: statuses.count(s) for s in sorted(set(statuses))},
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.check:28s} {r.status:14s} {r.detail}")
            if r.counterexample is not None:
                lines.append(f"{'':28s} counterexample: {r.counterexample}")
        total = len(self.results)
        fails = sum(1 for r in self.results if r.status == FAIL)
        lines.append(f"{total} checks, {fails} failures")
        return "\n".join(lines)


def run_suite(check_ids: List[str], cfg: CheckConfig) -> Report:
    """Run the requested checks (in catalog order) and assemble a report."""
    results = [run_check(cid, cfg) for cid in resolve_check_ids(check_ids)]
    return Report(config=cfg.echo(), results=results)
