"""Exact sparse arithmetic: one canonical form over any carrier.

A *sparse combination* is a tuple ``((key, coefficient), ...)`` sorted by
the native order of its keys, with zero coefficients dropped; the keys
may be anything Python orders natively (exponent tuples, basis labels,
tensor words, simplices).  :func:`cp_norm` builds this canonical form
from a dict, so two combinations are equal exactly when they are ``==``.
The ``cp_`` functions do the arithmetic with the coefficients interpreted
by a :class:`~loopstable.carriers.Carrier`.  A sum of products
canonicalises once: :func:`cp_combine` (Σ aᵢ·pᵢ and Σ aᵢ·pᵢ·qᵢ, of which
:func:`cp_mul` is the one-term case) groups the coefficient products by
exponent and hands each group to the carrier's ``combine``, except over
a carrier whose elements are word combinations multiplied by
concatenation (``Carrier.concatenates``: the tensor carriers).  There a
large product, which builds each product word in many exponents, goes
word by word instead and builds the canonical form of its tensor
coefficients itself, sorting the words once.

A *polynomial* is a sparse combination keyed by exponent tuples.  A
*scalar* polynomial (``QPoly``) is a carrier polynomial over
:data:`~loopstable.carriers.RAT`, whose coefficients are ints, or
Fractions when not integral; scalar polynomials are the substitution
images, such as the coordinates of a simplex or the homotopies h(t, u).
Carrier polynomials over other carriers are the values of polynomial
function families.

Variables are ``t_1 .. t_n`` (the simplex coordinate ``t_0`` is always
eliminated via ``t_0 = 1 − Σ t_i``); exponent tuples have length ``n``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from operator import add, itemgetter
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from .carriers import RAT, rat

Exps = Tuple[int, ...]
CPoly = Tuple[Tuple[Exps, Any], ...]
QPoly = CPoly  # over RAT: int coefficients, Fraction when not integral
_BY_KEY = itemgetter(0)  # sort key of (key, coefficient) items

# -- scalar polynomials -------------------------------------------------


def qp_const(c, nvars: int) -> QPoly:
    c = rat(c)
    if c == 0:
        return ()
    return (((0,) * nvars, c),)


def qp_var(i: int, nvars: int) -> QPoly:
    """The variable ``t_i`` (1-based)."""
    if not 1 <= i <= nvars:
        raise ValueError(f"t_{i} out of range for {nvars} variables")
    exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
    return ((exps, 1),)


@cache
def qp_monomial(images: Tuple[QPoly, ...], e: Exps, nvars: int) -> QPoly:
    """``Π images[i]^{e_i}``, a polynomial in ``nvars`` variables.

    Cached by value: the same few images (simplex coordinates, face and
    degeneracy substitutions, homotopies) recur across every family.  A
    miss costs one product: the cached monomial with one power fewer in
    the last nonzero exponent, times that image.  Raises ``ValueError``
    unless there is one exponent per image.
    """
    if len(images) != len(e):
        raise ValueError(f"{len(e)} exponents for {len(images)} images")
    i = len(e) - 1
    while i >= 0 and not e[i]:
        i -= 1
    if i < 0:
        return qp_const(1, nvars)
    prev = e[:i] + (e[i] - 1,) + e[i + 1:]
    return cp_mul(RAT, qp_monomial(images, prev, nvars), images[i])


# -- carrier polynomials ------------------------------------------------


def cp_zero() -> CPoly:
    return ()


def cp_norm(car, d: Dict[Any, Any]) -> CPoly:
    """The canonical combination of ``d``: zeros dropped, sorted by key.

    A coefficient is zero when it is ``==`` to ``car.zero()``; the keys of
    a dict are distinct, so sorting the items by key alone gives the order
    without looking any key up again.
    """
    z = car.zero()
    items = [kc for kc in d.items() if kc[1] != z]
    items.sort(key=_BY_KEY)
    return tuple(items)


def cp_add(car, p: CPoly, q: CPoly) -> CPoly:
    if not p:
        return q
    if not q:
        return p
    d: Dict[Any, Any] = dict(p)
    for e, c in q:
        d[e] = car.add(d[e], c) if e in d else c
    return cp_norm(car, d)


def cp_scale(car, a, p: CPoly) -> CPoly:
    if not a:
        return ()
    if a == 1:
        return p
    # a nonzero rational keeps every key and every nonzero coefficient
    return tuple((e, car.scale(a, c)) for e, c in p)


#: fewer exponent pairs repeat too few product words to pay for keying factors by word
WORD_MAJOR_PAIRS = 8


def cp_combine(car, terms: Iterable[Tuple[Any, Sequence[CPoly]]]) -> CPoly:
    """Σ aᵢ·pᵢ and Σ aᵢ·pᵢ·qᵢ in one, over terms ``(aᵢ, (pᵢ,))`` and
    ``(aᵢ, (pᵢ, qᵢ))`` of a rational and one or two carrier polynomials.

    Exponent-major: the coefficient products are grouped by exponent and
    summed by one ``car.combine`` per exponent.  Over a carrier that
    ``concatenates`` words, a call with a two-factor term of at least
    :data:`WORD_MAJOR_PAIRS` exponent pairs goes word-major instead
    (:func:`_combine_words`), since there one product word recurs in many
    exponents."""
    if car.concatenates:
        terms = list(terms)
        if any(len(ps) == 2 and len(ps[0]) * len(ps[1]) >= WORD_MAJOR_PAIRS
               for _, ps in terms):
            return _combine_words(car, terms)
    groups: Dict[Exps, list] = {}
    for a, ps in terms:
        if len(ps) == 1:
            for e, c in ps[0]:
                g = groups.get(e)
                if g is None:
                    groups[e] = [(a, (c,))]
                else:
                    g.append((a, (c,)))
            continue
        p, q = ps
        for e1, c1 in p:
            for e2, c2 in q:
                e = tuple(map(add, e1, e2))
                g = groups.get(e)
                if g is None:
                    groups[e] = [(a, (c1, c2))]
                else:
                    g.append((a, (c1, c2)))
    return cp_norm(car, {e: car.combine(g) for e, g in groups.items()})


def _combine_words(car, terms: Sequence[Tuple[Any, Sequence[CPoly]]]) -> CPoly:
    """:func:`cp_combine` over a concatenating carrier, word by word.

    The output exponents are numbered once per call, and each two-factor
    term gets the table of its exponent sums by position.  The products
    are summed in one row per product word, with one column per output
    exponent: a one-factor term adds each entry to its row, and a
    two-factor term keys both factors by word, so that each pair of factor
    words is concatenated and hashed once.  The words are sorted once, and
    the rows are read out column by column into the canonical form."""
    index: Dict[Exps, int] = {}  # output exponent -> column
    plans = []
    for a, ps in terms:
        p = ps[0]
        if len(ps) == 1:
            plans.append((a, p, [index.setdefault(e, len(index)) for e, _ in p], None))
            continue
        q = ps[1]
        table = [[index.setdefault(tuple(map(add, e1, e2)), len(index)) for e2, _ in q]
                 for e1, _ in p]
        plans.append((a, p, table, q))
    width = len(index)
    rows: Dict[Any, list] = defaultdict(lambda: [0] * width)
    for a, p, cols, q in plans:
        if q is None:
            for k, (_, x) in zip(cols, p):
                for w, c in x:
                    rows[w][k] += a * c
            continue
        right = _by_word(q, range(len(q)), 1).items()
        for w1, l1 in _by_word(p, cols, a).items():
            for w2, l2 in right:
                row = rows[w1 + w2]
                for ks, c1 in l1:
                    for j, c2 in l2:
                        row[ks[j]] += c1 * c2
    columns: list = [[] for _ in range(width)]
    for w in sorted(rows):
        for k, c in enumerate(rows[w]):
            if c:
                columns[k].append((w, c))
    out = [(e, tuple(columns[k])) for e, k in index.items() if columns[k]]
    out.sort(key=_BY_KEY)
    return tuple(out)


def _by_word(p: CPoly, cols: Sequence, a) -> Dict[Any, list]:
    """``{word: [(cols[i], a·c), ...]}`` over the entries c·word of the
    i-th coefficient of ``p``."""
    d: Dict[Any, list] = {}
    for col, (_, x) in zip(cols, p):
        for w, c in x:
            entry = (col, a * c)
            entries = d.get(w)
            if entries is None:
                d[w] = [entry]
            else:
                entries.append(entry)
    return d


def cp_mul(car, p: CPoly, q: CPoly) -> CPoly:
    return cp_combine(car, ((1, (p, q)),))


def cp_constant(car, c: Any, nvars: int) -> CPoly:
    if car.is_zero(c):
        return ()
    return (((0,) * nvars, c),)


def cp_map_coeffs(tgt_car, p: CPoly, fn: Callable[[Any], Any]) -> CPoly:
    return cp_norm(tgt_car, {e: fn(c) for e, c in p})


def cp_flatten(car, p: CPoly, inner: Callable[[Any], CPoly]) -> CPoly:
    """``Σ_e inner(c_e) · t^e`` as one polynomial in the variables of the
    ``inner`` polynomials followed by those of ``p`` (the polynomial form
    of the flattening μ)."""
    d: Dict[Exps, Any] = {}
    for e, c in p:
        for e2, c2 in inner(c):
            d[e2 + e] = c2
    return cp_norm(car, d)


def cp_subst(car, p: CPoly, images: Sequence[QPoly], nvars_out: int) -> CPoly:
    """Substitute scalar polynomials for the variables of a carrier poly.

    The terms a·c of the substituted monomials are collected per output
    exponent: a lone term is one ``car.scale``, two or more are summed by
    one ``car.combine``."""
    images = tuple(images)
    groups: Dict[Exps, list] = {}
    for e, c in p:
        for e2, a in qp_monomial(images, e, nvars_out):
            g = groups.get(e2)
            if g is None:
                groups[e2] = [(a, (c,))]
            else:
                g.append((a, (c,)))
    return cp_norm(car, {
        e2: car.combine(g) if len(g) > 1 else car.scale(g[0][0], g[0][1][0])
        for e2, g in groups.items()
    })


#: 1 − t in one variable: the reversal t ↦ 1 − t and the path splitting
ONE_MINUS_T = cp_add(RAT, qp_const(1, 1), cp_scale(RAT, -1, qp_var(1, 1)))


# -- simplicial operator substitution images ----------------------------


@cache
def monotone_images(alpha: Tuple[int, ...], q: int, p: int) -> Tuple[QPoly, ...]:
    """Images of ``t_1..t_q`` under the pullback of a monotone ``α: [p]→[q]``.

    ``t_i ↦ Σ_{α(j)=i} t'_j`` with ``t'_0 = 1 − Σ_{j≥1} t'_j``.  Cached:
    the arguments are small int tuples, and every degeneracy value and
    face test of a family asks for one of a few operators.
    """
    if len(alpha) != p + 1:
        raise ValueError("operator has wrong arity")
    t = [qp_const(1, p)] + [qp_var(j, p) for j in range(1, p + 1)]
    for v in t[1:]:
        t[0] = cp_add(RAT, t[0], cp_scale(RAT, -1, v))
    images = []
    for i in range(1, q + 1):
        img = cp_zero()
        for j, a in enumerate(alpha):
            if a == i:
                img = cp_add(RAT, img, t[j])
        images.append(img)
    return tuple(images)


def delta_alpha(i: int, q: int) -> Tuple[int, ...]:
    """The coface ``δ_i : [q−1] → [q]`` as an image tuple."""
    return tuple(j if j < i else j + 1 for j in range(q))

