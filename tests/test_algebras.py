"""The algebra definition file format and algebra maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopstable.algebras import (
    BUILTIN_ALGEBRAS,
    FinAlgebra,
    algebra_map,
    dual_numbers,
    format_algebra_file,
    parse_algebra_file,
    product_algebra,
    rationals,
)


def _truncated_poly(n: int) -> FinAlgebra:
    """Q[x]/(x^n) on the basis x0 .. x(n-1)."""
    table = {
        (f"x{i}", f"x{j}"): ((f"x{i + j}", Fraction(1)),)
        for i in range(n) for j in range(n) if i + j < n
    }
    return FinAlgebra(f"Q[x]/(x^{n})", [f"x{i}" for i in range(n)], table,
                      unit=(("x0", Fraction(1)),))


def _null(n: int) -> FinAlgebra:
    return FinAlgebra(f"null{n}", [f"n{i}" for i in range(n)], {}, unit=None)


_factors = st.one_of(
    st.sampled_from(sorted(BUILTIN_ALGEBRAS)).map(lambda k: BUILTIN_ALGEBRAS[k]()),
    st.integers(1, 3).map(_truncated_poly),
    st.integers(1, 3).map(_null),
)
_bases = st.one_of(
    _factors,
    st.tuples(_factors, _factors).map(lambda bc: product_algebra(*bc)[0]),
)
_scalars = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
    lambda c: c != 0
)


@st.composite
def small_algebras(draw) -> FinAlgebra:
    """A random small associative algebra: a built-in, truncated
    polynomial, null or product algebra under a random rescaling of its
    basis, which keeps it associative and spreads its structure constants
    over signed fractions."""
    A = draw(_bases)
    c = {l: draw(_scalars) for l in A.labels}
    # e'_l = c_l e_l, so e'_i e'_j = sum_k (c_i c_j / c_k) k_ij^k e'_k
    table = {
        (i, j): tuple((k, c[i] * c[j] / c[k] * v) for k, v in prod)
        for (i, j), prod in A.table.items()
    }
    unit = None
    if A.unit is not None:
        unit = tuple((k, v / c[k]) for k, v in A.unit)
    return FinAlgebra(A.name, A.labels, table, unit=unit)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_file_format_roundtrip(A):
    B = parse_algebra_file(format_algebra_file(A))
    assert (B.name, B.labels, B.table, B.unit) == (A.name, A.labels, A.table, A.unit)


@pytest.mark.parametrize("rhs", ["1/-2*a", "2*-a", "a a"])
def test_unparsable_term_is_named_as_written(rhs):
    with pytest.raises(ValueError) as e:
        parse_algebra_file(f"basis: a\na*a = 1*a + {rhs}\n")
    assert str(e.value) == f"cannot parse term {rhs!r}"


@pytest.mark.parametrize("line", [
    "a*a =", "a*a = 1*a +", "a*a = + 1*a", "a*a = 1*a + + 1*a", "unit:",
])
def test_empty_term_is_named_by_its_line(line):
    with pytest.raises(ValueError) as e:
        parse_algebra_file(f"basis: a\n{line}\n")
    assert str(e.value) == f"empty term in {line!r}"
    assert parse_algebra_file("basis: a\na*a = 0\n").table == {}  # zero is written 0


def test_signs_split_terms_but_not_coefficients():
    # the dual numbers, each product written as a sum of signed terms
    A = parse_algebra_file("basis: a b\na*a = 2*a-1*a\na*b = -1/2*b+3/2*b\n"
                           "b*a = -b + 2*b\nb*b = 1*a -1*a\n")
    assert A.table == {("a", "a"): (("a", 1),), ("a", "b"): (("b", 1),),
                       ("b", "a"): (("b", 1),)}
    # a space may stand between a term's minus sign and its coefficient:
    # a·a = −2/3·b with a·b = b·a = b·b = 0, and the dual numbers on
    # a = 1 + 4x, b = 1/2 + x
    A = parse_algebra_file("basis: a b\na*a = -  2/3*b\n")
    assert A.table == {("a", "a"): (("b", Fraction(-2, 3)),)}
    A = parse_algebra_file("basis: a b\nunit: -1*a + 4*b\na*a = 3*a - 4*b\n"
                           "a*b = 1*a - 1*b\nb*a = 1*a - 1*b\nb*b = 1/4*a\n")
    assert A.table[("a", "b")] == A.table[("b", "a")] == (("a", 1), ("b", -1))


def test_every_algebra_map_is_checked_multiplicative():
    B, Q = dual_numbers(), rationals()
    one = Q.basis_vec("1")
    assert algebra_map(B, Q, {"1": one, "x": Q.zero()}, "aug")(B.basis_vec("1")) == one
    with pytest.raises(ValueError, match="not multiplicative"):
        algebra_map(B, Q, {"1": one, "x": one}, "aug")  # x*x = 0 but 1*1 = 1
