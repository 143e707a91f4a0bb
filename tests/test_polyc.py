"""Ring-level tests for the exact coefficient types over Z[c].

The oracle for all polynomial arithmetic is evaluation: two exact
polynomials are equal iff they agree at enough rational points, so we check
the ring operations against Fraction arithmetic at random points, and the
coefficients against a plain-int reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncwishart.polyc import PolyC, PolyXC, SeriesZ

# small values hit zeros, units and trailing-zero trims; big ones pass 2^64
ints = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-2**80, max_value=2**80),
)
polys = st.lists(ints, max_size=6).map(lambda cs: PolyC(tuple(cs)))
points = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(polys, polys, points)
def test_ring_ops_agree_with_evaluation(p, q, v):
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)
    assert (p - q).evaluate(v) == p.evaluate(v) - q.evaluate(v)
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)


@given(polys)
def test_canonical_form_has_no_trailing_zero(p):
    if p.coeffs:
        assert p.coeffs[-1] != 0
    assert p - p == PolyC.zero()


def test_text_form_examples():
    assert str(PolyC.of(1, 4, 1)) == "1 + 4*c + c^2"
    assert str(PolyC.of(0, -2, 1)) == "-2*c + c^2"
    assert str(PolyC.zero()) == "0"
    assert str(PolyC.of(-3)) == "-3"


@given(polys, polys)
def test_exact_division_round_trip(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            (p * q).div_exact(q)
    else:
        assert (p * q).div_exact(q) == p


def test_division_rejects_nonzero_remainder():
    with pytest.raises(ValueError):
        PolyC.of(1, 1).div_exact(PolyC.c())


def test_polyc_is_hashable_and_comparable():
    seen = {PolyC.of(1, 2), PolyC.of(1, 2), PolyC.c()}
    assert len(seen) == 2


# -- PolyXC ----------------------------------------------------------------


def test_xpoly_arithmetic():
    x = PolyXC.x()
    c = PolyC.c()
    p = (x - c) * (x - c)
    assert p.coeff(0) == c * c
    assert p.coeff(1) == PolyC.of(0, -2)
    assert p.coeff(2) == PolyC.one()
    assert p.degree == 2
    assert (p - p).is_zero()


def test_xpoly_mixed_scalars():
    x = PolyXC.x()
    assert (2 * x - 1) + 1 == 2 * x
    assert x * PolyC.c() == PolyC.c() * x


# -- SeriesZ ---------------------------------------------------------------


def test_series_shift():
    s = SeriesZ.from_coeffs(4, [1, PolyC.c()])
    up = s.times_z()
    assert up.order == 4
    assert up.coeff(0).is_zero() and up.coeff(1) == PolyC.one()
    assert up.coeff(2) == PolyC.c()


def test_series_truncation_rules():
    s = SeriesZ.from_coeffs(3, [1, 2, 3, 4])
    t = SeriesZ.from_coeffs(2, [1, 1, 1])
    assert (s * t).order == 2
    assert (s + t).order == 2
    with pytest.raises(ValueError):
        SeriesZ.from_coeffs(1, [1, 2, 3])


# -- coefficients against a plain-int reference -------------------------------

coef_lists = st.lists(ints, max_size=6)
nonzero_coef_lists = coef_lists.filter(lambda cs: any(cs))


def ref(cs) -> tuple[int, ...]:
    out = [int(a) for a in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda x: list(x) + [0] * (n - len(x))  # noqa: E731
    return ref(x + y for x, y in zip(pad(a), pad(b)))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_div(a, d):
    """The quotient in Z[c], or None when a / d leaves Z[c]: long division
    over the rationals, whose quotient must be integral and exact."""
    rem, q = [Fraction(x) for x in a], [Fraction(0)] * max(len(a) - len(d) + 1, 0)
    for i in range(len(a) - len(d), -1, -1):
        q[i] = rem[i + len(d) - 1] / d[-1]
        for j, dv in enumerate(d):
            rem[i + j] -= q[i] * dv
    if any(rem) or any(x.denominator != 1 for x in q):
        return None
    return ref(q)


def ref_str(cs) -> str:
    """The text form, rendered term by term."""
    pieces = []
    for k, a in enumerate(cs):
        if a == 0:
            continue
        mag = abs(a)
        cpart = "" if k == 0 else ("c" if k == 1 else f"c^{k}")
        body = str(mag) if k == 0 else (cpart if mag == 1 else f"{mag}*{cpart}")
        sign = "" if a > 0 else "-"
        pieces.append(f"{sign}{body}" if not pieces else f"{'+' if a > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


def assert_matches(p: PolyC, want: tuple[int, ...]) -> None:
    """Equal to the reference, every coefficient a plain int."""
    assert p.coeffs == want
    assert all(type(got) is int for got in p.coeffs), p.coeffs


@given(coef_lists)
def test_integral_coefficients_are_stored_as_int(cs):
    assert_matches(PolyC(tuple(cs)), ref(cs))
    assert_matches(PolyC.of(*cs), ref(cs))
    assert_matches(PolyC.of(*map(bool, cs)), ref(map(bool, cs)))


@given(coef_lists, coef_lists)
def test_ring_ops_match_the_int_reference(a, b):
    p, q = PolyC(tuple(a)), PolyC(tuple(b))
    ra, rb = ref(a), ref(b)
    assert_matches(p + q, ref_add(ra, rb))
    assert_matches(-p, ref(-x for x in ra))
    assert_matches(p - q, ref_add(ra, tuple(-x for x in rb)))
    assert_matches(p * q, ref_mul(ra, rb))
    assert_matches(3 * p + 5, ref_add(ref_mul((3,), ra), (5,)))
    assert_matches(p * 2**70 - 1, ref_add(ref_mul((2**70,), ra), (-1,)))


@given(coef_lists, nonzero_coef_lists)
def test_div_exact_matches_the_int_reference(a, d):
    p, q = PolyC(tuple(a)), PolyC(tuple(d))
    assert ref_div(ref_mul(ref(a), ref(d)), ref(d)) == ref(a)
    assert_matches((p * q).div_exact(q), ref(a))
    quotient = ref_div(ref(a), ref(d))
    if quotient is None:
        with pytest.raises(ValueError):
            p.div_exact(q)
    else:
        assert_matches(p.div_exact(q), quotient)


def test_quotients_off_z_are_refused():
    with pytest.raises(ValueError):
        PolyC.of(1, 1).div_exact(PolyC.const(2))
    with pytest.raises(ValueError):
        PolyC.of(3, 0, 1).div_exact(PolyC.of(-3))
    with pytest.raises(ValueError):
        PolyC.of(2, 3).div_exact(PolyC.of(0, 2))
    assert_matches(PolyC.of(3, 0, 6).div_exact(PolyC.of(-3)), (-1, 0, -2))
    assert_matches(PolyC.of(1, 3).div_exact(PolyC.of(1, 3)), (1,))
    assert PolyC.of(7).evaluate(2) == 7 and type(PolyC.of(7).evaluate(2)) is Fraction


@pytest.mark.parametrize("coef", [Fraction(1, 2), Fraction(4, 2), 0.5, 2.0, "1"], ids=repr)
def test_a_coefficient_that_is_no_int_is_refused(coef):
    with pytest.raises(TypeError):
        PolyC.of(coef)
    with pytest.raises(TypeError):
        PolyC.const(coef)
    with pytest.raises(TypeError):
        PolyC.one() + coef
    with pytest.raises(TypeError):
        PolyXC((coef,))
    with pytest.raises(TypeError):
        SeriesZ.from_coeffs(2, [coef])


@given(coef_lists)
def test_text_equality_and_hash_are_unchanged(cs):
    want = ref(cs)
    p = PolyC(tuple(cs))
    assert str(p) == ref_str(want)
    same = PolyC(want)
    assert p == same
    assert hash(p) == hash(same) == hash((want,))


# -- census and monomials ---------------------------------------------------

exponent_lists = st.lists(st.integers(min_value=0, max_value=8), max_size=12)


@given(exponent_lists)
def test_census_is_the_sum_of_its_monomials(es):
    want = PolyC.zero()
    for e in es:
        want = want + PolyC.monomial(e)
    assert_matches(PolyC.census(es), want.coeffs)
    assert PolyC.census(iter(es)) == want


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError):
        PolyC.monomial(-1)
    with pytest.raises(ValueError):
        PolyC.monomial(-2, 5)
    with pytest.raises(ValueError):
        PolyC.census([1, -1])
    assert PolyC.monomial(0) == PolyC.one()
    assert PolyC.monomial(2, 3) == PolyC.of(0, 0, 3)
