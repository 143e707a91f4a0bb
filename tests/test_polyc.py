"""Ring-level tests for the exact coefficient types.

The oracle for all polynomial arithmetic is evaluation: two exact
polynomials are equal iff they agree at enough rational points, so we check
the ring operations against Fraction arithmetic at random points.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncwishart.polyc import PolyC, PolyXC, SeriesZ

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(small_fracs, max_size=6).map(lambda cs: PolyC(tuple(cs)))
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


@given(polys)
def test_text_round_trip(p):
    assert PolyC.parse(str(p)) == p


def test_text_form_examples():
    assert str(PolyC.of(1, 4, 1)) == "1 + 4*c + c^2"
    assert str(PolyC.of(0, -2, 1)) == "-2*c + c^2"
    assert str(PolyC.zero()) == "0"
    assert str(PolyC.of(Fraction(3, 2))) == "3/2"
    assert PolyC.parse("c") == PolyC.c()
    assert PolyC.parse("-c^2") == PolyC.of(0, 0, -1)
    assert PolyC.parse("2 + 2*c") == PolyC.of(2, 2)


def test_parse_rejects_garbage():
    for bad in ("", "c +", "1 ++ c", "x^2"):
        with pytest.raises(ValueError):
            PolyC.parse(bad)


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


# -- coefficient representation against a plain-Fraction reference ----------
#
# The reference keeps every coefficient a Fraction, as PolyC itself once
# did; PolyC must agree with it in value while storing each integral
# coefficient as an int.

mixed_coefs = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    small_fracs,
    st.integers(min_value=-4, max_value=4).map(Fraction),  # integral Fractions
)
coef_lists = st.lists(mixed_coefs, max_size=6)
nonzero_coef_lists = coef_lists.filter(lambda cs: any(cs))


def ref(cs) -> tuple[Fraction, ...]:
    out = [Fraction(a) for a in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda x: list(x) + [Fraction(0)] * (n - len(x))  # noqa: E731
    return ref(x + y for x, y in zip(pad(a), pad(b)))


def ref_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_div(a, d):
    """Long division; returns the quotient and the remainder."""
    rem, q = list(a), [Fraction(0)] * max(len(a) - len(d) + 1, 0)
    for i in range(len(a) - len(d), -1, -1):
        q[i] = rem[i + len(d) - 1] / d[-1]
        for j, dv in enumerate(d):
            rem[i + j] -= q[i] * dv
    return ref(q), ref(rem)


def ref_str(cs) -> str:
    """The text form, rendered from Fraction coefficients."""
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


def assert_matches(p: PolyC, want: tuple[Fraction, ...]) -> None:
    """Equal in value to the reference, each coefficient int iff integral."""
    assert p.coeffs == want
    for got, exact in zip(p.coeffs, want):
        assert type(got) is (int if exact.denominator == 1 else Fraction), p.coeffs


@given(coef_lists)
def test_integral_coefficients_are_stored_as_int(cs):
    assert_matches(PolyC(tuple(cs)), ref(cs))
    assert_matches(PolyC.of(*cs), ref(cs))


@given(coef_lists, coef_lists)
def test_ring_ops_match_the_fraction_reference(a, b):
    p, q = PolyC(tuple(a)), PolyC(tuple(b))
    ra, rb = ref(a), ref(b)
    assert_matches(p + q, ref_add(ra, rb))
    assert_matches(-p, ref(-x for x in ra))
    assert_matches(p - q, ref_add(ra, tuple(-x for x in rb)))
    assert_matches(p * q, ref_mul(ra, rb))
    assert_matches(3 * p + Fraction(1, 2), ref_add(ref_mul((Fraction(3),), ra), (Fraction(1, 2),)))


@given(coef_lists, nonzero_coef_lists)
def test_div_exact_matches_the_fraction_reference(a, d):
    p, q = PolyC(tuple(a)), PolyC(tuple(d))
    quotient, remainder = ref_div(ref_mul(ref(a), ref(d)), ref(d))
    assert remainder == ()
    assert_matches((p * q).div_exact(q), quotient)
    quotient, remainder = ref_div(ref(a), ref(d))
    if remainder:
        with pytest.raises(ValueError):
            p.div_exact(q)
    else:
        assert_matches(p.div_exact(q), quotient)


def test_non_integral_quotients_are_exact():
    half = Fraction(1, 2)
    assert_matches(PolyC.of(1, 1).div_exact(PolyC.const(2)), (half, half))
    assert_matches(PolyC.of(3, 0, 1).div_exact(PolyC.of(-3)), (Fraction(-1), Fraction(0), Fraction(-1, 3)))
    assert_matches(PolyC.of(1, 3).div_exact(PolyC.of(1, 3)), (Fraction(1),))
    assert PolyC.of(7).evaluate(2) == 7 and type(PolyC.of(7).evaluate(2)) is Fraction


@given(coef_lists)
def test_text_equality_and_hash_are_unchanged(cs):
    want = ref(cs)
    p = PolyC(tuple(cs))
    assert str(p) == ref_str(want)
    same = PolyC(want)
    assert p == same
    assert hash(p) == hash(same) == hash((want,))
