"""Family polynomials, transition matrices, inverses, and series.

The five-row inverse tables are the golden fixture `cli.GOLDEN_ROWS`, which
`tables --check` also uses.  The exact identities are checked through the
records of the `verify recursions` and `verify series` suites.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ncwishart
from ncwishart.cli import GOLDEN_ROWS, _recursion_records, _series_records
from ncwishart.families import (
    Family,
    TransitionMatrix,
    chebyshev_C,
    chebyshev_S,
    gamma,
    gamma_tilde,
    integrate_against_reference,
    inverse_table,
    moments,
    pi_poly,
    series_G,
    series_G0,
    series_P,
    series_P0,
    shift_constant,
    transition_matrix,
)
from ncwishart.polyc import PolyC, PolyXC

X = PolyXC.x()
C = PolyC.c()
SRC = str(Path(ncwishart.__file__).resolve().parents[1])

# sizes of the two suites under test; the recursion suite checks its
# matrices at size RECURSION_MAX_N + 1
RECURSION_MAX_N = 12
SERIES_ORDER = SERIES_MAX_K = 10
TABLE_SIZE = RECURSION_MAX_N + 1


@pytest.fixture(scope="module")
def recursion_records():
    return _recursion_records(RECURSION_MAX_N)


@pytest.fixture(scope="module")
def series_records():
    return _series_records(SERIES_ORDER, SERIES_MAX_K)


def failing(records):
    """`identity: instance` of every record that did not pass."""
    return [f"{r['identity']}: {r['instance']}" for r in records if not r["pass"]]


def checked(records, identity):
    """The instances of `identity`, after asserting that all of them pass."""
    chosen = [r for r in records if r["identity"] == identity]
    assert failing(chosen) == []
    return {r["instance"] for r in chosen}


def table_rows(m, size):
    return [[str(m.entry(n, k)) for k in range(n + 1)] for n in range(size)]


# -- seed polynomials --------------------------------------------------------


def test_chebyshev_seeds():
    assert chebyshev_C(0) == PolyXC.one()
    assert chebyshev_C(2) == X * X - 2
    assert chebyshev_C(3) == X * X * X - 3 * X
    assert chebyshev_S(1) == X
    assert chebyshev_S(2) == X * X - 1
    assert chebyshev_S(3) == X * X * X - 2 * X


def test_arcsine_family_seeds():
    one_plus_c = PolyC.of(1, 1)
    assert gamma_tilde(0) == PolyXC.one()
    assert gamma_tilde(1) == X - one_plus_c
    assert gamma_tilde(2) == X * X - 2 * one_plus_c * X + PolyC.of(1, 0, 1)
    assert gamma_tilde(3) == (
        X * X * X - 3 * one_plus_c * X * X + 3 * PolyC.of(1, 1, 1) * X - PolyC.of(1, 0, 0, 1)
    )


def test_centered_family_seeds():
    assert gamma(0) == PolyXC.one()
    assert gamma(1) == X - C
    assert gamma(2) == X * X - 2 * PolyC.of(1, 1) * X + PolyC.of(0, 1, 1)


def test_second_kind_family_seeds():
    assert pi_poly(0) == PolyXC.one()
    assert pi_poly(1) == X - C
    assert pi_poly(2) == X * X - PolyC.of(1, 2) * X + C * C
    assert pi_poly(3) == (
        X * X * X - PolyC.of(2, 3) * X * X + PolyC.of(1, 2, 3) * X - C * C * C
    )


def test_second_kind_seeds_match_their_own_recurrence():
    # from degree 1 on, a_n = 1 + c replaces the a_0 = c of the first step
    one_plus_c = PolyC.of(1, 1)
    assert pi_poly(2) == (X - one_plus_c) * pi_poly(1) - C * pi_poly(0)
    assert pi_poly(3) == (X - one_plus_c) * pi_poly(2) - C * pi_poly(1)


def test_shift_constants():
    assert shift_constant(0) == PolyC.const(-1)
    assert shift_constant(1) == PolyC.one()
    assert shift_constant(2) == PolyC.of(-1, 1)
    assert shift_constant(3) == PolyC.of(1, -1)
    for n in range(3, 12):
        assert (shift_constant(n) + shift_constant(n - 1)).is_zero()
    with pytest.raises(ValueError):
        shift_constant(-1)


def test_families_are_monic():
    for n in range(9):
        for f in (gamma_tilde(n), gamma(n), pi_poly(n), chebyshev_C(n), chebyshev_S(n)):
            assert f.coeff(n) == PolyC.one(), f"degree {n} member is not monic"


# -- transition matrices and golden inverse tables ---------------------------


def test_transition_matrix_rows():
    assert transition_matrix(Family.PI, 3).rows[2] == (
        C * C,
        PolyC.of(-1, -2),
        PolyC.one(),
    )
    assert transition_matrix(Family.GAMMA, 2).rows[1] == (-C, PolyC.one())
    assert transition_matrix(Family.GAMMA_TILDE, 2).rows[1] == (
        PolyC.of(-1, -1),
        PolyC.one(),
    )


@pytest.mark.parametrize("family", list(Family))
def test_golden_inverse_tables(family):
    inv = inverse_table(family, 5)
    golden = GOLDEN_ROWS[f"{family.value}-inverse"]
    assert table_rows(inv, 5) == [list(row) for row in golden]


@pytest.mark.parametrize("family", list(Family))
def test_double_inversion(recursion_records, family):
    instance = f"{family.value},size={TABLE_SIZE}"
    assert instance in checked(recursion_records, "M @ M^-1 = I")
    assert instance in checked(recursion_records, "double inversion")


@pytest.mark.parametrize("size", [1, 2, 5])
def test_entry_is_zero_off_the_triangle_of_a_valid_row(size):
    table = inverse_table(Family.PI, size)
    for n in range(size):
        assert [table.entry(n, k) for k in range(n + 1)] == list(table.rows[n])
        for k in (-2, -1, *range(n + 1, size + 3)):
            assert table.entry(n, k) == PolyC.zero(), (n, k)


@pytest.mark.parametrize("size", [1, 2, 5])
def test_entry_of_a_row_outside_the_table_raises(size):
    table = inverse_table(Family.PI, size)
    for n in (-1, size, size + 1):
        for k in (-1, 0, n, size):
            with pytest.raises(IndexError):
                table.entry(n, k)


def test_inversion_rejects_non_unit_diagonal():
    m = TransitionMatrix(((PolyC.c(),),))
    with pytest.raises(ValueError):
        m.invert()


@st.composite
def unitriangular(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    coefs = st.integers(min_value=-3, max_value=3)
    rows = []
    for n in range(size):
        row = [
            PolyC.of(*draw(st.lists(coefs, max_size=3))) for _ in range(n)
        ]
        row.append(PolyC.one())
        rows.append(tuple(row))
    return TransitionMatrix(tuple(rows))


@given(unitriangular())
@settings(max_examples=40)
def test_inversion_properties_on_random_matrices(m):
    inv = m.invert()
    assert m @ inv == TransitionMatrix.identity(m.size)
    assert inv @ m == TransitionMatrix.identity(m.size)
    assert inv.invert() == m


# -- identity suite -----------------------------------------------------------


def test_recursion_suite_passes(recursion_records):
    assert failing(recursion_records) == []


def test_enumerated_cells_match_the_inverse_table(recursion_records):
    # the cells the census recursion enumerates stop at n = 6
    assert checked(recursion_records, "circular census equals the arc-sine inverse table") == {
        f"n={n},k={k}" for n in range(1, 7) for k in range(n + 1)
    }


def test_three_term_recurrences(recursion_records):
    n_max = RECURSION_MAX_N
    assert checked(recursion_records, "arc-sine forward row recurrence") == {
        f"n={n},k={k}" for n in range(n_max) for k in range(n + 2)
    }
    assert checked(recursion_records, "second-kind three-term recurrence") == {
        f"n={n}" for n in range(2, n_max)
    }
    for kind in ("first", "second"):
        assert checked(recursion_records, f"{kind}-kind Chebyshev recurrence") == {
            f"n={n}" for n in range(n_max)
        }


def test_inverse_row_recursions(recursion_records):
    rows = range(1, RECURSION_MAX_N + 1)
    for family in ("arc-sine", "second-kind"):
        assert checked(recursion_records, f"{family} inverse band recursion") == {
            f"n={n},k={k}" for n in rows for k in range(1, n + 1)
        }
        assert checked(recursion_records, f"{family} inverse column-0 recursion") == {
            f"n={n}" for n in rows
        }


def test_bridge_identity_ranges(recursion_records):
    n_max = RECURSION_MAX_N
    assert checked(recursion_records, "first/second-kind bridge (uncentered)") == {
        f"n={n}" for n in range(2, n_max + 1)
    }
    assert checked(recursion_records, "first/second-kind bridge (centered)") == {
        f"n={n}" for n in range(3, n_max + 1)
    }


def test_bridge_identity_defect_at_two():
    # the centered version genuinely fails at n = 2: the defect is the
    # constant c, because the recentering constants d_2 + d_1 = c do not cancel
    defect = gamma(2) + gamma(1) - (pi_poly(2) - C * pi_poly(0))
    assert defect == PolyXC((C,))


def test_centering_and_norms(recursion_records):
    n_max = RECURSION_MAX_N
    assert checked(recursion_records, "centered against the reference moments") == {
        f"{family.value},n={n}"
        for family in (Family.GAMMA, Family.PI)
        for n in range(1, n_max + 1)
    }
    assert checked(recursion_records, "second-kind squared norm") == {
        f"n={n}" for n in range(n_max + 1)
    }


def test_arcsine_family_is_not_centered():
    # the uncentered family integrates to (-1)^n (1 - c) for n >= 2,
    # which is exactly what the shift constants remove
    for n in range(2, 8):
        val = integrate_against_reference(gamma_tilde(n))
        assert val == -shift_constant(n)


def test_moments_column():
    assert moments(4) == (
        PolyC.one(),
        C,
        PolyC.of(0, 1, 1),
        PolyC.of(0, 1, 3, 1),
    )


# -- generating series --------------------------------------------------------


def test_series_fixed_values():
    assert series_P(0, 4).coeff(2) == PolyC.of(0, 1, 1)
    assert series_P(1, 4).coeff(1) == PolyC.one()
    assert series_P(2, 4).coeff(3) == PolyC.of(2, 3)
    assert series_G(0, 4).coeff(2) == PolyC.of(1, 4, 1)
    assert series_G(1, 4).coeff(3) == PolyC.of(3, 9, 3)
    assert series_G(0, 4).coeff(0) == PolyC.one()


def test_series_suite_passes(series_records):
    assert failing(series_records) == []


def test_series_against_matrix_columns(series_records):
    for family in ("second-kind", "arc-sine"):
        identity = f"{family} series column matches the inverse table"
        assert checked(series_records, identity) == {
            f"k={k}" for k in range(SERIES_MAX_K + 1)
        }


def test_series_recursions(series_records):
    assert checked(series_records, "moment series functional equation") == {
        f"order={SERIES_ORDER}"
    }
    assert checked(series_records, "second-kind column ladder") == {
        f"k={k}" for k in range(1, SERIES_MAX_K + 1)
    }


def test_moment_series_matches_moments():
    p0 = series_P0(8)
    ms = moments(9)
    for m in range(9):
        assert p0.coeff(m) == ms[m]


def test_arcsine_series_zero_column_is_binomial():
    g0 = series_G0(6)
    gt = inverse_table(Family.GAMMA_TILDE, 7)
    for m in range(7):
        assert g0.coeff(m) == gt.entry(m, 0)


def test_series_column_zero_low_orders():
    p0 = series_P0(3)
    assert p0.coeff(0) == PolyC.one()
    assert p0.coeff(1) == C
    assert p0.coeff(2) == PolyC.of(0, 1, 1)
    assert p0.coeff(3) == PolyC.of(0, 1, 3, 1)


# the member recurrences written out as plain PolyXC arithmetic,
# f_{n+1} = (x - a_n) f_n - b_n f_{n-1}: the reference for the row-built
# members, independent of families.RECURRENCES
PLAIN_RECURRENCES = [
    (chebyshev_C, lambda n: 0, lambda n: 2 if n == 1 else 1),
    (chebyshev_S, lambda n: 0, lambda n: 1),
    (gamma_tilde, lambda n: PolyC.of(1, 1), lambda n: 2 * C if n == 1 else C),
    (pi_poly, lambda n: C if n == 0 else PolyC.of(1, 1), lambda n: C),
]


@pytest.mark.parametrize(
    "member, a, b", PLAIN_RECURRENCES, ids=[m.__name__ for m, _, _ in PLAIN_RECURRENCES]
)
def test_row_built_members_follow_the_plain_recurrence(member, a, b):
    prev, cur = PolyXC.zero(), PolyXC.one()
    for n in range(41):
        assert member(n) == cur, f"degree {n}"
        prev, cur = cur, (X - a(n)) * cur - b(n) * prev


@pytest.mark.parametrize("family", [Family.GAMMA_TILDE, Family.PI])
def test_band_built_inverse_equals_the_inverted_table(family):
    for size in range(1, 41):
        assert inverse_table(family, size) == transition_matrix(family, size).invert(), size


@pytest.mark.parametrize(
    "member, n",
    [("pi_poly", 300), ("gamma_tilde", 150), ("chebyshev_C", 300), ("chebyshev_S", 300)],
)
def test_cold_cache_needs_no_deep_recursion(member, n):
    """A cold member(n), in a fresh interpreter, builds its rows one after
    the other, so it works under a recursion limit far below n."""
    code = f"""
        import sys
        from ncwishart.families import {member}
        sys.setrecursionlimit(60)
        top = {member}({n})
        print(top.degree, top.coeff({n}))
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(n), "1"]
