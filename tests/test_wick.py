"""Tests for the truncated Fock-space Wick product model."""

import math

import numpy as np
import pytest

from ncwishart.halfperm import make_linear
from ncwishart.wick import (
    BASIS_BLOCK,
    FockOperator,
    TracialAlgebra,
    adjoint_residual,
    all_ncl,
    convolution,
    function_algebra,
    gram_apply,
    identity_operator,
    matrix_algebra,
    open_singletons,
    operator_residual,
    p_operator,
    prepend_split_is_bijection,
    scalar_algebra,
    split_images,
    tensor_word,
    verify_decomposition,
    verify_inductive_step,
    verify_p_adjoint,
    verify_prepend,
    verify_product,
    verify_vacuum,
    verify_wick_adjoint,
    w_pi,
    wick,
    wick_report,
)

ALGEBRAS = [scalar_algebra(), matrix_algebra(), function_algebra()]
L = 5


def fock_rows(dim, depth):
    return sum(dim**r for r in range(depth + 1))


def degree_part(v, dim, r):
    """The rows of degree r of a Fock array."""
    start = fock_rows(dim, r - 1)
    return v[start:start + dim**r]


def live_degrees(v, dim, depth):
    """Lowest and highest degree carrying a nonzero coefficient."""
    live = [r for r in range(depth + 1) if np.any(degree_part(v, dim, r) != 0)]
    return (live[0], live[-1]) if live else (0, -1)


def letters_for(alg, count, seed=7):
    rng = np.random.default_rng(seed)
    return [alg.random_element(rng) for _ in range(count)]


# -- the oracle: the three primitive operators, one tensor factor at a time --
#
# `wick` applies creation, annihilation of the adjoint and preservation of
# each letter in one pass; these build each from its definition, degree by
# degree.


def degree_slices(dim, depth):
    return [slice(fock_rows(dim, r - 1), fock_rows(dim, r)) for r in range(depth + 1)]


def first_factor(mat, seg):
    """Apply mat (rows x dim) to the first tensor factor: a sum of scaled
    slices."""
    slices = seg.reshape(mat.shape[1], -1)
    return sum(mat[:, i, None] * slices[i] for i in range(mat.shape[1]))


def creation(alg, d_el, depth):
    """Prepend the element as a new first tensor factor; mass in the top
    degree is dropped."""
    d_col = np.asarray(d_el, dtype=complex).reshape(alg.dim, 1)
    rows = degree_slices(alg.dim, depth)

    def apply(v):
        out = np.zeros(v.shape, dtype=complex)
        for lower, upper in zip(rows, rows[1:]):
            out[upper] = np.kron(d_col, v[lower])
        return out

    return FockOperator(depth, alg.dim, 1, apply)


def annihilation(alg, d_el, depth):
    """Pair the first tensor factor against the element; kills the vacuum."""
    # pair[0, i] = psi(d* b_i), the inner product of basis element i with d
    pair = (alg.gram @ np.conj(np.asarray(d_el, dtype=complex)))[None, :]
    rows = degree_slices(alg.dim, depth)

    def apply(v):
        out = np.zeros(v.shape, dtype=complex)
        for lower, upper in zip(rows, rows[1:]):
            out[lower] = first_factor(pair, v[upper]).reshape(-1, v.shape[1])
        return out

    return FockOperator(depth, alg.dim, 0, apply)


def preservation(alg, d_el, depth):
    """Multiply the first tensor factor on the left; kills the vacuum."""
    left = np.tensordot(np.asarray(d_el, dtype=complex), alg.mult, axes=(0, 0)).T
    rows = degree_slices(alg.dim, depth)

    def apply(v):
        out = np.zeros(v.shape, dtype=complex)
        for degree in rows[1:]:
            out[degree] = first_factor(left, v[degree]).reshape(-1, v.shape[1])
        return out

    return FockOperator(depth, alg.dim, 0, apply)


def oracle_centered_p(alg, d_el, depth):
    return creation(alg, d_el, depth) + annihilation(alg, alg.star(d_el), depth) + preservation(
        alg, d_el, depth)


def oracle_p(alg, d_el, depth):
    return oracle_centered_p(alg, d_el, depth) + alg.psi(d_el) * identity_operator(alg.dim, depth)


def oracle_wick(alg, letters, depth):
    """The four-term recursion: p(a) W(r) - psi(a) W(r) - psi(ab) W(r')
    - W(ab, r') for the word (a, b, r'), with r = (b, r')."""
    letters = tuple(np.asarray(w, dtype=complex) for w in letters)
    if not letters:
        return identity_operator(alg.dim, depth)
    head, rest = letters[0], letters[1:]
    w_rest = oracle_wick(alg, rest, depth)
    op = oracle_p(alg, head, depth) @ w_rest + (-1.0) * alg.psi(head) * w_rest
    if rest:
        merged = alg.multiply(head, rest[0])
        op = op + (-1.0) * alg.psi(merged) * oracle_wick(alg, rest[1:], depth)
        op = op + (-1.0) * oracle_wick(alg, (merged,) + rest[1:], depth)
    return op


class TestAlgebra:
    def test_gram_matrices(self):
        assert np.allclose(matrix_algebra().gram, np.eye(4) / 2)
        assert np.allclose(function_algebra().gram, np.diag([1 / 2, 1 / 3, 1 / 6]))
        assert np.allclose(scalar_algebra().gram, [[1.0]])

    def test_non_tracial_state_is_rejected(self):
        a = matrix_algebra()
        bad = np.zeros(4, dtype=complex)
        bad[0] = 1.0  # the (1,1) matrix entry is not tracial
        with pytest.raises(ValueError, match="tracial"):
            TracialAlgebra("bad", a.mult, a.star_mat, bad, a.unit)

    def test_unnormalized_state_is_rejected(self):
        a = matrix_algebra()
        with pytest.raises(ValueError, match="unit to 1"):
            TracialAlgebra("bad", a.mult, a.star_mat, 2 * a.psi_vec, a.unit)

    def test_wrong_unit_is_rejected(self):
        a = matrix_algebra()
        unit = np.zeros(4, dtype=complex)
        unit[0] = 1.0
        with pytest.raises(ValueError, match="identity"):
            TracialAlgebra("bad", a.mult, a.star_mat, a.psi_vec, unit)

    def test_matrix_product_and_star(self):
        a = matrix_algebra()
        e01 = np.zeros(4, dtype=complex)
        e01[1] = 1.0
        e10 = np.zeros(4, dtype=complex)
        e10[2] = 1.0
        prod = a.multiply(e01, e10)  # E01 E10 = E00
        assert np.allclose(prod, [1, 0, 0, 0])
        assert np.allclose(a.star(e01), e10)
        assert a.psi(prod) == pytest.approx(0.5)


class TestFockSpace:
    def test_vacuum_and_words(self):
        v = tensor_word((), 4, L)
        assert v.shape == (fock_rows(4, L), 1)
        assert live_degrees(v, 4, L) == (0, 0)
        assert np.linalg.norm(v) == 1.0
        a = matrix_algebra()
        x, y = letters_for(a, 2)
        w = tensor_word([x, y], 4, L)
        assert w.shape == (fock_rows(4, L), 1)
        assert live_degrees(w, 4, L) == (2, 2)
        assert np.allclose(degree_part(w, 4, 2)[:, 0], np.kron(x, y))

    def test_word_longer_than_cap_is_rejected(self):
        a = matrix_algebra()
        xs = letters_for(a, L + 1)
        with pytest.raises(ValueError, match="longer than the depth cap"):
            tensor_word(xs, 4, L)

    def test_inner_product_matches_the_state(self):
        a = matrix_algebra()
        x, y = letters_for(a, 2)
        u = tensor_word([x], 4, L)
        v = tensor_word([y], 4, L)
        want = a.psi(a.multiply(a.star(y), x))
        assert np.vdot(v, gram_apply(a, u)) == pytest.approx(want)
        # degree-2 words multiply factorwise
        u2 = tensor_word([x, x], 4, L)
        v2 = tensor_word([y, y], 4, L)
        assert np.vdot(v2, gram_apply(a, u2)) == pytest.approx(want * want)


class TestPrimitiveOperators:
    def test_degree_shifts(self):
        a = matrix_algebra()
        x, y = letters_for(a, 2)
        w2 = tensor_word([x, y], 4, L)
        vac = tensor_word((), 4, L)
        assert live_degrees(creation(a, x, L)(w2), 4, L) == (3, 3)
        assert live_degrees(annihilation(a, x, L)(w2), 4, L) == (1, 1)
        assert live_degrees(preservation(a, x, L)(w2), 4, L) == (2, 2)
        assert not np.any(annihilation(a, x, L)(vac))
        assert not np.any(preservation(a, x, L)(vac))

    def test_creation_drops_the_top_degree(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        top = tensor_word([x] * L, 4, L)
        assert not np.any(creation(a, x, L)(top))

    def test_annihilation_pairs_the_first_factor(self):
        a = matrix_algebra()
        x, y = letters_for(a, 2)
        w2 = tensor_word([x, y], 4, L)
        got = annihilation(a, x, L)(w2)
        val = a.psi(a.multiply(a.star(x), x))
        assert np.allclose(degree_part(got, 4, 1)[:, 0], val * y)

    def test_p_on_the_vacuum(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        out = p_operator(a, x, L)(tensor_word((), 4, L))
        assert np.allclose(out[0], a.psi(x))
        assert np.allclose(degree_part(out, 4, 1)[:, 0], x)
        assert live_degrees(out, 4, L) == (0, 1)

    def test_input_must_be_a_block_of_columns(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        p = p_operator(a, x, L)
        with pytest.raises(ValueError, match="rows by columns"):
            p(tensor_word((), 4, L)[:, 0])
        with pytest.raises(ValueError, match="rows by columns"):
            p(tensor_word((), 4, L - 1))
        with pytest.raises(ValueError, match="rows by columns"):
            FockOperator(L, 4, 0, lambda v: v)(np.zeros((fock_rows(4, L), 1, 1)))

    def test_exact_degree_bookkeeping(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        p = p_operator(a, x, L)
        assert p.exact_input_degree == L - 1
        assert (p @ p).exact_input_degree == L - 2
        assert (p + p).exact_input_degree == L - 1
        assert identity_operator(4, L).exact_input_degree == L


class TestWickOperator:
    def test_single_letter_is_centered_p(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        lhs = wick(a, [x], L)
        rhs = p_operator(a, x, L) + (-1.0) * a.psi(x) * identity_operator(4, L)
        assert operator_residual(lhs, rhs) < 1e-15

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vacuum_property(self, alg, n):
        chk = verify_vacuum(alg, letters_for(alg, n), L)
        assert chk.passed, str(chk)

    def test_word_exceeding_cap_is_rejected(self):
        a = matrix_algebra()
        with pytest.raises(ValueError, match="exceeds the depth cap"):
            wick(a, letters_for(a, L + 1), L)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_adjoints(self, alg):
        xs = letters_for(alg, 3)
        assert verify_p_adjoint(alg, xs[0], L).passed
        assert verify_wick_adjoint(alg, xs[:2], L).passed
        assert verify_wick_adjoint(alg, xs[:3], L).passed


class TestDiagramCombinatorics:
    def test_ncl_counts_are_central_binomials(self):
        for n in range(1, 5):
            assert len(all_ncl(n)) == math.comb(2 * n, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_prepend_split_bijection(self, n):
        assert prepend_split_is_bijection(n)

    def test_split_image_counts(self):
        for n in (1, 2, 3):
            total = sum(4 if pi.k else 2 for pi in all_ncl(n))
            assert total == len(all_ncl(n + 1))

    def test_split_of_the_empty_diagram(self):
        images = split_images(make_linear(0, [], []))
        assert len(images) == 2
        assert set(images) == set(all_ncl(1))


class TestWpi:
    def test_worked_example(self):
        a = matrix_algebra()
        ds = letters_for(a, 6)
        pi = make_linear(6, [(1, 2), (3,), (4,), (5, 6)], [(1, 2), (4,)])
        scal = a.psi(ds[2]) * a.psi(a.multiply(ds[4], ds[5]))
        want = scal * wick(a, [a.multiply(ds[0], ds[1]), ds[3]], L)
        assert operator_residual(w_pi(a, pi, ds, L), want) < 1e-12

    def test_all_open_singletons_reduce_to_plain_wick(self):
        a = function_algebra()
        ds = letters_for(a, 3)
        lhs = w_pi(a, open_singletons(3), ds, L)
        assert operator_residual(lhs, wick(a, ds, L)) < 1e-15

    def test_closed_singleton_is_a_state_multiple_of_identity(self):
        a = matrix_algebra()
        (x,) = letters_for(a, 1)
        pi = make_linear(1, [(1,)], [])
        lhs = w_pi(a, pi, [x], L)
        rhs = a.psi(x) * identity_operator(4, L)
        assert operator_residual(lhs, rhs) < 1e-15

    def test_size_mismatch_is_rejected(self):
        a = matrix_algebra()
        with pytest.raises(ValueError, match="does not match"):
            w_pi(a, open_singletons(2), letters_for(a, 3), L)


class TestConvolution:
    def test_concatenation_example(self):
        pi = make_linear(5, [(1, 2), (3, 4), (5,)], [(1, 2), (5,)])
        sigma = make_linear(6, [(1, 2), (3,), (4,), (5, 6)], [(1, 2), (4,), (5, 6)])
        out = convolution(pi, sigma)
        assert len(out) == 5
        concat = out[0]
        assert {tuple(sorted(b)) for b in concat.perm.cycles()} == {
            (1, 2), (3, 4), (5,), (6, 7), (8,), (9,), (10, 11)}
        assert {frozenset(b) for b in concat.opens} == {
            frozenset(b) for b in [(1, 2), (5,), (6, 7), (9,), (10, 11)]}

    def test_two_open_pairs_merge_five_ways(self):
        five = convolution(open_singletons(2), open_singletons(2))
        shapes = [
            ({(1,), (2,), (3,), (4,)}, {(1,), (2,), (3,), (4,)}),
            ({(1,), (2, 3), (4,)}, {(1,), (2, 3), (4,)}),
            ({(1,), (2, 3), (4,)}, {(1,), (4,)}),
            ({(1, 4), (2, 3)}, {(1, 4)}),
            ({(1, 4), (2, 3)}, set()),
        ]
        got = [
            ({tuple(sorted(b)) for b in t.perm.cycles()},
             {tuple(sorted(b)) for b in t.opens})
            for t in five
        ]
        assert got == shapes

    def test_size_law_exhaustively(self):
        for m in (1, 2):
            for n in (1, 2):
                universe = set(all_ncl(m + n))
                for pi in all_ncl(m):
                    for sigma in all_ncl(n):
                        out = convolution(pi, sigma)
                        assert len(out) == 2 * min(pi.k, sigma.k) + 1
                        assert len(set(out)) == len(out)
                        assert set(out) <= universe

    def test_closed_side_gives_plain_concatenation(self):
        pi = make_linear(2, [(1, 2)], [])
        out = convolution(pi, open_singletons(2))
        assert len(out) == 1

    def test_three_against_three_open_singletons(self):
        out = convolution(open_singletons(3), open_singletons(3))
        assert len(out) == 7
        assert len(set(out)) == 7


class TestIdentities:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decomposition(self, alg, n):
        chk = verify_decomposition(alg, letters_for(alg, n), L)
        assert chk.passed, str(chk)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_prepend_split_operator_identity(self, alg):
        xs = letters_for(alg, 3)
        diagrams = [
            open_singletons(2),
            make_linear(2, [(1, 2)], [(1, 2)]),
            make_linear(2, [(1,), (2,)], [(2,)]),
        ]
        for pi in diagrams:
            chk = verify_prepend(alg, xs[0], pi, xs[1:3], L)
            assert chk.passed, str(chk)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_product_theorem(self, alg):
        xs = letters_for(alg, 4)
        cases = [
            (open_singletons(1), xs[:1], open_singletons(1), xs[1:2]),
            (open_singletons(2), xs[:2], open_singletons(2), xs[2:4]),
            (make_linear(2, [(1, 2)], [(1, 2)]), xs[:2],
             make_linear(2, [(1,), (2,)], [(2,)]), xs[2:4]),
            (make_linear(1, [(1,)], []), xs[:1],
             open_singletons(2), xs[1:3]),
        ]
        for pi, w1, sigma, w2 in cases:
            chk = verify_product(alg, pi, w1, sigma, w2, L)
            assert chk.passed, str(chk)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_inductive_step(self, alg):
        xs = letters_for(alg, 4)
        assert verify_inductive_step(alg, xs[:2], xs[2:4], L).passed
        assert verify_inductive_step(alg, xs[:1], xs[1:4], L).passed

    def test_report_all_green(self):
        checks = wick_report(depth=4, seed=1)
        assert checks, "report must not be empty"
        failed = [str(c) for c in checks if not c.passed]
        assert not failed, failed


# -- batched residuals against the per-basis-vector oracle -------------------
#
# The residual checks apply each operator to blocks of coordinate basis
# vectors at once.  The oracle below applies it to one basis vector at a
# time, as the checks once did.


def basis_vectors(dim, depth, max_degree):
    for flat in range(fock_rows(dim, max_degree)):
        v = np.zeros((fock_rows(dim, depth), 1), dtype=complex)
        v[flat] = 1.0
        yield v


def oracle_operator_residual(lhs, rhs):
    degree = min(lhs.exact_input_degree, rhs.exact_input_degree)
    worst = scale = 0.0
    for x in basis_vectors(lhs.dim, lhs.depth, degree):
        a, b = lhs(x), rhs(x)
        worst = max(worst, np.linalg.norm(a - b))
        scale = max(scale, np.linalg.norm(a), np.linalg.norm(b))
    return worst / max(scale, 1e-30)


def oracle_adjoint_residual(alg, op, op_star):
    degree = min(op.exact_input_degree, op_star.exact_input_degree)
    cut = fock_rows(op.dim, degree)
    basis = list(basis_vectors(op.dim, op.depth, degree))
    outs = [op(x) for x in basis]
    outs_star = [op_star(x) for x in basis]
    # the Gram matrix of the whole space, cut afterwards
    lhs = np.hstack([gram_apply(alg, o)[:cut] for o in outs])
    via_star = np.hstack([gram_apply(alg, o)[:cut] for o in outs_star])
    diff = np.abs(lhs - via_star.conj().T).max()
    scale = max(max(np.linalg.norm(o) for o in outs + outs_star),
                float(np.abs(lhs).max()), float(np.abs(via_star).max()), 1e-30)
    return float(diff / scale)


def random_block(dim, depth, width, seed=3):
    rng = np.random.default_rng(seed)
    shape = (fock_rows(dim, depth), width)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBatchedOperators:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_operators_act_column_by_column(self, alg):
        (x,) = letters_for(alg, 1)
        block = random_block(alg.dim, L, 5)
        ops = [creation(alg, x, L), annihilation(alg, x, L), preservation(alg, x, L),
               wick(alg, [x], L), wick(alg, letters_for(alg, 2), L)]
        for op in ops:
            out = op(block)
            assert out.shape == block.shape
            for j in range(5):
                want = op(block[:, j:j + 1])
                assert np.allclose(out[:, j:j + 1], want, rtol=0, atol=1e-12)
        gram = gram_apply(alg, block)
        for j in range(5):
            want = gram_apply(alg, block[:, j:j + 1])
            assert np.allclose(gram[:, j:j + 1], want, rtol=0, atol=1e-12)
        # the first degrees alone give the first rows of the whole
        cut = fock_rows(alg.dim, 2)
        assert np.allclose(gram_apply(alg, block[:cut]), gram[:cut], rtol=0, atol=1e-12)

    def test_gram_needs_whole_degrees(self):
        a = function_algebra()
        block = random_block(a.dim, 2, 2)
        with pytest.raises(ValueError, match="degree boundary"):
            gram_apply(a, block[:fock_rows(a.dim, 1) + 1])

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    def test_residuals_match_the_oracle(self, alg):
        depth = 4  # the matrix algebra's depth-5 case has a test of its own
        x, y, z = letters_for(alg, 3)
        p = lambda d: p_operator(alg, d, depth)  # noqa: E731
        operator_pairs = [
            (p(x) @ p(y), p(y) @ p(x)),  # not equal: a residual of order one
            (wick(alg, [x], depth),
             p(x) + (-1.0) * alg.psi(x) * identity_operator(alg.dim, depth)),
            (p(x) @ p(y) @ p(z), p(x) @ (p(y) @ p(z))),
        ]
        for lhs, rhs in operator_pairs:
            got = operator_residual(lhs, rhs)
            assert abs(got - oracle_operator_residual(lhs, rhs)) <= 1e-12
        adjoint_pairs = [
            (p(x), p(alg.star(x))),
            (p(x), p(x)),  # not self-adjoint for a random complex letter
            (wick(alg, [x, y], depth), wick(alg, [alg.star(y), alg.star(x)], depth)),
        ]
        for op, op_star in adjoint_pairs:
            got = adjoint_residual(alg, op, op_star)
            assert abs(got - oracle_adjoint_residual(alg, op, op_star)) <= 1e-12

    def test_matrix_algebra_spans_many_blocks(self):
        a = matrix_algebra()
        x, y = letters_for(a, 2)
        op, op_star = p_operator(a, x, L), p_operator(a, a.star(x), L)
        columns = sum(a.dim**r for r in range(op.exact_input_degree + 1))
        assert columns == 341 > BASIS_BLOCK
        got = adjoint_residual(a, op, op_star)
        assert abs(got - oracle_adjoint_residual(a, op, op_star)) <= 1e-12
        assert got <= 1e-12
        wrong = p_operator(a, y, L)
        got = adjoint_residual(a, op, wrong)
        assert abs(got - oracle_adjoint_residual(a, op, wrong)) <= 1e-12
        assert got > 1e-3
        got = operator_residual(op, wrong)
        assert abs(got - oracle_operator_residual(op, wrong)) <= 1e-12
        assert got > 1e-3


# -- the Wick kernel against the oracle ---------------------------------------


def basis_blocks(dim, depth, max_degree, columns=8 * BASIS_BLOCK):
    """The coordinate basis vectors of degree at most `max_degree` of the
    depth-`depth` space, in blocks of `columns` vectors."""
    rows, cut = fock_rows(dim, depth), fock_rows(dim, max_degree)
    for start in range(0, cut, columns):
        width = min(columns, cut - start)
        block = np.zeros((rows, width), dtype=complex)
        block[np.arange(start, start + width), np.arange(width)] = 1.0
        yield block


def assert_agree_up_to_degree(op, oracle, max_degree):
    assert (op.depth, op.dim, op.creation_degree) == (
        oracle.depth, oracle.dim, oracle.creation_degree)
    for block in basis_blocks(op.dim, op.depth, max_degree):
        got, want = op(block), oracle(block)
        scale = max(np.linalg.norm(got), np.linalg.norm(want), 1e-30)
        assert np.linalg.norm(got - want) <= 1e-12 * scale


class TestFusedOperators:
    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_centered_p_is_the_sum_of_the_three_operators(self, alg, depth):
        # the one-letter Wick product, on the whole space
        for x in letters_for(alg, 2):
            assert_agree_up_to_degree(wick(alg, (x,), depth),
                                      oracle_centered_p(alg, x, depth), depth)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_wick_matches_the_four_term_recursion(self, alg, depth):
        # words of up to four letters, the longest the report applies, on
        # the exact subspace: above it the recursion's truncated creations
        # drop terms that a later annihilation would bring back under the cap
        xs = letters_for(alg, 4)
        for n in range(min(depth, 4) + 1):
            op = wick(alg, xs[:n], depth)
            assert_agree_up_to_degree(op, oracle_wick(alg, xs[:n], depth),
                                      op.exact_input_degree)

    @pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda a: a.name)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_wick_is_the_deeper_product_cut_to_the_cap(self, alg, depth):
        # on the whole space, an n-letter product at depth L gives the
        # first L degrees of its exact image at depth L + n
        xs = letters_for(alg, 3)
        rows = fock_rows(alg.dim, depth)
        for n in range(depth + 1):
            deeper = wick(alg, xs[:n], depth + n)
            padded = np.zeros((fock_rows(alg.dim, depth + n), rows), dtype=complex)
            padded[:rows] = np.eye(rows)
            got = wick(alg, xs[:n], depth)(padded[:rows])
            assert np.allclose(got, deeper(padded)[:rows], rtol=0, atol=1e-12)

    def test_centered_p_reads_a_strided_block(self):
        a = matrix_algebra()
        block = random_block(a.dim, 3, 6)
        for n in (1, 3):
            op = wick(a, letters_for(a, n), 3)
            assert np.allclose(op(block[:, ::2]), op(np.ascontiguousarray(block[:, ::2])),
                               rtol=0, atol=1e-12)

    def test_depth_zero_is_rejected(self):
        a = scalar_algebra()
        with pytest.raises(ValueError, match="exceeds the depth cap"):
            p_operator(a, np.ones(1), 0)
