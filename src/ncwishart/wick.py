"""Truncated Fock-space model for Wick products (free Kailath-Segall
polynomials) over a finite-dimensional *-algebra with a tracial state.

The half-permutation calculus from :mod:`ncwishart.halfperm` indexes
generalized Wick products ``W_pi``; this module realizes them as linear
operators on a depth-truncated full Fock space so that the product,
decomposition, and adjoint identities can be verified as dense numerical
residuals.  Truncation is handled by contract: an operator that raises
degree by at most ``g`` acts exactly on vectors of degree at most
``depth - g``, and every verification restricts to that subspace.

A block of vectors of the depth-L space is a complex array of shape
(D, columns), D = 1 + dim + ... + dim^L, with degree-major rows (see
:func:`tensor_word`).  The operators stay lazy, closures applied by rule
rather than dense D x D matrices: the report composes over a hundred.

One kernel does the work: the Wick product W of a word (:func:`wick`),
applied by the product rule one letter at a time, right to left.  Each
letter d writes its creation as an in-place broadcast of d against the
degree below, and its preservation and the annihilation of d* as one
BLAS product per degree.  ``p(d)`` is W(d) + psi(d) I, so a word of n
letters costs n passes, and the one-letter product is the sum of
creation, annihilation and preservation.  The command line runs BLAS on
one thread (see :mod:`ncwishart.cli`); the products are a few rows by
thousands of columns, where a second thread only waits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .halfperm import LinearHalfPerm, enum_ncl, make_linear

RESIDUAL_TOL = 1e-9

# Coordinate basis vectors per operator application in the residual checks:
# wide enough to amortize the per-call cost of the operator trees, narrow
# enough that a block of the largest space stays well under a megabyte.
BASIS_BLOCK = 32

_AXIOM_TOL = 1e-12
_AXIOM_SAMPLES = 8


# ---------------------------------------------------------------------------
# the coefficient algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TracialAlgebra:
    """A finite-dimensional unital *-algebra carrying a tracial state.

    Elements are complex coefficient vectors over a fixed basis.
    ``mult[i, j, k]`` is the coefficient of basis element ``k`` in the
    product of basis elements ``i`` and ``j``; ``star_mat`` maps the
    conjugated coefficients of an element to the coefficients of its
    adjoint; ``psi_vec[i]`` is the state applied to basis element ``i``;
    ``unit`` holds the coefficients of the identity.

    The state axioms (unit normalization, traciality on basis pairs,
    positivity on a fixed random sample, involutivity of the star) are
    asserted at construction.
    """

    name: str
    mult: np.ndarray
    star_mat: np.ndarray
    psi_vec: np.ndarray
    unit: np.ndarray

    def __post_init__(self) -> None:
        d = self.dim
        if self.mult.shape != (d, d, d):
            raise ValueError("multiplication table shape does not match the basis")
        if self.star_mat.shape != (d, d) or self.unit.shape != (d,):
            raise ValueError("structure table shapes are inconsistent")
        self._check_axioms()

    @property
    def dim(self) -> int:
        return len(self.psi_vec)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", x, y, self.mult)

    def product(self, letters: Iterable[np.ndarray]) -> np.ndarray:
        return reduce(self.multiply, letters)

    def star(self, x: np.ndarray) -> np.ndarray:
        return self.star_mat @ np.conj(x)

    def psi(self, x: np.ndarray) -> complex:
        return complex(self.psi_vec @ x)

    @cached_property
    def gram(self) -> np.ndarray:
        """Inner-product matrix of the basis: state of (adjoint of j) * i."""
        d = self.dim
        basis = np.eye(d, dtype=complex)
        return np.array(
            [
                [
                    self.psi(self.multiply(self.star(basis[j]), basis[i]))
                    for j in range(d)
                ]
                for i in range(d)
            ]
        )

    def random_element(self, rng: np.random.Generator) -> np.ndarray:
        re, im = rng.standard_normal(self.dim), rng.standard_normal(self.dim)
        return (re + 1j * im) / np.sqrt(2.0)

    def _check_axioms(self) -> None:
        d = self.dim
        basis = np.eye(d, dtype=complex)
        for i in range(d):
            b = basis[i]
            if not np.allclose(self.multiply(self.unit, b), b, atol=_AXIOM_TOL):
                raise ValueError("unit is not a left identity")
            if not np.allclose(self.multiply(b, self.unit), b, atol=_AXIOM_TOL):
                raise ValueError("unit is not a right identity")
        if abs(self.psi(self.unit) - 1.0) > _AXIOM_TOL:
            raise ValueError("the state must send the unit to 1")
        for i in range(d):
            for j in range(d):
                lhs = self.psi(self.multiply(basis[i], basis[j]))
                rhs = self.psi(self.multiply(basis[j], basis[i]))
                if abs(lhs - rhs) > _AXIOM_TOL:
                    raise ValueError("the state is not tracial on basis pairs")
        rng = np.random.default_rng(1851)
        for _ in range(_AXIOM_SAMPLES):
            x = self.random_element(rng)
            if not np.allclose(self.star(self.star(x)), x, atol=_AXIOM_TOL):
                raise ValueError("the star map is not an involution")
            val = self.psi(self.multiply(self.star(x), x))
            if val.real < -_AXIOM_TOL or abs(val.imag) > _AXIOM_TOL:
                raise ValueError("the state is not positive")


def scalar_algebra() -> TracialAlgebra:
    """The complex numbers with the identity state."""
    return TracialAlgebra(
        name="scalars",
        mult=np.ones((1, 1, 1), dtype=complex),
        star_mat=np.eye(1, dtype=complex),
        psi_vec=np.ones(1, dtype=complex),
        unit=np.ones(1, dtype=complex),
    )


def matrix_algebra() -> TracialAlgebra:
    """Full 2x2 complex matrices with the normalized trace.

    Basis: matrix units E(a, b) at index 2a + b.
    """
    idx = lambda a, b: 2 * a + b  # noqa: E731 - local index helper
    mult = np.zeros((4, 4, 4), dtype=complex)
    star = np.zeros((4, 4), dtype=complex)
    psi = np.zeros(4, dtype=complex)
    unit = np.zeros(4, dtype=complex)
    for a in range(2):
        for b in range(2):
            star[idx(b, a), idx(a, b)] = 1.0
            for c in range(2):
                for e in range(2):
                    if b == c:
                        mult[idx(a, b), idx(c, e), idx(a, e)] = 1.0
        psi[idx(a, a)] = 0.5
        unit[idx(a, a)] = 1.0
    return TracialAlgebra(
        name="matrix_2x2", mult=mult, star_mat=star, psi_vec=psi, unit=unit
    )


def function_algebra() -> TracialAlgebra:
    """Complex functions on three points with weights 1/2, 1/3, 1/6.

    A commutative algebra whose state is faithful but not a multiple of
    the uniform one, so it separates bookkeeping mistakes that the
    matrix trace would mask.
    """
    d = 3
    mult = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        mult[i, i, i] = 1.0
    return TracialAlgebra(
        name="functions_3pt",
        mult=mult,
        star_mat=np.eye(d, dtype=complex),
        psi_vec=np.array([1 / 2, 1 / 3, 1 / 6], dtype=complex),
        unit=np.ones(d, dtype=complex),
    )


# ---------------------------------------------------------------------------
# truncated Fock space
# ---------------------------------------------------------------------------


def _degree_rows(dim: int, depth: int) -> list[slice]:
    """The row slice of each degree 0..depth."""
    bounds = list(itertools.accumulate((dim**r for r in range(depth + 1)), initial=0))
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _on_first_factor(mat: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Apply ``mat`` (rows x dim) to the first tensor factor of the rows of
    one degree: one BLAS product ``mat @ seg.reshape(dim, -1)``.

    Returns ``rows`` slices of ``seg.size // dim`` entries each.  The
    operands are a few rows by thousands of columns; the command line runs
    BLAS on one thread, so no product waits on a second one.
    """
    return mat @ seg.reshape(mat.shape[1], -1)


def tensor_word(letters: Sequence[np.ndarray], dim: int, depth: int) -> np.ndarray:
    """The tensor product of the letters as a single column.

    The vacuum row comes first, then the ``dim`` rows of degree 1, then
    the ``dim**2`` rows of degree 2, first tensor factor major:

    >>> tensor_word([[1, 2], [3, 5]], 2, 2).real.ravel().tolist()
    [0.0, 0.0, 0.0, 3.0, 5.0, 6.0, 10.0]
    """
    if len(letters) > depth:
        raise ValueError("word is longer than the depth cap")
    rows = _degree_rows(dim, depth)
    v = np.zeros((rows[-1].stop, 1), dtype=complex)
    v[rows[len(letters)], 0] = reduce(np.kron, letters, np.ones(1, dtype=complex))
    return v


def _basis_blocks(dim: int, depth: int, max_degree: int) -> Iterator[np.ndarray]:
    """Coordinate tensor-word basis vectors of degree at most ``max_degree``,
    in order of degree, as blocks of at most BASIS_BLOCK columns."""
    rows = _degree_rows(dim, depth)
    cut = rows[max_degree].stop
    for start in range(0, cut, BASIS_BLOCK):
        width = min(BASIS_BLOCK, cut - start)
        block = np.zeros((rows[-1].stop, width), dtype=complex)
        block[np.arange(start, start + width), np.arange(width)] = 1.0
        yield block


def gram_apply(alg: TracialAlgebra, v: np.ndarray) -> np.ndarray:
    """Apply the block-diagonal Gram matrix (per-degree tensor powers).

    The rows of ``v`` hold degrees 0, 1, ..., k for any k: a vector of the
    depth-k space, or the first rows of a deeper one.
    """
    G, d = alg.gram, alg.dim
    out = np.empty(v.shape, dtype=complex)
    start = r = 0
    while start < len(v):
        rows = slice(start, start + d**r)
        arr = v[rows]
        if len(arr) != d**r:
            raise ValueError("the rows do not end at a degree boundary")
        for _ in range(r):
            # G acts on the first factor, which then moves to the back of
            # the word: r turns reach every factor and restore the order
            turned = _on_first_factor(G, arr).reshape(d, -1, v.shape[1])
            arr = np.moveaxis(turned, 0, 1).reshape(d**r, -1)
        out[rows] = arr
        start, r = rows.stop, r + 1
    return out


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FockOperator:
    """A linear map on the truncated Fock space, applied by rule.

    ``creation_degree`` bounds how far the operator can raise the degree
    along any path of its expression tree; inputs of degree at most
    ``depth - creation_degree`` are therefore mapped exactly, with no
    truncation loss anywhere in the evaluation.  The input is an array of
    column vectors of the depth-``depth`` space.
    """

    depth: int
    dim: int
    creation_degree: int
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        rows = _degree_rows(self.dim, self.depth)[-1].stop
        if np.ndim(v) != 2 or len(v) != rows:
            raise ValueError(f"expected {rows} rows by columns, got shape {np.shape(v)}")
        return self.fn(v)

    @property
    def exact_input_degree(self) -> int:
        """Largest input degree on which the action is guaranteed exact."""
        return self.depth - self.creation_degree

    def _like(self, creation_degree: int, fn) -> "FockOperator":
        return FockOperator(self.depth, self.dim, creation_degree, fn)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        if (self.depth, self.dim) != (other.depth, other.dim):
            raise ValueError("operators live on different spaces")
        return self._like(
            self.creation_degree + other.creation_degree,
            lambda v: self.fn(other.fn(v)),
        )

    def __add__(self, other: "FockOperator") -> "FockOperator":
        if (self.depth, self.dim) != (other.depth, other.dim):
            raise ValueError("operators live on different spaces")
        return self._like(
            max(self.creation_degree, other.creation_degree),
            lambda v: self.fn(v) + other.fn(v),
        )

    def __mul__(self, scalar: complex) -> "FockOperator":
        return self._like(self.creation_degree, lambda v: self.fn(v) * scalar)

    __rmul__ = __mul__


def identity_operator(dim: int, depth: int) -> FockOperator:
    return FockOperator(depth, dim, 0, lambda v: v)


def _first_factor_actions(alg: TracialAlgebra, d_el: np.ndarray) -> np.ndarray:
    """The two actions of a letter d on the first tensor factor, stacked as
    a (dim + 1) x dim matrix.

    Row k < dim holds the coefficient of b_k in d b_i (preservation); the
    last row holds psi(d b_i), the pairing of b_i against d* that
    annihilation of the adjoint applies.
    """
    left = np.tensordot(d_el, alg.mult, axes=(0, 0)).T  # [k, i] of d * b_i
    return np.vstack([left, alg.psi_vec @ left])


def wick(
    alg: TracialAlgebra, word: Sequence[np.ndarray], depth: int
) -> FockOperator:
    """The Wick product of a tensor word: the unique polynomial in the
    ``p`` operators that maps the vacuum to the word.

    With d' the word without its last letter d_m, the product rule reads
    W(d) = C(d) + C(d') P(d_m) + W(d') A(d_m): C(w) creates the word w in
    front, P(d_m) multiplies the first factor by d_m and A(d_m) pairs it
    against d_m*.  Read right to left it is one pass per letter over two
    arrays: x, the input with the letters passed so far annihilated, and
    z, x plus the carry the passed letters created.  A pass sends z to
    C(d_m) z + P(d_m) x + A(d_m) x in place, by a broadcast of d_m against
    the degree below, and x to A(d_m) x, by one BLAS product per degree of
    x with the stacked first-factor actions.  Each pass takes the top
    degree off x, so x after the first pass lives in a buffer one degree
    shorter than the input, and each BLAS loop stops at the degrees x
    still holds.  Once the first letter is passed, z is the output.  No
    intermediate degree exceeds both the input's and the output's, so on
    any input the output is the exact image cut at the depth cap.  The
    empty word gives the identity.
    """
    letters = tuple(np.asarray(w, dtype=complex) for w in word)
    if len(letters) > depth:
        raise ValueError(f"word of length {len(letters)} exceeds the depth cap {depth}")
    dim = alg.dim
    passes = [(d[:, None, None], _first_factor_actions(alg, d)) for d in reversed(letters)]
    rows = _degree_rows(dim, depth)
    downward = list(zip(rows, rows[1:]))[::-1]

    def apply(v: np.ndarray) -> np.ndarray:
        cols = v.shape[1]
        z, x = v.copy(), v
        shorter = np.empty((rows[-1].start, cols), dtype=complex)
        # x holds degrees up to `top`, one fewer after each pass
        for top, (d_col, actions) in zip(range(depth, 0, -1), passes):
            for lower, upper in downward:
                np.multiply(d_col, z[lower][None], out=z[upper].reshape(dim, -1, cols))
            z[rows[0]] = 0.0
            # upward, so each degree of x is read before it is overwritten
            for lower, upper in zip(rows, rows[1:top + 1]):
                acted = _on_first_factor(actions, x[upper])
                z[upper] += acted[:dim].reshape(-1, cols)
                shorter[lower] = acted[dim].reshape(-1, cols)
                z[lower] += shorter[lower]
            x = shorter
        return z

    return FockOperator(depth, dim, len(letters), apply)


def p_operator(alg: TracialAlgebra, d_el: np.ndarray, depth: int) -> FockOperator:
    """Creation + annihilation-of-the-adjoint + preservation + state term:
    the one-letter Wick product plus psi(d) I."""
    return wick(alg, (d_el,), depth) + alg.psi(d_el) * identity_operator(alg.dim, depth)


def w_pi(
    alg: TracialAlgebra,
    pi: LinearHalfPerm,
    word: Sequence[np.ndarray],
    depth: int,
) -> FockOperator:
    """Generalized Wick product indexed by a linear half-permutation.

    The state is applied to the product over each closed block, and the
    open-block products (points in increasing order, blocks ordered by
    smallest point) form the word of a plain Wick product.
    """
    letters = tuple(np.asarray(w, dtype=complex) for w in word)
    if len(letters) != pi.n:
        raise ValueError(
            f"word length {len(letters)} does not match the diagram size {pi.n}"
        )
    scalar = complex(1.0)
    for block in pi.closed_blocks():
        scalar *= alg.psi(alg.product(letters[p - 1] for p in block))
    opens = sorted((tuple(sorted(b)) for b in pi.opens), key=lambda b: b[0])
    reduced = tuple(alg.product(letters[p - 1] for p in b) for b in opens)
    return scalar * wick(alg, reduced, depth)


# ---------------------------------------------------------------------------
# diagram combinatorics: full NCL, the prepend split, and convolution
# ---------------------------------------------------------------------------


def all_ncl(n: int) -> tuple[LinearHalfPerm, ...]:
    """Every linear half-permutation on [n], all open-block counts."""
    return tuple(
        itertools.chain.from_iterable(enum_ncl(n, k) for k in range(n + 1))
    )


def open_singletons(n: int) -> LinearHalfPerm:
    """The diagram whose blocks are n open singletons."""
    blocks = [(i,) for i in range(1, n + 1)]
    return make_linear(n, blocks, blocks)


def _shift_blocks(pi: LinearHalfPerm, offset: int):
    closed = [tuple(p + offset for p in b) for b in pi.closed_blocks()]
    opens = [tuple(p + offset for p in sorted(b)) for b in pi.opens]
    opens.sort(key=lambda b: b[0])
    return closed, opens


def split_images(pi: LinearHalfPerm) -> tuple[LinearHalfPerm, ...]:
    """Images of the prepend split: the ways a new leftmost point joins.

    Returns, in order: the new point as an open singleton; joined to the
    first open block and closed; joined to the first open block and left
    open; the new point as a closed singleton.  The two join cases are
    omitted when the diagram has no open block.
    """
    n = pi.n
    closed, opens = _shift_blocks(pi, 1)
    images = [
        make_linear(n + 1, closed + opens + [(1,)], opens + [(1,)]),
    ]
    if opens:
        first, rest = opens[0], opens[1:]
        joined = (1,) + first
        images.append(make_linear(n + 1, closed + [joined] + rest, rest))
        images.append(
            make_linear(n + 1, closed + [joined] + rest, [joined] + rest)
        )
    images.append(make_linear(n + 1, closed + opens + [(1,)], opens))
    return tuple(images)


def prepend_split_is_bijection(n: int) -> bool:
    """Whether the prepend split hits every diagram on [n+1] exactly once."""
    seen: list[LinearHalfPerm] = []
    for pi in all_ncl(n):
        seen.extend(split_images(pi))
    target = all_ncl(n + 1)
    if len(seen) != len(target):
        return False
    return set(seen) == set(target)


def convolution(
    pi: LinearHalfPerm, sigma: LinearHalfPerm
) -> tuple[LinearHalfPerm, ...]:
    """All merges of two diagrams placed side by side.

    The first entry is the plain concatenation.  The following entries
    join open blocks pairwise — the rightmost open block of the left
    diagram with the leftmost open block of the right — each join
    appearing once left open and once closed before the next pair is
    joined; with j and k open blocks this yields exactly
    2*min(j, k) + 1 diagrams.
    """
    m, n = pi.n, sigma.n
    left_closed, left_open = _shift_blocks(pi, 0)
    right_closed, right_open = _shift_blocks(sigma, m)
    j, k = len(left_open), len(right_open)
    out = [
        make_linear(
            m + n,
            left_closed + left_open + right_closed + right_open,
            left_open + right_open,
        )
    ]
    for r in range(1, min(j, k) + 1):
        joins = [left_open[j - i] + right_open[i - 1] for i in range(1, r + 1)]
        keep_left, keep_right = left_open[: j - r], right_open[r:]
        blocks = left_closed + right_closed + joins + keep_left + keep_right
        out.append(
            make_linear(m + n, blocks, keep_left + [joins[-1]] + keep_right)
        )
        out.append(make_linear(m + n, blocks, keep_left + keep_right))
    return tuple(out)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorCheck:
    """Outcome of one residual check, sized against RESIDUAL_TOL."""

    theorem: str
    instance: str
    max_residual: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= RESIDUAL_TOL


_SCALE_FLOOR = 1e-30


def operator_residual(lhs: FockOperator, rhs: FockOperator) -> float:
    """Relative difference of two operators on their common exact subspace:
    the largest output difference over the coordinate basis, against the
    largest output norm."""
    if (lhs.depth, lhs.dim) != (rhs.depth, rhs.dim):
        raise ValueError("operators live on different spaces")
    degree = min(lhs.exact_input_degree, rhs.exact_input_degree)
    if degree < 0:
        raise ValueError("no exact subspace at this depth cap")
    worst = 0.0
    scale = 0.0
    for x in _basis_blocks(lhs.dim, lhs.depth, degree):
        a, b = lhs(x), rhs(x)
        worst = max(worst, float(np.linalg.norm(a - b, axis=0).max()))
        scale = max(scale, float(np.linalg.norm(a, axis=0).max()),
                    float(np.linalg.norm(b, axis=0).max()))
    return worst / max(scale, _SCALE_FLOOR)


def adjoint_residual(
    alg: TracialAlgebra, op: FockOperator, op_star: FockOperator
) -> float:
    """Relative failure of ``op_star`` to be the adjoint of ``op``.

    Compares the two sesquilinear forms over the coordinate tensor-word
    basis of the common exact subspace, with the per-degree Gram matrix
    supplying the inner product.  The form of ``op_star`` is held whole;
    each basis block of ``op``'s form is compared against its rows as it
    is produced.
    """
    degree = min(op.exact_input_degree, op_star.exact_input_degree)
    if degree < 0:
        raise ValueError("no exact subspace at this depth cap")
    cut = _degree_rows(op.dim, degree)[-1].stop

    def form(operator: FockOperator) -> Iterator[tuple[slice, np.ndarray, float]]:
        """Gram-weighted outputs on the subspace block by block: the
        basis columns, one output column per basis vector, and the
        largest output norm."""
        start = 0
        for x in _basis_blocks(op.dim, op.depth, degree):
            out = operator(x)
            cols = slice(start, start + x.shape[1])
            start = cols.stop
            yield cols, gram_apply(alg, out[:cut]), float(np.linalg.norm(out, axis=0).max())

    # scale against the full operator outputs, not just the paired window:
    # the forms may legitimately vanish on the subspace while the
    # operators themselves are of order one
    scale = _SCALE_FLOOR
    via_star = np.empty((cut, cut), dtype=complex)
    for cols, block, top in form(op_star):
        via_star[:, cols] = block
        scale = max(scale, top, float(np.abs(block).max()))
    diff = 0.0
    for cols, block, top in form(op):
        scale = max(scale, top, float(np.abs(block).max()))
        diff = max(diff, float(np.abs(block - via_star[cols].conj().T).max()))
    return diff / scale


def verify_vacuum(
    alg: TracialAlgebra, word: Sequence[np.ndarray], depth: int
) -> OperatorCheck:
    """Defining property: the Wick product maps the vacuum, the empty
    word, to its word."""
    got = wick(alg, word, depth)(tensor_word((), alg.dim, depth))
    want = tensor_word(word, alg.dim, depth)
    residual = float(np.linalg.norm(got - want) / max(np.linalg.norm(want), _SCALE_FLOOR))
    return OperatorCheck(
        "vacuum action", f"{alg.name}, n={len(word)}, L={depth}", residual
    )


def verify_p_adjoint(
    alg: TracialAlgebra, d_el: np.ndarray, depth: int
) -> OperatorCheck:
    residual = adjoint_residual(
        alg,
        p_operator(alg, d_el, depth),
        p_operator(alg, alg.star(d_el), depth),
    )
    return OperatorCheck("p adjoint", f"{alg.name}, L={depth}", residual)


def verify_wick_adjoint(
    alg: TracialAlgebra, word: Sequence[np.ndarray], depth: int
) -> OperatorCheck:
    """Adjoint rule: reverse the word and star each letter."""
    reversed_star = tuple(alg.star(w) for w in reversed(tuple(word)))
    residual = adjoint_residual(
        alg,
        wick(alg, word, depth),
        wick(alg, reversed_star, depth),
    )
    return OperatorCheck(
        "wick adjoint", f"{alg.name}, n={len(tuple(word))}, L={depth}", residual
    )


def verify_decomposition(
    alg: TracialAlgebra, word: Sequence[np.ndarray], depth: int
) -> OperatorCheck:
    """Moment-product expansion: the product of the p operators equals the
    sum of the generalized Wick products over all diagrams."""
    letters = tuple(np.asarray(w, dtype=complex) for w in word)
    n = len(letters)
    if n > depth - 1:
        raise ValueError("need the word at least one shorter than the depth cap")
    lhs = reduce(
        FockOperator.__matmul__, (p_operator(alg, w, depth) for w in letters)
    )
    terms = [w_pi(alg, pi, letters, depth) for pi in all_ncl(n)]
    rhs = reduce(FockOperator.__add__, terms)
    residual = operator_residual(lhs, rhs)
    return OperatorCheck(
        "wick decomposition", f"{alg.name}, n={n}, L={depth}", residual
    )


def verify_prepend(
    alg: TracialAlgebra,
    d0: np.ndarray,
    pi: LinearHalfPerm,
    word: Sequence[np.ndarray],
    depth: int,
) -> OperatorCheck:
    """One step of the decomposition: multiplying a generalized Wick
    product by a new p operator splits over the prepend images."""
    letters = tuple(np.asarray(w, dtype=complex) for w in word)
    lhs = p_operator(alg, d0, depth) @ w_pi(alg, pi, letters, depth)
    extended = (np.asarray(d0, dtype=complex),) + letters
    terms = [w_pi(alg, img, extended, depth) for img in split_images(pi)]
    rhs = reduce(FockOperator.__add__, terms)
    residual = operator_residual(lhs, rhs)
    return OperatorCheck(
        "prepend split", f"{alg.name}, pi={pi}, L={depth}", residual
    )


def verify_product(
    alg: TracialAlgebra,
    pi: LinearHalfPerm,
    word_left: Sequence[np.ndarray],
    sigma: LinearHalfPerm,
    word_right: Sequence[np.ndarray],
    depth: int,
) -> OperatorCheck:
    """Product rule: two generalized Wick products multiply to the sum
    over their convolution, applied to the concatenated word."""
    left = tuple(np.asarray(w, dtype=complex) for w in word_left)
    right = tuple(np.asarray(w, dtype=complex) for w in word_right)
    if len(left) + len(right) > depth - 1:
        raise ValueError(
            "need the combined word at least one shorter than the depth cap"
        )
    lhs = w_pi(alg, pi, left, depth) @ w_pi(alg, sigma, right, depth)
    terms = [
        w_pi(alg, tau, left + right, depth) for tau in convolution(pi, sigma)
    ]
    rhs = reduce(FockOperator.__add__, terms)
    residual = operator_residual(lhs, rhs)
    return OperatorCheck(
        "wick product",
        f"{alg.name}, pi={pi}, sigma={sigma}, L={depth}",
        residual,
    )


def verify_inductive_step(
    alg: TracialAlgebra,
    d_word: Sequence[np.ndarray],
    e_word: Sequence[np.ndarray],
    depth: int,
) -> OperatorCheck:
    """Vector identity driving the product rule: applying a Wick product
    to a tensor word, minus the state-paired shortened application,
    leaves the concatenation plus the boundary-merged word.  It is the
    recursion :func:`wick` applies, restated on tensor words."""
    d_let = tuple(np.asarray(w, dtype=complex) for w in d_word)
    e_let = tuple(np.asarray(w, dtype=complex) for w in e_word)
    if not d_let or not e_let:
        raise ValueError("both words must be nonempty")
    dim = alg.dim
    e_vec = tensor_word(e_let, dim, depth)
    e_tail = tensor_word(e_let[1:], dim, depth)
    lhs = wick(alg, d_let, depth)(e_vec)
    lhs = lhs - alg.psi(alg.multiply(d_let[-1], e_let[0])) * (
        wick(alg, d_let[:-1], depth)(e_tail)
    )
    merged = d_let[:-1] + (alg.multiply(d_let[-1], e_let[0]),) + e_let[1:]
    rhs = tensor_word(d_let + e_let, dim, depth) + tensor_word(merged, dim, depth)
    residual = float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), _SCALE_FLOOR))
    return OperatorCheck(
        "inductive step",
        f"{alg.name}, m={len(d_let)}, n={len(e_let)}, L={depth}",
        residual,
    )


# ---------------------------------------------------------------------------
# the standard report
# ---------------------------------------------------------------------------


def _convolution_sizes_ok(max_left: int, max_right: int) -> bool:
    for m in range(1, max_left + 1):
        for n in range(1, max_right + 1):
            universe = set(all_ncl(m + n))
            for pi in all_ncl(m):
                for sigma in all_ncl(n):
                    merged = convolution(pi, sigma)
                    expect = 2 * min(pi.k, sigma.k) + 1
                    if len(merged) != expect or len(set(merged)) != expect:
                        return False
                    if not set(merged) <= universe:
                        return False
    return True


def wick_report(
    depth: int = 5,
    seed: int = 0,
    algebras: Sequence[TracialAlgebra] | None = None,
) -> list[OperatorCheck]:
    """Run the standard identity suite and return one check per instance.

    Covers the vacuum action, both adjoint rules, the moment-product
    decomposition with its prepend-split bijection, the product rule on
    a spread of diagram pairs, the inductive vector identity, and the
    convolution size law.
    """
    if algebras is None:
        algebras = (scalar_algebra(), matrix_algebra(), function_algebra())
    rng = np.random.default_rng(seed)
    checks: list[OperatorCheck] = []
    max_word = min(3, depth - 1)
    for alg in algebras:
        letters = [alg.random_element(rng) for _ in range(6)]
        for n in range(1, max_word + 1):
            checks.append(verify_vacuum(alg, letters[:n], depth))
        checks.append(verify_p_adjoint(alg, letters[0], depth))
        for n in range(2, max_word + 1):
            checks.append(verify_wick_adjoint(alg, letters[:n], depth))
        for n in range(1, max_word + 1):
            checks.append(verify_decomposition(alg, letters[:n], depth))
        for pi in (open_singletons(2), make_linear(2, [(1, 2)], [(1, 2)])):
            checks.append(verify_prepend(alg, letters[3], pi, letters[4:6], depth))
        pairs = [
            (open_singletons(1), letters[:1], open_singletons(1), letters[1:2]),
            (open_singletons(2), letters[:2], open_singletons(2), letters[2:4]),
            (
                make_linear(2, [(1, 2)], [(1, 2)]),
                letters[:2],
                make_linear(2, [(1,), (2,)], [(2,)]),
                letters[2:4],
            ),
        ]
        for pi, w1, sigma, w2 in pairs:
            if pi.n + sigma.n <= depth - 1:
                checks.append(verify_product(alg, pi, w1, sigma, w2, depth))
        checks.append(verify_inductive_step(alg, letters[:2], letters[2:4], depth))
    for n in range(1, 4):
        ok = prepend_split_is_bijection(n)
        checks.append(OperatorCheck("prepend bijection", f"n={n}", 0.0 if ok else 1.0))
    sizes_ok = _convolution_sizes_ok(2, 2)
    checks.append(OperatorCheck("convolution sizes", "m,n <= 2", 0.0 if sizes_ok else 1.0))
    return checks
