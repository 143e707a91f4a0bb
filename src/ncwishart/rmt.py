"""Monte Carlo estimation of Wishart trace statistics.

Samples complex Wishart matrices X = G*G (G an M-by-N complex Gaussian
matrix with entry variance 1/N), records unnormalized power traces and
the pair cross-traces, and compares empirical means, variances, and
covariances of polynomial trace statistics against their exact limiting
values.  The limits come from the paper's diagonalization: the covariance
of two power traces is read off the inverse arc-sine table (whose entries
count circular half-permutations), polynomial traces in the centered
family have mean (-1)^n c' and variance n c^n, and the alternating
two-letter product is centered with variance c^2.

Sampling is deterministic for a fixed config: each matrix slot gets its
own child of one seed sequence, so statistics are reproducible bit for
bit on a given platform.  Per batch and matrix the real parts of G are
drawn first, then the imaginary parts, both with unit variance; the
trace code below does not change these draws, which the benchmark's
recorded `mc` results depend on.  The
sampler forms the smaller Gram matrix, W = G G* (M-by-M) when M < N and
W = G*G (N-by-N) otherwise; the two share their nonzero spectrum, so
Tr X^k = Tr W^k / (2N)^k.  It forms W^j only up to j = ceil(k/2) and reads

    Tr W^2j = |W^j|_F^2,    Tr W^(2j+1) = Re <W^j, W^(j+1)>_F,

scaling by (2N)^-k once at the end.  The cross traces (2N)^2 Tr(X_i X_j)
are <W_i, W_j>_F from the N-by-N Grams, or |G_i G_j*|_F^2 when M < N,
for the pairs the config names only.

The draws run on worker threads, min(p, cores) of them: while this
thread runs the Gram, power and Frobenius products of a batch, each
matrix slot's next batch is drawn into two float buffers allocated once,
one batch in flight per slot.  Each slot keeps its own generator, so the
draws, and the traces, are those of drawing in turn.  For Grams of up
to a few hundred rows a second BLAS thread only competes with the draws,
so `mc` sets OPENBLAS_NUM_THREADS=1 before numpy loads unless a BLAS
thread variable is already set.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .families import (
    MAX_BATCH_ENTRIES,
    MAX_DEGREE,
    MAX_MATRICES,
    MAX_STORED_TRACES,
    Family,
    predict_covariance,
    transition_matrix,
)
# not used here: the benchmark tracer wraps these two names in this module
from .halfperm import weighted_count  # noqa: F401
from .perms import enum_snc  # noqa: F401

_BATCH = 32


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape, size, and seed of a Wishart sampling run.

    `ratio` is the exact c parameter used in predictions; it defaults to
    rows/cols.  The exact c' parameter is rows - c*cols, zero under the
    default ratio.  Passing an explicit `ratio` models a sequence whose
    limit differs from the finite-size ratio, e.g. rows=205, cols=200
    with ratio 1 gives c' = 5.

    `mixed` names a second pair of matrices (numbered from 0) whose cross
    trace is sampled, besides the pair (0, 1) that the suite reads when
    at least two matrices are sampled; `pairs` lists them all.
    """

    rows: int
    cols: int
    num_matrices: int = 1
    num_samples: int = 1000
    max_degree: int = 3
    seed: int = 0
    ratio: Fraction | None = None
    mixed: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if not 1 <= self.num_matrices <= MAX_MATRICES:
            raise ValueError(f"num_matrices {self.num_matrices} is out of range (cap {MAX_MATRICES})")
        if self.num_samples < 2:
            raise ValueError("need at least two samples")
        if not 1 <= self.max_degree <= MAX_DEGREE:
            raise ValueError(f"max_degree {self.max_degree} is out of range (cap {MAX_DEGREE})")
        p = self.num_matrices
        batch = p * min(_BATCH, self.num_samples) * self.rows * self.cols
        if batch > MAX_BATCH_ENTRIES:
            raise ValueError(
                f"a batch of {p} matrices of {self.rows}x{self.cols} draws holds {batch} "
                f"entries (cap {MAX_BATCH_ENTRIES}); lower --N, --M or --p"
            )
        if self.mixed is not None:
            i, j = self.mixed
            if i == j or not (0 <= i < p and 0 <= j < p):
                raise ValueError(f"mixed pair {self.mixed} needs two of the {p} matrices")
        stored = (p * self.max_degree + len(self.pairs)) * self.num_samples
        if stored > MAX_STORED_TRACES:
            raise ValueError(
                f"{self.num_samples} samples store {stored} traces "
                f"(cap {MAX_STORED_TRACES}); lower --samples"
            )
        if self.ratio is not None and self.ratio <= 0:
            raise ValueError("ratio must be positive")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs i < j whose cross traces Tr(X_i X_j) are sampled."""
        pairs = {(0, 1)} if self.num_matrices >= 2 else set()
        if self.mixed is not None:
            pairs.add((min(self.mixed), max(self.mixed)))
        return tuple(sorted(pairs))

    @property
    def c(self) -> Fraction:
        return Fraction(self.rows, self.cols) if self.ratio is None else self.ratio

    @property
    def c_prime(self) -> Fraction:
        return self.rows - self.c * self.cols


@dataclass
class TraceSamples:
    """Per-sample traces: powers[i, k-1, s] = Tr(X_i^k) for sample s, and
    pair_traces[(i, j)][s] = Tr(X_i X_j) for each (i, j) in config.pairs.

    `sample_traces` reads them off the smaller Gram W of each draw G (G G*
    when rows < cols, else G*G), as Tr W^2j = |W^j|_F^2 and Tr W^(2j+1) =
    Re <W^j, W^(j+1)>_F, scaled by (2N)^-k; the draws are those of forming
    X = G*G / 2N in full, and so are the traces, to rounding.  The next
    batch of draws is made on a worker thread while the current one is
    multiplied; the values are bit for bit those of drawing in turn."""

    config: EnsembleConfig
    powers: np.ndarray
    pair_traces: dict


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re<a, b> = Re Tr(a* b) for each matrix of two batches: Tr(a b) when
    a and b are Hermitian, and the squared Frobenius norm when a is b.
    Read as the dot product of the real views of the entries."""
    shape = (a.shape[0], -1)
    return np.einsum(
        "bi,bi->b", a.reshape(shape).view(np.float64), b.reshape(shape).view(np.float64)
    )


def _draw(gen: np.random.Generator, re: np.ndarray, im: np.ndarray) -> None:
    """One batch of a slot's draws: the real parts, then the imaginary ones."""
    gen.standard_normal(out=re)
    gen.standard_normal(out=im)


def _power_traces(g: np.ndarray, wide: bool, out: np.ndarray) -> np.ndarray:
    """Fill out[k-1] with Tr W^k for each draw of the batch g, W its
    smaller Gram, and return W.  Only the last two powers are held."""
    g_star = g.conj().transpose(0, 2, 1)
    w = np.matmul(g, g_star) if wide else np.matmul(g_star, g)
    out[0] = np.einsum("bii->b", w).real
    high = w  # W^j
    for k in range(2, len(out) + 1):
        if k % 2:  # Tr W^(2j+1) = Re<W^j, W^(j+1)>
            low, high = high, np.matmul(high, w)
            out[k - 1] = _inner(low, high)
        else:  # Tr W^2j = |W^j|^2
            out[k - 1] = _inner(high, high)
    return w


def _cross_trace(a: np.ndarray, b: np.ndarray, wide: bool) -> np.ndarray:
    """(2N)^2 Tr(X_i X_j) for each draw: |G_i G_j*|^2 from the draws when
    wide, else <W_i, W_j> from the N-by-N Grams."""
    if wide:  # Tr(G_i* G_i G_j* G_j) = |G_i G_j*|^2
        cross = np.matmul(a, b.conj().transpose(0, 2, 1))
        return _inner(cross, cross)
    return _inner(a, b)


def sample_traces(config: EnsembleConfig) -> TraceSamples:
    """Run the Monte Carlo and collect trace statistics.

    Each slot's next batch is drawn on a worker thread (numpy's draws
    release the GIL) while this thread runs the products of the current
    one; the worker fills the slot's two float buffers, which are copied
    out before its next draw is submitted."""
    m, n, p = config.rows, config.cols, config.num_matrices
    total = config.num_samples
    root = np.random.SeedSequence(config.seed)
    gens = [np.random.default_rng(child) for child in root.spawn(p)]
    wide = m < n  # the Gram G G* is the smaller one

    powers = np.empty((p, config.max_degree, total))
    pairs = {pair: np.empty(total) for pair in config.pairs}
    needed = {i for pair in pairs for i in pair}
    size = min(_BATCH, total)
    parts = [(np.empty((size, m, n)), np.empty((size, m, n))) for _ in range(p)]
    pool = ThreadPoolExecutor(max(1, min(p, os.cpu_count() or 1)))

    def submit(i: int, b: int) -> Future:
        re, im = parts[i]
        return pool.submit(_draw, gens[i], re[:b], im[:b])

    try:
        pending = [submit(i, size) for i in range(p)]
        for done in range(0, total, _BATCH):
            b = min(_BATCH, total - done)
            after = min(_BATCH, total - done - b)
            sl = slice(done, done + b)
            kept = {}  # what the cross traces read: the draws when wide, else the Grams
            for i in range(p):
                pending[i].result()
                g = np.empty((b, m, n), dtype=np.complex128)
                g.real, g.imag = parts[i][0][:b], parts[i][1][:b]
                if after:
                    pending[i] = submit(i, after)
                else:  # the last batch: free the buffers before the products
                    parts[i] = None
                w = _power_traces(g, wide, powers[i, :, sl])
                if i in needed:
                    kept[i] = g if wide else w
                del g, w  # so that the next slot's batch is not allocated beside them
            for (i, j), out in pairs.items():
                out[sl] = _cross_trace(kept[i], kept[j], wide)
    finally:
        pool.shutdown(cancel_futures=True)
    # X = G*G / 2N: undo the unit-variance draws in one pass per power
    powers *= (2.0 * n) ** -np.arange(1, config.max_degree + 1)[:, None]
    for out in pairs.values():
        out /= (2.0 * n) ** 2
    return TraceSamples(config=config, powers=powers, pair_traces=pairs)


# ---------------------------------------------------------------------------
# per-sample statistics
# ---------------------------------------------------------------------------


def power_trace(samples: TraceSamples, i: int, k: int) -> np.ndarray:
    """Tr(X_i^k) for every sample."""
    if not 1 <= k <= samples.config.max_degree:
        raise ValueError(f"power {k} was not sampled")
    return samples.powers[i, k - 1]


def polynomial_trace(
    samples: TraceSamples, family: Family, n: int, i: int
) -> np.ndarray:
    """Tr(f_n(X_i)) for every sample, f_n the degree-n polynomial of the
    family evaluated with the config's exact c parameter."""
    cfg = samples.config
    if n > cfg.max_degree:
        raise ValueError(f"degree {n} exceeds sampled max {cfg.max_degree}")
    coeffs = transition_matrix(family, n + 1)
    c = cfg.c
    out = np.full(
        cfg.num_samples, float(coeffs.entry(n, 0).evaluate(c)) * cfg.cols
    )
    for k in range(1, n + 1):
        w = float(coeffs.entry(n, k).evaluate(c))
        if w:
            out = out + w * power_trace(samples, i, k)
    return out


def pi_pair_trace(samples: TraceSamples, i: int, j: int) -> np.ndarray:
    """Tr(f_1(X_i) f_1(X_j)) for every sample, f_1 = x - c the degree-one
    centered polynomial: the shortest alternating product statistic."""
    if i == j:
        raise ValueError("the two letters must differ")
    cfg = samples.config
    pair = (min(i, j), max(i, j))
    if pair not in samples.pair_traces:
        raise ValueError(f"the cross trace of matrices {pair} was not sampled")
    cross = samples.pair_traces[pair]
    c = float(cfg.c)
    return (
        cross
        - c * power_trace(samples, i, 1)
        - c * power_trace(samples, j, 1)
        + c * c * cfg.cols
    )


# ---------------------------------------------------------------------------
# exact limits
# ---------------------------------------------------------------------------


def centered_trace_mean_limit(n: int, c: Fraction, c_prime: Fraction) -> Fraction:
    """Limit of E Tr(g_n(X)) for the centered first-kind family."""
    if n < 1:
        raise ValueError("degree must be positive")
    return (-1) ** n * c_prime


def centered_trace_covariance_limit(
    m: int, i: int, n: int, j: int, c: Fraction
) -> Fraction:
    """Limit of the covariance of Tr(g_m(X_i)) and Tr(g_n(X_j))."""
    if m < 1 or n < 1:
        raise ValueError("degrees must be positive")
    if i != j or m != n:
        return Fraction(0)
    return n * c**n


def second_kind_trace_mean_limit(
    n: int, c: Fraction, c_prime: Fraction
) -> Fraction:
    """Limit of E Tr(f_n(X)) for the second-kind family: zero in even
    degree, c' c^k in degree 2k+1."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n % 2 == 0:
        return Fraction(0)
    return c_prime * c ** ((n - 1) // 2)


def cyclic_symmetry_count(m_vec, i_vec) -> int:
    """Number of cyclic shifts fixing the word (its limiting variance is
    this count times c to the total degree)."""
    k = len(m_vec)
    if k != len(i_vec):
        raise ValueError("need one letter per degree")
    word = list(zip(m_vec, i_vec))
    return sum(1 for s in range(1, k + 1) if word == word[s:] + word[:s])


def word_variance_limit(m_vec, i_vec, c: Fraction) -> Fraction:
    """Limiting variance of the alternating-product trace statistic."""
    return cyclic_symmetry_count(m_vec, i_vec) * c ** sum(m_vec)


# ---------------------------------------------------------------------------
# estimation checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatCheck:
    """One estimated statistic held against its exact limit.

    `kind` says which estimator produced it (mean/variance/covariance) and
    `keys` names the underlying statistic(s): one for a mean, two for a
    (co)variance, so reports can be regrouped without parsing a name.
    """

    kind: str
    keys: tuple[str, ...]
    estimate: float
    limit: float
    tolerance: float
    se: float

    @property
    def passed(self) -> bool:
        return abs(self.estimate - self.limit) <= self.tolerance

    def __str__(self) -> str:
        verdict = "ok" if self.passed else "FAIL"
        if self.kind == "covariance":
            name = f"cov {self.keys[0]}, {self.keys[1]}"
        else:
            name = f"{'mean' if self.kind == 'mean' else 'var'} {self.keys[0]}"
        return (
            f"{name}: estimate {self.estimate:.6g}, "
            f"limit {self.limit:.6g}, tolerance {self.tolerance:.3g} "
            f"[{verdict}]"
        )


def tolerance_band(se: float, limit: float, cols: int) -> float:
    """Three standard errors plus a 10/N finite-size allowance scaled by
    the limit's magnitude."""
    return 3.0 * se + 10.0 / cols * (1.0 + abs(limit))


def _check(kind, keys, estimate, terms, limit, cols) -> StatCheck:
    """The check of an estimate that averages `terms`, its standard error
    read off their spread."""
    se = float(np.std(terms, ddof=1)) / math.sqrt(len(terms))
    return StatCheck(
        kind, tuple(keys), estimate, limit, tolerance_band(se, limit, cols), se
    )


def mean_check(values: np.ndarray, limit: float, cols: int, keys) -> StatCheck:
    return _check("mean", keys, float(np.mean(values)), values, limit, cols)


def covariance_check(
    x: np.ndarray, y: np.ndarray, limit: float, cols: int, keys
) -> StatCheck:
    prod = (x - np.mean(x)) * (y - np.mean(y))
    est = float(np.sum(prod) / (len(x) - 1))
    return _check("covariance", keys, est, prod, limit, cols)


def variance_check(values: np.ndarray, limit: float, cols: int, keys) -> StatCheck:
    """The covariance of the values with themselves."""
    return replace(covariance_check(values, values, limit, cols, keys), kind="variance")


def power_covariance_check(samples: TraceSamples, m: int, n: int) -> StatCheck:
    """Covariance of Tr(X_1^m) and Tr(X_1^n) against the diagonalized
    limit read off the inverse arc-sine table."""
    cfg = samples.config
    return covariance_check(
        power_trace(samples, 0, m),
        power_trace(samples, 0, n),
        float(predict_covariance(m, n).evaluate(cfg.c)),
        cfg.cols,
        (f"tr X1^{m}", f"tr X1^{n}"),
    )


def pair_variance_check(samples: TraceSamples, i: int, j: int) -> StatCheck:
    """Variance of the two-letter product Tr(f_1(X_i) f_1(X_j)) (matrices
    numbered from 0) against its limit c^2."""
    key = f"tr pi[1](X{i + 1}) pi[1](X{j + 1})"
    limit = float(word_variance_limit((1, 1), (i, j), samples.config.c))
    return variance_check(
        pi_pair_trace(samples, i, j), limit, samples.config.cols, (key, key)
    )


def evaluate_statistics(samples: TraceSamples) -> list[StatCheck]:
    """The full estimator suite for a sampling run.

    Checks, for every matrix and degree up to the config's max: the mean
    and variance of the centered first-kind trace, the mean of the
    second-kind trace, all pairwise covariances among the first-kind
    traces, the variance of the two-letter alternating product (when at
    least two matrices are sampled), and the covariance of plain power
    traces against the diagonalized limit.
    """
    config = samples.config
    c, c_prime, cols = config.c, config.c_prime, config.cols
    degrees = range(1, config.max_degree + 1)
    gamma_traces = {
        (n, i): polynomial_trace(samples, Family.GAMMA, n, i)
        for i in range(config.num_matrices)
        for n in degrees
    }
    key = {(n, i): f"tr gamma[{n}](X{i + 1})" for n, i in gamma_traces}

    checks = []
    for (n, i), values in gamma_traces.items():
        limit = float(centered_trace_mean_limit(n, c, c_prime))
        checks.append(mean_check(values, limit, cols, (key[n, i],)))
    for n, i in gamma_traces:
        values = polynomial_trace(samples, Family.PI, n, i)
        limit = float(second_kind_trace_mean_limit(n, c, c_prime))
        checks.append(mean_check(values, limit, cols, (f"tr pi[{n}](X{i + 1})",)))
    for (n, i), values in gamma_traces.items():
        limit = float(centered_trace_covariance_limit(n, i, n, i, c))
        checks.append(variance_check(values, limit, cols, (key[n, i],) * 2))
    for a, b in combinations(sorted(gamma_traces), 2):
        limit = float(centered_trace_covariance_limit(*a, *b, c))
        checks.append(
            covariance_check(
                gamma_traces[a], gamma_traces[b], limit, cols, (key[a], key[b])
            )
        )
    if config.num_matrices >= 2:
        checks.append(pair_variance_check(samples, 0, 1))
    for m in degrees:
        for n in range(m, config.max_degree + 1):
            checks.append(power_covariance_check(samples, m, n))
    return checks
