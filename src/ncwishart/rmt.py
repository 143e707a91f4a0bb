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
bit on a given platform.  Per batch and matrix the real parts A of
G = A + iB are drawn first, then the imaginary parts B, both with unit
variance; the trace code below does not change these draws, which the
benchmark's recorded `mc` results depend on.

The sampler forms the smaller Gram matrix, W = G G* (M-by-M) when M < N
and W = G*G (N-by-N) otherwise; the two share their nonzero spectrum, so
Tr X^k = Tr W^k / (2N)^k.  It never forms a complex array.  W = R + iS
with R symmetric and S = X - X^T antisymmetric:

    R = A A^T + B B^T,  X = B A^T   when M < N,
    R = A^T A + B^T B,  X = A^T B   otherwise.

Its powers W^j = R_j + i S_j follow from W^(j+1) = (R_j R - S_j S) +
i (R_j S + S_j R), where S_j R = -(R S_j)^T, up to j = ceil(k/2), and

    Tr W^2j = |R_j|^2 + |S_j|^2,   Tr W^(2j+1) = <R_j, R_(j+1)> + <S_j, S_(j+1)>,

with Frobenius products throughout; Tr W^3 = <R, R^2> + 3 <S, RS> needs
no S^2.  The traces are scaled by (2N)^-k once at the end.  The cross
traces (2N)^2 Tr(X_i X_j) are <R_i, R_j> + <S_i, S_j> from the N-by-N
Grams, or |G_i G_j*|^2 from four real products when M < N, for the pairs
the config names only.

One worker thread draws, batch by batch and matrix by matrix, into two
rotating buffers allocated once, while this thread multiplies the draws
in the other; each slot keeps its own generator, so the draws, and the
traces, are those of drawing in turn.  The products run on sub-batches
of about 2^15 Gram entries (8 samples at 64x64, one at 200x200), in
workspaces allocated once and written in place; nothing is allocated
per batch.  For Grams of up to a
few hundred rows a second BLAS thread only competes with the draws.  So
the command line sets OPENBLAS_NUM_THREADS=1 before numpy first loads,
unless a BLAS thread variable is already set: `mc` and `verify wick`, the
two commands that load numpy, run BLAS on one thread.
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations

import numpy as np

from .families import Family, predict_covariance, transition_matrix
# not used here: the benchmark tracer wraps these two names in this module
from .halfperm import weighted_count  # noqa: F401
from .limits import SAMPLE_BATCH, check_sampler_sizes, sampled_pairs
from .perms import enum_snc  # noqa: F401

# the entries of one product workspace: the whole batch of Grams up to
# 32x32, 8 samples at 64x64, one sample past 128x128
_WORKSPACE_ENTRIES = 2**15


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
        check_sampler_sizes(self.num_matrices, self.num_samples, self.max_degree,
                            self.rows, self.cols, self.mixed)
        if self.ratio is not None and self.ratio <= 0:
            raise ValueError("ratio must be positive")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The pairs i < j whose cross traces Tr(X_i X_j) are sampled."""
        return sampled_pairs(self.num_matrices, self.mixed)

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

    `sample_traces` reads them off the smaller Gram W = R + iS of each
    draw G in real arithmetic (see the module docstring), in sub-batches
    sized from the Gram, while one worker thread makes the next draws.
    The draws are those of forming X = G*G / 2N in full, and so are the
    traces, to rounding; they are bit for bit those of drawing in turn."""

    config: EnsembleConfig
    powers: np.ndarray
    pair_traces: dict


def _inner(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """<a, b> = Tr(a^T b) for each matrix of two batches of real matrices:
    Tr(a b) when a is symmetric, and the squared Frobenius norm when a is
    b."""
    return np.einsum("bij,bij->b", a, b, out=out)


def _draw(jobs: list) -> None:
    """A run of draws, each one batch of one matrix's: the real parts,
    then the imaginary ones."""
    for gen, block in jobs:
        gen.standard_normal(out=block[0])
        gen.standard_normal(out=block[1])


def _gram(a, b, wide: bool, r, s, t) -> None:
    """Write W = r + i s, the smaller Gram of G = a + i b: r = a a^T + b b^T
    and x = b a^T when wide, else r = a^T a + b^T b and x = a^T b; then
    s = x - x^T.  t is scratch."""
    at, bt = a.transpose(0, 2, 1), b.transpose(0, 2, 1)
    if wide:
        np.matmul(a, at, out=r)
        r += np.matmul(b, bt, out=t)
        x = np.matmul(b, at, out=t)
    else:
        np.matmul(at, a, out=r)
        r += np.matmul(bt, b, out=t)
        x = np.matmul(at, b, out=t)
    np.subtract(x, x.transpose(0, 2, 1), out=s)


def _powers(r, s, out: np.ndarray, scratch: list) -> None:
    """Fill out[k-1] with Tr W^k for W = r + i s (r symmetric, s
    antisymmetric) and k up to len(out), building W^j = R_j + i S_j in
    the scratch arrays up to j = ceil(len(out) / 2)."""
    np.einsum("bii->b", r, out=out[0])
    rj, sj = r, s
    for k in range(2, len(out) + 1):
        if k % 2 == 0:  # Tr W^2j = |R_j|^2 + |S_j|^2
            _inner(rj, rj, out=out[k - 1])
            out[k - 1] += _inner(sj, sj)
            continue
        # k = 2j + 1: W^(j+1) = (R_j R - S_j S) + i (R_j S + S_j R)
        free = [w for w in scratch if w is not rj and w is not sj]
        rr = np.matmul(rj, r, out=free[0])
        rs = np.matmul(rj, s, out=free[1])
        if rj is r:  # Tr W^3 = <R, R^2> + 3 <S, RS>, as SR = -(RS)^T
            _inner(r, rr, out=out[2])
            out[2] += 3 * _inner(s, rs)
            if len(out) == 3:
                return
        ss = np.matmul(sj, s, out=free[2])
        rr -= ss
        # S_j R = -(R S_j)^T, which is -(RS)^T when j = 1
        sr = rs if rj is r else np.matmul(r, sj, out=ss)
        s_next = np.subtract(rs, sr.transpose(0, 2, 1), out=ss if sr is rs else rs)
        if rj is not r:
            _inner(rj, rr, out=out[k - 1])
            out[k - 1] += _inner(sj, s_next)
        rj, sj = rr, s_next


def _wide_cross(ai, bi, aj, bj, out: np.ndarray, c, d, t) -> None:
    """out = |G_i G_j*|^2 = (2N)^2 Tr(X_i X_j) for G = a + i b, with
    G_i G_j* = C + iD, C = A_i A_j^T + B_i B_j^T and D = B_i A_j^T - A_i B_j^T,
    formed in c and d; t is scratch."""
    aj_t, bj_t = aj.transpose(0, 2, 1), bj.transpose(0, 2, 1)
    np.matmul(ai, aj_t, out=c)
    c += np.matmul(bi, bj_t, out=t)
    np.matmul(bi, aj_t, out=d)
    d -= np.matmul(ai, bj_t, out=t)
    _inner(c, c, out=out)
    out += _inner(d, d)


def sample_traces(config: EnsembleConfig) -> TraceSamples:
    """Run the Monte Carlo and collect trace statistics.

    One worker thread (numpy's draws release the GIL) fills the two draw
    buffers in turn.  A buffer takes a run of batches of about 2^15
    entries when batches are smaller, so that tiny matrices pay a thread
    handoff per run, not per batch.  The cross trace of a pair i < j is
    taken at j from what i kept of the batch: its draws when wide, else
    T_i = R_i + S_i, as <R_i, R_j> + <S_i, S_j> = <T_i, R_j> + <T_i, S_j>
    (a symmetric and an antisymmetric matrix are orthogonal)."""
    m, n, p = config.rows, config.cols, config.num_matrices
    total = config.num_samples
    root = np.random.SeedSequence(config.seed)
    gens = [np.random.default_rng(child) for child in root.spawn(p)]
    wide = m < n  # the Gram G G* is the smaller one
    d = min(m, n)

    powers = np.empty((p, config.max_degree, total))
    pairs = {pair: np.empty(total) for pair in config.pairs}
    size = min(SAMPLE_BATCH, total)
    sub = max(1, min(size, _WORKSPACE_ENTRIES // (d * d)))
    run = max(1, _WORKSPACE_ENTRIES // (2 * size * m * n))
    draws = np.empty((2, run, 2, size, m, n))  # [buffer, step, real | imaginary]
    kept = {i: np.empty((2, size, m, n) if wide else (size, d, d)) for i, _ in pairs}
    partners = [[(h, out) for (h, j), out in pairs.items() if j == i] for i in range(p)]
    # W = R + iS and the scratch of _gram (one), then of _powers (two at
    # degree 3, three at 4, five from 5 on); _wide_cross reuses R, S and one
    scratch = 5 if config.max_degree >= 5 else max(1, config.max_degree - 1)
    work = np.empty((2 + scratch, sub, d, d))
    steps = -(-total // SAMPLE_BATCH) * p
    pool = ThreadPoolExecutor(1)

    def block(step: int) -> np.ndarray:
        """The buffer slot of a step: batch step // p of matrix step % p."""
        rest = total - step // p * SAMPLE_BATCH
        return draws[step // run % 2, step % run, :, :min(SAMPLE_BATCH, rest)]

    def submit(first: int) -> Future:
        return pool.submit(_draw, [(gens[k % p], block(k))
                                   for k in range(first, min(first + run, steps))])

    try:
        pending = submit(0)
        for step in range(steps):
            if step % run == 0:  # this run's draws are in: start the next run
                pending.result()
                if step + run < steps:
                    pending = submit(step + run)
            i, done = step % p, step // p * SAMPLE_BATCH
            g = block(step)
            b = g.shape[1]
            if wide and i in kept:
                np.copyto(kept[i][:, :b], g)
            for lo in range(0, b, sub):
                hi = min(lo + sub, b)
                r, s, *spare = work[:, :hi - lo]
                re, im = g[:, lo:hi]
                _gram(re, im, wide, r, s, spare[0])
                if not wide and i in kept:
                    np.add(r, s, out=kept[i][lo:hi])
                _powers(r, s, powers[i, :, done + lo:done + hi], spare)
                for h, out in partners[i]:
                    dst = out[done + lo:done + hi]
                    if wide:
                        _wide_cross(*kept[h][:, lo:hi], re, im, dst, r, s, spare[0])
                    else:  # <W_h, W_i> = <T_h, R_i> + <T_h, S_i>
                        _inner(kept[h][lo:hi], r, out=dst)
                        dst += _inner(kept[h][lo:hi], s)
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
