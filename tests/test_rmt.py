"""Tests for the Wishart Monte Carlo module (fast sizes only; the full
acceptance-scale run lives in the acceptance suite)."""

import math
import threading
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ncwishart.halfperm import weighted_count
from ncwishart.perms import enum_snc
from ncwishart.polyc import PolyC
from ncwishart.rmt import (
    _WORKSPACE_ENTRIES,
    EnsembleConfig,
    StatCheck,
    _inner,
    centered_trace_covariance_limit,
    centered_trace_mean_limit,
    covariance_check,
    cyclic_symmetry_count,
    evaluate_statistics,
    mean_check,
    pi_pair_trace,
    polynomial_trace,
    power_trace,
    sample_traces,
    second_kind_trace_mean_limit,
    tolerance_band,
    variance_check,
    word_variance_limit,
)
from ncwishart.families import Family, predict_covariance
from ncwishart.limits import (
    MAX_BATCH_ENTRIES,
    MAX_DEGREE,
    MAX_MATRICES,
    MAX_STORED_TRACES,
    SAMPLE_BATCH,
)


class TestConfig:
    def test_dimensions_must_be_positive(self):
        with pytest.raises(ValueError, match="dimensions"):
            EnsembleConfig(rows=0, cols=4)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError, match="two samples"):
            EnsembleConfig(rows=2, cols=2, num_samples=1)

    def test_ratio_must_be_positive(self):
        with pytest.raises(ValueError, match="ratio"):
            EnsembleConfig(rows=2, cols=2, ratio=Fraction(-1))

    @pytest.mark.parametrize("degree", [0, MAX_DEGREE + 1])
    def test_degree_range(self, degree):
        EnsembleConfig(rows=2, cols=2, max_degree=MAX_DEGREE)
        with pytest.raises(ValueError, match=f"cap {MAX_DEGREE}"):
            EnsembleConfig(rows=2, cols=2, max_degree=degree)

    @pytest.mark.parametrize("p", [0, MAX_MATRICES + 1])
    def test_matrix_count_range(self, p):
        EnsembleConfig(rows=2, cols=2, num_matrices=MAX_MATRICES)
        with pytest.raises(ValueError, match=f"cap {MAX_MATRICES}"):
            EnsembleConfig(rows=2, cols=2, num_matrices=p)

    def test_a_batch_of_draws_is_capped(self):
        # two samples of two 2048x2048 matrices fill the cap
        EnsembleConfig(rows=2048, cols=2048, num_matrices=2, num_samples=2)
        with pytest.raises(ValueError, match=f"cap {MAX_BATCH_ENTRIES}"):
            EnsembleConfig(rows=2048, cols=2049, num_matrices=2, num_samples=2)

    def test_the_trace_store_is_capped(self):
        # 2 matrices at degree 3 store 6 powers and 1 cross trace a sample
        most = MAX_STORED_TRACES // 7
        EnsembleConfig(rows=2, cols=2, num_matrices=2, num_samples=most)
        with pytest.raises(ValueError, match=f"cap {MAX_STORED_TRACES}"):
            EnsembleConfig(rows=2, cols=2, num_matrices=2, num_samples=most + 1)

    def test_the_store_counts_only_the_sampled_pairs(self):
        # 8 matrices at degree 1 store 8 powers and the one pair (0, 1)
        most = MAX_STORED_TRACES // 9
        EnsembleConfig(rows=2, cols=2, num_matrices=8, max_degree=1, num_samples=most)
        with pytest.raises(ValueError, match=f"cap {MAX_STORED_TRACES}"):
            EnsembleConfig(rows=2, cols=2, num_matrices=8, max_degree=1, num_samples=most + 1)
        # a --mixed pair other than (0, 1) is one more trace a sample
        with pytest.raises(ValueError, match=f"cap {MAX_STORED_TRACES}"):
            EnsembleConfig(rows=2, cols=2, num_matrices=8, max_degree=1, num_samples=most,
                           mixed=(7, 2))

    @pytest.mark.parametrize("p,mixed,pairs", [
        (1, None, ()),
        (2, None, ((0, 1),)),
        (8, None, ((0, 1),)),
        (3, (1, 0), ((0, 1),)),
        (4, (3, 1), ((0, 1), (1, 3))),
    ], ids=str)
    def test_the_sampled_pairs(self, p, mixed, pairs):
        assert EnsembleConfig(rows=2, cols=2, num_matrices=p, mixed=mixed).pairs == pairs

    @pytest.mark.parametrize("mixed", [(0, 0), (0, 2), (-1, 1)], ids=str)
    def test_the_mixed_pair_names_two_sampled_matrices(self, mixed):
        with pytest.raises(ValueError, match="mixed pair"):
            EnsembleConfig(rows=2, cols=2, num_matrices=2, mixed=mixed)

    def test_default_parameters_are_exact(self):
        cfg = EnsembleConfig(rows=100, cols=200)
        assert cfg.c == Fraction(1, 2)
        assert cfg.c_prime == 0

    def test_explicit_ratio_shifts_the_second_order_term(self):
        cfg = EnsembleConfig(rows=205, cols=200, ratio=Fraction(1))
        assert cfg.c == 1
        assert cfg.c_prime == 5


class TestSampling:
    def test_scalar_case_is_exact(self):
        cfg = EnsembleConfig(rows=1, cols=1, num_matrices=2, num_samples=40, seed=7)
        s = sample_traces(cfg)
        t1 = power_trace(s, 0, 1)
        assert (t1 > 0).all()
        assert np.allclose(power_trace(s, 0, 2), t1**2)
        assert np.allclose(power_trace(s, 0, 3), t1**3)
        assert np.allclose(s.pair_traces[(0, 1)], t1 * power_trace(s, 1, 1))

    def test_fixed_seed_reproduces_bit_for_bit(self):
        cfg = EnsembleConfig(rows=5, cols=6, num_matrices=2, num_samples=33, seed=3)
        a, b = sample_traces(cfg), sample_traces(cfg)
        assert np.array_equal(a.powers, b.powers)
        assert np.array_equal(a.pair_traces[(0, 1)], b.pair_traces[(0, 1)])

    def test_different_seeds_differ(self):
        base = dict(rows=5, cols=6, num_matrices=1, num_samples=33)
        a = sample_traces(EnsembleConfig(seed=3, **base))
        b = sample_traces(EnsembleConfig(seed=4, **base))
        assert not np.array_equal(a.powers, b.powers)

    def test_batching_covers_odd_sample_counts(self):
        cfg = EnsembleConfig(rows=3, cols=4, num_matrices=2, num_samples=71, seed=1)
        s = sample_traces(cfg)
        assert s.powers.shape == (2, 3, 71)
        assert s.pair_traces[(0, 1)].shape == (71,)
        # E Tr X = rows exactly at any finite size
        assert abs(np.mean(power_trace(s, 0, 1)) - 3) < 1.0

    def test_unsampled_powers_are_refused(self):
        cfg = EnsembleConfig(rows=2, cols=2, num_samples=5, max_degree=2, seed=0)
        s = sample_traces(cfg)
        with pytest.raises(ValueError, match="not sampled"):
            power_trace(s, 0, 3)
        with pytest.raises(ValueError, match="exceeds sampled max"):
            polynomial_trace(s, Family.GAMMA, 3, 0)

    def test_pair_trace_needs_two_letters(self):
        cfg = EnsembleConfig(rows=2, cols=2, num_matrices=2, num_samples=5, seed=0)
        s = sample_traces(cfg)
        with pytest.raises(ValueError, match="must differ"):
            pi_pair_trace(s, 1, 1)

    def test_an_unsampled_pair_is_refused(self):
        cfg = EnsembleConfig(rows=2, cols=2, num_matrices=3, num_samples=5, seed=0)
        s = sample_traces(cfg)
        assert s.pair_traces.keys() == {(0, 1)}
        with pytest.raises(ValueError, match="not sampled"):
            pi_pair_trace(s, 2, 1)

    def test_degree_one_polynomial_trace_is_the_centered_power(self):
        cfg = EnsembleConfig(rows=4, cols=4, num_samples=10, seed=2)
        s = sample_traces(cfg)
        got = polynomial_trace(s, Family.PI, 1, 0)
        want = power_trace(s, 0, 1) - float(cfg.c) * cfg.cols
        assert np.allclose(got, want)


def dense_sample_traces(config):
    """The sampler as first written, kept as the oracle of sample_traces:
    it scales G by 1/sqrt(2N), forms the N-by-N X = G*G whatever the shape,
    and takes every power by one more matmul.  Same draws."""
    m, n, p = config.rows, config.cols, config.num_matrices
    total, deg = config.num_samples, config.max_degree
    gens = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(p)]
    powers = np.empty((p, deg, total))
    pairs = {pair: np.empty(total) for pair in config.pairs}
    done = 0
    while done < total:
        b = min(SAMPLE_BATCH, total - done)
        sl = slice(done, done + b)
        mats = []
        for i in range(p):
            re = gens[i].standard_normal((b, m, n))
            im = gens[i].standard_normal((b, m, n))
            g = (re + 1j * im) / math.sqrt(2 * n)
            a = np.matmul(g.conj().transpose(0, 2, 1), g)
            mats.append(a)
            acc = a
            powers[i, 0, sl] = np.einsum("bii->b", a).real
            for k in range(1, deg):
                acc = np.matmul(acc, a)
                powers[i, k, sl] = np.einsum("bii->b", acc).real
        for (i, j), out in pairs.items():
            out[sl] = np.einsum("bij,bji->b", mats[i], mats[j]).real
        done += b
    return powers, pairs


def mixed_pair(p):
    """A --mixed pair other than (0, 1) once there are three matrices."""
    return (p - 1, p - 2) if p >= 3 else None


def cases(*grid):
    """pytest params over the product of the grids, with the ids that
    stacked parametrize marks give them (the last grid first)."""
    return [pytest.param(*case, id="-".join(map(str, reversed(case))))
            for case in product(*grid)]


# rows < cols forms G G*, rows >= cols forms G*G; 2 batches and a part.
# The caps: every power up to MAX_DEGREE, and MAX_MATRICES with a mixed
# pair.  A 40-row Gram takes its batch in sub-batches of 20 and 12, a
# 130-row one one sample at a time.
DENSE_CASES = [
    *cases([(3, 5), (4, 4), (5, 3)], range(1, 7), range(1, 4)),
    *cases([(3, 5), (5, 3)], [MAX_DEGREE], [1, 2]),
    *cases([(3, 5), (5, 3)], [4], [MAX_MATRICES]),
    *cases([(40, 48), (48, 40)], [5], [3]),
    *cases([(130, 132), (132, 130)], [4], [2]),
]


class TestAgainstTheDenseSampler:
    @pytest.mark.parametrize("shape,degree,p", DENSE_CASES)
    def test_traces_match(self, shape, degree, p):
        rows, cols = shape
        cfg = EnsembleConfig(rows=rows, cols=cols, num_matrices=p,
                             num_samples=2 * SAMPLE_BATCH + 7, max_degree=degree, seed=5,
                             mixed=mixed_pair(p))
        s = sample_traces(cfg)
        powers, pairs = dense_sample_traces(cfg)
        np.testing.assert_allclose(s.powers, powers, rtol=1e-12, atol=0)
        assert s.pair_traces.keys() == pairs.keys()
        for key, want in pairs.items():
            np.testing.assert_allclose(s.pair_traces[key], want, rtol=1e-12, atol=0)


def serial_sample_traces(config):
    """The sampler with its draws made in turn into new arrays, and the
    same real products on the same sub-batches, kept as the oracle of the
    draw order and the buffer rotation of sample_traces: same draws, same
    products, so the same bits.  (einsum sums a one-sample batch of more
    than 8192 entries in another order, so a sub-batch of one sample
    differs in the last bits from the same sample in a larger batch.)"""
    m, n, p = config.rows, config.cols, config.num_matrices
    total, deg = config.num_samples, config.max_degree
    gens = [np.random.default_rng(child)
            for child in np.random.SeedSequence(config.seed).spawn(p)]
    wide = m < n
    sub = max(1, min(SAMPLE_BATCH, total, _WORKSPACE_ENTRIES // min(m, n) ** 2))

    def t(x):
        return x.transpose(0, 2, 1)

    def side(x, y):  # the side of G G* when wide, else of G*G
        return x @ t(y) if wide else t(x) @ y

    def gram_traces(re, im, out):
        """Fill out with the power traces of G = re + i im; return W = r + i s."""
        r = side(re, re) + side(im, im)
        x = side(im, re) if wide else side(re, im)
        s = x - t(x)
        out[0] = np.einsum("bii->b", r)
        rj, sj = r, s  # W^j
        for k in range(2, deg + 1):
            if k % 2 == 0:
                out[k - 1] = _inner(rj, rj) + _inner(sj, sj)
                continue
            rr, rs = rj @ r, rj @ s
            if k == 3:
                out[2] = _inner(r, rr) + 3 * _inner(s, rs)
            r_next = rr - sj @ s
            s_next = rs - t(rs if k == 3 else r @ sj)
            if k > 3:
                out[k - 1] = _inner(rj, r_next) + _inner(sj, s_next)
            rj, sj = r_next, s_next
        return r, s

    powers = np.empty((p, deg, total))
    pairs = {pair: np.empty(total) for pair in config.pairs}
    for done in range(0, total, SAMPLE_BATCH):
        b = min(SAMPLE_BATCH, total - done)
        draws = [(gen.standard_normal((b, m, n)), gen.standard_normal((b, m, n)))
                 for gen in gens]
        for lo in range(0, b, sub):
            sl = slice(done + lo, done + min(lo + sub, b))
            part = [(re[lo:lo + sub], im[lo:lo + sub]) for re, im in draws]
            grams = [gram_traces(re, im, powers[i, :, sl]) for i, (re, im) in enumerate(part)]
            for (i, j), out in pairs.items():
                if wide:
                    (ai, bi), (aj, bj) = part[i], part[j]
                    c = ai @ t(aj) + bi @ t(bj)
                    d = bi @ t(aj) - ai @ t(bj)
                    out[sl] = _inner(c, c) + _inner(d, d)
                else:
                    (ri, si), (rj, sj) = grams[i], grams[j]
                    out[sl] = _inner(ri + si, rj) + _inner(ri + si, sj)
    powers *= (2.0 * n) ** -np.arange(1, deg + 1)[:, None]
    for out in pairs.values():
        out /= (2.0 * n) ** 2
    return powers, pairs


# A draw run takes 56 batches of one 3x3 matrix and 1 of a 40x48 one; a
# 40-row Gram takes its batch in sub-batches of 20 and 12, a 130-row one
# one sample at a time.
SERIAL_CASES = [
    *cases([(4, 6), (5, 5), (6, 4)], range(1, 5),
           [2, SAMPLE_BATCH - 1, SAMPLE_BATCH, SAMPLE_BATCH + 1, 71], range(1, 7)),
    *cases([(3, 3)], [1, 3], [57 * SAMPLE_BATCH + 5], [2, 5]),
    *cases([(40, 48), (48, 40)], [1, 3], [71], [3, 6]),
    *cases([(130, 132), (132, 130)], [2], [SAMPLE_BATCH + 1], [4]),
]


class TestAgainstTheSerialSampler:
    @pytest.mark.parametrize("shape,p,samples,degree", SERIAL_CASES)
    def test_traces_are_bit_identical(self, shape, p, samples, degree):
        rows, cols = shape
        cfg = EnsembleConfig(rows=rows, cols=cols, num_matrices=p, num_samples=samples,
                             max_degree=degree, seed=17, mixed=mixed_pair(p))
        s = sample_traces(cfg)
        powers, pairs = serial_sample_traces(cfg)
        assert np.array_equal(s.powers, powers)
        assert s.pair_traces.keys() == pairs.keys()
        for key, want in pairs.items():
            assert np.array_equal(s.pair_traces[key], want)

    def test_a_failed_draw_is_raised_at_once_and_stops_the_workers(self, monkeypatch):
        calls, drawers = [], set()

        class FailingGenerator:
            def __init__(self, seed):
                self._gen = real_default_rng(seed)

            def standard_normal(self, *args, **kwargs):
                calls.append(self)
                drawers.add(threading.get_ident())
                if calls.count(self) == 3:
                    raise RuntimeError("draw failed")
                return self._gen.standard_normal(*args, **kwargs)

        real_default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        threads = threading.active_count()
        cfg = EnsembleConfig(rows=3, cols=3, num_matrices=2, num_samples=10 * SAMPLE_BATCH)
        with pytest.raises(RuntimeError, match="draw failed"):
            sample_traces(cfg)
        assert threading.active_count() == threads
        # the third call is the first of the second batch; the sampler
        # stops there instead of drawing on
        assert max(calls.count(gen) for gen in set(calls)) == 3
        # one worker makes every draw
        assert len(drawers) == 1 and threading.get_ident() not in drawers

    def test_the_sampler_holds_its_buffers_and_nothing_per_batch(self):
        # at 64x64 with two matrices the sampler holds 6 blocks, a block
        # being one batch of one matrix's real parts: two draw buffers of
        # a matrix's real and imaginary parts (4), R + S of matrix 0's
        # Gram R + iS kept for the cross trace (1), and R, S and two
        # scratch workspaces of 8 samples each (1)
        block = SAMPLE_BATCH * 64 * 64 * 8
        cfg = EnsembleConfig(rows=64, cols=64, num_matrices=2, num_samples=8 * SAMPLE_BATCH,
                             max_degree=3, seed=1)
        tracemalloc.start()
        try:
            sample_traces(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.25 * block


def exact_moment(k, rows, cols):
    """E Tr(B^k) for B = G*G, G a rows-by-cols matrix of standard complex
    Gaussians (E|g|^2 = 1), by the three-term recursion of Haagerup and
    Thorbjornsen, Expo. Math. 21 (2003), Thm 8.2:
    (k+2) D_{k+1} = (2k+1)(M+N) D_k + (k-1)(k^2 - (M-N)^2) D_{k-1}."""
    m, n = rows, cols
    d = [n, m * n]
    for j in range(1, k):
        top = (2 * j + 1) * (m + n) * d[j] + (j - 1) * (j * j - (m - n) ** 2) * d[j - 1]
        assert top % (j + 2) == 0
        d.append(top // (j + 2))
    return d[k]


class TestExactFiniteMeans:
    def test_the_recursion_gives_the_known_low_moments(self):
        # E Tr B^2 = MN(M+N), E Tr B^3 = MN(M^2 + 3MN + N^2 + 1)
        assert exact_moment(2, 3, 5) == 15 * 8
        assert exact_moment(3, 3, 5) == 15 * (9 + 45 + 25 + 1)
        assert exact_moment(4, 1, 1) == math.factorial(4)

    # both Gram sides and, through k <= 6, both parities of the identity
    @pytest.mark.parametrize(("rows", "cols", "seed"), [(3, 5, 1), (5, 3, 2), (4, 4, 3)])
    def test_sample_means_hold_the_exact_values(self, rows, cols, seed):
        cfg = EnsembleConfig(rows=rows, cols=cols, num_samples=4000, max_degree=6, seed=seed)
        s = sample_traces(cfg)
        for k in range(1, 7):
            values = power_trace(s, 0, k)
            se = np.std(values, ddof=1) / math.sqrt(len(values))
            exact = exact_moment(k, rows, cols) / cols**k
            assert abs(np.mean(values) - exact) <= 4 * se, (k, np.mean(values), exact, se)


class TestLimits:
    def test_centered_trace_mean_alternates_in_sign(self):
        assert centered_trace_mean_limit(2, Fraction(5)) == 5
        assert centered_trace_mean_limit(3, Fraction(5)) == -5

    def test_centered_trace_covariance_is_diagonal(self):
        c = Fraction(1, 2)
        assert centered_trace_covariance_limit(2, 0, 2, 0, c) == Fraction(1, 2)
        assert centered_trace_covariance_limit(2, 0, 2, 1, c) == 0
        assert centered_trace_covariance_limit(2, 0, 3, 0, c) == 0

    def test_second_kind_mean_vanishes_in_even_degree(self):
        assert second_kind_trace_mean_limit(2, Fraction(2), Fraction(3)) == 0
        assert second_kind_trace_mean_limit(5, Fraction(2), Fraction(3)) == 12

    def test_cyclic_symmetry_count(self):
        assert cyclic_symmetry_count((1, 1), (1, 2)) == 1
        assert cyclic_symmetry_count((1, 1, 1, 1), (1, 2, 1, 2)) == 2
        assert cyclic_symmetry_count((2, 1), (1, 2)) == 1

    def test_word_variance_limit(self):
        assert word_variance_limit((1, 1), (1, 2), Fraction(1)) == 1
        assert word_variance_limit((1, 1, 1, 1), (1, 2, 1, 2), Fraction(2)) == 32

    def test_power_trace_covariance_predictions(self):
        assert predict_covariance(1, 1) == PolyC.c()
        assert predict_covariance(2, 1) == PolyC.of(0, 2, 2)
        assert predict_covariance(1, 2) == predict_covariance(2, 1)
        assert predict_covariance(2, 2) == PolyC.of(0, 4, 10, 4)

    @pytest.mark.parametrize(
        ("m", "n"), [(m, n) for m in range(1, 8) for n in range(1, 9 - m)]
    )
    def test_covariance_equals_the_annular_census(self, m, n):
        # the diagonalized sum against its enumeration oracle
        census = weighted_count(enum_snc(m, n))
        assert predict_covariance(m, n) == census


class TestChecks:
    def test_tolerance_band_formula(self):
        assert tolerance_band(0.1, 2.0, 200) == pytest.approx(0.3 + 0.05 * 3)
        assert tolerance_band(0.0, 0.0, 100) == pytest.approx(0.1)

    def test_check_verdicts(self):
        assert StatCheck("mean", ("x",), 1.04, 1.0, 0.05, 0.0).passed
        assert not StatCheck("mean", ("x",), 1.1, 1.0, 0.05, 0.0).passed

    def test_checks_on_synthetic_gaussian_data(self):
        rng = np.random.default_rng(42)
        x = rng.normal(5.0, 2.0, 4000)
        y = x + rng.normal(0.0, 1.0, 4000)
        assert mean_check(x, 5.0, 100, ("x",)).passed
        assert variance_check(x, 4.0, 100, ("x", "x")).passed
        assert covariance_check(x, y, 4.0, 100, ("x", "y")).passed
        assert not mean_check(x, 6.0, 1000, ("x",)).passed

    def test_a_variance_is_the_covariance_of_the_values_with_themselves(self):
        x = np.random.default_rng(7).normal(0.0, 3.0, 501)
        var = variance_check(x, 9.0, 100, ("x", "x"))
        cov = covariance_check(x, x, 9.0, 100, ("x", "x"))
        assert (var.kind, cov.kind) == ("variance", "covariance")
        assert (var.estimate, var.se, var.tolerance) == (cov.estimate, cov.se, cov.tolerance)
        assert var.estimate == pytest.approx(np.var(x, ddof=1), rel=1e-12)


class TestCalibration:
    def test_all_statistics_pass_at_a_moderate_size(self):
        cfg = EnsembleConfig(
            rows=48, cols=48, num_matrices=2, num_samples=1200,
            max_degree=3, seed=11,
        )
        checks = evaluate_statistics(sample_traces(cfg))
        # 6 first-kind means + 6 second-kind means + 6 variances
        # + 15 pairwise covariances + 1 product variance + 6 power covariances
        assert len(checks) == 40
        failed = [str(c) for c in checks if not c.passed]
        assert not failed, failed

    def test_rectangular_case_passes_too(self):
        cfg = EnsembleConfig(
            rows=30, cols=60, num_matrices=2, num_samples=1200,
            max_degree=2, seed=5,
        )
        checks = evaluate_statistics(sample_traces(cfg))
        failed = [str(c) for c in checks if not c.passed]
        assert not failed, failed
