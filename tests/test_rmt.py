"""Tests for the Wishart Monte Carlo module (fast sizes only; the full
acceptance-scale run lives in the acceptance suite)."""

from fractions import Fraction

import numpy as np
import pytest

from ncwishart.halfperm import WeightRule, weighted_count
from ncwishart.perms import enum_snc
from ncwishart.polyc import PolyC
from ncwishart.rmt import (
    EnsembleConfig,
    StatCheck,
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
from ncwishart.families import MAX_DEGREE, Family, predict_covariance


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

    def test_degree_one_polynomial_trace_is_the_centered_power(self):
        cfg = EnsembleConfig(rows=4, cols=4, num_samples=10, seed=2)
        s = sample_traces(cfg)
        got = polynomial_trace(s, Family.PI, 1, 0)
        want = power_trace(s, 0, 1) - float(cfg.c) * cfg.cols
        assert np.allclose(got, want)


class TestLimits:
    def test_centered_trace_mean_alternates_in_sign(self):
        assert centered_trace_mean_limit(2, Fraction(1), Fraction(5)) == 5
        assert centered_trace_mean_limit(3, Fraction(1), Fraction(5)) == -5

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
        assert predict_covariance(2, 1) == PolyC.parse("2*c + 2*c^2")
        assert predict_covariance(1, 2) == predict_covariance(2, 1)
        assert predict_covariance(2, 2) == PolyC.parse("4*c + 10*c^2 + 4*c^3")

    @pytest.mark.parametrize(
        ("m", "n"), [(m, n) for m in range(1, 8) for n in range(1, 9 - m)]
    )
    def test_covariance_equals_the_annular_census(self, m, n):
        # the diagonalized sum against its enumeration oracle
        census = weighted_count(enum_snc(m, n), WeightRule.ALL_BLOCKS)
        assert predict_covariance(m, n) == census


class TestChecks:
    def test_tolerance_band_formula(self):
        assert tolerance_band(0.1, 2.0, 200) == pytest.approx(0.3 + 0.05 * 3)
        assert tolerance_band(0.0, 0.0, 100) == pytest.approx(0.1)

    def test_check_verdicts(self):
        ok = StatCheck("mean", ("x",), 1.04, 1.0, 0.05, 0.0)
        assert ok.passed and "[ok]" in str(ok)
        bad = StatCheck("mean", ("x",), 1.1, 1.0, 0.05, 0.0)
        assert not bad.passed and "[FAIL]" in str(bad)

    def test_the_display_name_comes_from_kind_and_keys(self):
        def name(kind, keys):
            return str(StatCheck(kind, keys, 1.0, 1.0, 0.0, 0.0)).split(":")[0]

        assert name("mean", ("x",)) == "mean x"
        assert name("variance", ("x", "x")) == "var x"
        assert name("covariance", ("x", "y")) == "cov x, y"

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
