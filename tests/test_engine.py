"""Bootstrap engine: resample loop, variance and distribution estimates."""

import math

import numpy as np
import pytest

from gebs import engine
from gebs import models as M
from gebs import weights as W
from gebs.baselines import wild_bootstrap
from gebs.bench import GLM_BETA
from gebs.engine import (EmpiricalDistribution, STATUS_CONVERGED, STATUS_FALLBACK,
                         draw_rng, empirical_distribution,
                         exact_variance_enumeration, ks_distance, percentile_ci,
                         percentile_cis_batch, run_bootstrap, studentized_stats,
                         variance_estimate)
from gebs.errors import (DegenerateRunError, InsufficientSampleError,
                         NonConvergenceError, ParameterError)
from gebs.solver import solve_weighted


def rng(seed=0):
    return np.random.default_rng(seed)


def mean_setup(n=12, seed=0):
    z = rng(seed).standard_normal(n)
    data = M.Dataset(n=n, arrays={"z": z})
    return M.MeanModel(), data, np.array([z.mean()])


# ---------------------------------------------------------------------------
# run_bootstrap

def test_run_bootstrap_is_deterministic():
    model, data, beta_hat = mean_setup()
    a = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=5)
    b = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=5)
    assert np.array_equal(a.betas, b.betas)
    assert np.array_equal(a.weight_draws, b.weight_draws)
    c = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=6)
    assert not np.array_equal(a.betas, c.betas)


def test_multinomial_mean_draws_are_weighted_means():
    model, data, beta_hat = mean_setup()
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 30, seed=2)
    z = data["z"]
    for b in range(30):
        w = sample.weight_draws[b]
        assert sample.betas[b, 0] == pytest.approx(np.sum(w * z) / np.sum(w), abs=1e-8)
    assert sample.fallback_count == 0
    assert all(s == STATUS_CONVERGED for s in sample.statuses)


def test_fallback_draws_pin_to_beta_hat():
    model, data, beta_hat = mean_setup()
    calls = {"b": 0}

    def flaky(mdl, dat, w, bh):
        calls["b"] += 1
        if calls["b"] % 10 == 0:
            raise NonConvergenceError("synthetic failure")
        return np.array([np.sum(w * dat["z"]) / np.sum(w)])

    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 50,
                           seed=3, solve_fn=flaky)
    assert sample.fallback_count == 5
    fell = [i for i, s in enumerate(sample.statuses) if s == STATUS_FALLBACK]
    assert np.array_equal(sample.betas[fell],
                          np.tile(beta_hat, (len(fell), 1)))


def test_too_many_fallbacks_degenerate():
    model, data, beta_hat = mean_setup()

    def broken(mdl, dat, w, bh):
        raise NonConvergenceError("always fails")

    with pytest.raises(DegenerateRunError) as exc:
        run_bootstrap(model, data, beta_hat, W.multinomial(12), 20,
                      seed=4, solve_fn=broken)
    assert exc.value.sample.fallback_count == 20
    # the degenerate sample is still inspectable and its estimate is zero
    est = variance_estimate(exc.value.sample)
    assert est.v_gbs == 0.0
    assert est.degenerate


def test_hook_draws_run_in_order_across_blocks():
    # 300 draws span three solve blocks; the hook still sees draw b's weights
    # in order, and they are the weights the default batched path solves
    model, data, beta_hat = mean_setup()
    scheme = W.multinomial(12)
    seen = []

    def record(mdl, dat, w, bh):
        seen.append(w.copy())
        return np.array([np.sum(w * dat["z"]) / np.sum(w)])

    sample = run_bootstrap(model, data, beta_hat, scheme, 300, seed=7,
                           solve_fn=record, store_weights=True)
    expected = np.stack([W.sample(scheme, draw_rng(7, b)) for b in range(300)])
    assert np.array_equal(np.stack(seen), expected)
    assert np.array_equal(sample.weight_draws, expected)
    default = run_bootstrap(model, data, beta_hat, scheme, 300, seed=7)
    assert np.array_equal(default.weight_draws, expected)
    assert sample.iterations is None and default.iterations.shape == (300,)


def test_run_bootstrap_validation():
    model, data, beta_hat = mean_setup()
    with pytest.raises(ParameterError):
        run_bootstrap(model, data, beta_hat, W.multinomial(12), 0, seed=0)


# ---------------------------------------------------------------------------
# Variance estimates

def test_variance_estimate_reports_fallback_frac():
    model, data, beta_hat = mean_setup()
    calls = {"b": 0}

    def flaky(mdl, dat, w, bh):
        calls["b"] += 1
        if calls["b"] % 10 == 0:
            raise NonConvergenceError("synthetic failure")
        return np.array([np.sum(w * dat["z"]) / np.sum(w)])

    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 50,
                           seed=3, solve_fn=flaky)
    est = variance_estimate(sample)
    assert est.fallback_frac == 0.1
    # the definition is unchanged: fallback draws still count as zero
    sq = (sample.betas[:, 0] - beta_hat[0]) ** 2 / sample.sigma2
    assert est.v_gbs == pytest.approx(sq.mean())
    clean = run_bootstrap(model, data, beta_hat, W.multinomial(12), 50, seed=3)
    assert variance_estimate(clean).fallback_frac == 0.0
    degenerate = run_bootstrap(model, data, beta_hat, W.constant(12), 20, seed=0)
    assert variance_estimate(degenerate).fallback_frac == 0.0

    # only the last row loads on the second column: the atom deleting it has a
    # singular Jacobian, so a quarter of the support mass falls back
    X = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 1.0]])
    lin = M.Dataset(n=4, arrays={"X": X, "y": np.array([1.0, 2.0, 0.5, 3.0])})
    scheme = W.delete_d_jackknife(4, 1)
    est = exact_variance_enumeration(M.LinearModel(p=2), lin, np.zeros(2), scheme)
    assert est.fallback_frac == pytest.approx(0.25)
    assert exact_variance_enumeration(M.LinearModel(p=2), lin, np.zeros(2),
                                      W.constant(4)).fallback_frac == 0.0


def test_variance_estimate_scaling_and_stderr():
    model, data, beta_hat = mean_setup()
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 200, seed=7)
    est1 = variance_estimate(sample)
    est12 = variance_estimate(sample, scale=12)
    assert est12.v_gbs == pytest.approx(12 * est1.v_gbs)
    sq = (sample.betas[:, 0] - beta_hat[0]) ** 2 / sample.sigma2
    assert est1.v_gbs == pytest.approx(sq.mean())
    assert est1.mc_stderr == pytest.approx(sq.std(ddof=1) / math.sqrt(200))


def test_variance_estimate_matrix_case():
    data = M.simulate_linear([1.0, -1.0], 25, rng(8))
    model = M.LinearModel(p=2)
    beta_hat = np.linalg.lstsq(data["X"], data["y"], rcond=None)[0]
    sample = run_bootstrap(model, data, beta_hat, W.iid_exponential(25), 100, seed=9)
    est = variance_estimate(sample)
    assert np.asarray(est.v_gbs).shape == (2, 2)
    assert est.v_gbs[0, 1] == pytest.approx(est.v_gbs[1, 0])
    assert est.v_gbs[0, 0] > 0 and est.v_gbs[1, 1] > 0


def test_variance_estimate_needs_draws():
    model, data, beta_hat = mean_setup()
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 1, seed=0)
    with pytest.raises(InsufficientSampleError):
        variance_estimate(sample)


def test_degenerate_scheme_variance_is_flagged():
    model, data, beta_hat = mean_setup()
    sample = run_bootstrap(model, data, beta_hat, W.constant(12), 20, seed=0)
    est = variance_estimate(sample)
    assert est.degenerate
    assert est.v_gbs == 0.0


def test_enumeration_matches_closed_form_mean():
    # weighted mean root: beta_B - beta_hat = sum (w_i - 1) z_i / n for
    # fixed-sum schemes, so V_GBS has a closed form in the weight moments
    model, data, beta_hat = mean_setup(n=6)
    z = data["z"]
    scheme = W.delete_d_jackknife(6, 2)
    mom = W.theoretical_moments(scheme)
    zc = z - z.mean()
    n = 6
    expect = (mom.sigma2 * np.sum(zc ** 2) / n ** 2
              + mom.c11 * mom.sigma2 * (np.sum(np.outer(zc, zc)) - np.sum(zc ** 2)) / n ** 2)
    est = exact_variance_enumeration(model, data, beta_hat, scheme)
    assert est.v_gbs * mom.sigma2 == pytest.approx(expect, rel=1e-8)


# ---------------------------------------------------------------------------
# Distribution, intervals, studentization

def test_empirical_distribution_basics():
    dist = EmpiricalDistribution(np.array([3.0, 1.0, 2.0]))
    assert list(dist.values) == [1.0, 2.0, 3.0]
    assert dist.cdf(2.0) == pytest.approx(2 / 3)
    assert dist.quantile(0.5) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        EmpiricalDistribution(np.array([np.nan]))


def test_empirical_distribution_scaling():
    model, data, beta_hat = mean_setup(n=40, seed=11)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(40), 60, seed=12)
    dist = empirical_distribution(model, data, sample)
    s = math.sqrt(40.0)  # |sum_i d(z_i - b)/db| = n for the mean model
    expect = s / math.sqrt(sample.sigma2) * (sample.betas[:, 0] - beta_hat[0])
    assert dist.values == pytest.approx(np.sort(expect))


def test_empirical_distribution_contrast_required():
    data = M.simulate_linear([1.0, -1.0], 20, rng(13))
    model = M.LinearModel(p=2)
    beta_hat = np.linalg.lstsq(data["X"], data["y"], rcond=None)[0]
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(20), 30, seed=14)
    with pytest.raises(ParameterError):
        empirical_distribution(model, data, sample)
    with pytest.raises(ParameterError):
        empirical_distribution(model, data, sample, contrast=[1.0, 1.0])
    dist = empirical_distribution(model, data, sample, contrast=[1.0, 0.0])
    assert len(dist.values) == 30


def test_percentile_ci_order_statistics():
    draws = np.arange(1.0, 100.0)  # B = 99
    lo, hi = percentile_ci(draws, 0.95)
    # (B+1) rule: k_lo = ceil(100 * 0.025) = 3, k_hi = floor(100 * 0.975) = 97
    assert (lo, hi) == (3.0, 97.0)
    lo2, hi2 = percentile_ci(draws, 0.95, transform=lambda v: -v)
    assert (lo2, hi2) == (-97.0, -3.0)
    with pytest.raises(InsufficientSampleError):
        percentile_ci(draws[:5], 0.95)
    with pytest.raises(ParameterError):
        percentile_ci(draws, 1.5)


def test_percentile_cis_batch_matches_scalar():
    mat = rng(15).standard_normal((57, 4))
    lo, hi = percentile_cis_batch(mat, 0.9)
    for j in range(4):
        slo, shi = percentile_ci(mat[:, j], 0.9)
        assert (lo[j], hi[j]) == (slo, shi)
    for level in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ParameterError):
            percentile_cis_batch(mat, level)


def test_studentized_stats_mean_model():
    model, data, beta_hat = mean_setup(n=30, seed=16)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(30), 80, seed=17)
    stats = studentized_stats(model, data, beta_hat, sample, beta0=0.0)
    assert stats.gamma1_hat == pytest.approx(-1.0)
    assert stats.gamma2_hat == 0.0
    assert stats.g_hat == pytest.approx(np.std(data["z"]))
    assert math.isfinite(stats.t_n)
    ok = ~stats.undefined
    assert np.all(np.isfinite(stats.t_nb[ok]))
    with pytest.raises(ParameterError):
        no_w = run_bootstrap(model, data, beta_hat, W.multinomial(30), 20,
                             seed=18, store_weights=False)
        studentized_stats(model, data, beta_hat, no_w)


def _block_size_cases():
    """Name -> (run, rtol). One Newton step or a closed form fixes an AR(1)
    root to rounding; an iterated logistic root stops at the score tolerance,
    and the last step's rounding is amplified by the weighted Jacobian's
    conditioning (about 3e3 at the fumigant fit), hence the looser bound."""
    r = rng(31)
    ar1 = M.Ar1Model()
    series = M.simulate_ar1(0.2, 1.0, 100.0, 50, r)
    phi_hat = solve_weighted(ar1, series, np.ones(50)).beta
    fum = M.load_fumigant()
    glm = M.simulate_glm(np.asarray(GLM_BETA), fum["N"], fum["X"], r)
    beta_hat = solve_weighted(M.LogisticGroupModel(), glm, np.ones(glm.n)).beta
    trial = M.LogisticIndividualModel()
    slots = trial.weight_count(glm)
    return {
        "ar1-gbs-multinomial": (lambda: run_bootstrap(
            ar1, series, phi_hat, W.multinomial(50), 300, seed=3), 1e-14),
        "ar1-wb": (lambda: wild_bootstrap(ar1, series, phi_hat, 300, seed=3), 1e-14),
        "glm-gbs-exp": (lambda: run_bootstrap(
            trial, glm, beta_hat, W.iid_exponential(slots), 300, seed=3), 1e-13),
        "glm-wb": (lambda: wild_bootstrap(trial, glm, beta_hat, 300, seed=3), 1e-13),
    }


@pytest.mark.parametrize("case", sorted(_block_size_cases()))
def test_roots_agree_across_solve_block_sizes(monkeypatch, case):
    # a block's sums and solves take other BLAS paths than a single draw's,
    # so roots may differ in the last bits; outcomes must not differ at all
    run, rtol = _block_size_cases()[case]
    samples = []
    for block in (1, 7, 128):
        monkeypatch.setattr(engine, "BLOCK_DRAWS", block)
        samples.append(run())
    ref = samples[0]
    scale = 1.0 + np.max(np.abs(ref.betas), axis=1)
    for sample in samples[1:]:
        assert sample.failures == ref.failures
        assert sample.statuses == ref.statuses
        if ref.iterations is None:
            assert sample.iterations is None
        else:
            assert np.array_equal(sample.iterations, ref.iterations)
        dev = np.max(np.abs(sample.betas - ref.betas), axis=1) / scale
        assert np.all(dev <= rtol)


# ---------------------------------------------------------------------------
# KS distance

def test_ks_distance_identical_samples():
    a = rng(19).standard_normal(500)
    assert ks_distance(a, a) == 0.0


def test_ks_distance_against_normal():
    a = rng(20).standard_normal(4000)
    assert ks_distance(a) < 0.03
    assert ks_distance(a + 3.0) > 0.5
    with pytest.raises(ParameterError):
        ks_distance(a, "cauchy")
    with pytest.raises(ParameterError):
        ks_distance(np.array([]))


def test_ks_distance_two_sample_known_value():
    a = np.array([0.0, 1.0])
    b = np.array([10.0, 11.0])
    assert ks_distance(a, b) == 1.0
    with pytest.raises(ParameterError, match="second sample is empty"):
        ks_distance(a, np.array([]))


def test_draw_rng_streams_independent_and_stable():
    assert draw_rng(1, 2).standard_normal() == draw_rng(1, 2).standard_normal()
    assert draw_rng(1, 2).standard_normal() != draw_rng(1, 3).standard_normal()
