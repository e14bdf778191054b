"""Bootstrap engine: resample loop, variance and distribution estimates."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gebs import bench, engine
from gebs import models as M
from gebs import weights as W
from gebs.baselines import residual_bootstrap, wild_bootstrap
from gebs.bench import GLM_BETA
from gebs.engine import (EmpiricalDistribution, draw_rng, empirical_distribution,
                         exact_variance_enumeration, ks_distance,
                         percentile_ci, percentile_cis_batch, run_bootstrap,
                         variance_estimate)
from gebs.errors import (DegenerateRunError, InsufficientSampleError,
                         NonConvergenceError, ParameterError, ShapeError)
from gebs.solver import TOL, solve_weighted, solve_weighted_batch
from block_sizes import BLOCK_ROWS, spy_blocks
from per_draw import per_draw


def rng(seed=0):
    return np.random.default_rng(seed)


def mean_setup(n=12, seed=0):
    z = rng(seed).standard_normal(n)
    data = M.Dataset(n=n, arrays={"z": z})
    return M.MeanModel(), data, np.array([z.mean()])


# ---------------------------------------------------------------------------
# run_bootstrap

def test_run_bootstrap_is_deterministic(monkeypatch):
    model, data, beta_hat = mean_setup()
    blocks = spy_blocks(monkeypatch, engine)
    a = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=5)
    b = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=5)
    assert np.array_equal(a.betas, b.betas)
    rows = np.concatenate(blocks)
    assert np.array_equal(rows[:40], rows[40:])
    c = run_bootstrap(model, data, beta_hat, W.multinomial(12), 40, seed=6)
    assert not np.array_equal(a.betas, c.betas)


def test_multinomial_mean_draws_are_weighted_means(monkeypatch):
    model, data, beta_hat = mean_setup()
    blocks = spy_blocks(monkeypatch, engine)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 30, seed=2)
    z, rows = data["z"], np.concatenate(blocks)
    for b in range(30):
        w = rows[b]
        assert sample.betas[b, 0] == pytest.approx(np.sum(w * z) / np.sum(w), abs=1e-8)
    assert sample.fallback_count == 0
    assert np.all(sample.outcomes == "")


def test_fallback_draws_pin_to_beta_hat():
    model, data, beta_hat = mean_setup()
    calls = {"b": 0}

    def flaky(mdl, dat, w, bh):
        calls["b"] += 1
        if calls["b"] % 10 == 0:
            raise NonConvergenceError("synthetic failure")
        return np.array([np.sum(w * dat["z"]) / np.sum(w)])

    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), 50,
                           seed=3, solve_fn=per_draw(flaky))
    assert sample.fallback_count == 5
    fell = np.flatnonzero(sample.outcomes != "")
    assert set(sample.outcomes[fell]) == {"NonConvergenceError"}
    assert np.array_equal(sample.betas[fell],
                          np.tile(beta_hat, (len(fell), 1)))


def test_default_hook_is_solve_weighted_batch():
    # the batched solver is the solve_fn contract itself, so passing it
    # explicitly gives the default sample bit for bit
    model, data, beta_hat = mean_setup()
    scheme = W.multinomial(12)
    default = run_bootstrap(model, data, beta_hat, scheme, 300, seed=8)
    hooked = run_bootstrap(model, data, beta_hat, scheme, 300, seed=8,
                           solve_fn=solve_weighted_batch)
    series = M.simulate_ar1(0.2, 1.0, 9.0, 40, rng(9))
    phi_hat = solve_weighted(M.Ar1Model(), series, np.ones(40)).beta
    rb = residual_bootstrap(M.Ar1Model(), series, phi_hat, 300, seed=8)
    rb_hooked = residual_bootstrap(M.Ar1Model(), series, phi_hat, 300, seed=8,
                                   solve_fn=solve_weighted_batch)
    for a, b in ((default, hooked), (rb, rb_hooked)):
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.iterations, b.iterations)
        assert np.array_equal(a.outcomes, b.outcomes) and a.failures == b.failures


def test_too_many_fallbacks_degenerate():
    model, data, beta_hat = mean_setup()

    def broken(mdl, dat, w, bh):
        raise NonConvergenceError("always fails")

    with pytest.raises(DegenerateRunError) as exc:
        run_bootstrap(model, data, beta_hat, W.multinomial(12), 20,
                      seed=4, solve_fn=per_draw(broken))
    assert exc.value.sample.fallback_count == 20
    # the degenerate sample is still inspectable and its estimate is zero
    est = variance_estimate(exc.value.sample)
    assert est.v_gbs == 0.0
    assert est.degenerate


def test_hook_draws_run_in_order_across_blocks(monkeypatch):
    # 300 draws span three solve blocks; the hook still sees draw b's weights
    # in order, and they are the weights the default batched path solves
    model, data, beta_hat = mean_setup()
    blocks = spy_blocks(monkeypatch, engine)
    scheme = W.multinomial(12)
    seen = []

    def record(mdl, dat, w, bh):
        seen.append(w.copy())
        return np.array([np.sum(w * dat["z"]) / np.sum(w)])

    sample = run_bootstrap(model, data, beta_hat, scheme, 300, seed=7,
                           solve_fn=per_draw(record))
    expected = np.stack([W.sample(scheme, draw_rng(7, b)) for b in range(300)])
    assert np.array_equal(np.stack(seen), expected)
    assert np.array_equal(np.concatenate(blocks), expected)
    blocks.clear()
    default = run_bootstrap(model, data, beta_hat, scheme, 300, seed=7)
    assert np.array_equal(np.concatenate(blocks), expected)
    assert sample.iterations is None and default.iterations.shape == (300,)


def test_run_bootstrap_validation():
    model, data, beta_hat = mean_setup()
    with pytest.raises(ParameterError):
        run_bootstrap(model, data, beta_hat, W.multinomial(12), 0, seed=0)


@pytest.mark.parametrize("n_boot", [True, False, 10.5, 10.0, "10", None])
def test_draw_count_must_be_an_integer(monkeypatch, n_boot):
    # refused before any stream is hashed; bools are not counts
    def no_hashing(*args):
        raise AssertionError("streams hashed")

    monkeypatch.setattr(engine, "_pcg64_words", no_hashing)
    model, data, beta_hat = mean_setup()
    series = M.simulate_ar1(0.2, 1.0, 9.0, 20, rng(9))
    with pytest.raises(ParameterError, match="integer n_boot"):
        run_bootstrap(model, data, beta_hat, W.multinomial(12), n_boot, seed=0)
    with pytest.raises(ParameterError, match="integer n_boot"):
        residual_bootstrap(M.Ar1Model(), series, np.array([0.2]), n_boot, seed=0)
    with pytest.raises(ParameterError, match="integer n_boot"):
        wild_bootstrap(M.Ar1Model(), series, np.array([0.2]), n_boot, seed=0)


@pytest.mark.parametrize("n_boot", [np.int64(20), np.int32(20), np.uint8(20)])
def test_numpy_integer_draw_counts_are_accepted(n_boot):
    model, data, beta_hat = mean_setup()
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(12), n_boot, seed=3)
    expect = run_bootstrap(model, data, beta_hat, W.multinomial(12), 20, seed=3)
    assert sample.betas.tobytes() == expect.betas.tobytes()


def test_run_memory_does_not_grow_with_the_draws_weight_rows():
    # four blocks of draws against one: the traced peak grows by less than
    # the extra draws' (B, n) weight rows would take (6 MiB at n = 50)
    n = 50
    model, data, beta_hat = mean_setup(n)
    rows = engine.block_rows(n)

    def peak(n_boot):
        tracemalloc.start()
        try:
            run_bootstrap(model, data, beta_hat, W.multinomial(n), n_boot, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)   # first-call caches outside the measurement
    assert peak(4 * rows) - peak(rows) < 3 * rows * n * 8


@pytest.mark.parametrize("bad", ["short", "flat", "wide", "failures"])
def test_block_hook_output_shape_is_checked(bad):
    # a wrong block shape must not broadcast into the fallback assignment
    model, data, beta_hat = mean_setup()

    def hook(mdl, dat, W_, bh):
        B = len(W_)
        betas, failures = np.tile(bh, (B, 1)), np.full(B, "", dtype=object)
        if bad == "short":
            betas = betas[:-1]
        elif bad == "flat":
            betas = betas[:, 0]
        elif bad == "wide":
            betas = np.tile(bh, (B, 2))
        else:
            failures = failures[:1]
        return betas, failures, None

    with pytest.raises(ShapeError):
        run_bootstrap(model, data, beta_hat, W.multinomial(12), 20, seed=0,
                      solve_fn=hook)
    with pytest.raises(ShapeError):
        residual_bootstrap(M.LinearModel(p=1), M.simulate_linear([1.0], 12, rng(1)),
                           beta_hat, 20, seed=0, solve_fn=hook)


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
                           seed=3, solve_fn=per_draw(flaky))
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


@pytest.mark.parametrize("contrast", [[1.0], [0.6, 0.8, 0.0], [[0.6, 0.8]],
                                      [[0.6], [0.8]], 1.0])
def test_empirical_distribution_refuses_a_misshaped_contrast(contrast):
    # each has unit norm; its shape is refused before the model is evaluated
    data = M.simulate_linear([1.0, -1.0], 20, rng(13))
    model = M.LinearModel(p=2)
    beta_hat = np.linalg.lstsq(data["X"], data["y"], rcond=None)[0]
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(20), 30, seed=14)
    no_evaluation = AssertionError("evaluated")
    with (mock.patch.object(M.LinearModel, "jacobian_all", side_effect=no_evaluation),
          mock.patch.object(M.LinearModel, "score_all", side_effect=no_evaluation),
          pytest.raises(ShapeError, match="contrast shape")):
        empirical_distribution(model, data, sample, contrast=contrast)


def test_percentile_ci_order_statistics():
    draws = np.arange(1.0, 100.0)  # B = 99
    lo, hi = percentile_ci(draws, 0.95)
    # (B+1) rule: k_lo = ceil(100 * 0.025) = 3, k_hi = floor(100 * 0.975) = 97
    assert (lo, hi) == (3.0, 97.0)
    lo2, hi2 = percentile_ci(-draws, 0.95)
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


class PoissonMeanModel(M.IndexModel):
    """``IndexModel``'s Poisson log link on an intercept."""

    def design(self, data):
        return np.ones((data.n, 1))

    def factor(self, data, T):
        return data["z"] - np.exp(T)

    def slope(self, data, T):
        return np.exp(T)


def test_poisson_log_link_roots_are_logs_of_weighted_means(monkeypatch):
    # sum_i w_i (z_i - exp(beta)) = 0 has the closed-form root
    # log(sum_i w_i z_i / sum_i w_i); Newton stops within TOL of it
    n = 40
    z = rng(19).poisson(2.0, n).astype(float)
    data, model = M.Dataset(n=n, arrays={"z": z}), PoissonMeanModel()
    beta_hat = solve_weighted(model, data, np.ones(n)).beta
    np.testing.assert_allclose(beta_hat, [math.log(z.mean())], rtol=TOL, atol=0)
    blocks = spy_blocks(monkeypatch, engine)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(n), 200, seed=20)
    assert sample.fallback_count == 0
    w = np.concatenate(blocks)
    np.testing.assert_allclose(sample.betas[:, 0], np.log(w @ z / w.sum(axis=1)),
                               rtol=TOL, atol=0)


def _block_size_cases():
    """Name -> (run, rtol). One Newton step or a closed form fixes an AR(1)
    root to rounding; an iterated logistic root stops at the score tolerance,
    and the last step's rounding is amplified by the weighted Jacobian's
    conditioning (about 3e3 at the fumigant fit), hence the looser bound. The
    NLS root must not move at all."""
    r = rng(31)
    ar1 = M.Ar1Model()
    series = M.simulate_ar1(0.2, 1.0, 100.0, 50, r)
    phi_hat = solve_weighted(ar1, series, np.ones(50)).beta
    fum = M.load_fumigant()
    glm = M.simulate_glm(np.asarray(GLM_BETA), fum["N"], fum["X"], r)
    beta_hat = solve_weighted(M.LogisticGroupModel(), glm, np.ones(glm.n)).beta
    trial = M.LogisticIndividualModel()
    slots = trial.weight_count(glm)
    lin = M.simulate_linear([1.0, -0.5, 2.0], 50, r)
    lin_hat = np.linalg.lstsq(lin["X"], lin["y"], rcond=None)[0]
    iso, iso_model = M.load_isomerization(), M.IsomerizationModel()
    anchors = tuple(th for th, _ in sorted(
        bench.nls_roots(iso_model, iso, np.ones(iso.n)), key=lambda f: f[1]))

    def nls_root(mdl, dat, W_, _beta_hat):
        return bench.nls_draw_root(mdl, dat, W_, anchors)

    return {
        "ar1-gbs-multinomial": (lambda: run_bootstrap(
            ar1, series, phi_hat, W.multinomial(50), 300, seed=3), 1e-14),
        "ar1-rb": (lambda: residual_bootstrap(ar1, series, phi_hat, 300, seed=3), 1e-14),
        "ar1-wb": (lambda: wild_bootstrap(ar1, series, phi_hat, 300, seed=3), 1e-14),
        "linear-rb": (lambda: residual_bootstrap(
            M.LinearModel(p=3), lin, lin_hat, 300, seed=3), 1e-14),
        "glm-gbs-exp": (lambda: run_bootstrap(
            trial, glm, beta_hat, W.iid_exponential(slots), 300, seed=3), 1e-13),
        "glm-wb": (lambda: wild_bootstrap(trial, glm, beta_hat, 300, seed=3), 1e-13),
        # the NLS root sums and solves each draw's rows alike in any block
        "nls-gbs-exp": (lambda: run_bootstrap(
            iso_model, iso, anchors[0], W.iid_exponential(iso.n), 300, seed=3,
            solve_fn=nls_root), 0.0),
        "nls-rb": (lambda: residual_bootstrap(
            iso_model, iso, anchors[0], 300, seed=3, solve_fn=nls_root), 0.0),
    }


@pytest.mark.parametrize("case", sorted(_block_size_cases()))
def test_roots_agree_across_solve_block_sizes(monkeypatch, case):
    # a block's sums and solves take other BLAS paths than a single draw's,
    # so roots may differ in the last bits; outcomes must not differ at all
    run, rtol = _block_size_cases()[case]
    samples = []
    for block_rows in BLOCK_ROWS:
        monkeypatch.setattr(engine, "block_rows", block_rows)
        samples.append(run())
    ref = samples[0]
    scale = 1.0 + np.max(np.abs(ref.betas), axis=1)
    for sample in samples[1:]:
        assert sample.failures == ref.failures
        assert np.array_equal(sample.outcomes, ref.outcomes)
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
    with pytest.raises(ParameterError, match="first sample is empty or not finite"):
        ks_distance([0.1, np.nan, 0.3])


def test_ks_distance_two_sample_known_value():
    a = np.array([0.0, 1.0])
    b = np.array([10.0, 11.0])
    assert ks_distance(a, b) == 1.0
    with pytest.raises(ParameterError, match="second sample is empty"):
        ks_distance(a, np.array([]))
    with pytest.raises(ParameterError, match="second sample is empty or not finite"):
        ks_distance([0.1, 0.2], [np.nan, 0.0])


def test_draw_rng_streams_independent_and_stable():
    assert draw_rng(1, 2).standard_normal() == draw_rng(1, 2).standard_normal()
    assert draw_rng(1, 2).standard_normal() != draw_rng(1, 3).standard_normal()
