"""Residual- and wild-bootstrap baselines."""

import numpy as np
import pytest

from gebs import models as M
from gebs import weights as W
from gebs.baselines import BaselineSpec, residual_bootstrap, wild_bootstrap
from gebs.bench import GLM_BETA
from gebs.engine import draw_rng, run_bootstrap
from gebs.errors import (SOLVER_ERRORS, DegenerateRunError, NonConvergenceError,
                         ParameterError, UnsupportedModelError)
from gebs.solver import SolveOptions, solve_weighted
from test_batch import agreement_tol


def rng(seed=0):
    return np.random.default_rng(seed)


def test_spec_validation():
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(ParameterError):
            BaselineSpec(delta=delta)
    for block in (0, -2, 1.5, 2.0, True, "2"):
        with pytest.raises(ParameterError):
            BaselineSpec(block=block)
    assert BaselineSpec(block=np.int64(3)).block == 3
    with pytest.raises(ParameterError):
        BaselineSpec(multiplier="cauchy")


def linear_setup(n=40, seed=1):
    data = M.simulate_linear([2.0], n, rng(seed))
    X, y = data["X"], data["y"]
    beta_hat = np.array([float(np.sum(X[:, 0] * y) / np.sum(X[:, 0] ** 2))])
    return M.LinearModel(p=1), data, beta_hat


def test_residual_bootstrap_linear_deterministic_and_centered():
    model, data, beta_hat = linear_setup()
    a = residual_bootstrap(model, data, beta_hat, 200, seed=3)
    b = residual_bootstrap(model, data, beta_hat, 200, seed=3)
    assert np.array_equal(a.betas, b.betas)
    assert a.fallback_count == 0
    assert a.sigma2 == 1.0
    assert a.betas[:, 0].mean() == pytest.approx(beta_hat[0], abs=0.1)
    assert a.betas[:, 0].std() > 0


def test_residual_bootstrap_ar1_rebuilds_series():
    data = M.simulate_ar1(0.4, 1.0, 1.0, 60, rng(4))
    x = data["x"]
    beta_hat = np.array([np.sum(x[:-1] * x[1:]) / np.sum(x[:-1] ** 2)])
    sample = residual_bootstrap(M.Ar1Model(), data, beta_hat, 100, seed=5)
    assert sample.fallback_count == 0
    assert sample.betas[:, 0].mean() == pytest.approx(beta_hat[0], abs=0.15)


def test_residual_bootstrap_custom_refit_and_degenerate():
    model, data, beta_hat = linear_setup()

    def bad_solve(mdl, dat, w, init):
        raise NonConvergenceError("refit failed")

    with pytest.raises(DegenerateRunError) as exc:
        residual_bootstrap(model, data, beta_hat, 50, seed=6, solve_fn=bad_solve)
    assert exc.value.sample.fallback_count == 50
    assert exc.value.sample.failures == {"NonConvergenceError": 50}


def test_residual_bootstrap_isomerization_uses_refit_hook():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    anchor = np.array([35.0, 0.07, 0.04, 0.17])
    seen = []

    def solve_fn(mdl, dat, w, init):
        # the hook has run_bootstrap's contract and receives unit weights
        assert np.array_equal(w, np.ones(data.n))
        assert np.array_equal(init, anchor)
        seen.append(dat["y"].copy())
        return anchor.copy()

    sample = residual_bootstrap(model, data, anchor, 12, seed=7, solve_fn=solve_fn)
    assert len(seen) == 12
    assert np.array_equal(sample.betas, np.tile(anchor, (12, 1)))
    # synthetic responses are fit + resampled centered residuals, not the raw y
    assert not np.array_equal(seen[0], data["y"])


def test_residual_resampler_rebuild_reproduces_the_data():
    # rebuilding from the uncentered residuals must give back the observed data
    model, data, beta_hat = linear_setup()
    iso = M.load_isomerization()
    for model, data, beta in ((model, data, beta_hat),
                              (M.IsomerizationModel(), iso,
                               np.array([35.0, 0.07, 0.04, 0.17]))):
        resid, rebuild = model.residual_resampler(data, beta)
        boot = rebuild(resid)
        assert boot.meta == "rb" and boot.n == data.n
        assert np.allclose(boot["y"], data["y"], rtol=0, atol=1e-12)
        assert boot["y"] is not data["y"]
    series = M.simulate_ar1(0.4, 1.0, 9.0, 30, rng(15))
    resid, rebuild = M.Ar1Model().residual_resampler(series, np.array([0.3]))
    boot = rebuild(resid)
    assert boot.meta == "rb" and boot.n == series.n
    assert np.allclose(boot["x"], series["x"], rtol=0, atol=1e-12)

    glm = M.simulate_glm([-1.0, 2.0], np.full(4, 5), np.linspace(0, 1, 4), rng(16))
    for model, data in ((M.MeanModel(), M.Dataset(n=4, arrays={"z": np.arange(4.0)})),
                        (M.LogisticGroupModel(), glm),
                        (M.LogisticIndividualModel(), glm)):
        with pytest.raises(UnsupportedModelError):
            model.residual_resampler(data, np.zeros(model.p))


def test_unsupported_models_raise():
    data = M.Dataset(n=4, arrays={"z": np.arange(4.0)})
    with pytest.raises(UnsupportedModelError):
        residual_bootstrap(M.MeanModel(), data, [0.0], 20, seed=0)
    with pytest.raises(UnsupportedModelError):
        wild_bootstrap(M.MeanModel(), data, [0.0], 20, seed=0)


def test_wild_bootstrap_zero_multiplier_linear_is_exact():
    # u = 0 rebuilds the fitted values exactly, so every refit returns beta_hat
    model, data, beta_hat = linear_setup()
    sample = wild_bootstrap(model, data, beta_hat, 30, seed=8,
                            spec=BaselineSpec(multiplier="zero"))
    assert np.allclose(sample.betas, beta_hat[None, :], atol=1e-10)


def test_wild_bootstrap_linear_tracks_heteroscedastic_variance():
    # heteroscedastic noise: WB variance should track the sandwich variance
    r = rng(9)
    n = 400
    X = r.standard_normal((n, 1))
    sd = np.where(np.arange(n) % 2 == 0, 0.2, 2.0)
    y = 1.5 * X[:, 0] + sd * r.standard_normal(n)
    data = M.Dataset(n=n, arrays={"X": X, "y": y})
    beta_hat = np.array([float(np.sum(X[:, 0] * y) / np.sum(X[:, 0] ** 2))])
    sample = wild_bootstrap(M.LinearModel(p=1), data, beta_hat, 800, seed=10)
    resid = y - X[:, 0] * beta_hat[0]
    sandwich = np.sum(X[:, 0] ** 2 * resid ** 2) / np.sum(X[:, 0] ** 2) ** 2
    assert sample.betas[:, 0].var() == pytest.approx(sandwich, rel=0.2)


def _check_wild_draws(sample, ref):
    assert sample.fallback_count == 0 and sample.iterations is None
    np.testing.assert_allclose(sample.betas, ref, rtol=1e-12, atol=0)


def test_wild_bootstrap_ar1_matches_direct_formula():
    # each draw against its own scalar refit on the same multipliers; 300
    # draws span three solve blocks
    data = M.simulate_ar1(0.2, 1.0, 9.0, 40, rng(11))
    x = data["x"]
    lag = x[:-1]
    beta_hat = np.array([np.sum(lag * x[1:]) / np.sum(lag ** 2)])
    fit = beta_hat[0] * lag
    resid = x[1:] - fit
    ref = []
    for b in range(300):
        u = draw_rng(12, b).standard_normal(len(lag))
        ref.append([np.sum(lag * (fit + u * resid)) / np.sum(lag ** 2)])
    _check_wild_draws(wild_bootstrap(M.Ar1Model(), data, beta_hat, 300, seed=12),
                      np.array(ref))


def test_wild_bootstrap_linear_matches_direct_formula():
    data = M.simulate_linear([1.0, -0.5, 2.0], 50, rng(21))
    X, y = data["X"], data["y"]
    beta_hat = np.linalg.lstsq(X, y, rcond=None)[0]
    fit = X @ beta_hat
    ref = []
    for b in range(300):
        u = draw_rng(22, b).standard_normal(len(y))
        ref.append(np.linalg.lstsq(X, fit + u * (y - fit), rcond=None)[0])
    _check_wild_draws(wild_bootstrap(M.LinearModel(p=3), data, beta_hat, 300, seed=22),
                      np.array(ref))


def test_wild_bootstrap_zero_series_falls_back_as_singular():
    # an all-zero series has X'X = 0: every draw is a classified fallback and
    # the sample stays inspectable (the linear case is the collinear test below)
    data = M.Dataset(n=30, arrays={"x": np.zeros(31)})
    with pytest.raises(DegenerateRunError) as exc:
        wild_bootstrap(M.Ar1Model(), data, np.array([0.3]), 20, seed=23)
    sample = exc.value.sample
    assert sample.failures == {"SingularSystemError": 20}
    assert np.array_equal(sample.betas, np.full((20, 1), 0.3))


def test_baselines_need_one_draw():
    model, data, beta_hat = linear_setup()
    for method in (residual_bootstrap, wild_bootstrap):
        with pytest.raises(ParameterError):
            method(model, data, beta_hat, 0, seed=0)


def test_wild_bootstrap_glm_synthetic_binary_refits():
    data = M.simulate_glm([-1.0, 2.0], np.full(8, 30), np.linspace(-1, 2, 8), rng(13))
    beta_hat = solve_weighted(M.LogisticGroupModel(), data, np.ones(8),
                              SolveOptions(init=np.zeros(2))).beta
    sample = wild_bootstrap(M.LogisticIndividualModel(), data, beta_hat, 60, seed=14)
    assert sample.betas.shape == (60, 2)
    assert sample.fallback_count <= 12
    # draws genuinely vary
    assert np.std(sample.betas[:, 1]) > 0.01


def _wild_logistic_per_draw(data, beta_hat, n_boot, seed, spec):
    """Reference: the per-trial refit of each draw's synthetic binary response."""
    y, x, group = data["y_ind"], data["x_ind"], data["group"]
    t_hat = beta_hat[0] + beta_hat[1] * x
    p_obs = (y + spec.delta) / (1.0 + 2.0 * spec.delta)
    r = np.log(p_obs / (1.0 - p_obs)) - t_hat
    order = np.lexsort((y, group))
    block_id = np.empty(len(y), int)
    block_id[order] = np.arange(len(y)) // spec.block
    n_blocks = int(block_id.max()) + 1
    betas, failures, iterations, conds = [], [], [], []
    for b in range(n_boot):
        rng_b = draw_rng(seed, b)
        u = spec.draw_multipliers(rng_b, n_blocks)[block_id]
        p_star = 1.0 / (1.0 + np.exp(-np.clip(t_hat + u * r, -500.0, 500.0)))
        ys = (rng_b.random(len(y)) < p_star).astype(float)
        boot = M.Dataset(n=data.n, arrays={**data.arrays, "y_ind": ys})
        try:
            sol = solve_weighted(M.LogisticIndividualModel(), boot, np.ones(len(y)),
                                 SolveOptions(init=beta_hat))
        except SOLVER_ERRORS as exc:
            betas.append(beta_hat)
            failures.append(type(exc).__name__)
            iterations.append(-1)
            conds.append(np.nan)
            continue
        betas.append(sol.beta)
        failures.append("")
        iterations.append(sol.iterations)
        conds.append(np.linalg.cond(sol.jacobian_at_root))
    return (np.array(betas), np.array(failures, dtype=object), np.array(iterations),
            np.array(conds))


def _wild_logistic_cases():
    fumigant = M.load_fumigant()
    yield M.simulate_glm(GLM_BETA, fumigant["N"], fumigant["X"], rng(19)), 500
    # near-separated designs: up to about a tenth of the draws fall back
    for k in (0, 1, 3, 4, 5, 7):
        yield M.simulate_glm(GLM_BETA, [3] * 4, [2.6, 2.8, 3.0, 3.2], rng(k)), 300


def test_wild_bootstrap_logistic_matches_per_draw_refits():
    spec = BaselineSpec()
    fallbacks = 0
    for data, n_boot in _wild_logistic_cases():
        beta_hat = solve_weighted(M.LogisticGroupModel(), data, np.ones(data.n),
                                  SolveOptions(init=np.zeros(2))).beta
        ref_betas, ref_failures, ref_iters, conds = _wild_logistic_per_draw(
            data, beta_hat, n_boot, 20, spec)
        try:
            sample = wild_bootstrap(M.LogisticIndividualModel(), data, beta_hat,
                                    n_boot, seed=20, spec=spec)
        except DegenerateRunError as exc:
            sample = exc.sample
        ok = ref_failures == ""
        assert sample.statuses == ["converged" if f else "fallback" for f in ok]
        assert sample.failures == {name: int(np.sum(ref_failures == name))
                                   for name in sorted(set(ref_failures[~ok]))}
        assert sample.iterations is not None and sample.iterations.shape == (n_boot,)
        assert np.array_equal(sample.iterations[ok], ref_iters[ok])
        assert np.array_equal(sample.betas[~ok], ref_betas[~ok])
        scale = 1.0 + np.max(np.abs(ref_betas[ok]), axis=1)
        dev = np.max(np.abs(sample.betas[ok] - ref_betas[ok]), axis=1) / scale
        assert np.all(dev <= agreement_tol(conds[ok]))
        fallbacks += sample.fallback_count
    assert fallbacks > 0


def _broken_solve(mdl, dat, w, init):
    raise TypeError("bug in the hook")


class _BrokenLinear(M.LinearModel):
    def score_all(self, data, beta):
        raise TypeError("bug in the score")


@pytest.mark.parametrize("run", [
    lambda data, beta_hat: residual_bootstrap(_BrokenLinear(p=1), data, beta_hat,
                                              5, seed=1),
    lambda data, beta_hat: residual_bootstrap(M.LinearModel(p=1), data, beta_hat,
                                              5, seed=1, solve_fn=_broken_solve),
    lambda data, beta_hat: run_bootstrap(M.LinearModel(p=1), data, beta_hat,
                                         W.multinomial(data.n), 5, seed=1,
                                         solve_fn=_broken_solve),
], ids=["rb-default", "rb-hook", "gbs-hook"])
def test_refit_bugs_are_not_fallbacks(run):
    # only solver failures fall back; any other exception is a bug and surfaces
    _, data, beta_hat = linear_setup()
    with pytest.raises(TypeError):
        run(data, beta_hat)


@pytest.mark.parametrize("method", [residual_bootstrap, wild_bootstrap],
                         ids=["rb", "wb"])
def test_collinear_design_falls_back_as_singular(method):
    # a duplicated column makes X'X singular: every draw is a classified
    # fallback, never a raw LinAlgError
    data = M.simulate_linear([1.0, 0.5], 30, rng(17))
    X = np.column_stack([data["X"][:, 0], data["X"][:, 0]])
    collinear = M.Dataset(n=30, arrays={"X": X, "y": data["y"]})
    with pytest.raises(DegenerateRunError) as exc:
        method(M.LinearModel(p=2), collinear, np.array([0.5, 0.5]), 20, seed=18)
    assert exc.value.sample.failures == {"SingularSystemError": 20}
    assert exc.value.sample.fallback_count == 20
