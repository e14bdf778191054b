"""Special cases of the generalized bootstrap that hold exactly.

Bayesian bootstrap (Rubin, Ann. Statist. 9, 1981): on one stream numpy's
``standard_gamma(1.0)`` returns ``standard_exponential``'s draws, so each
gbs-dirichlet:alpha=1 row is ``n E / sum E`` of the gbs-exp row drawn at the
same seed. ``sum_i w_i phi_i = 0`` does not change under a positive scaling
of w, so the two laws give the same roots, and their variance estimates
differ only by the weight variance sigma^2 = (n - 1) / (n + 1) that
``variance_estimate`` divides by.
"""

import numpy as np
import pytest

from gebs import models as M
from gebs import weights as W
from gebs.bench import GLM_BETA
from gebs.engine import run_bootstrap, variance_estimate
from gebs.solver import solve_weighted

N = 240
DRAWS = 500
SEED = 7
RTOL = 1e-12


def _case(name):
    r = np.random.default_rng(5)
    if name == "mean":
        return M.MeanModel(), M.Dataset(n=N, arrays={"z": r.standard_normal(N)})
    if name == "linear":
        return M.LinearModel(p=2), M.simulate_linear([1.0, -0.5], N, r)
    if name == "ar1":
        return M.Ar1Model(), M.simulate_ar1(0.3, 1.0, 4.0, N, r)
    # per-trial logistic on the fumigant design: 240 trials, 3-5 Newton steps
    fum = M.load_fumigant()
    return (M.LogisticIndividualModel(),
            M.simulate_glm(np.asarray(GLM_BETA), fum["N"], fum["X"], r))


@pytest.mark.parametrize("name", ["mean", "linear", "ar1", "logistic"])
def test_dirichlet_one_is_the_exponential_bootstrap_rescaled(name):
    model, data = _case(name)
    n = model.weight_count(data)
    beta_hat = solve_weighted(model, data, np.ones(n)).beta
    bayes = run_bootstrap(model, data, beta_hat, W.dirichlet(n, 1.0), DRAWS, SEED)
    exp = run_bootstrap(model, data, beta_hat, W.iid_exponential(n), DRAWS, SEED)

    E = exp.weight_draws
    np.testing.assert_allclose(bayes.weight_draws, n * E / E.sum(axis=1, keepdims=True),
                               rtol=1e-14)
    np.testing.assert_allclose(bayes.betas, exp.betas, rtol=RTOL, atol=0)
    assert np.array_equal(bayes.outcomes, exp.outcomes)
    assert np.array_equal(bayes.iterations, exp.iterations)
    assert bayes.sigma2 == pytest.approx((n - 1) / (n + 1), rel=1e-15)
    assert exp.sigma2 == 1.0
    np.testing.assert_allclose(variance_estimate(bayes).v_gbs * bayes.sigma2,
                               variance_estimate(exp).v_gbs * exp.sigma2,
                               rtol=RTOL, atol=0)
