"""Special cases of the generalized bootstrap, and invariances of its
equation, that hold exactly up to the solver's stop rule.

Bayesian bootstrap (Rubin, Ann. Statist. 9, 1981): on one stream numpy's
``standard_gamma(1.0)`` returns ``standard_exponential``'s draws, so each
gbs-dirichlet:alpha=1 row is ``n E / sum E`` of the gbs-exp row drawn at the
same seed. ``sum_i w_i phi_i = 0`` does not change under a positive scaling
of w, so the two laws give the same roots, and their variance estimates
differ only by the weight variance sigma^2 = (n - 1) / (n + 1) that
``variance_estimate`` divides by.

Delete-d jackknife (Shao and Wu, Ann. Statist. 17, 1989): the law puts
n / (n - d) on each of n - d kept records, each subset with probability
1 / C(n, d), and has weight variance d / (n - d). So the enumerated variance
is ``(n - d) / (d C(n, d)) sum_s (theta_s - theta_hat)(theta_s - theta_hat)'``
with ``theta_s`` the refit on kept subset s.

Efron's bootstrap: a gbs-multinomial row is a vector of counts, and its root
is the refit on the records duplicated by their counts. Permuting the records
together with the weight columns leaves every root unchanged.

Each refit is ``newton_oracle``'s, on a dataset built from the kept or
duplicated records. An AR(1) lag pair cannot leave or repeat in its series,
so its delete-d refit drops the pair's term from the normal equation, as
criterion 1 does, and it has no Efron or permutation case.
"""

import itertools
import math

import numpy as np
import pytest

from gebs import engine
from gebs import models as M
from gebs import weights as W
from gebs.bench import GLM_BETA
from gebs.engine import exact_variance_enumeration, run_bootstrap, variance_estimate
from gebs.solver import TOL, solve_weighted, solve_weighted_batch
from block_sizes import spy_blocks
from newton_oracle import newton_oracle

N = 240
DRAWS = 500
SEED = 7
RTOL = 1e-12
JACKKNIFE_N = 10
# the arrays that hold one entry per weight slot
RECORDS = {"mean": ("z",), "linear": ("X", "y"), "logistic-group": ("N", "X", "Y"),
           "logistic": ("x_ind", "y_ind")}


def _case(name, n=N):
    r = np.random.default_rng(5)
    if name == "mean":
        return M.MeanModel(), M.Dataset(n=n, arrays={"z": r.standard_normal(n)})
    if name == "linear":
        return M.LinearModel(p=2), M.simulate_linear([1.0, -0.5], n, r)
    if name == "ar1":
        return M.Ar1Model(), M.simulate_ar1(0.3, 1.0, 4.0, n, r)
    fum = M.load_fumigant()
    if name == "logistic-group":
        return M.LogisticGroupModel(), fum   # the 10 fumigant dose groups
    # per-trial logistic on the fumigant design: 240 trials, 3-5 Newton steps
    return (M.LogisticIndividualModel(),
            M.simulate_glm(np.asarray(GLM_BETA), fum["N"], fum["X"], r))


def _records(name, data, rows):
    """A dataset of the records ``rows`` of ``data``, repeats kept."""
    return M.Dataset(n=len(rows), arrays={k: data[k][rows] for k in RECORDS[name]})


def _fit(model, data):
    return solve_weighted(model, data, np.ones(model.weight_count(data))).beta


def _assert_close(actual, expected, rtol):
    """Largest gap within ``rtol`` of the largest |entry| of ``expected``."""
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


@pytest.mark.parametrize("name", ["mean", "linear", "ar1", "logistic"])
def test_dirichlet_one_is_the_exponential_bootstrap_rescaled(monkeypatch, name):
    model, data = _case(name)
    n = model.weight_count(data)
    beta_hat = _fit(model, data)
    blocks = spy_blocks(monkeypatch, engine)
    bayes = run_bootstrap(model, data, beta_hat, W.dirichlet(n, 1.0), DRAWS, SEED)
    D = np.concatenate(blocks)
    blocks.clear()
    exp = run_bootstrap(model, data, beta_hat, W.iid_exponential(n), DRAWS, SEED)

    E = np.concatenate(blocks)
    np.testing.assert_allclose(D, n * E / E.sum(axis=1, keepdims=True), rtol=1e-14)
    np.testing.assert_allclose(bayes.betas, exp.betas, rtol=RTOL, atol=0)
    assert np.array_equal(bayes.outcomes, exp.outcomes)
    assert np.array_equal(bayes.iterations, exp.iterations)
    assert bayes.sigma2 == pytest.approx((n - 1) / (n + 1), rel=1e-15)
    assert exp.sigma2 == 1.0
    np.testing.assert_allclose(variance_estimate(bayes).v_gbs * bayes.sigma2,
                               variance_estimate(exp).v_gbs * exp.sigma2,
                               rtol=RTOL, atol=0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("name", ["mean", "linear", "ar1", "logistic-group"])
def test_delete_d_jackknife_enumeration_is_the_delete_d_estimator(name, d):
    n = JACKKNIFE_N
    model, data = _case(name, n)
    assert model.weight_count(data) == n
    beta_hat = _fit(model, data)
    scheme = W.delete_d_jackknife(n, d)
    assert W.central_moment(scheme, (2,)) == pytest.approx(d / (n - d), rel=1e-15)
    est = exact_variance_enumeration(model, data, beta_hat, scheme)
    assert est.fallback_frac == 0.0

    acc = np.zeros((model.p, model.p))
    for kept in map(list, itertools.combinations(range(n), n - d)):
        if name == "ar1":
            w = np.zeros(n)
            w[kept] = 1.0
            theta = newton_oracle(model, data, w, beta_hat).beta
        else:
            theta = newton_oracle(model, _records(name, data, kept), np.ones(n - d),
                                  beta_hat).beta
        acc += np.outer(theta - beta_hat, theta - beta_hat)
    # an iterated logistic root stops within TOL of the score scale, which the
    # weights n / (n - d) change, so the two solves may stop a step apart
    rtol = TOL if name == "logistic-group" else RTOL
    _assert_close(np.atleast_2d(est.v_gbs), (n - d) / (d * math.comb(n, d)) * acc, rtol)


def _multinomial_sample(monkeypatch, name):
    """A multinomial run of ``name``'s case and its (B, n) weight rows."""
    model, data = _case(name)
    n = model.weight_count(data)
    beta_hat = _fit(model, data)
    blocks = spy_blocks(monkeypatch, engine)
    sample = run_bootstrap(model, data, beta_hat, W.multinomial(n), DRAWS, SEED)
    assert sample.fallback_count == 0
    return model, data, sample, np.concatenate(blocks)


@pytest.mark.parametrize("name", ["mean", "linear", "logistic"])
def test_multinomial_roots_are_refits_on_duplicated_records(monkeypatch, name):
    model, data, sample, counts = _multinomial_sample(monkeypatch, name)
    assert np.array_equal(counts, np.rint(counts))
    n = counts.shape[1]
    refits = []
    for c in counts:
        duplicated = _records(name, data, np.repeat(np.arange(n), c.astype(int)))
        refits.append(newton_oracle(model, duplicated, np.ones(n), sample.beta_hat))
    _assert_close(sample.betas, np.array([r.beta for r in refits]), RTOL)
    assert np.array_equal(sample.iterations, [r.iterations for r in refits])


@pytest.mark.parametrize("name", ["mean", "linear", "logistic"])
def test_permuting_records_with_their_weights_keeps_the_roots(monkeypatch, name):
    model, data, sample, counts = _multinomial_sample(monkeypatch, name)
    perm = np.random.default_rng(11).permutation(counts.shape[1])
    betas, failures, iterations = solve_weighted_batch(
        model, _records(name, data, perm), counts[:, perm], sample.beta_hat)
    _assert_close(betas, sample.betas, RTOL)
    assert np.array_equal(failures, sample.outcomes)
    assert np.array_equal(iterations, sample.iterations)
