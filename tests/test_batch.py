"""Batched reweighted solve: agreement with the per-draw solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebs import models as M
from gebs import weights as W
from gebs.engine import draw_rng, exact_variance_enumeration, run_bootstrap
from gebs.errors import SOLVER_ERRORS, DegenerateRunError, ShapeError
from gebs.solver import COND_LIMIT, SolveOptions, solve_weighted, solve_weighted_batch

MODELS = ("mean", "linear1", "linear2", "linear3", "ar1",
          "logistic-group", "logistic-individual")
SCHEMES = ("multinomial", "delete-d", "dirichlet", "exp")


def make_case(name, n, seed):
    r = np.random.default_rng(seed)
    if name == "mean":
        return M.MeanModel(), M.Dataset(n=n, arrays={"z": r.standard_normal(n)})
    if name.startswith("linear"):
        p = int(name[-1])
        return M.LinearModel(p=p), M.simulate_linear(np.linspace(1.0, -1.0, p), n, r)
    if name == "ar1":
        return M.Ar1Model(), M.simulate_ar1(0.3, 1.0, 4.0, n, r)
    glm = M.simulate_glm([-1.0, 2.0], np.full(n, 8), np.linspace(-1.0, 1.0, n), r)
    if name == "logistic-group":
        return M.LogisticGroupModel(), glm
    return M.LogisticIndividualModel(), glm


def make_scheme(kind, n):
    if kind == "multinomial":
        return W.multinomial(n)
    if kind == "delete-d":
        return W.delete_d_jackknife(n, n // 2)
    if kind == "dirichlet":
        return W.dirichlet(n, 1.0)
    return W.iid_exponential(n)


def per_draw(model, data, Wm, init, options):
    """Reference: one solve_weighted call per row."""
    betas, failures, iterations, conds = [], [], [], []
    for w in Wm:
        try:
            sol = solve_weighted(model, data, w, options)
        except SOLVER_ERRORS as exc:
            betas.append(np.full(len(init), np.nan))
            failures.append(type(exc).__name__)
            iterations.append(-1)
            conds.append(np.nan)
            continue
        betas.append(sol.beta)
        failures.append("")
        iterations.append(sol.iterations)
        conds.append(np.linalg.cond(sol.jacobian_at_root))
    return np.array(betas), np.array(failures, dtype=object), np.array(iterations), np.array(conds)


def agreement_tol(cond):
    # 1e-12 relative; a nearly singular system (a logistic draw close to
    # separation, where P(1 - P) underflows) fixes its root only to about
    # cond(J) rounding units, up to the solver's own singularity limit
    return np.maximum(1e-12, 1e-14 * np.minimum(cond, COND_LIMIT))


@given(model_name=st.sampled_from(MODELS), scheme_kind=st.sampled_from(SCHEMES),
       n=st.integers(4, 16), seed=st.integers(0, 2 ** 16),
       start=st.sampled_from((0.0, 3.0)), max_iter=st.sampled_from((100, 2)),
       max_halvings=st.sampled_from((30, 0)))
@settings(max_examples=100)
def test_batch_matches_per_draw(model_name, scheme_kind, n, seed, start, max_iter,
                                max_halvings):
    # a far start makes logistic Newton steps overshoot, so the line search halves
    model, data = make_case(model_name, n, seed)
    scheme = make_scheme(scheme_kind, model.weight_count(data))
    Wm = np.stack([W.sample(scheme, draw_rng(seed, b)) for b in range(12)])
    init = start * (-1.0) ** np.arange(model.p)
    opts = SolveOptions(max_iter=max_iter, max_halvings=max_halvings, init=init)
    ref_betas, ref_failures, ref_iters, conds = per_draw(model, data, Wm, init, opts)

    sol = solve_weighted_batch(model, data, Wm, init, opts)
    assert list(sol.failures) == list(ref_failures)
    ok = sol.converged
    assert np.array_equal(sol.iterations[ok], ref_iters[ok])
    scale = 1.0 + np.max(np.abs(ref_betas[ok]), axis=1)
    dev = np.max(np.abs(sol.betas[ok] - ref_betas[ok]), axis=1) / scale
    assert np.all(dev <= agreement_tol(conds[ok]))


@given(model_name=st.sampled_from(MODELS), n=st.integers(4, 7),
       d=st.integers(1, 3), multinomial=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=30)
def test_blocked_enumeration_matches_per_atom(model_name, n, d, multinomial, seed):
    model, data = make_case(model_name, n, seed)
    slots = model.weight_count(data)
    if slots > 8:
        multinomial, d = False, 1   # keep the support small
    scheme = W.multinomial(slots) if multinomial else W.delete_d_jackknife(slots, min(d, slots - 1))
    beta_hat = np.zeros(model.p)

    ref = np.zeros((model.p, model.p))
    worst_cond = 1.0
    for w, prob in W.enumerate_support(scheme):
        try:
            sol = solve_weighted(model, data, w, SolveOptions(init=beta_hat))
        except SOLVER_ERRORS:
            continue
        dev = sol.beta - beta_hat
        ref += prob * np.outer(dev, dev)
        worst_cond = max(worst_cond, np.linalg.cond(sol.jacobian_at_root))
    ref /= W.theoretical_moments(scheme).sigma2

    got = np.atleast_2d(exact_variance_enumeration(model, data, beta_hat, scheme).v_gbs)
    tol = 10 * agreement_tol(worst_cond)
    assert np.allclose(got, ref, rtol=tol, atol=tol * np.max(np.abs(ref)))


def test_init_outside_domain_fails_every_draw():
    model, data = M.IsomerizationModel(), M.load_isomerization()
    Wm = np.ones((3, data.n))
    bad = np.array([30.0, 0.0, 0.0, 0.0])
    bad[1] = -(1.0 + bad[2] * data["P"][0] + bad[3] * data["I"][0]) / data["H"][0]
    assert not model.in_domain(data, bad)
    sol = solve_weighted_batch(model, data, Wm, bad)
    assert list(sol.failures) == ["EvaluationError"] * 3
    assert not sol.converged.any()


def test_default_batch_methods_match_per_row():
    # the base-class batch methods serve models without an override
    model, data = M.IsomerizationModel(), M.load_isomerization()
    r = np.random.default_rng(1)
    Wm = r.exponential(size=(4, data.n))
    betas = np.array([35.9, 0.07, 0.04, 0.17]) + r.uniform(-0.01, 0.01, (4, 4))
    F = model.weighted_score_batch(data, Wm, betas)
    J = model.weighted_jacobian_batch(data, Wm, betas)
    for b in range(4):
        assert F[b] == pytest.approx(Wm[b] @ model.score_all(data, betas[b]))
        assert J[b] == pytest.approx(np.tensordot(Wm[b], model.jacobian_all(data, betas[b]),
                                                  axes=(0, 0)))
    betas[2, 0] = np.nan
    assert np.isnan(model.weighted_score_batch(data, Wm, betas)[2]).all()


def test_vectorized_overrides_mark_nonfinite_rows():
    model, data = make_case("logistic-individual", 5, 0)
    Wm = np.ones((2, model.weight_count(data)))
    betas = np.array([[0.0, 1.0], [np.inf, 0.0]])
    F = model.weighted_score_batch(data, Wm, betas)
    assert np.all(np.isfinite(F[0])) and np.isnan(F[1]).all()
    assert np.isnan(model.weighted_jacobian_batch(data, Wm, betas)[1]).all()


def test_batch_shape_check():
    model, data = make_case("mean", 5, 0)
    with pytest.raises(ShapeError):
        solve_weighted_batch(model, data, np.ones((2, 4)))


def test_run_bootstrap_records_iterations_and_failure_classes():
    model, data = make_case("mean", 10, 3)
    sample = run_bootstrap(model, data, np.zeros(1), W.multinomial(10), 50, seed=1)
    assert np.array_equal(sample.iterations, np.ones(50, int))
    assert sample.failures == {}

    x = np.random.default_rng(2).standard_normal(20)
    twin = M.Dataset(n=20, arrays={"X": np.column_stack([x, x]),
                                   "y": x + np.random.default_rng(3).standard_normal(20)})
    with pytest.raises(DegenerateRunError) as exc:
        run_bootstrap(M.LinearModel(p=2), twin, np.zeros(2), W.multinomial(20), 30, seed=4)
    assert exc.value.sample.failures == {"SingularSystemError": 30}
    assert exc.value.sample.fallback_count == 30


class PoissonLogModel(M.IndexModel):
    """Test-only log-link Poisson regression given by three index hooks."""

    p = 2

    def design(self, data):
        return data["X"]

    def factor(self, data, T):
        return data["y"] - np.exp(T)

    def slope(self, data, T):
        return np.exp(T)


def poisson_case(n, seed):
    r = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), r.uniform(-1.0, 1.0, n)])
    y = r.poisson(np.exp(X @ np.array([0.5, 1.0]))).astype(float)
    return PoissonLogModel(), M.Dataset(n=n, arrays={"X": X, "y": y})


@pytest.mark.parametrize("scheme_kind", SCHEMES)
@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("max_iter", (100, 4))
def test_index_model_hooks_batch_matches_per_draw(scheme_kind, seed, max_iter):
    # Newton takes 3 to 6 steps here, so max_iter=4 leaves some draws unconverged
    model, data = poisson_case(20, seed)
    Wm = np.stack([W.sample(make_scheme(scheme_kind, data.n), draw_rng(seed, b))
                   for b in range(24)])
    opts = SolveOptions(init=np.zeros(2), max_iter=max_iter)
    ref_betas, ref_failures, ref_iters, conds = per_draw(model, data, Wm, opts.init, opts)

    sol = solve_weighted_batch(model, data, Wm, opts.init, opts)
    assert list(sol.failures) == list(ref_failures)
    ok = sol.converged
    assert np.array_equal(sol.iterations[ok], ref_iters[ok])
    scale = 1.0 + np.max(np.abs(ref_betas[ok]), axis=1)
    dev = np.max(np.abs(sol.betas[ok] - ref_betas[ok]), axis=1) / scale
    assert np.all(dev <= agreement_tol(conds[ok]))


def test_index_model_jacobian_matches_central_differences():
    model, data = poisson_case(20, 3)
    beta, h = np.array([0.4, 0.8]), 1e-6
    ana = model.jacobian_all(data, beta)
    num = np.stack([(model.score_all(data, beta + h * e) - model.score_all(data, beta - h * e))
                    / (2 * h) for e in np.eye(2)], axis=2)
    assert np.max(np.abs(num - ana)) / (1.0 + np.max(np.abs(ana))) <= 1e-5
