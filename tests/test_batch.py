"""Batched reweighted solve: agreement with the per-draw solver."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gebs import models as M
from gebs import solver
from gebs import weights as W
from gebs.engine import draw_rng, exact_variance_enumeration, run_bootstrap
from gebs.errors import SOLVER_ERRORS, DegenerateRunError, EvaluationError, ShapeError
from gebs.solver import COND_LIMIT, solve_weighted_batch, weighted_jacobian
from newton_oracle import newton_oracle, oracle_exits, oracle_outcomes

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


def assert_batch_matches_per_draw(model, data, Wm, init):
    """The batched solve of the rows of ``Wm`` against one newton_oracle call
    per row."""
    ref_betas, ref_failures, ref_iters, conds = oracle_outcomes(
        ((model, data, w) for w in Wm), init)
    betas, failures, iterations = solve_weighted_batch(model, data, Wm, init)
    assert list(failures) == list(ref_failures)
    ok = failures == ""
    assert np.array_equal(iterations[ok], ref_iters[ok])
    scale = 1.0 + np.max(np.abs(ref_betas[ok]), axis=1)
    dev = np.max(np.abs(betas[ok] - ref_betas[ok]), axis=1) / scale
    assert np.all(dev <= agreement_tol(conds[ok]))


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
    # the oracle reads the same constants, so both solve under the patch
    with mock.patch.object(solver, "MAX_ITER", max_iter), \
            mock.patch.object(solver, "MAX_HALVINGS", max_halvings):
        assert_batch_matches_per_draw(model, data, Wm, init)


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
    for w, prob in W.iter_support(scheme):
        try:
            sol = newton_oracle(model, data, w, beta_hat)
        except SOLVER_ERRORS:
            continue
        dev = sol.beta - beta_hat
        ref += prob * np.outer(dev, dev)
        worst_cond = max(worst_cond, np.linalg.cond(
            weighted_jacobian(model, data, w, sol.beta)))
    ref /= W.theoretical_moments(scheme).sigma2

    got = np.atleast_2d(exact_variance_enumeration(model, data, beta_hat, scheme).v_gbs)
    tol = 10 * agreement_tol(worst_cond)
    assert np.allclose(got, ref, rtol=tol, atol=tol * np.max(np.abs(ref)))


def test_init_outside_domain_fails_every_draw():
    model, data = M.IsomerizationModel(), M.load_isomerization()
    bad = np.array([30.0, 0.0, 0.0, 0.0])
    bad[1] = -(1.0 + bad[2] * data["P"][0] + bad[3] * data["I"][0]) / data["H"][0]
    with pytest.raises(EvaluationError):
        model.score_all(data, bad)
    # a rebuilt block is evaluated row by row, and each of its rows comes back NaN
    resid, rebuild = model.residual_resampler(data, np.array([35.9, 0.07, 0.04, 0.17]))
    block = rebuild(resid[np.random.default_rng(2).integers(0, data.n, (3, data.n))])
    # _sigmoid clips, so this logistic score is finite: only the init fails it
    logistic = (M.LogisticGroupModel(), M.load_fumigant(), np.array([np.inf, 0.0]))
    # a finite init whose score overflows fails too, rather than reading as converged
    linear = (M.LinearModel(), M.Dataset(3, arrays={"X": np.array([[2.0], [3.0], [4.0]]),
                                                    "y": np.ones(3)}), np.array([1e308]))
    for model, data, init in ((model, data, bad), (model, block, bad), logistic, linear):
        with np.errstate(over="ignore"):
            betas, failures, iterations = solve_weighted_batch(
                model, data, np.ones((3, data.n)), init)
        assert list(failures) == ["EvaluationError"] * 3
        assert np.array_equal(betas, np.tile(init, (3, 1)))
        assert np.array_equal(iterations, np.zeros(3, int))


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


@pytest.mark.parametrize("scheme_kind", ("multinomial", "exp"))
def test_slot_reduction_matches_unreduced_solve(scheme_kind):
    # per-trial fumigant weights summed into (cell, outcome) slots before the
    # Newton loop: the same outcomes, and roots equal up to rounding
    fum = M.load_fumigant()
    beta_hat = solver.solve_weighted(M.LogisticGroupModel(), fum, np.ones(fum.n)).beta
    model = M.LogisticIndividualModel()
    scheme = make_scheme(scheme_kind, model.weight_count(fum))
    Wm = np.stack([W.sample(scheme, draw_rng(5, b)) for b in range(512)])
    for init in (beta_hat, np.zeros(2)):
        betas, failures, iterations = solve_weighted_batch(model, fum, Wm, init)
        with mock.patch.object(M.LogisticIndividualModel, "slots", M.Model.slots):
            ref_betas, ref_failures, ref_iters = solve_weighted_batch(model, fum, Wm, init)
        assert list(failures) == list(ref_failures)
        assert np.array_equal(iterations, ref_iters)
        dev = np.max(np.abs(betas - ref_betas), axis=1) / np.max(np.abs(ref_betas), axis=1)
        assert np.all(dev <= 1e-12)


def test_batch_shape_check():
    model, data = make_case("mean", 5, 0)
    with pytest.raises(ShapeError):
        solve_weighted_batch(model, data, np.ones((2, 4)), np.zeros(1))


def test_misshaped_init_is_refused_before_any_evaluation():
    model, data = make_case("linear2", 6, 0)
    scheme = W.multinomial(6)
    no_evaluation = mock.patch.object(M.LinearModel, "score_all",
                                      side_effect=AssertionError("evaluated"))
    for init in (np.zeros(3), np.zeros((2, 2))):
        with no_evaluation, pytest.raises(ShapeError, match="init shape"):
            solve_weighted_batch(model, data, np.ones((2, 6)), init)
        with no_evaluation, pytest.raises(ShapeError, match="init shape"):
            solver.solve_weighted(model, data, np.ones(6), init)
        with no_evaluation, pytest.raises(ShapeError, match="init shape"):
            run_bootstrap(model, data, init, scheme, 10, seed=1)
        with no_evaluation, pytest.raises(ShapeError, match="init shape"):
            exact_variance_enumeration(model, data, init, W.delete_d_jackknife(6, 1))
    # a scalar init is a (1,) point for a one-parameter model
    model, data = make_case("mean", 6, 0)
    betas, failures, _ = solve_weighted_batch(model, data, np.ones((2, 6)), 0.0)
    assert list(failures) == ["", ""]
    assert betas == pytest.approx(np.full((2, 1), np.mean(data["z"])))
    assert solver.solve_weighted(model, data, np.ones(6), 0.0).beta.shape == (1,)


def assert_exits_match_per_draw(model, data, Wm, init):
    """Every row of the batched solve against its newton_oracle call, whatever
    its exit: the same failure class and accepted steps, and the last iterate
    within ``agreement_tol`` of the condition number there. Returns the rows'
    (failure, steps) pairs."""
    ref_betas, ref_failures, ref_steps, conds = oracle_exits(
        ((model, data.take(b), w) for b, w in enumerate(Wm)), init)
    betas, failures, iterations = solve_weighted_batch(model, data, Wm, init)
    assert list(failures) == list(ref_failures)
    assert np.array_equal(iterations, ref_steps)
    scale = 1.0 + np.max(np.abs(ref_betas), axis=1)
    dev = np.max(np.abs(betas - ref_betas), axis=1) / scale
    assert np.all(dev <= agreement_tol(np.where(np.isnan(conds), np.inf, conds)))
    return set(zip(failures, iterations.tolist()))


def test_every_exit_route_matches_per_draw():
    # grouped fumigant logistic from a far start, in one block: exponential
    # rows converge after 7 and 8 steps, run out of steps, find no descent
    # after the first step or turn singular after 4; a two-group and a
    # one-group row turn singular after 2 steps and at the start; a NaN
    # weight fails at init
    fum = M.load_fumigant()
    r = np.random.default_rng(0)
    Wm = np.vstack([r.exponential(size=(6, fum.n)), np.zeros((3, fum.n))])
    Wm[6, [0, 9]] = Wm[7, 0] = 1.0
    Wm[8] = 1.0
    Wm[8, 3] = np.nan
    with mock.patch.object(solver, "MAX_ITER", 10):
        exits = assert_exits_match_per_draw(M.LogisticGroupModel(), fum, Wm,
                                            np.array([-2.0, 4.0]))
    assert exits == {("NonConvergenceError", 1), ("NonConvergenceError", 10),
                     ("", 7), ("", 8), ("SingularSystemError", 4),
                     ("SingularSystemError", 2), ("SingularSystemError", 0),
                     ("EvaluationError", 0)}


class OvershootModel(M.IndexModel):
    """Test-only one-parameter index model over two slots whose root is 1 and
    whose Newton step from 0 overshoots it to t = 1 / (1 - k / 2), k = W[b, 1]
    / W[b, 0]. The second slot's score is 0 below 2 and inf from 2, NaN from 3
    and 1e300 from 4, so a full step to t >= 2 meets each of those."""

    p = 1

    def design(self, data):
        return np.ones((data.n, 1))

    def factor(self, data, T):
        m = np.zeros_like(T)
        m[..., 0] = T[..., 0] - 1.0
        t = T[..., 1]
        m[..., 1] = np.select([t >= 4, t >= 3, t >= 2], [1e300, np.nan, np.inf], 0.0)
        return m

    def slope(self, data, T):
        # not the derivative of factor: the Jacobian W[b, 0] - W[b, 1] / 2 is
        # what makes the step overshoot
        s = np.empty_like(T)
        s[..., 0], s[..., 1] = -1.0, 0.5
        return s


def test_full_step_scores_that_are_not_finite_or_overflow_match_per_draw():
    # full steps to t = 1.5, 2.5, 3.5, 5 and 20: a finite score, inf, NaN and
    # two finite scores whose squares overflow; at weight scale 1e200 the
    # squared score at init, the line search's base, is inf as well
    model, data = OvershootModel(), M.Dataset(n=2)
    k = 2.0 - 2.0 / np.array([1.5, 2.5, 3.5, 5.0, 20.0])
    Wm = np.vstack([np.column_stack([np.ones(5), k]) * scale for scale in (1.0, 1e200)])
    init = np.zeros(1)
    with np.errstate(over="ignore"):
        F0 = model.weighted_score_batch(data, Wm, np.zeros((10, 1)))
        full = -F0 / model.weighted_jacobian_batch(data, Wm, np.zeros((10, 1)))[:, 0]
        F_full = model.weighted_score_batch(data, Wm, full)[:, 0]
        assert np.all(np.isfinite(F0)) and np.isinf((F0 * F0)[5:]).all()
        assert np.isfinite(F_full[[0, 3, 4]]).all() and np.isinf(F_full[[3, 4]] ** 2).all()
        assert np.isinf(F_full[[1, 6, 8, 9]]).all() and np.isnan(F_full[[2, 7]]).all()
        exits = assert_exits_match_per_draw(model, data, Wm, init)
    # every scale-1 row converges; at scale 1e200 no trial score has a finite
    # square, so no row descends
    assert exits == {("", 17), ("", 33), ("", 78), ("NonConvergenceError", 0)}


def test_rebuilt_block_exits_match_per_draw():
    # a rebuilt isomerization rb block without the NLS hook: one draw
    # converges, three turn singular and the rest run out of steps, so the
    # solve drops the block's data rows at several iterations
    model, data = M.IsomerizationModel(), M.load_isomerization()
    beta_hat = np.array([35.92, 0.0708, 0.0377, 0.167])
    resid, rebuild = model.residual_resampler(data, beta_hat)
    resid = resid - resid.mean()
    block = rebuild(np.stack([draw_rng(1, b).choice(resid, size=data.n) for b in range(16)]))
    exits = assert_exits_match_per_draw(model, block, np.ones((16, data.n)), beta_hat)
    assert exits == {("", 25), ("SingularSystemError", 40), ("SingularSystemError", 61),
                     ("SingularSystemError", 71), ("NonConvergenceError", 100)}


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
    with mock.patch.object(solver, "MAX_ITER", max_iter):
        assert_batch_matches_per_draw(model, data, Wm, np.zeros(2))


def test_index_model_jacobian_matches_central_differences():
    model, data = poisson_case(20, 3)
    beta, h = np.array([0.4, 0.8]), 1e-6
    ana = model.jacobian_all(data, beta)
    num = np.stack([(model.score_all(data, beta + h * e) - model.score_all(data, beta - h * e))
                    / (2 * h) for e in np.eye(2)], axis=2)
    assert np.max(np.abs(num - ana)) / (1.0 + np.max(np.abs(ana))) <= 1e-5
