"""Damped Newton solver for weighted estimating equations."""

import numpy as np
import pytest

from gebs import models as M
from gebs.errors import (EvaluationError, NonConvergenceError, ParameterError,
                         ShapeError, SingularSystemError)
from gebs.solver import SolveOptions, solve_weighted, weighted_jacobian, weighted_score


def rng(seed=0):
    return np.random.default_rng(seed)


def test_options_validation():
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(ParameterError):
            SolveOptions(tol=tol)
    for bad in (0, 2.5, 2.0, True, "3"):
        with pytest.raises(ParameterError):
            SolveOptions(max_iter=bad)
    for bad in (-1, 1.5, True, None):
        with pytest.raises(ParameterError):
            SolveOptions(max_halvings=bad)
    opts = SolveOptions(max_iter=np.int64(5), max_halvings=0)
    assert (opts.max_iter, opts.max_halvings) == (5, 0)


def test_weighted_score_shape_check():
    data = M.Dataset(n=4, arrays={"z": np.arange(4.0)})
    with pytest.raises(ShapeError):
        weighted_score(M.MeanModel(), data, np.ones(3), [0.0])


def test_mean_model_weighted_root():
    z = np.array([1.0, 2.0, 3.0, 10.0])
    w = np.array([1.0, 2.0, 0.5, 0.5])
    data = M.Dataset(n=4, arrays={"z": z})
    sol = solve_weighted(M.MeanModel(), data, w)
    assert sol.converged
    assert sol.beta[0] == pytest.approx(np.sum(w * z) / np.sum(w), abs=1e-9)
    assert sol.jacobian_at_root[0, 0] == pytest.approx(-np.sum(w))


def test_linear_model_matches_weighted_lstsq():
    data = M.simulate_linear([1.0, -2.0, 0.5], 30, rng(1))
    w = rng(2).uniform(0.5, 1.5, 30)
    sol = solve_weighted(M.LinearModel(p=3), data, w)
    X, y = data["X"], data["y"]
    expect = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    assert sol.beta == pytest.approx(expect, abs=1e-8)


def test_ar1_closed_form():
    data = M.simulate_ar1(0.3, 1.0, 4.0, 50, rng(3))
    x = data["x"]
    sol = solve_weighted(M.Ar1Model(), data, np.ones(50),
                         SolveOptions(init=np.array([0.0])))
    expect = np.sum(x[:-1] * x[1:]) / np.sum(x[:-1] ** 2)
    assert sol.beta[0] == pytest.approx(expect, abs=1e-10)


def test_logistic_group_fit_recovers_signal():
    beta = np.array([-1.0, 2.0])
    data = M.simulate_glm(beta, np.full(40, 50), np.linspace(-1, 2, 40), rng(4))
    sol = solve_weighted(M.LogisticGroupModel(), data, np.ones(40),
                         SolveOptions(init=np.zeros(2)))
    assert sol.converged
    assert sol.beta == pytest.approx(beta, abs=0.3)


def test_singular_system_detected():
    # duplicate column makes the normal equations exactly singular
    X = np.column_stack([np.ones(10), np.ones(10)])
    data = M.Dataset(n=10, arrays={"X": X, "y": rng(5).standard_normal(10)})
    with pytest.raises(SingularSystemError):
        solve_weighted(M.LinearModel(p=2), data, np.ones(10))


def test_nonconvergence_reports_last_iterate():
    data = M.simulate_glm([-1.0, 2.0], np.full(40, 50), np.linspace(-1, 2, 40), rng(6))
    with pytest.raises(NonConvergenceError) as exc:
        solve_weighted(M.LogisticGroupModel(), data, np.ones(40),
                       SolveOptions(init=np.zeros(2), max_iter=1, tol=1e-14))
    assert exc.value.last_beta is not None
    assert exc.value.residual_norm > 0


def test_initial_point_outside_domain():
    data = M.load_isomerization()
    model = M.IsomerizationModel()
    bad = np.array([35.0, -1.0 / float(data["H"][0]), 0.0, 0.0])
    with pytest.raises(EvaluationError):
        solve_weighted(model, data, np.ones(24), SolveOptions(init=bad))


def test_weighted_jacobian_is_weight_linear():
    data = M.simulate_linear([1.0, 2.0], 12, rng(7))
    model = M.LinearModel(p=2)
    beta = np.array([1.0, 2.0])
    w = rng(8).uniform(0.5, 1.5, 12)
    J = weighted_jacobian(model, data, w, beta)
    J_manual = np.sum(w[:, None, None] * model.jacobian_all(data, beta), axis=0)
    assert J == pytest.approx(J_manual)
