"""Damped Newton solver for weighted estimating equations.

Each solver test runs against the library's ``solve_weighted`` and the
independent scalar ``newton_oracle`` alike.
"""

from unittest import mock

import numpy as np
import pytest

from gebs import models as M
from gebs import solver
from gebs.errors import (EvaluationError, NonConvergenceError, ShapeError,
                         SingularSystemError)
from gebs.solver import solve_weighted, weighted_jacobian, weighted_score
from newton_oracle import newton_oracle

SOLVERS = (solve_weighted, newton_oracle)


def rng(seed=0):
    return np.random.default_rng(seed)


def test_weighted_score_shape_check():
    data = M.Dataset(n=4, arrays={"z": np.arange(4.0)})
    with pytest.raises(ShapeError):
        weighted_score(M.MeanModel(), data, np.ones(3), [0.0])


def test_weighted_jacobian_shape_check():
    data = M.Dataset(n=5, arrays={"z": np.arange(5.0)})
    with pytest.raises(ShapeError):
        weighted_jacobian(M.MeanModel(), data, np.ones(4), [0.0])


def test_mean_model_weighted_root():
    z = np.array([1.0, 2.0, 3.0, 10.0])
    w = np.array([1.0, 2.0, 0.5, 0.5])
    data = M.Dataset(n=4, arrays={"z": z})
    for solve in SOLVERS:
        sol = solve(M.MeanModel(), data, w)
        assert sol.beta[0] == pytest.approx(np.sum(w * z) / np.sum(w), abs=1e-9)
        J = weighted_jacobian(M.MeanModel(), data, w, sol.beta)
        assert J[0, 0] == pytest.approx(-np.sum(w))


def test_linear_model_matches_weighted_lstsq():
    data = M.simulate_linear([1.0, -2.0, 0.5], 30, rng(1))
    w = rng(2).uniform(0.5, 1.5, 30)
    X, y = data["X"], data["y"]
    expect = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
    for solve in SOLVERS:
        assert solve(M.LinearModel(p=3), data, w).beta == pytest.approx(expect, abs=1e-8)


def test_ar1_closed_form():
    data = M.simulate_ar1(0.3, 1.0, 4.0, 50, rng(3))
    x = data["x"]
    expect = np.sum(x[:-1] * x[1:]) / np.sum(x[:-1] ** 2)
    for solve in SOLVERS:
        sol = solve(M.Ar1Model(), data, np.ones(50), np.array([0.0]))
        assert sol.beta[0] == pytest.approx(expect, abs=1e-10)


def test_logistic_group_fit_recovers_signal():
    beta = np.array([-1.0, 2.0])
    data = M.simulate_glm(beta, np.full(40, 50), np.linspace(-1, 2, 40), rng(4))
    for solve in SOLVERS:
        sol = solve(M.LogisticGroupModel(), data, np.ones(40), np.zeros(2))
        assert sol.beta == pytest.approx(beta, abs=0.3)


def test_singular_system_detected():
    # duplicate column makes the normal equations exactly singular
    X = np.column_stack([np.ones(10), np.ones(10)])
    data = M.Dataset(n=10, arrays={"X": X, "y": rng(5).standard_normal(10)})
    for solve in SOLVERS:
        with pytest.raises(SingularSystemError):
            solve(M.LinearModel(p=2), data, np.ones(10))


def test_nonconvergence_reports_last_iterate():
    data = M.simulate_glm([-1.0, 2.0], np.full(40, 50), np.linspace(-1, 2, 40), rng(6))
    for solve in SOLVERS:
        with mock.patch.object(solver, "MAX_ITER", 1), \
                mock.patch.object(solver, "TOL", 1e-14), \
                pytest.raises(NonConvergenceError) as exc:
            solve(M.LogisticGroupModel(), data, np.ones(40), np.zeros(2))
        assert exc.value.last_beta is not None
        assert exc.value.residual_norm > 0


def test_initial_point_outside_domain():
    data = M.load_isomerization()
    bad = np.array([35.0, -1.0 / float(data["H"][0]), 0.0, 0.0])
    # _sigmoid clips, so this logistic score is finite: only the init fails it
    logistic = (M.LogisticGroupModel(), M.load_fumigant(), np.array([np.inf, 0.0]))
    for model, data, init in ((M.IsomerizationModel(), data, bad), logistic):
        for solve in SOLVERS:
            with pytest.raises(EvaluationError):
                solve(model, data, np.ones(data.n), init)


def test_weighted_jacobian_is_weight_linear():
    data = M.simulate_linear([1.0, 2.0], 12, rng(7))
    model = M.LinearModel(p=2)
    beta = np.array([1.0, 2.0])
    w = rng(8).uniform(0.5, 1.5, 12)
    J = weighted_jacobian(model, data, w, beta)
    J_manual = np.sum(w[:, None, None] * model.jacobian_all(data, beta), axis=0)
    assert J == pytest.approx(J_manual)


def rotations(angles):
    c, s = np.cos(angles), np.sin(angles)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def test_closed_form_guard_agrees_with_svd_condition_number():
    gen = rng(9)
    B = 4000
    sigma = np.zeros((B, 2, 2))
    sigma[:, 0, 0] = 1.0
    sigma[:, 1, 1] = 10.0 ** -gen.uniform(0.0, 16.0, B)   # cond log-uniform in 1..1e16
    J = rotations(gen.uniform(0, 2 * np.pi, B)) @ sigma @ rotations(gen.uniform(0, 2 * np.pi, B))
    J[:, 0] *= gen.choice([-1.0, 1.0], B)[:, None]          # both signs of det
    J *= 10.0 ** gen.uniform(-3.0, 3.0, B)[:, None, None]
    huge = J / np.max(np.abs(J), axis=(1, 2))[:, None, None] * 1e200
    special = np.array([
        [[1.0, 2.0], [2.0, 4.0]],            # exactly singular
        [[0.0, 0.0], [0.0, 0.0]],            # zero matrix
        [[0.0, 0.0], [1.0, -3.0]],           # zero row
        [[3.0, 0.0], [0.0, 0.0]],
        [[1e200, 2e200], [3e200, 4e200]],
        [[1e200, 1e200], [1e200, 1e200]],
        [[1e200, -1e200], [1e200, 1e200]],
        [[1e-200, 0.0], [0.0, 1e-200]],
        [[1.0, 0.0], [0.0, 1e-12 * 1.01]],
        [[1.0, 0.0], [0.0, 1e-12 * 0.99]],
    ])
    scalars = np.concatenate([gen.standard_normal(50), [0.0, -0.0, 1e-300, 1e200]])
    decided = []
    for stack in (J, huge, special, scalars[:, None, None]):
        cond = np.linalg.cond(stack)
        clear = np.abs(cond - solver.COND_LIMIT) > 1e-3 * solver.COND_LIMIT
        assert np.array_equal(solver.well_conditioned(stack)[clear],
                              (cond <= solver.COND_LIMIT)[clear])
        decided.append(cond[clear] <= solver.COND_LIMIT)
    assert np.any(decided[0]) and not np.all(decided[0])
    assert decided[2].tolist() == [False] * 4 + [True, False, True, True, True, False]


def non_finite_stack(p):
    """A well-conditioned p x p matrix with inf, -inf and NaN in turn in each
    entry: 3 p^2 matrices, then the finite one."""
    base = np.eye(p) + 0.25 * np.arange(p * p).reshape(p, p) / (p * p)
    stack = []
    for i in range(p):
        for j in range(p):
            for v in (np.inf, -np.inf, np.nan):
                bad = base.copy()
                bad[i, j] = v
                stack.append(bad)
    return np.stack([*stack, base])


@pytest.mark.parametrize("p", (1, 2, 3))
def test_guard_fails_every_non_finite_matrix(p):
    ok = solver.well_conditioned(non_finite_stack(p))
    assert ok.tolist() == [False] * (3 * p * p) + [True]


@pytest.mark.parametrize("p", (1, 2, 3))
def test_guard_keeps_finite_verdicts_in_a_mixed_stack(p):
    # finite matrices spread over condition numbers 1..1e16 and a zero one,
    # shuffled among non-finite ones: each finite one gets the verdict it
    # gets alone, and np.linalg.cond never sees a non-finite matrix
    gen = rng(11)
    finite = gen.standard_normal((60, p, p))
    finite[:, 0] *= 10.0 ** -gen.uniform(0.0, 16.0, 60)[:, None]
    finite[0] = 0.0
    stack = np.concatenate([finite, non_finite_stack(p)[:-1]])
    order = gen.permutation(len(stack))
    seen, svd_cond = [], np.linalg.cond

    def cond(J):
        seen.append(np.all(np.isfinite(J)))
        return svd_cond(J)

    with mock.patch.object(np.linalg, "cond", cond):
        mixed = solver.well_conditioned(stack[order])
        alone = solver.well_conditioned(finite)
    got = np.empty(len(stack), bool)
    got[order] = mixed
    assert np.array_equal(got[:60], alone)
    assert not got[60:].any()
    assert alone.any() and not alone.all()
    assert all(seen) and (p > 2) == bool(seen)


@pytest.mark.parametrize("exponents", [(-300, 301), (-1074, 1024)])
def test_one_parameter_step_division_equals_lapack_solve(exponents):
    # solve_weighted_batch takes a one-parameter Newton step as -F / J; a
    # LAPACK whose 1 x 1 solve rounds otherwise would change roots, so it
    # fails here first. The full range takes in subnormal, zero and inf steps.
    gen = rng(10)
    B = 200_000

    def spread(shape):
        return (gen.uniform(1.0, 2.0, shape) * 2.0 ** gen.integers(*exponents, shape)
                * gen.choice([-1.0, 1.0], shape))

    J, F = spread((B, 1, 1)), spread((B, 1))
    with np.errstate(over="ignore"):
        step = -F / J[:, 0]
    assert step.tobytes() == np.linalg.solve(J, -F[:, :, None])[:, :, 0].tobytes()
