"""Independent per-draw reference for the batched Newton solver.

``newton_oracle`` is a scalar damped Newton iteration on one weight vector,
written directly against ``weighted_score`` and ``weighted_jacobian``: the
same stopping rule, conditioning guard and step-halving line search that
``solve_weighted_batch`` applies to every row of a block, with the same
``solver.TOL``, ``solver.MAX_ITER`` and ``solver.MAX_HALVINGS``, read at call
time so that a test can patch them for both. Tests compare the library's
solves with it draw by draw.
"""

import numpy as np

from gebs import solver
from gebs.errors import (SOLVER_ERRORS, EvaluationError, NonConvergenceError,
                         SingularSystemError)
from gebs.solver import COND_LIMIT, Solution, weighted_jacobian, weighted_score


def _failed(exc, beta, steps):
    """``exc`` carrying the last iterate and the accepted steps of the solve."""
    exc.last_beta, exc.steps = beta, steps
    return exc


def newton_oracle(model, data, weights, init=None):
    """Damped Newton iteration on the weighted score with analytic Jacobian,
    from ``init`` (zeros if omitted)."""
    max_iter, max_halvings = solver.MAX_ITER, solver.MAX_HALVINGS
    weights = np.asarray(weights, float)
    beta = np.atleast_1d(np.asarray(
        np.zeros(model.p) if init is None else init, float)).copy()
    if not np.all(np.isfinite(beta)):
        raise _failed(EvaluationError("initial point is not finite"), beta, 0)
    try:
        F = weighted_score(model, data, weights, beta)
    except EvaluationError as exc:
        raise _failed(exc, beta, 0)
    if not np.all(np.isfinite(F)):
        raise _failed(EvaluationError("score at the initial point is not finite"), beta, 0)
    scale = 1.0 + float(np.max(np.abs(F)))
    tol = solver.TOL * scale

    for it in range(max_iter):
        res = float(np.max(np.abs(F)))
        if res <= tol:
            return Solution(beta, it)
        J = weighted_jacobian(model, data, weights, beta)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > COND_LIMIT:
            raise _failed(SingularSystemError(
                f"weighted Jacobian ill-conditioned at iteration {it}"), beta, it)
        step = np.linalg.solve(J, -F)

        # step-halving line search on ||F||^2
        base = float(F @ F)
        lam, accepted = 1.0, False
        for _ in range(max_halvings + 1):
            trial = beta + lam * step
            if np.all(np.isfinite(trial)):
                try:
                    F_trial = weighted_score(model, data, weights, trial)
                except EvaluationError:
                    F_trial = None
                if F_trial is not None and np.all(np.isfinite(F_trial)) \
                        and float(F_trial @ F_trial) < base:
                    beta, F, accepted = trial, F_trial, True
                    break
            lam *= 0.5
        if not accepted:
            raise _failed(NonConvergenceError(
                f"no descent after {max_halvings} halvings", residual_norm=res), beta, it)

    res = float(np.max(np.abs(F)))
    if res <= tol:
        return Solution(beta, max_iter)
    raise _failed(NonConvergenceError(f"no convergence in {max_iter} iterations",
                                      residual_norm=res), beta, max_iter)


def oracle_exits(systems, init):
    """``newton_oracle`` from ``init`` on each ``(model, data, weights)`` of
    ``systems``.

    Returns each solve's last iterate (its root if it converged), failure
    class ("" if converged) and accepted steps, and the condition number of
    the weighted Jacobian at that iterate (NaN where it is not finite).
    """
    betas, failures, steps, conds = [], [], [], []
    for model, data, w in systems:
        try:
            sol = newton_oracle(model, data, w, init)
            beta, failure, step = sol.beta, "", sol.iterations
        except SOLVER_ERRORS as exc:
            beta, failure, step = exc.last_beta, type(exc).__name__, exc.steps
        betas.append(beta)
        failures.append(failure)
        steps.append(step)
        conds.append(_cond_at(model, data, w, beta))
    return (np.array(betas), np.array(failures, dtype=object), np.array(steps),
            np.array(conds))


def _cond_at(model, data, weights, beta):
    """Condition number of the weighted Jacobian at ``beta``; NaN where it
    cannot be evaluated or is not finite."""
    try:
        with np.errstate(all="ignore"):
            J = weighted_jacobian(model, data, weights, beta)
            return np.linalg.cond(J) if np.all(np.isfinite(J)) else np.nan
    except EvaluationError:
        return np.nan


def oracle_outcomes(systems, init):
    """``oracle_exits`` as a bootstrap sees it: the roots (``init`` where the
    solve failed), the failure classes, the iteration counts (-1 on failure)
    and the condition numbers at the roots (NaN on failure)."""
    betas, failures, steps, conds = oracle_exits(systems, init)
    failed = failures != ""
    betas[failed], steps[failed], conds[failed] = np.asarray(init, float), -1, np.nan
    return betas, failures, steps, conds
