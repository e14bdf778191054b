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


def newton_oracle(model, data, weights, init=None):
    """Damped Newton iteration on the weighted score with analytic Jacobian,
    from ``init`` (zeros if omitted)."""
    max_iter, max_halvings = solver.MAX_ITER, solver.MAX_HALVINGS
    weights = np.asarray(weights, float)
    beta = np.atleast_1d(np.asarray(
        np.zeros(model.p) if init is None else init, float)).copy()
    if not np.all(np.isfinite(beta)):
        raise EvaluationError("initial point is not finite")
    F = weighted_score(model, data, weights, beta)
    if not np.all(np.isfinite(F)):
        raise EvaluationError("score at the initial point is not finite")
    scale = 1.0 + float(np.max(np.abs(F)))
    tol = solver.TOL * scale

    for it in range(max_iter):
        res = float(np.max(np.abs(F)))
        if res <= tol:
            return Solution(beta, it)
        J = weighted_jacobian(model, data, weights, beta)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > COND_LIMIT:
            raise SingularSystemError(
                f"weighted Jacobian ill-conditioned at iteration {it}")
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
            raise NonConvergenceError(
                f"no descent after {max_halvings} halvings",
                last_beta=beta, residual_norm=res)

    res = float(np.max(np.abs(F)))
    if res <= tol:
        return Solution(beta, max_iter)
    raise NonConvergenceError(f"no convergence in {max_iter} iterations",
                              last_beta=beta, residual_norm=res)


def oracle_outcomes(systems, init):
    """``newton_oracle`` from ``init`` on each ``(model, data, weights)`` of
    ``systems``.

    Returns the roots (``init`` where the solve failed), the failure classes
    ("" if converged), the iteration counts (-1 on failure) and the condition
    numbers of the weighted Jacobians at the roots (NaN on failure).
    """
    betas, failures, iterations, conds = [], [], [], []
    for model, data, w in systems:
        try:
            sol = newton_oracle(model, data, w, init)
        except SOLVER_ERRORS as exc:
            betas.append(np.asarray(init, float))
            failures.append(type(exc).__name__)
            iterations.append(-1)
            conds.append(np.nan)
            continue
        betas.append(sol.beta)
        failures.append("")
        iterations.append(sol.iterations)
        conds.append(np.linalg.cond(weighted_jacobian(model, data, w, sol.beta)))
    return (np.array(betas), np.array(failures, dtype=object), np.array(iterations),
            np.array(conds))
