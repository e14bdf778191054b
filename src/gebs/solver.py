"""Damped Newton solver for weighted estimating equations."""

from dataclasses import dataclass

import numpy as np

from .errors import (EvaluationError, NonConvergenceError, ParameterError,
                     ShapeError, SingularSystemError)

COND_LIMIT = 1e12


@dataclass
class SolveOptions:
    tol: float = 1e-10
    max_iter: int = 100
    max_halvings: int = 30
    init: np.ndarray = None

    def __post_init__(self):
        if not self.tol > 0:
            raise ParameterError(f"tol must be > 0, got {self.tol!r}")
        require_int("max_iter", self.max_iter, 1)
        require_int("max_halvings", self.max_halvings, 0)


def require_int(name, value, low):
    """Raise ``ParameterError`` unless ``value`` is a non-bool integer >= ``low``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ParameterError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class Solution:
    beta: np.ndarray
    residual_norm: float
    iterations: int
    jacobian_at_root: np.ndarray
    converged: bool


@dataclass
class BatchSolution:
    """Roots of B reweighted systems solved together."""

    betas: np.ndarray          # (B, p); a failed draw keeps its last iterate
    iterations: np.ndarray     # (B,) accepted Newton steps per draw
    failures: np.ndarray       # (B,) error class name per draw, "" if converged

    @property
    def converged(self):
        return self.failures == ""


def weighted_score(model, data, weights, beta):
    """Left-hand side of the weighted estimating equations."""
    weights = np.asarray(weights, float)
    if len(weights) != model.weight_count(data):
        raise ShapeError(f"weights length {len(weights)} != "
                         f"{model.weight_count(data)} score slots")
    return weights @ model.score_all(data, np.atleast_1d(np.asarray(beta, float)))


def weighted_jacobian(model, data, weights, beta):
    weights = np.asarray(weights, float)
    J = model.jacobian_all(data, np.atleast_1d(np.asarray(beta, float)))
    return np.tensordot(weights, J, axes=(0, 0))


def solve_weighted(model, data, weights, options=None):
    """Damped Newton iteration on the weighted score with analytic Jacobian."""
    opts = options or SolveOptions()
    weights = np.asarray(weights, float)
    beta = np.atleast_1d(np.asarray(
        opts.init if opts.init is not None else model.default_init(data), float)).copy()
    if not model.in_domain(data, beta):
        raise EvaluationError("initial point outside model domain")

    F = weighted_score(model, data, weights, beta)
    scale = 1.0 + float(np.max(np.abs(F)))
    tol = opts.tol * scale

    for it in range(opts.max_iter):
        res = float(np.max(np.abs(F)))
        if res <= tol:
            J = weighted_jacobian(model, data, weights, beta)
            return Solution(beta, res, it, J, True)
        J = weighted_jacobian(model, data, weights, beta)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > COND_LIMIT:
            raise SingularSystemError(
                f"weighted Jacobian ill-conditioned at iteration {it}")
        step = np.linalg.solve(J, -F)

        # step-halving line search on ||F||^2
        base = float(F @ F)
        lam, accepted = 1.0, False
        for _ in range(opts.max_halvings + 1):
            trial = beta + lam * step
            if model.in_domain(data, trial):
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
                f"no descent after {opts.max_halvings} halvings",
                last_beta=beta, residual_norm=res)

    res = float(np.max(np.abs(F)))
    if res <= tol:
        J = weighted_jacobian(model, data, weights, beta)
        return Solution(beta, res, opts.max_iter, J, True)
    raise NonConvergenceError(f"no convergence in {opts.max_iter} iterations",
                              last_beta=beta, residual_norm=res)


def solve_weighted_batch(model, data, W, init=None, options=None):
    """``solve_weighted`` for every row of the (B, n) weight matrix ``W`` at once.

    Each draw follows the per-draw rules: the same stopping rule,
    conditioning guard and step-halving line search, with an active mask so a
    draw leaves the iteration where ``solve_weighted`` would stop. Only the
    summation order of the weighted sums differs. Failures are recorded per
    draw by error class instead of raised.
    """
    opts = options or SolveOptions()
    W = np.asarray(W, float)
    if W.ndim != 2 or W.shape[1] != model.weight_count(data):
        raise ShapeError(f"weight matrix shape {W.shape} != (B, "
                         f"{model.weight_count(data)} score slots)")
    if init is None:
        init = opts.init if opts.init is not None else model.default_init(data)
    init = np.atleast_1d(np.asarray(init, float))
    B = W.shape[0]
    betas = np.tile(init, (B, 1))
    iterations = np.zeros(B, int)
    failures = np.full(B, "", dtype=object)
    if not model.in_domain(data, init):
        failures[:] = EvaluationError.__name__
        return BatchSolution(betas, iterations, failures)
    try:
        # every draw starts at ``init``: one score evaluation serves all B
        F = W @ model.score_all(data, init)
    except EvaluationError:
        failures[:] = EvaluationError.__name__
        return BatchSolution(betas, iterations, failures)
    tol = opts.tol * (1.0 + np.max(np.abs(F), axis=1))

    active = np.arange(B)
    for _ in range(opts.max_iter):
        active = active[~(np.max(np.abs(F[active]), axis=1) <= tol[active])]
        if active.size == 0:
            break
        J = model.weighted_jacobian_batch(data, W[active], betas[active])
        ok = np.all(np.isfinite(J), axis=(1, 2))
        ok[ok] = np.linalg.cond(J[ok]) <= COND_LIMIT
        failures[active[~ok]] = SingularSystemError.__name__
        active, J = active[ok], J[ok]
        if active.size == 0:
            break
        step = np.linalg.solve(J, -F[active][:, :, None])[:, :, 0]

        # step-halving line search on ||F||^2; all pending draws share lam
        base = np.sum(F[active] ** 2, axis=1)
        pending = np.arange(active.size)
        lam = 1.0
        for _ in range(opts.max_halvings + 1):
            rows = active[pending]
            trial = betas[rows] + lam * step[pending]
            F_trial = model.weighted_score_batch(data, W[rows], trial)
            good = (np.all(np.isfinite(F_trial), axis=1)
                    & (np.sum(F_trial ** 2, axis=1) < base[pending]))
            betas[rows[good]] = trial[good]
            F[rows[good]] = F_trial[good]
            pending = pending[~good]
            if pending.size == 0:
                break
            lam *= 0.5
        failures[active[pending]] = NonConvergenceError.__name__
        active = np.delete(active, pending)
        iterations[active] += 1

    unconverged = active[~(np.max(np.abs(F[active]), axis=1) <= tol[active])]
    failures[unconverged] = NonConvergenceError.__name__
    return BatchSolution(betas, iterations, failures)

