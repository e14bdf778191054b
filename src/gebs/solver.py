"""Damped Newton solver for weighted estimating equations."""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (EvaluationError, NonConvergenceError, ShapeError,
                     SingularSystemError)

COND_LIMIT = 1e12
TOL = 1e-10          # relative to 1 + the largest score component at ``init``
MAX_ITER = 100
MAX_HALVINGS = 30


@dataclass
class Solution:
    beta: np.ndarray
    iterations: int


def _checked(model, data, weights, beta):
    weights = np.asarray(weights, float)
    if len(weights) != model.weight_count(data):
        raise ShapeError(f"weights length {len(weights)} != "
                         f"{model.weight_count(data)} score slots")
    return weights, np.atleast_1d(np.asarray(beta, float))


def weighted_score(model, data, weights, beta):
    """Left-hand side of the weighted estimating equations."""
    weights, beta = _checked(model, data, weights, beta)
    return weights @ model.score_all(data, beta)


def weighted_jacobian(model, data, weights, beta):
    weights, beta = _checked(model, data, weights, beta)
    return np.tensordot(weights, model.jacobian_all(data, beta), axes=(0, 0))


def solve_weighted(model, data, weights, init=None):
    """Damped Newton iteration on one weight vector from ``init`` (zeros if
    omitted): the one-row case of ``solve_weighted_batch``. Raises the
    failure class recorded for the row (a ``NonConvergenceError`` carries the
    last iterate and its residual), else returns ``Solution(beta,
    iterations)`` and evaluates nothing more at the root."""
    init = np.zeros(model.p) if init is None else init
    betas, failures, iterations = solve_weighted_batch(
        model, data, np.asarray(weights, float)[None], init)
    beta, failure, iterations = betas[0], failures[0], int(iterations[0])
    if failure == EvaluationError.__name__:
        raise EvaluationError("model evaluation failed at the initial point")
    if failure == SingularSystemError.__name__:
        raise SingularSystemError(f"weighted Jacobian ill-conditioned at step {iterations}")
    if failure:
        res = float(np.max(np.abs(weighted_score(model, data, weights, beta))))
        raise NonConvergenceError(f"no convergence after {iterations} steps",
                                  last_beta=beta, residual_norm=res)
    return Solution(beta, iterations)


def well_conditioned(J):
    """``np.linalg.cond(J) <= COND_LIMIT`` for a (B, p, p) stack, False for
    every matrix that is not finite, with no SVD for p <= 2, so the solver
    makes no finite pass of its own. For p = 1 it is that J is finite and
    non-zero. The 2-norm condition number c = sigma_1 / sigma_2 of a 2 x 2
    matrix has ||J||_F^2 / |det J| = c + 1/c, so ``||J||_F^2 < COND_LIMIT
    |det J|`` decides it except within 1 / COND_LIMIT of the limit, and a zero
    determinant fails. Each matrix is first divided by its largest |entry|,
    which leaves c as it is, so that no square overflows; an inf or NaN entry
    makes that quotient or the determinant NaN, and the comparison fails. For
    p > 2 it is ``np.linalg.cond`` on the finite matrices only, so LAPACK
    never sees an inf or NaN."""
    p = J.shape[-1]
    if p == 1:
        a = np.abs(J[:, 0, 0])
        return (a > 0) & (a < np.inf)
    if p > 2:
        ok = np.isfinite(J).all(axis=(1, 2))
        ok[ok] = np.linalg.cond(J[ok]) <= COND_LIMIT
        return ok
    J = J.reshape(len(J), 4)
    A = np.abs(J)
    a, b, c, d = A.T   # views of A's columns: |J|, then J scaled, then its squares
    with np.errstate(invalid="ignore"):   # a zero or non-finite matrix scales to nan and fails
        np.divide(J, _row_max(A)[:, None], out=A)
    det = np.abs(a * d - b * c)
    A *= A
    return a + b + c + d < COND_LIMIT * det   # added in A.sum(axis=1)'s order


def _row_max(A):
    """``A.max(axis=1)`` of a (B, p) array, one ``np.maximum`` per column:
    numpy reduces a short axis one row at a time, ten times slower at (500, 2)."""
    return reduce(np.maximum, A.T)


def solve_weighted_batch(model, data, W, init):
    """Damped Newton iteration for every row of the (B, n) weight matrix ``W``
    at once, each from ``init``; the default ``solve_fn`` block hook. ``init``
    is a (p,) point, or a scalar when p = 1; any other shape raises
    ``ShapeError`` before the model is evaluated.

    A draw fails at ``init`` with ``EvaluationError`` when ``init`` or its
    score there is not finite, or when that score raises ``EvaluationError``.
    Each draw stops when its score is within ``TOL``, fails with
    ``SingularSystemError`` when its Jacobian is ill-conditioned, and takes a
    step-halving line search on ||F||^2; it fails with ``NonConvergenceError``
    when no step descends or when ``MAX_ITER`` steps leave it short of ``TOL``.
    Returns ``(betas, failures, iterations)``: the (B, p) roots (a failed draw
    keeps its last iterate), each draw's error class ("" if it converged) and
    its accepted Newton steps. Shared data is first reduced by
    ``model.slots``; on a rebuilt block (``data.drawn``) data row b belongs to
    draw b.

    The draws still iterating form a working set, compacted in draw order;
    a draw's iterate, steps and failure class are written back only when it
    leaves it. Each iteration tries the full Newton step on the whole set
    first, and only the draws that reject it enter the step-halving loop.
    Each model evaluation receives exactly the rows of the draws it serves,
    in draw order: a block's BLAS sums can differ in the last bits when its
    row set changes, so this fixes the roots' bits. With p = 1 the Newton
    step is the division -F / J, LAPACK's 1 x 1 solve bit for bit; from
    p = 2 it is ``np.linalg.solve``. The solver has no settings besides
    ``init``: ``TOL`` (relative to 1 + the largest score component at
    ``init``), ``MAX_ITER``, ``MAX_HALVINGS`` and the ``well_conditioned``
    guard's ``COND_LIMIT`` are module constants.
    """
    W = np.asarray(W, float)
    width = model.weight_count(data)
    if W.ndim != 2 or W.shape[1] != width:
        raise ShapeError(f"weight matrix shape {W.shape} != (B, {width} score slots)")
    init = np.atleast_1d(np.asarray(init, float))
    if init.shape != (model.p,):
        raise ShapeError(f"init shape {init.shape} != ({model.p},) parameters")
    if not data.drawn and (slots := model.slots(data)) is not None:
        data, W = slots[0], W @ slots[1]
    B = W.shape[0]
    betas = np.tile(init, (B, 1))
    iterations = np.zeros(B, int)
    failures = np.full(B, "", dtype=object)
    F = np.full(betas.shape, np.nan)
    if np.all(np.isfinite(init)):
        try:
            # every draw starts at ``init``: on shared data one score evaluation serves all B
            F = (model.weighted_score_batch(data, W, betas) if data.drawn
                 else W @ model.score_all(data, init))
        except EvaluationError:
            pass

    # the working set: the draws still iterating, compacted in draw order,
    # with their weight and data rows, iterates, scores and tolerances
    rows, beta = np.arange(B), betas.copy()
    tol = TOL * (1.0 + _row_max(np.abs(F)))

    def leave(out, failure):
        """Write back the outcome of the working-set draws ``out`` and drop them."""
        nonlocal rows, W, beta, F, tol, data
        if out.any():
            gone, keep = rows[out], ~out
            betas[gone], iterations[gone], failures[gone] = beta[out], k, failure
            rows, W, beta, F, tol = rows[keep], W[keep], beta[keep], F[keep], tol[keep]
            data = data.take(keep)

    k = 0
    leave(~np.isfinite(tol), EvaluationError.__name__)   # the rows of a non-finite score
    for k in range(MAX_ITER + 1):
        leave(_row_max(np.abs(F)) <= tol, "")
        if k == MAX_ITER or rows.size == 0:
            break
        J = model.weighted_jacobian_batch(data, W, beta)
        ok = well_conditioned(J)
        if not ok.all():
            leave(~ok, SingularSystemError.__name__)
            J = J[ok]
            if rows.size == 0:
                break
        if J.shape[1] == 1:
            # LAPACK's 1 x 1 solve is this division bit for bit
            # (tests/test_solver.py), at a twentieth of its cost; like
            # np.linalg.solve it lets a step overflow to inf silently
            with np.errstate(over="ignore"):
                step = -F / J[:, 0]
        else:
            step = np.linalg.solve(J, -F[:, :, None])[:, :, 0]

        # step-halving line search on ||F||^2, all pending draws sharing lam;
        # the full step first, which usually every draw takes as it is. A
        # trial score holding an inf or NaN has an inf or NaN ||F||^2, which
        # is never below ``base``, even when ``base`` itself is inf
        base = (F * F).sum(axis=1)
        trial = beta + step
        F_trial = model.weighted_score_batch(data, W, trial)
        good = (F_trial * F_trial).sum(axis=1) < base
        if good.all():
            beta, F = trial, F_trial
            continue
        beta[good], F[good] = trial[good], F_trial[good]
        stuck, lam = ~good, 1.0
        for _ in range(MAX_HALVINGS):
            lam *= 0.5
            pending = np.flatnonzero(stuck)
            trial = beta[pending] + lam * step[pending]
            F_trial = model.weighted_score_batch(data.take(pending), W[pending], trial)
            good = (F_trial * F_trial).sum(axis=1) < base[pending]
            took = pending[good]
            beta[took], F[took], stuck[took] = trial[good], F_trial[good], False
            if not stuck.any():
                break
        leave(stuck, NonConvergenceError.__name__)
    leave(np.ones(rows.size, bool), NonConvergenceError.__name__)
    return betas, failures, iterations
